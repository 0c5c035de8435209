"""Static analysis passes (the paper's §V pipeline)."""
from .manager import (
    PassManager, compile_module, remove_unreachable_blocks, standard_pipeline,
)
from .mem2reg import mem2reg
from .usedef import UseDef
from .liveness import Liveness
from .alias import (
    address_space, gep_chain, index_values, is_shared_or_global, root_object,
)
from .taint import (
    ControlDependence, InputVerdict, TaintAnalysis, TaintReport,
    analyze_taint,
)
from .uniform import UniformityAnalysis, check_barrier_uniformity
from .annotate import annotate_flow_merging

__all__ = [
    "PassManager", "compile_module", "remove_unreachable_blocks",
    "standard_pipeline",
    "mem2reg", "UseDef", "Liveness", "address_space", "gep_chain",
    "index_values", "is_shared_or_global", "root_object",
    "ControlDependence", "InputVerdict", "TaintAnalysis", "TaintReport",
    "analyze_taint", "annotate_flow_merging", "UniformityAnalysis",
    "check_barrier_uniformity",
]
