"""The parametric symbolic VM: executor, memory model, race checking."""
from .access import Access, AccessKind, AccessSet, SummaryInfo, summarize_access_set
from .config import LaunchConfig, SymbolicEnv
from .executor import (
    BudgetExhausted, ExecutionError, ExecutionResult, Executor,
)
from .memory import (
    MemoryObject, ObjectLog, WriteRecord, contains_havoc, is_havoc_term,
    make_havoc,
)
from .pairs import MAX_REPORTS
from .races import (
    AssertionReport, CheckStats, OOBReport, RaceChecker, RaceReport,
    RaceWitness,
)
from .flowtree import render_flow_tree
from .resolvable import ResolvabilityReport, analyze_resolvability
from .swarm import (
    ShardOutcome, ShardSelector, merge_shard_outcomes, plan_partitions,
    validate_partition,
)
from .state import FlowState
from .value import Pointer, SymValue, fit_width, width_of

__all__ = [
    "Access", "AccessKind", "AccessSet", "SummaryInfo",
    "summarize_access_set", "LaunchConfig", "SymbolicEnv",
    "BudgetExhausted", "ExecutionError", "ExecutionResult", "Executor",
    "MemoryObject", "ObjectLog", "WriteRecord", "contains_havoc",
    "is_havoc_term", "make_havoc", "MAX_REPORTS", "AssertionReport", "CheckStats", "OOBReport", "RaceChecker",
    "RaceReport", "RaceWitness", "ResolvabilityReport",
    "analyze_resolvability", "render_flow_tree", "FlowState", "Pointer", "SymValue",
    "fit_width", "width_of",
    "ShardOutcome", "ShardSelector", "merge_shard_outcomes",
    "plan_partitions", "validate_partition",
]
