"""Kernel launch configuration and symbolic environment construction.

Builds the parametric thread's view of the CUDA built-ins: ``tid``/``bid``
components are symbolic variables constrained by the (concrete)
``blockDim``/``gridDim`` — the key trick that lets two parametric threads
stand in for hundreds of thousands (paper §IV-A).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..smt import TRUE, Term, mk_and, mk_bv, mk_bv_var, mk_ult

Dim3 = Tuple[int, int, int]


def _dim3(value) -> Dim3:
    if isinstance(value, int):
        return (value, 1, 1)
    t = tuple(value)
    while len(t) < 3:
        t += (1,)
    return t  # type: ignore[return-value]


@dataclass
class LaunchConfig:
    """Everything the analyser needs about one kernel launch."""

    grid_dim: Dim3 = (1, 1, 1)
    block_dim: Dim3 = (64, 1, 1)
    warp_size: int = 32
    #: assume SIMD lock-step ordering within a warp. Off by default: the
    #: paper's §II warns that compilers may legally treat the warp size
    #: as 1, so the safe default checks races under that view (this is
    #: how the Fig. 8 histo_prescan race — threads 1 and 17, same warp —
    #: is reportable at all).
    warp_lockstep: bool = False

    #: which kernel parameters to treat as symbolic. ``None`` means
    #: "the engine decides" (SESA: taint analysis; GKLEEp: caller must set)
    symbolic_inputs: Optional[Set[str]] = None
    #: concrete values for non-symbolic scalar parameters
    scalar_values: Dict[str, int] = field(default_factory=dict)
    #: element counts for pointer parameters (default: total threads)
    array_sizes: Dict[str, int] = field(default_factory=dict)
    #: concrete contents for non-symbolic pointer parameters
    array_values: Dict[str, List[int]] = field(default_factory=dict)
    #: extra user assumptions over input variables (terms)
    assumptions: List[Term] = field(default_factory=list)

    #: execution budgets
    max_flows: int = 512
    max_loop_splits: int = 64
    max_steps: int = 2_000_000
    #: wall-clock cap for execution + checking combined (None: unlimited).
    #: Plays the role of the paper's 3,600 s timeout.
    time_budget_seconds: float = None
    check_oob: bool = True
    #: SESA flow combining: drop merged values that feed no sink
    flow_combining: bool = True
    #: pre-solver pruning pipeline: record-time access summarization,
    #: disjointness-bucketed pair generation, canonical pair memoization
    #: and the interval OOB fast path. The escape hatch
    #: (``--no-pruning``) exists for differential testing.
    pair_pruning: bool = True
    #: tier 0 of the tiered checker (:mod:`repro.static`): try a
    #: solver-less static verdict first and escalate to the parametric
    #: engine only when the kernel leaves the decidable fragment. The
    #: escape hatch (``--no-static-tier``) restores the exact prior
    #: single-tier pipeline.
    static_tier: bool = True
    #: swarm mode: a serialised :class:`repro.sym.swarm.ShardSelector`
    #: (or the selector itself) restricting the race check to one
    #: shard's ordinal ranges. ``None`` checks the whole pair space.
    shard: Optional[object] = None
    #: per-query SAT conflict budget override (portfolio variants run
    #: the same shard under different budgets). ``None``: caller's
    #: default (200k conflicts).
    solver_conflict_budget: Optional[int] = None
    #: directory for cross-run solver warm-start artifacts (preamble
    #: CNF snapshots, learned clauses, memoized verdicts — see
    #: :mod:`repro.smt.persist`). ``None`` disables persistence. This
    #: is a pure accelerator: it is deliberately NOT part of any cache
    #: fingerprint, because it must never change a verdict.
    solver_cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        self.grid_dim = _dim3(self.grid_dim)
        self.block_dim = _dim3(self.block_dim)

    @property
    def threads_per_block(self) -> int:
        x, y, z = self.block_dim
        return x * y * z

    @property
    def num_blocks(self) -> int:
        x, y, z = self.grid_dim
        return x * y * z

    @property
    def total_threads(self) -> int:
        return self.threads_per_block * self.num_blocks

    def extent(self, name: str) -> int:
        """The launch extent bounding the built-in coordinate *name*:
        ``tid.<axis>`` by ``blockDim``, ``bid.<axis>`` by ``gridDim``."""
        prefix, axis = name.split(".")
        dims = self.block_dim if prefix == "tid" else self.grid_dim
        return dims["xyz".index(axis)]

    def default_array_size(self) -> int:
        # headroom above the thread count: kernels commonly read a
        # neighbourhood or two elements per thread
        return max(4 * self.total_threads, 256)

    def default_scalar(self, name: str) -> int:
        return self.scalar_values.get(name, self.total_threads)


class SymbolicEnv:
    """The built-in variables of one parametric thread.

    Components whose dimension is 1 collapse to the constant 0; the rest
    are fresh variables bounded by the configuration. ``bounds()`` yields
    the standing assumptions ``tid.* < bdim.*`` / ``bid.* < gdim.*``.
    """

    AXES = ("x", "y", "z")

    def __init__(self, config: LaunchConfig, suffix: str = "") -> None:
        self.config = config
        self.suffix = suffix
        self.builtins: Dict[str, Term] = {}
        self._bounds: List[Term] = []
        for i, axis in enumerate(self.AXES):
            bdim = config.block_dim[i]
            gdim = config.grid_dim[i]
            self.builtins[f"bdim.{axis}"] = mk_bv(bdim, 32)
            self.builtins[f"gdim.{axis}"] = mk_bv(gdim, 32)
            self.builtins[f"tid.{axis}"] = self._coord(
                f"tid.{axis}", bdim)
            self.builtins[f"bid.{axis}"] = self._coord(
                f"bid.{axis}", gdim)
        self.builtins["warpSize"] = mk_bv(config.warp_size, 32)

    def _coord(self, name: str, extent: int) -> Term:
        if extent <= 1:
            return mk_bv(0, 32)
        var = mk_bv_var(f"{name}{self.suffix}", 32)
        self._bounds.append(mk_ult(var, mk_bv(extent, 32)))
        return var

    def lookup(self, name: str) -> Term:
        try:
            return self.builtins[name]
        except KeyError:
            raise KeyError(f"unknown builtin {name}") from None

    def bounds(self) -> List[Term]:
        return list(self._bounds)

    def thread_vars(self) -> Dict[str, Term]:
        """The symbolic tid/bid components (non-collapsed only)."""
        out = {}
        for name, term in self.builtins.items():
            if term.is_var():
                out[name] = term
        return out
