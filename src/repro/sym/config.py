"""Kernel launch configuration and symbolic environment construction.

Builds the parametric thread's view of the CUDA built-ins: ``tid``/``bid``
components are symbolic variables constrained by the (concrete)
``blockDim``/``gridDim`` — the key trick that lets two parametric threads
stand in for hundreds of thousands (paper §IV-A).
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
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


#: fields that never leave the process: the GKLEE(p) engines set
#: ``flow_combining``, concrete array contents are attached worker-side
#: and assumptions are terms
OFF_WIRE = frozenset(("flow_combining", "array_values", "assumptions"))
#: wire fields that are pure accelerators: they must never change a
#: verdict, so no fingerprint hashes them
ACCELERATORS = frozenset(("solver_cache_dir",))
#: per-query SAT conflict budget when ``solver_conflict_budget`` is unset
DEFAULT_CONFLICT_BUDGET = 200_000


#: value types that are their own JSON form
_PLAIN = frozenset((bool, int, float, str, list, type(None)))


def _encode(value):
    """The JSON form of one config value: tuples become lists, sets
    sort, maps sort by key, a shard selector serialises itself."""
    kind = type(value)
    if kind in _PLAIN:
        return value
    if kind is tuple:
        return list(value)
    if kind is dict:
        return dict(sorted(value.items()))
    if kind is set or kind is frozenset:
        return sorted(value)
    return value.to_dict()


def _decode_dim3(value) -> Dim3:
    return _dim3(value if isinstance(value, int)
                 else [int(v) for v in value])


#: wire field -> decoder of its JSON value (identity when absent)
_DECODE = {
    "grid_dim": _decode_dim3,
    "block_dim": _decode_dim3,
    "symbolic_inputs": set,
    "scalar_values": dict,
    "array_sizes": dict,
    "shard": dict,
}


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
    #: and the interval OOB fast path. ``False`` is the unpruned
    #: reference path of the equivalence tests.
    pair_pruning: bool = True
    #: tier 0 of the tiered checker (:mod:`repro.static`): on an
    #: enumerable execution record, decide each candidate pair by
    #: enumeration first and solve only the pairs that leave the
    #: decidable fragment. ``False`` is the solver-only reference path
    #: the tier equivalence tests compare against.
    static_tier: bool = True
    #: swarm mode: a serialised :class:`repro.sym.swarm.ShardSelector`
    #: (or the selector itself) restricting the race check to one
    #: shard's ordinal ranges. ``None`` checks the whole pair space.
    shard: Optional[object] = None
    #: per-query SAT conflict budget. ``None``: the engine default,
    #: :data:`DEFAULT_CONFLICT_BUDGET`; any other value also keeps the
    #: solver-less static tier out of the way.
    solver_conflict_budget: Optional[int] = None
    #: the :class:`repro.service.cache.ResultCache` directory for a
    #: stream job's launch and launch-pair verdicts (the wire name
    #: predates that use). ``None``: a stream job replays nothing. This
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

    @property
    def conflict_budget(self) -> int:
        """The per-query SAT conflict budget in force."""
        if self.solver_conflict_budget is None:
            return DEFAULT_CONFLICT_BUDGET
        return self.solver_conflict_budget

    # -- copy, wire form, fingerprint, checks --------------------------

    def copy(self) -> "LaunchConfig":
        """A copy whose top-level sets, maps and lists are its own:
        engines write into the config they are given (SESA fills in
        ``symbolic_inputs``, the GKLEE(p) engines ``flow_combining``)."""
        return replace(
            self,
            symbolic_inputs=(set(self.symbolic_inputs)
                             if self.symbolic_inputs is not None else None),
            scalar_values=dict(self.scalar_values),
            array_sizes=dict(self.array_sizes),
            array_values=dict(self.array_values),
            assumptions=list(self.assumptions),
            shard=(dict(self.shard) if isinstance(self.shard, dict)
                   else self.shard))

    def to_dict(self) -> dict:
        """The wire form: every field outside :data:`OFF_WIRE`, as JSON
        values (:class:`repro.service.JobSpec` carries it flat)."""
        return {name: _encode(getattr(self, name)) for name in WIRE_FIELDS}

    def fingerprint(self) -> dict:
        """The verdict-determining subset of the wire form: everything
        but the :data:`ACCELERATORS`. Cache keys hash this dict."""
        return {name: _encode(getattr(self, name))
                for name in FINGERPRINT_FIELDS}

    @classmethod
    def from_dict(cls, data: dict) -> "LaunchConfig":
        """Rebuild a config from its wire form. Keys outside the wire
        form are ignored (a flat job spec carries its own), and a
        missing key or a JSON ``null`` means the field's default."""
        kw = {}
        for name in WIRE_FIELDS:
            value = data.get(name)
            if value is not None:
                decode = _DECODE.get(name)
                kw[name] = decode(value) if decode else value
        return cls(**kw)

    def validate(self) -> None:
        """Reject settings no launch can run under (:class:`ValueError`
        naming the field): degenerate geometry, non-integer value maps,
        non-positive caps and budgets, a malformed shard."""
        for name, dim in (("grid_dim", self.grid_dim),
                          ("block_dim", self.block_dim)):
            if any(not isinstance(v, int) or v < 1 for v in dim):
                raise ValueError(f"{name} {dim!r} must be positive integers")
        if not isinstance(self.warp_size, int) or self.warp_size < 1:
            raise ValueError(
                f"warp_size {self.warp_size!r} must be a positive integer")
        for what, mapping in (("scalar_values", self.scalar_values),
                              ("array_sizes", self.array_sizes)):
            for key, value in mapping.items():
                if not isinstance(key, str) \
                        or not isinstance(value, int) \
                        or isinstance(value, bool):
                    raise ValueError(
                        f"{what}[{key!r}] = {value!r} must map a "
                        f"parameter name to an integer")
        for what in ("max_loop_splits", "max_flows", "max_steps"):
            value = getattr(self, what)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{what} {value!r} must be a positive "
                                 f"integer")
        seconds = self.time_budget_seconds
        if seconds is not None \
                and (not isinstance(seconds, (int, float)) or seconds <= 0):
            raise ValueError(
                f"time_budget_seconds {seconds!r} must be positive")
        if isinstance(self.shard, dict):
            from .swarm import ShardSelector
            ShardSelector.from_dict(self.shard)
        conflicts = self.solver_conflict_budget
        if conflicts is not None \
                and (not isinstance(conflicts, int)
                     or isinstance(conflicts, bool) or conflicts < 0):
            raise ValueError(f"solver_conflict_budget {conflicts!r} must "
                             f"be a non-negative integer")


#: the wire form's fields, in declaration order
WIRE_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in fields(LaunchConfig) if f.name not in OFF_WIRE)
#: the fingerprint's fields: the wire form minus the accelerators
FINGERPRINT_FIELDS: Tuple[str, ...] = tuple(
    name for name in WIRE_FIELDS if name not in ACCELERATORS)


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
