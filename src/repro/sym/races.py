"""Parametric race checking (paper §IV-B) plus out-of-bounds checking.

The barrier interval's conditional access sets are instantiated over two
symbolic threads ``t1 != t2`` and every write/other pair is checked for
address overlap with the SMT solver. Warp semantics:

* ``warp_size = 1`` — any unordered overlapping pair with a write races.
* ``warp_size = 32`` — threads of the same warp run in lock-step, so an
  intra-warp pair races only when (a) both sides write at the *same*
  instruction (simultaneous SIMD write), or (b) the two accesses sit in
  *divergent* branches of the warp (their guards are mutually exclusive
  for a single thread), whose execution order is unspecified (§II).

Write/write races additionally get a *benign* classification: if the two
writes provably store the same value whenever they collide, the paper's
tables mark them "W/W (Benign)".

Each distinct race is reported once (:class:`~repro.sym.pairs.ReportKeys`):
the same source-line pair recurs in pair after pair across flows, and a
pair whose report key already has a harmful report is not solved.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .. import ir
from ..smt import (
    FALSE, Model, QueryMemo, Solver, SolverStats, TRUE, Term, mk_and,
    mk_bv, mk_eq, mk_not, mk_udiv, mk_ule, simplify,
)
from ..smt.affine import affine_decompose, equality_forces_equal_components
from ..smt.interval import Interval
from ..smt.terms import Op, mk_add, mk_mul
from .access import Access, AccessKind
from .executor import ExecutionResult
from .memory import MemoryObject, contains_havoc
from .pairs import (
    _MISS, MAX_REPORTS, PairDischarge, PairSide, ReportKeys, race_kind, site,
    witness_inputs,
)
from .swarm import ShardSelector

#: a pair's discharge step: ``(a1, a2, same_bi)`` -> None (no race) or
#: ``(witness model, benign)``
Discharge = Callable[[Access, Access, bool], Optional[Tuple[Model, bool]]]
#: an access's out-of-bounds discharge step: ``access`` -> None (in
#: bounds) or a witness model of the overrun
OOBDischarge = Callable[[Access], Optional[Model]]


@dataclass
class RaceWitness:
    """Concrete thread/block coordinates exhibiting an issue."""

    thread1: Tuple[int, int, int]
    block1: Tuple[int, int, int]
    thread2: Optional[Tuple[int, int, int]] = None
    block2: Optional[Tuple[int, int, int]] = None
    inputs: Dict[str, int] = field(default_factory=dict)

    def __str__(self) -> str:
        def fmt(t, b):
            return f"block {b} thread {t}"
        out = fmt(self.thread1, self.block1)
        if self.thread2 is not None:
            out += f" vs {fmt(self.thread2, self.block2)}"
        if self.inputs:
            ins = ", ".join(f"{k}={v}" for k, v in sorted(self.inputs.items()))
            out += f" with {ins}"
        return out


@dataclass
class RaceReport:
    """One data race."""

    kind: str                  # "WW", "RW", "WR", "AW", ...
    obj_name: str
    access1: Access
    access2: Access
    benign: bool = False
    intra_warp: bool = False
    witness: Optional[RaceWitness] = None
    unresolvable: bool = False   # guards/addresses contain havocked values
    #: position of the pair in the canonical enumeration — lets a swarm
    #: merge reconstruct the sequential checker's report order exactly
    ordinal: Optional[int] = None

    def describe(self) -> str:
        flavour = " (benign)" if self.benign else ""
        warp = " [intra-warp]" if self.intra_warp else ""
        locs = f"lines {self.access1.loc}/{self.access2.loc}"
        out = (f"{self.kind} race{flavour}{warp} on {self.obj_name} "
               f"({locs})")
        if self.witness is not None:
            out += f": {self.witness}"
        return out


@dataclass
class OOBReport:
    """An out-of-bounds access."""

    obj_name: str
    access: Access
    size_bytes: int
    witness: Optional[RaceWitness] = None

    def describe(self) -> str:
        out = (f"out-of-bounds {self.access.kind.value} on {self.obj_name} "
               f"(size {self.size_bytes} B, line {self.access.loc})")
        if self.witness is not None:
            out += f": {self.witness}"
        return out


@dataclass
class AssertionReport:
    """A violated ``assert()``: some thread can reach it with the claim
    false."""

    loc: Optional[int]
    witness: Optional[RaceWitness] = None

    def describe(self) -> str:
        out = f"assertion violation at line {self.loc}"
        if self.witness is not None:
            out += f": {self.witness}"
        return out


@dataclass
class CheckStats:
    pairs_considered: int = 0
    #: pairs skipped because their report key already has a harmful
    #: report, or has a benign one and the pair cannot be harmful
    known_key_skips: int = 0
    queries: int = 0
    races_found: int = 0
    oob_found: int = 0
    by_affine: int = 0   # pairs discharged by the affine fast path
    by_memo: int = 0     # queries answered from the cross-query memo
    preamble_reuse: int = 0   # queries served by an existing session
    div_cache_hits: int = 0   # cached divergence (guard-pair) checks
    sessions_created: int = 0
    # -- pre-solver pruning pipeline ----------------------------------
    dedup_skipped: int = 0        # loop-invariant duplicates dropped
    summarized_accesses: int = 0  # records collapsed into summaries
    bucketed_out: int = 0         # pairs pruned by address disjointness
    pair_memo_hits: int = 0       # isomorphic pairs replayed, not solved
    oob_pruned: int = 0           # OOB queries skipped: provably in-bounds
    # -- tiered checking (repro.static) --------------------------------
    tier: str = "parametric"      # which tier produced this verdict
    static_resolved: int = 0      # 1 when every pair was enumerated
    static_pairs_checked: int = 0     # pairs handed to enumeration
    static_pairs_discharged: int = 0  # ... and decided by it
    #: why the record was not enumerable, or the first reason a pair
    #: fell back to the solver (None: resolved / tier disabled)
    static_bail_reason: Optional[str] = None
    # -- per-phase wall clock (seconds) -------------------------------
    # disjoint: their sum never exceeds the report's elapsed_seconds
    #: the static tier's enumeration, carved out of solve_seconds
    static_seconds: float = 0.0
    execute_seconds: float = 0.0
    pairgen_seconds: float = 0.0
    #: the pair, OOB and assertion steps, enumeration excluded
    solve_seconds: float = 0.0
    #: per-query solver dispatch counters, merged across all queries
    solver: SolverStats = field(default_factory=SolverStats)
    #: how the executor's branch-feasibility checks were answered
    feasibility: SolverStats = field(default_factory=SolverStats)


class RaceChecker(PairDischarge):
    """Checks one :class:`ExecutionResult` for races and OOB accesses.

    The two sides are two threads of the one launch (``!1`` / ``!2``)
    sharing one interval analysis. On top of the shared pair steps this
    client owns the intra-launch rules: the different-thread preamble,
    the affine fast path, the warp-aware split and the shard ordinals.
    """

    def __init__(self, result: ExecutionResult,
                 solver_budget: Optional[int] = 200_000,
                 max_reports: int = MAX_REPORTS,
                 extra_assumptions: Optional[List[Term]] = None,
                 sessions: Optional[Dict[Tuple[int, ...], Solver]] = None,
                 memo: Optional[QueryMemo] = None) -> None:
        # callers running the checker repeatedly over near-identical
        # programs (the CEGIS repair loop) pass shared sessions / memo
        # so warm sessions and memoized verdicts carry across re-checks
        super().__init__(solver_budget, sessions, memo)
        self.result = result
        self.config = result.config
        self.env = result.env
        self.max_reports = max_reports
        # swarm mode: restrict the pair walk to this shard's ordinal
        # ranges (None: the whole enumeration, the sequential default)
        self.shard = self.config.shard
        if isinstance(self.shard, dict):
            self.shard = ShardSelector.from_dict(self.shard)
        self.plan_mismatch = False
        self._current_ordinal: Optional[int] = None
        self.extra_assumptions: List[Term] = list(extra_assumptions or ())
        self.pruning = self.config.pair_pruning
        self.stats = CheckStats()
        self.stats.dedup_skipped = result.dedup_skipped
        self.stats.summarized_accesses = result.summarized_accesses
        self.stats.execute_seconds = result.elapsed_seconds
        self.stats.feasibility = result.feasibility.copy()
        self.races: List[RaceReport] = []
        self._keys = ReportKeys()
        self._screen_benign_copies = True
        self.oobs: List[OOBReport] = []
        self.assertion_failures: List[AssertionReport] = []
        # two instantiations of the parametric thread; their summary
        # index variables are per side too (each thread may be at a
        # different unrolled iteration)
        self._side1 = PairSide(result, "!1")
        self._side2 = PairSide(result, "!2", shared=self._side1)
        self._summary_bounds = self._side1.summary_bounds
        self._div_cache: Dict[int, bool] = {}
        # the canonical pair memo and the per-run affine verdicts
        self._pair_memo: Dict[tuple, Optional[tuple]] = {}
        self._affine_verdicts: Dict[tuple, bool] = {}
        self._race_pre_cache: Dict[tuple, List[Term]] = {}
        self._spine_cache: Dict[int, Tuple[Set[int], Set[int]]] = {}

    # ------------------------------------------------------------------

    def _var(self, which: int, name: str) -> Term:
        side = self._side1 if which == 1 else self._side2
        return side.vars.get(name, mk_bv(0, 32))

    def _bounds(self) -> List[Term]:
        return self._side1.bounds + self._side2.bounds + \
            list(self.config.assumptions) + self.extra_assumptions

    # -- query preambles ---------------------------------------------------
    # Each returns the fixed conjunct prefix shared by a family of
    # queries; the incremental path blasts it once per distinct prefix.

    def _race_preamble(self, obj: MemoryObject) -> List[Term]:
        # cached per object: the list object's identity then keys the
        # per-preamble machinery (pkey, flattened-spine sets) for free.
        # extra_assumptions are fixed for the lifetime of one check()
        # walk (the repair loop builds a fresh checker per iteration).
        key = (id(obj), len(self.extra_assumptions))
        pre = self._race_pre_cache.get(key)
        if pre is None:
            pre = self._bounds() + [self._different_thread(obj)]
            self._race_pre_cache[key] = pre
        return pre

    def _single_preamble(self) -> List[Term]:
        """Preamble for one-thread queries (assertions, OOB)."""
        key = ("single", len(self.extra_assumptions))
        pre = self._race_pre_cache.get(key)
        if pre is None:
            pre = self._side1.bounds + list(self.config.assumptions) + \
                self.extra_assumptions
            self._race_pre_cache[key] = pre
        return pre

    def _div_preamble(self) -> List[Term]:
        """Preamble for divergence checks: thread-1 bounds only."""
        key = ("div",)
        pre = self._race_pre_cache.get(key)
        if pre is None:
            pre = list(self._side1.bounds)
            self._race_pre_cache[key] = pre
        return pre

    # -- thread-identity predicates ----------------------------------------

    def _same_block(self) -> Term:
        conj = TRUE
        for name in self._side1.vars:
            if name.startswith("bid"):
                conj = mk_and(conj, mk_eq(self._var(1, name),
                                          self._var(2, name)))
        return conj

    def _same_thread_in_block(self) -> Term:
        conj = TRUE
        for name in self._side1.vars:
            if name.startswith("tid"):
                conj = mk_and(conj, mk_eq(self._var(1, name),
                                          self._var(2, name)))
        return conj

    def _flat_tid(self, which: int) -> Term:
        bx, by, _ = self.config.block_dim
        t = self._var(which, "tid.x")
        t = mk_add(t, mk_mul(self._var(which, "tid.y"), mk_bv(bx, 32)))
        t = mk_add(t, mk_mul(self._var(which, "tid.z"),
                             mk_bv(bx * by, 32)))
        return t

    def _same_warp(self) -> Term:
        ws = mk_bv(self.config.warp_size, 32)
        return mk_and(
            self._same_block(),
            mk_eq(mk_udiv(self._flat_tid(1), ws),
                  mk_udiv(self._flat_tid(2), ws)))

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------

    def check(self, discharge: Optional[Discharge] = None,
              discharge_oob: Optional[OOBDischarge] = None
              ) -> "RaceChecker":
        """Decide every candidate pair, OOB access and assertion.

        *discharge* / *discharge_oob* decide what the cheaper steps
        left open: :meth:`_solve_pair` / :meth:`_solve_oob` by default,
        the static tier's enumeration with a solver fallback on an
        enumerable record."""
        self.timed_out = False
        self._deadline = None
        # a copy of a benign-only key is screened by a solver query; on
        # an enumerable record enumeration decides the copy in full
        self._screen_benign_copies = discharge is None
        if self.config.time_budget_seconds is not None:
            self._deadline = time.monotonic() + \
                self.config.time_budget_seconds
        self._check_races(discharge or self._solve_pair)
        t0 = time.perf_counter()
        # a shard runs the single-thread checks only when it is the
        # designated aux owner, so the swarm covers them exactly once
        run_aux = self.shard is None or self.shard.check_aux
        if self.config.check_oob and not self.timed_out and run_aux:
            self._check_oob(discharge_oob or self._solve_oob)
        if run_aux:
            self._check_assertions()
        self.stats.solve_seconds += time.perf_counter() - t0
        return self

    def _check_assertions(self) -> None:
        seen = set()
        for reached, claim, loc in self.result.assertions:
            if self._out_of_time() or len(self.assertion_failures) >= \
                    self.max_reports:
                return
            key = (id(reached), id(claim))
            if key in seen:
                continue
            seen.add(key)
            model = self._solve(
                [self._side1.inst(reached), mk_not(self._side1.inst(claim))],
                self._single_preamble())
            if model is not None:
                self.assertion_failures.append(AssertionReport(
                    loc=loc, witness=self._witness(model,
                                                   two_threads=False)))

    def _check_races(self, discharge: Discharge) -> None:
        # pair generation is lazy: early exit (reports full / time up)
        # stops generation itself, not just checking. The two phases'
        # wall clocks are attributed separately for the ablation bench.
        pairs = self._iter_candidate_pairs()
        while True:
            t0 = time.perf_counter()
            item = next(pairs, None)
            self.stats.pairgen_seconds += time.perf_counter() - t0
            if item is None:
                return
            if len(self._keys) >= self.max_reports or self._out_of_time():
                return
            t0 = time.perf_counter()
            self._check_pair(*item, discharge)
            self.stats.solve_seconds += time.perf_counter() - t0

    def iter_grouped_pairs(self):
        """The canonical pair enumeration: deterministic, group-tagged.

        Yields ``(group_key, a1, a2, same_bi)`` where consecutive pairs
        sharing a *group_key* form one contiguous enumeration group —
        the natural split points for swarm partitioning. Same-interval
        groups are ``("bi", interval, object, bucket)``; cross-interval
        global groups are ``("x", interval1, interval2, object)``.

        Shared memory: same barrier interval only (barriers order across
        intervals). Global memory: same interval for same-block pairs,
        any interval pair for cross-block pairs. With pruning on,
        same-interval enumeration is bucket-local (accesses partitioned
        by provably disjoint address footprints) and residue-separated
        pairs are dropped; both prunes count into ``bucketed_out``.
        The order (and hence every pair's *ordinal*) depends only on
        the deterministic execution record and the pruning flag, so a
        shard re-derives the identical ordinals in its own process.
        """
        maps = [s.by_object() for s in self.result.bi_access_sets]
        for bi_idx, by_obj in enumerate(maps):
            for obj, accesses in by_obj.items():
                for bucket, a1, a2 in self._bucketed_pairs(accesses):
                    yield ("bi", bi_idx, obj.name, bucket), a1, a2, True
        # cross-interval global pairs (only meaningful across blocks)
        if self.config.num_blocks > 1:
            for i, by1 in enumerate(maps):
                for j in range(i + 1, len(maps)):
                    by2 = maps[j]
                    for obj in by1:
                        if obj.space != ir.MemSpace.GLOBAL or obj not in by2:
                            continue
                        for a1 in by1[obj]:
                            for a2 in by2[obj]:
                                if not (a1.kind.is_write()
                                        or a2.kind.is_write()):
                                    continue
                                if self.pruning and \
                                        self._provably_disjoint(
                                            self._side1, a1,
                                            self._side2, a2):
                                    self.stats.bucketed_out += 1
                                    continue
                                yield (("x", i, j, obj.name),
                                       a1, a2, False)

    def plan_groups(self) -> List[Tuple[tuple, int]]:
        """``(group_key, size)`` in enumeration order, without solving.

        This is the swarm planner's input: group sizes define the
        contiguous ordinal spans that :func:`plan_partitions` packs
        into shards. Pair generation only (no SAT queries), so
        planning costs milliseconds even on the slow kernels.
        """
        groups: List[List] = []
        for key, _a1, _a2, _same_bi in self.iter_grouped_pairs():
            if groups and groups[-1][0] == key:
                groups[-1][1] += 1
            else:
                groups.append([key, 1])
        return [(key, size) for key, size in groups]

    def _iter_candidate_pairs(self):
        """Lazily yield (a1, a2, same_bi) pairs worth solving, applying
        the shard's ordinal filter when one is set.

        Safety net: after a *complete* walk, a shard whose enumeration
        length disagrees with the planned ``total_pairs`` marks the
        verdict unknown (``plan_mismatch`` + ``timed_out``) — a
        diverged plan must never let the merge claim SAFE. An early
        exit skips the count check, but early exits already mean racy
        (reports full) or unknown (budget), never safe.
        """
        shard = self.shard
        enumerated = 0
        for _key, a1, a2, same_bi in self.iter_grouped_pairs():
            ordinal = enumerated
            enumerated += 1
            if shard is not None and not shard.contains(ordinal):
                continue
            self._current_ordinal = ordinal
            yield a1, a2, same_bi
        if shard is not None and enumerated != shard.total_pairs:
            self.plan_mismatch = True
            self.timed_out = True

    @staticmethod
    def _write_pairs(accesses: Sequence[Access]):
        for i, a1 in enumerate(accesses):
            for a2 in accesses[i:]:
                if not (a1.kind.is_write() or a2.kind.is_write()):
                    continue
                # atomic vs atomic on the same object never races
                if a1.kind == AccessKind.ATOMIC and \
                        a2.kind == AccessKind.ATOMIC:
                    continue
                # an access cannot race with itself for a single thread,
                # but CAN for two threads (same instruction, two tids) —
                # except both-read, filtered above
                yield a1, a2

    @staticmethod
    def _eligible_pair_count(accesses: Sequence[Access]) -> int:
        """How many pairs `_write_pairs` would yield, in O(1)."""
        n = len(accesses)
        n_r = sum(1 for a in accesses if a.kind == AccessKind.READ)
        n_a = sum(1 for a in accesses if a.kind == AccessKind.ATOMIC)
        return (n * (n + 1) - n_r * (n_r + 1) - n_a * (n_a + 1)) // 2

    def _bucketed_pairs(self, accesses: Sequence[Access]):
        """Same-interval ``(bucket_index, a1, a2)`` triples, restricted
        to disjointness buckets (bucket 0 when pruning is off)."""
        if not self.pruning or len(accesses) < 2:
            for a1, a2 in self._write_pairs(accesses):
                yield 0, a1, a2
            return
        buckets = self._footprint_buckets(accesses)
        if len(buckets) > 1:
            self.stats.bucketed_out += \
                self._eligible_pair_count(accesses) - \
                sum(self._eligible_pair_count(b) for b in buckets)
        for index, bucket in enumerate(buckets):
            for a1, a2 in self._write_pairs(bucket):
                if a1 is not a2 and self._stride_separated(
                        self._side1, a1, self._side2, a2):
                    self.stats.bucketed_out += 1
                    continue
                yield index, a1, a2

    def _footprint_buckets(self, accesses: Sequence[Access]
                           ) -> List[List[Access]]:
        """Partition accesses into maximal groups whose byte footprints
        are pairwise disjoint *across* groups (classic interval sweep).
        An access whose footprint is unknown overlaps everything."""
        mask = (1 << 32) - 1
        items = sorted(
            ((self._side1.footprint(a) or (0, mask)), pos, a)
            for pos, a in enumerate(accesses))
        buckets: List[List[Tuple[int, Access]]] = []
        cur: List[Tuple[int, Access]] = []
        cur_hi = -1
        for (lo, hi), pos, access in items:
            if cur and lo > cur_hi:
                buckets.append(cur)
                cur = []
            cur.append((pos, access))
            cur_hi = max(cur_hi, hi)
        if cur:
            buckets.append(cur)
        # restore recording order inside each bucket so pair enumeration
        # (and hence report order) is independent of the partitioning
        return [[a for _, a in sorted(b)] for b in buckets]

    def _different_thread(self, obj: MemoryObject) -> Term:
        if obj.space == ir.MemSpace.SHARED:
            # shared memory is per block: the two parametric threads live
            # in the same block and must differ in tid
            return mk_and(self._same_block(),
                          mk_not(self._same_thread_in_block()))
        return mk_not(mk_and(self._same_block(),
                             self._same_thread_in_block()))

    def _affine_no_overlap(self, a1: Access, a2: Access,
                           obj: MemoryObject) -> bool:
        """Fast path: equal-size accesses whose addresses are the *same*
        injective affine map of the thread coordinates can never collide
        for distinct threads — UNSAT without the SAT core. Conditions
        are irrelevant: they only strengthen the conjunction. Cached per
        run on the inputs it reads: the offset pair, size and space."""
        if a1.size != a2.size:
            return False
        key = (id(a1.offset), id(a2.offset), a1.size, obj.space)
        verdict = self._affine_verdicts.get(key)
        if verdict is None:
            verdict = self._affine_injective(a1, a2, obj)
            self._affine_verdicts[key] = verdict
        return verdict

    def _affine_injective(self, a1: Access, a2: Access,
                          obj: MemoryObject) -> bool:
        addr1 = affine_decompose(simplify(self._side1.inst(a1.offset)))
        addr2 = affine_decompose(simplify(self._side2.inst(a2.offset)))
        if addr1 is None or addr2 is None:
            return False
        pairing = {}
        var_bounds = {}
        distinct_components = []
        for name, var1 in self._side1.vars.items():
            v1 = var1.name
            v2 = self._side2.vars[name].name
            pairing[v1] = v2
            summary_bound = self._summary_bounds.get(name)
            if summary_bound is not None:
                # summary index variable: bounded by the k<count guard
                # conjunct, which is part of the query conjunction
                var_bounds[v1] = summary_bound
                var_bounds[v2] = summary_bound
                continue
            extent = self.config.extent(name)
            var_bounds[v1] = Interval(0, extent - 1, 32)
            var_bounds[v2] = Interval(0, extent - 1, 32)
            if name.startswith("tid") or obj.space != ir.MemSpace.SHARED:
                distinct_components.append(v1)
        # every coordinate that could distinguish the two threads must be
        # forced equal by the address equality
        if not set(distinct_components) <= set(addr1[0]):
            return False
        return equality_forces_equal_components(
            addr1, addr2, var_bounds, pairing, width=32)

    def _pair_key(self, a1: Access, a2: Access, same_bi: bool) -> tuple:
        """Canonical class of a pair: two pairs with the same key pose
        the *identical* solver problem (offsets, guards and values are
        interned terms; the preamble depends only on the memory space;
        warp-aware solving additionally depends on whether both sides
        are the same instruction). The key is ordered — replaying a
        model onto a swapped pair is unsound under asymmetric
        assumptions (GKLEE's thread pins), so no swap lookup."""
        def cls(a: Access) -> tuple:
            return (a.kind, id(a.offset), id(a.cond), a.size, id(a.value))
        return (cls(a1), cls(a2), same_bi, a1.obj.space,
                a1.instr_id == a2.instr_id)

    def _report_key(self, a1: Access, a2: Access) -> tuple:
        """The cheap prefix of a pair's report key: kind, object and
        both source sites. The key appends ``unresolvable``."""
        return (race_kind(a1, a2), a1.obj.name, site(a1.loc), site(a2.loc))

    def _unresolvable(self, a1: Access, a2: Access) -> bool:
        return any(contains_havoc(t) for t in
                   (a1.cond, a2.cond, a1.offset, a2.offset))

    def _check_pair(self, a1: Access, a2: Access, same_bi: bool,
                    discharge: Discharge) -> None:
        """Decide one candidate pair and emit its race, if any.

        A pair whose report key is done, or has only a benign report
        that the pair provably cannot turn harmful, is skipped first.
        *discharge* decides a pair that the pair memo and the affine
        fast path left open."""
        self.stats.pairs_considered += 1
        prefix = self._report_key(a1, a2)
        unresolvable = None
        if self._keys.has_prefix(prefix):
            unresolvable = self._unresolvable(a1, a2)
            state = self._keys.state(prefix + (unresolvable,))
            if state or (state is not None
                         and self._screen_benign_copies
                         and self._no_harmful_copy(
                             self._side1, a1, self._side2, a2,
                             *self._race_query(a1, a2, same_bi))):
                self.stats.known_key_skips += 1
                return
        obj = a1.obj
        memo_key = None
        if self.pruning:
            memo_key = self._pair_key(a1, a2, same_bi)
            hit = self._pair_memo.get(memo_key, _MISS)
            if hit is not _MISS:
                self.stats.pair_memo_hits += 1
                if hit is not None:
                    values, benign = hit
                    self._emit_race(a1, a2, Model(dict(values)), benign,
                                    prefix, unresolvable)
                return

        if self._affine_no_overlap(a1, a2, obj):
            self.stats.by_affine += 1
            if memo_key is not None:
                self._pair_memo[memo_key] = None
            return
        was_timed_out = self.timed_out
        verdict = discharge(a1, a2, same_bi)
        # a verdict cut short by the budget must not be replayed
        settled = memo_key is not None and self.timed_out == was_timed_out
        if verdict is None:
            if settled:
                self._pair_memo[memo_key] = None
            return
        model, benign = verdict
        if settled:
            self._pair_memo[memo_key] = (dict(model.values), benign)
        self._emit_race(a1, a2, model, benign, prefix, unresolvable)

    def _race_query(self, a1: Access, a2: Access, same_bi: bool
                    ) -> Tuple[List[Term], List[Term]]:
        """``(goal, preamble)`` of the pair's race query."""
        goal = self._goal(self._side1, a1, self._side2, a2)
        if not same_bi:
            # cross-interval global pair: only unordered across blocks
            goal.append(mk_not(self._same_block()))
        return goal, self._race_preamble(a1.obj)

    def _solve_pair(self, a1: Access, a2: Access, same_bi: bool
                    ) -> Optional[Tuple[Model, bool]]:
        """The default discharge: solve the race query, then classify
        a collision as benign or not."""
        goal, preamble = self._race_query(a1, a2, same_bi)
        if self._conj_trivially_false(preamble, goal):
            return None
        if self.config.warp_lockstep and self.config.warp_size > 1:
            model = self._solve_warp_aware(a1, a2, preamble, goal)
        else:
            model = self._solve(goal, preamble)
        if model is None:
            return None
        return model, self._classify_benign(
            self._side1, a1, self._side2, a2, goal, preamble)

    @staticmethod
    def _flatten_spine(terms: Sequence[Term]
                       ) -> Tuple[Set[int], Set[int], bool]:
        """``(conjunct ids, negated-child ids, any FALSE)`` after
        flattening nested conjunctions — the facts ``mk_and`` uses to
        constant-fold a conjunction to FALSE."""
        ids: Set[int] = set()
        neg: Set[int] = set()
        has_false = False
        stack = list(terms)
        while stack:
            t = stack.pop()
            if t.op == Op.BAND:
                stack.extend(t.args)
                continue
            if t.is_false():
                has_false = True
            ids.add(id(t))
            if t.op == Op.BNOT:
                neg.add(id(t.args[0]))
        return ids, neg, has_false

    def _conj_trivially_false(self, preamble: List[Term],
                              goal: Sequence[Term]) -> bool:
        """``mk_and(*preamble, *goal) is FALSE``, without building the
        conjunction. The preamble's flattened spine is cached on the
        (pinned, per-object) preamble list; only the small goal is
        walked per pair."""
        spine = self._spine_cache.get(id(preamble))
        if spine is None:
            pids, pneg, pfalse = self._flatten_spine(preamble)
            spine = (pids, pneg, pfalse or bool(pneg & pids))
            self._spine_cache[id(preamble)] = spine
        pids, pneg, pfalse = spine
        if pfalse:
            return True
        gids, gneg, gfalse = self._flatten_spine(goal)
        if gfalse:
            return True
        return bool((pneg & gids) or (gneg & gids) or (gneg & pids))

    def _solve_warp_aware(self, a1: Access, a2: Access,
                          preamble: List[Term],
                          goal: List[Term]) -> Optional[Model]:
        # inter-warp pairs always qualify
        model = self._solve(goal + [mk_not(self._same_warp())], preamble)
        if model is not None:
            return model
        # intra-warp: same-instruction simultaneous writes ...
        if a1.instr_id == a2.instr_id and a1.kind.is_write() \
                and a2.kind.is_write():
            return self._solve(goal + [self._same_warp()], preamble)
        # ... or accesses in divergent branches (unordered execution):
        # guards mutually exclusive for one thread
        both = mk_and(a1.cond, a2.cond)
        if both is FALSE or not self._both_reachable(both):
            return self._solve(goal + [self._same_warp()], preamble)
        return None

    def _both_reachable(self, both: Term) -> bool:
        """Can a single thread satisfy both guards? Cached on the
        interned conjunction — the same guard pair repeats across
        overlapping access pairs."""
        key = id(both)
        cached = self._div_cache.get(key)
        if cached is not None:
            self.stats.div_cache_hits += 1
            return cached
        reachable = self._solve([self._side1.inst(both)],
                                self._div_preamble()) is not None
        self._div_cache[key] = reachable
        return reachable

    def _emit_race(self, a1: Access, a2: Access, model: Model,
                   benign: bool, prefix: tuple,
                   unresolvable: Optional[bool]) -> None:
        if unresolvable is None:
            unresolvable = self._unresolvable(a1, a2)
        if not self._keys.admit(prefix + (unresolvable,), benign):
            return
        report = RaceReport(
            kind=race_kind(a1, a2), obj_name=a1.obj.name,
            access1=a1, access2=a2,
            benign=benign, witness=self._witness(model, two_threads=True),
            unresolvable=unresolvable, ordinal=self._current_ordinal)
        self.races.append(report)
        self.stats.races_found += 1

    # ------------------------------------------------------------------

    def _check_oob(self, discharge: OOBDischarge) -> None:
        """Report every access that can run past its object's end.

        *discharge* decides an access that the interval fast path left
        open."""
        seen: Set[tuple] = set()
        reported: Set[tuple] = set()
        for access in self.result.all_accesses():
            if len(self.oobs) >= self.max_reports or self._out_of_time():
                return
            obj = access.obj
            if obj.size_bytes is None:
                continue
            # one report per (object, source line): distinct loop
            # iterations of the same access are the same bug
            if (obj.name, access.loc) in reported:
                continue
            key = (id(obj), id(access.offset), access.size, id(access.cond))
            if key in seen:
                continue
            seen.add(key)
            # interval fast path: when the whole footprint provably fits
            # inside the object (thread bounds from the preamble, summary
            # bounds from the guard), the query has no model — skip it
            if self.pruning and obj.size_bytes >= access.size:
                iv = self._side1.ia.interval_of(access.offset)
                if iv.hi <= obj.size_bytes - access.size:
                    self.stats.oob_pruned += 1
                    continue
            model = discharge(access)
            if model is not None:
                reported.add((obj.name, access.loc))
                self.oobs.append(OOBReport(
                    obj_name=obj.name, access=access,
                    size_bytes=obj.size_bytes,
                    witness=self._witness(model, two_threads=False)))
                self.stats.oob_found += 1

    def _solve_oob(self, access: Access) -> Optional[Model]:
        """The default OOB discharge: solve the past-the-end query."""
        # an access wider than its object overruns it at any offset
        limit = access.obj.size_bytes - access.size
        past_end = mk_not(mk_ule(self._side1.inst(access.offset),
                                 mk_bv(limit, 32))) \
            if limit >= 0 else TRUE
        return self._solve([self._side1.inst(access.cond), past_end],
                           self._single_preamble())

    # ------------------------------------------------------------------

    def _witness(self, model: Model, two_threads: bool) -> RaceWitness:
        s1, s2 = self._side1, self._side2
        witness = RaceWitness(
            thread1=s1.coords(model, "tid"), block1=s1.coords(model, "bid"),
            inputs=witness_inputs(model))
        if two_threads:
            witness.thread2 = s2.coords(model, "tid")
            witness.block2 = s2.coords(model, "bid")
        return witness
