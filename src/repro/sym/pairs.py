"""The pair-discharge steps every race check shares (paper §IV-B).

A candidate pair is two accesses, each seen from one *side*: a symbolic
thread instantiated by substitution (``tid.x`` → ``tid.x!1``) and
bounded by its own launch's extents. The intra-launch checker's two
sides are two threads of one launch (``!1`` / ``!2``); the stream
checker's are threads of two different launches (``!L<i>``).
:class:`PairDischarge` owns the steps both apply to such a pair:

* footprint and stride disjointness, proved per side by interval and
  affine analysis before any solving;
* the overlap term of the two byte ranges;
* the memo → :class:`~repro.smt.solver.Solver` solve, one solver
  (and incremental SAT session) per distinct preamble, where UNKNOWN
  marks the verdict timed out;
* the benign classification of colliding write/write pairs, which only
  a definite UNSAT can grant;
* the race kind and the witness coordinates;
* the report rule (:class:`ReportKeys`): one report per distinct race.

The static tier runs the intra-launch client with exhaustive
evaluation ahead of the solve (the ``discharge`` hook of
``RaceChecker.check``).
"""
from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..smt import (
    CheckResult, Model, QueryMemo, Solver, Substitution,
    TRUE, Term, mk_and, mk_bv, mk_bv_var, mk_eq, mk_ne, mk_ult, simplify,
)
from ..smt.affine import AffineForm, affine_decompose, stride_separated
from ..smt.interval import Interval, IntervalAnalysis, byte_footprint
from ..smt.terms import mk_add
from .access import Access, AccessKind
from .memory import contains_havoc

#: cache-miss sentinel (None is a legitimate cached value)
_MISS = object()

#: the report cap: distinct race keys (and OOB sites, assertion
#: failures) one check reports before it stops
MAX_REPORTS = 64


class PairSide:
    """One instantiated thread of a pair query.

    Holds the substitution that renames an execution record's thread
    coordinates and summary index variables with *suffix*, the renamed
    variables (keyed by their original name), the bound conjuncts
    ``tid.* < blockDim`` / ``bid.* < gridDim``, and an interval analysis
    over the *uninstantiated* terms with memoised footprint and affine
    caches. Two sides of one record share the analysis (*shared*): they
    have the same variable bounds. A summary's ``k < count`` bound rides
    in its access guard, so it is in the analysis but not in
    :attr:`bounds`.
    """

    def __init__(self, result, suffix: str,
                 shared: Optional["PairSide"] = None) -> None:
        theta: Dict[Term, Term] = {}
        self.vars: Dict[str, Term] = {}
        self.bounds: List[Term] = []
        #: uninstantiated thread-coordinate name -> its launch extent
        self.extents: Dict[str, int] = {}
        for name, var in result.env.thread_vars().items():
            fresh = mk_bv_var(f"{name}{suffix}", 32)
            theta[var] = fresh
            self.vars[name] = fresh
            extent = result.config.extent(name)
            self.extents[name] = extent
            self.bounds.append(mk_ult(fresh, mk_bv(extent, 32)))
        #: uninstantiated summary index name -> its range
        self.summary_bounds: Dict[str, Interval] = {}
        summary_vars: Dict[str, Term] = {}
        for bi_set in result.bi_access_sets:
            for access in bi_set:
                if access.summary is not None:
                    k = access.summary.index_var
                    summary_vars[k.name] = k
                    self.summary_bounds[k.name] = Interval(
                        0, access.summary.count - 1, k.width)
        for name in sorted(summary_vars):
            var = summary_vars[name]
            fresh = mk_bv_var(f"{name}{suffix}", var.width)
            theta[var] = fresh
            self.vars[name] = fresh
        self.inst = Substitution(theta)
        if shared is None:
            bounds = dict(self.summary_bounds)
            for name, extent in self.extents.items():
                bounds[name] = Interval(0, extent - 1, 32)
            self.ia = IntervalAnalysis(bounds)
            self._foot_cache: Dict[Tuple[int, int], Optional[tuple]] = {}
            self._affine_cache: Dict[int, Optional[AffineForm]] = {}
        else:
            self.ia = shared.ia
            self._foot_cache = shared._foot_cache
            self._affine_cache = shared._affine_cache

    def footprint(self, access: Access) -> Optional[Tuple[int, int]]:
        """Sound byte range ``[lo, hi]`` the access can touch on this
        side, or None."""
        key = (id(access.offset), access.size)
        hit = self._foot_cache.get(key, _MISS)
        if hit is not _MISS:
            return hit
        foot = byte_footprint(self.ia.interval_of(access.offset),
                              access.size)
        self._foot_cache[key] = foot
        return foot

    def affine_of(self, offset: Term) -> Optional[AffineForm]:
        form = self._affine_cache.get(id(offset), _MISS)
        if form is _MISS:
            form = affine_decompose(offset)
            self._affine_cache[id(offset)] = form
        return form

    def coords(self, model: Model, prefix: str) -> Tuple[int, int, int]:
        """The ``tid`` or ``bid`` coordinates of this side in *model*
        (a collapsed coordinate is 0)."""
        out = []
        for axis in ("x", "y", "z"):
            var = self.vars.get(f"{prefix}.{axis}")
            out.append(model.get(var.name, 0) if var is not None else 0)
        return tuple(out)  # type: ignore[return-value]


def race_kind(a1: Access, a2: Access) -> str:
    """Canonical kind: WW for write/write, RW for mixed; atomics noted."""
    kind = "WW" if a1.kind.is_write() and a2.kind.is_write() else "RW"
    if AccessKind.ATOMIC in (a1.kind, a2.kind):
        kind = "Atomic/W" if kind == "WW" else "Atomic/R"
    return kind


def site(loc) -> Optional[Tuple[int, int]]:
    """``(line, column)`` of a source location, or None: the form a
    race report key holds (a ``SourceLoc`` compares by its line only)."""
    if loc is None:
        return None
    return int(loc), getattr(loc, "col", 0)


class ReportKeys:
    """The report rule: one report per distinct race.

    A report's *key* names the race without its witness: for a race in
    one launch, ``(kind, object, site1, site2, unresolvable)``. A
    distinct race is a key plus ``benign``. Once a key has a harmful
    report, further pairs of it add nothing. While it has only a benign
    one, a further pair adds a report only if it is harmful, so
    "benign" keeps meaning that every collision writes the same value.
    ``max_reports`` caps :func:`len`, the number of distinct keys.

    Clients look a pair up by ``key[:-1]`` first (:meth:`has_prefix`),
    so a last component that is costly to compute (the resolvability
    walk) is needed only for pairs whose prefix already has a report.
    """

    def __init__(self) -> None:
        #: key -> True once it has a harmful report, False while its
        #: only report is benign
        self._harmful: Dict[tuple, bool] = {}
        self._prefixes: Set[tuple] = set()

    def __len__(self) -> int:
        return len(self._harmful)

    def has_prefix(self, prefix: tuple) -> bool:
        return prefix in self._prefixes

    def state(self, key: tuple) -> Optional[bool]:
        """None: no report yet; False: only a benign one; True: a
        harmful one (the key is done)."""
        return self._harmful.get(key)

    def admit(self, key: tuple, benign: bool) -> bool:
        """Record a report of *key*; False when it would repeat a
        distinct race or follow the key's harmful report."""
        state = self._harmful.get(key)
        if state or (state is not None and benign):
            return False
        self._harmful[key] = not benign
        self._prefixes.add(key[:-1])
        return True


def witness_inputs(model: Model) -> Dict[str, int]:
    """The model's input values: every variable that is not a side's
    instantiated thread or summary variable."""
    return {k: v for k, v in model.values.items()
            if not k.startswith(("tid.", "bid.")) and "!" not in k}


class PairDischarge:
    """Decides candidate pairs between two :class:`PairSide` views.

    A client sets ``self.stats`` (a record with ``queries``,
    ``by_memo``, ``sessions_created``, ``preamble_reuse`` and a
    ``solver`` :class:`~repro.smt.SolverStats`) and composes the steps
    below with its own pair enumeration. The solve keeps one session
    per distinct preamble (keyed on interned term identities) and a
    cross-query memo; callers that re-check near-identical programs
    pass shared *sessions* (preamble key -> :class:`~repro.smt.Solver`)
    and *memo* containers.
    """

    def __init__(self, solver_budget: Optional[int],
                 sessions: Optional[Dict[Tuple[int, ...], Solver]] = None,
                 memo: Optional[QueryMemo] = None) -> None:
        self.solver_budget = solver_budget
        self.timed_out = False
        self._deadline: Optional[float] = None
        self._sessions = sessions if sessions is not None else {}
        self._memo = memo if memo is not None else QueryMemo()
        #: id(preamble) -> (session key, the pinned preamble list)
        self._pkey_cache: Dict[int, Tuple[Tuple[int, ...],
                                          Sequence[Term]]] = {}

    def _out_of_time(self) -> bool:
        if self._deadline is not None and time.monotonic() > self._deadline:
            self.timed_out = True
            return True
        return False

    # -- pruning ---------------------------------------------------------

    @staticmethod
    def _stride_separated(s1: PairSide, a1: Access,
                          s2: PairSide, a2: Access) -> bool:
        """Residue separation: same-size accesses whose affine offsets
        differ by a non-multiple of the common coefficient gcd can never
        touch the same address (sound for independent sides)."""
        if a1.size != a2.size:
            return False
        d1 = s1.affine_of(a1.offset)
        d2 = s2.affine_of(a2.offset)
        if d1 is None or d2 is None:
            return False
        return stride_separated(d1, d2, 32)

    def _provably_disjoint(self, s1: PairSide, a1: Access,
                           s2: PairSide, a2: Access) -> bool:
        """Disjoint byte footprints, or stride separation."""
        f1 = s1.footprint(a1)
        f2 = s2.footprint(a2)
        if f1 is not None and f2 is not None and \
                (f1[1] < f2[0] or f2[1] < f1[0]):
            return True
        return self._stride_separated(s1, a1, s2, a2)

    # -- the query -------------------------------------------------------

    @staticmethod
    def _overlap(s1: PairSide, a1: Access, s2: PairSide,
                 a2: Access) -> Term:
        addr1 = s1.inst(a1.offset)
        addr2 = s2.inst(a2.offset)
        if a1.size == a2.size:
            return mk_eq(addr1, addr2)
        # byte ranges [addr, addr+size) intersect
        return mk_and(
            mk_ult(addr1, mk_add(addr2, mk_bv(a2.size, 32))),
            mk_ult(addr2, mk_add(addr1, mk_bv(a1.size, 32))))

    def _goal(self, s1: PairSide, a1: Access, s2: PairSide,
              a2: Access) -> List[Term]:
        """Both guards hold and the byte ranges intersect."""
        return [s1.inst(a1.cond), s2.inst(a2.cond),
                self._overlap(s1, a1, s2, a2)]

    def _pkey_of(self, preamble: Sequence[Term]) -> Tuple[int, ...]:
        # the cache pins the preamble list, so its id stays a stable key
        # for the (tuple-of-term-ids) session key
        hit = self._pkey_cache.get(id(preamble))
        if hit is None:
            hit = (tuple(id(t) for t in preamble), preamble)
            self._pkey_cache[id(preamble)] = hit
        return hit[0]

    def _solve(self, goal: Sequence[Term],
               preamble: Sequence[Term]) -> Optional[Model]:
        """SAT model of ``preamble AND goal``, or None (UNSAT/unknown).

        Canonicalises the goal, consults the memo, then checks it on the
        preamble's solver, whose SAT layer holds the blasted preamble.
        UNKNOWN (the conflict budget or deadline ran out) sets
        :attr:`timed_out`: the verdict carries the same T.O. marker as
        a wall-clock timeout.
        """
        self.stats.queries += 1
        canon = simplify(mk_and(*goal)) if goal else TRUE
        pkey = self._pkey_of(preamble)
        key = (pkey, id(canon))
        hit = self._memo.get(key)
        if hit is not None:
            self.stats.by_memo += 1
            result, values = hit
            return Model(dict(values)) if result == CheckResult.SAT else None

        solver = self._solver_for(preamble, pkey)
        before = solver.stats.copy()
        outcome = solver.check([canon] if canon is not TRUE else [])
        self.stats.solver.merge(solver.stats.delta_since(before))
        if outcome == CheckResult.SAT:
            model = solver.model()
            self._memo.put(key, outcome, dict(model.values))
            return model
        if outcome == CheckResult.UNKNOWN:
            self.timed_out = True
            return None
        self._memo.put(key, outcome)
        return None

    def _solver_for(self, preamble: Sequence[Term],
                    pkey: Tuple[int, ...]) -> Solver:
        solver = self._sessions.get(pkey)
        if solver is None:
            # the solver owns its stats: solvers may outlive this
            # client (the repair loop shares them across re-checks), so
            # each query's delta is merged in _solve instead
            solver = Solver(list(preamble),
                            conflict_budget=self.solver_budget,
                            deadline=self._deadline)
            self._sessions[pkey] = solver
            self.stats.sessions_created += 1
        else:
            self.stats.preamble_reuse += 1
            solver.session.deadline = self._deadline
        return solver

    # -- classification --------------------------------------------------

    @staticmethod
    def _values_differ(s1: PairSide, a1: Access, s2: PairSide,
                       a2: Access) -> Optional[Term]:
        """"The two written values differ", or None when the pair is
        not a W/W pair with pure recorded values (never benign)."""
        if not (a1.kind.is_write() and a2.kind.is_write()
                and a1.value is not None and a2.value is not None):
            return None
        if contains_havoc(a1.value) or contains_havoc(a2.value):
            return None
        return mk_ne(s1.inst(a1.value), s2.inst(a2.value))

    def _classify_benign(self, s1: PairSide, a1: Access, s2: PairSide,
                         a2: Access, goal: List[Term],
                         preamble: Sequence[Term]) -> bool:
        """W/W race where the colliding writes provably store the same
        value (paper's "W/W (Benign)"). Only a definite UNSAT of the
        value-disequality query makes it benign: an UNKNOWN leaves the
        race non-benign and the verdict timed out."""
        distinct = self._values_differ(s1, a1, s2, a2)
        if distinct is None:
            return False
        timed_out, self.timed_out = self.timed_out, False
        model = self._solve(goal + [distinct], preamble)
        unknown = self.timed_out
        self.timed_out = timed_out or unknown
        return model is None and not unknown

    def _no_harmful_copy(self, s1: PairSide, a1: Access, s2: PairSide,
                         a2: Access, goal: List[Term],
                         preamble: Sequence[Term]) -> bool:
        """For a pair whose report key has only a benign report: can it
        provably not collide with different written values? That is the
        benign query, answered UNSAT. An unknown answer leaves the
        budget flag alone, because the pair then takes the full
        discharge, which decides it as if this step had not run."""
        distinct = self._values_differ(s1, a1, s2, a2)
        if distinct is None:
            return False
        if distinct.is_false():
            return True   # one value term on both sides
        timed_out, self.timed_out = self.timed_out, False
        excluded = self._solve(goal + [distinct], preamble) is None \
            and not self.timed_out
        self.timed_out = timed_out
        return excluded
