"""Layered satisfiability solving for QF_BV queries.

Every query the checker asks takes this one path: the executor's
branch-feasibility checks, per-flow test generation, and race and
stream-pair discharge. A :class:`Solver` holds one fixed *preamble*
(thread bounds, launch assumptions, ``t1 != t2``) and answers
``preamble AND goal`` for a goal at a time. The layers mirror what
production concolic engines put in front of their SAT core:

1. **Simplify** the preamble once and each goal conjunct per query
   (constant folding + algebraic rewrites).
2. **Trivial** answers: a conjunct simplified to ``false`` is UNSAT;
   nothing left to check is SAT with an empty model.
3. **Interval pre-filter**: per-variable bounds from the preamble and
   the goal; a conjunct false under them is UNSAT without bit-blasting
   — many race queries (disjoint strides) die here. A comparison of two
   offsets of one base term (a loop test such as ``(b + 48) <=s
   (b + 63)``) that the base's interval proves true is dropped; a goal
   emptied that way over a preamble of bound facts is SAT.
4. **Range chains**: a conjunction of range tests over one shared base
   term (grid-stride loop exits, out-of-bounds tests) is decided by
   intersecting intervals on the base (:mod:`repro.smt.ranges`). It
   works from the interval layer's analysis, so it runs only with it.
5. **SAT**: the preamble's :class:`~repro.smt.session.SolverSession`,
   a live incremental instance that starts from the preamble's frozen,
   process-wide blasted instance and answers each goal under assumption
   literals, with an optional conflict budget.

Models are validated against the concrete evaluator before being
returned, so a solver bug surfaces as a loud exception instead of a
bogus witness.

:class:`QueryMemo` is the cross-query cache pair discharge keeps above
its solvers: interned canonical goal term -> verdict (+ model values),
so structurally identical pairs — rampant in unrolled kernels — never
reach a solver at all. UNKNOWN is never memoized.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .bitblast import TemplateCache
from .interval import Interval, IntervalAnalysis, derive_bounds, same_base
from .ranges import decide_chain, parse_chain
from .sat import SatResult
from .session import SolverSession
from .simplify import simplify
from . import terms as T
from .subst import EvaluationError, evaluate
from .terms import Term


class CheckResult:
    """Result tags for the layered solver."""
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class Model:
    """A satisfying assignment, mapping variable names to values."""

    values: Dict[str, int] = field(default_factory=dict)

    def __getitem__(self, name: str) -> int:
        return self.values.get(name, 0)

    def get(self, name: str, default: int = 0) -> int:
        return self.values.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self.values

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.values.items()))
        return f"Model({inner})"


@dataclass
class SolverStats:
    """Which layer answered each query; drives the solver ablation bench.

    ``by_range`` counts queries decided on the word level as range
    chains; ``by_session`` counts queries answered by assumption on the
    live incremental SAT instance. ``sat_instances`` is the number of
    live SAT instances, blasted or thawed from a frozen preamble.
    """

    queries: int = 0
    by_simplifier: int = 0
    by_interval: int = 0
    by_range: int = 0
    by_session: int = 0
    sat_instances: int = 0
    sat_conflicts: int = 0
    sat_decisions: int = 0
    sat_propagations: int = 0
    learned_clauses: int = 0
    #: goal lowerings answered by template instantiation instead of a
    #: gate-by-gate Tseitin walk (see repro.smt.bitblast.TemplateCache)
    template_hits: int = 0

    def merge(self, other: "SolverStats") -> None:
        for f in self.__dataclass_fields__:
            setattr(self, f, getattr(self, f) + getattr(other, f))

    def answered(self) -> int:
        """Queries answered by any layer: each query is dispatched to
        exactly one, so this equals :attr:`queries`."""
        return sum(getattr(self, f) for f in self.__dataclass_fields__
                   if f.startswith("by_"))

    def copy(self) -> "SolverStats":
        from dataclasses import replace
        return replace(self)

    def delta_since(self, before: "SolverStats") -> "SolverStats":
        """Counter-wise ``self - before``: the work done since a
        snapshot, for callers attributing shared-solver work."""
        out = SolverStats()
        for f in out.__dataclass_fields__:
            setattr(out, f, getattr(self, f) - getattr(before, f))
        return out


class QueryMemo:
    """Canonical-query result cache (term identity -> verdict + model).

    Keys are ``(context_key, id(canonical_goal))``: interning makes
    ``id`` a stable global identity for a term, and the context key
    distinguishes preambles. SAT entries carry the witness values so a
    hit reproduces the solver's answer; UNKNOWN is never stored (a
    bigger budget might decide it later).
    """

    def __init__(self) -> None:
        self._table: Dict[tuple, Tuple[str, Optional[Dict[str, int]]]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple) -> Optional[Tuple[str, Optional[Dict[str, int]]]]:
        entry = self._table.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def put(self, key: tuple, result: str,
            values: Optional[Dict[str, int]] = None) -> None:
        if result == CheckResult.UNKNOWN:
            return
        self._table[key] = (result, values)

    def __len__(self) -> int:
        return len(self._table)


#: process-wide template cache: keyed purely on term structure, so it is
#: sound to share across solvers, preambles, and checkers (see
#: :class:`~repro.smt.bitblast.TemplateCache`); capped in size.
_SHARED_TEMPLATES = TemplateCache()


def _drop_same_base(goal: List[Term], analysis: IntervalAnalysis
                    ) -> List[Term]:
    """The conjuncts of *goal* without the same-base comparisons the
    analysis proves true; *goal* itself when there is none to drop."""
    conjuncts = T.conjuncts(goal)
    rest = [t for t in conjuncts
            if not (same_base(t) and analysis.must_be_true(t))]
    return rest if len(rest) < len(conjuncts) else goal


class Solver:
    """Layered satisfiability of ``preamble AND goal`` for one fixed
    preamble; the SAT layer is :attr:`session`.

    The SAT layer's options: *conflict_budget* and *deadline* bound each
    SAT query (UNKNOWN when exhausted); the live instance is thawed
    again from the frozen preamble after *max_live_queries* queries (see
    :class:`~repro.smt.session.SolverSession`); *templates* instantiates
    repeated goal skeletons (race-pair offsets), and ``None`` turns that
    off, along with the shared table of frozen preambles (the
    differential test references, which must not share either with the
    path under test).
    """

    def __init__(self, preamble: Sequence[Term] = (), *,
                 conflict_budget: Optional[int] = 200_000,
                 deadline: Optional[float] = None,
                 use_simplifier: bool = True,
                 use_interval: bool = True,
                 max_live_queries: int = 256,
                 templates: Optional[TemplateCache] = _SHARED_TEMPLATES
                 ) -> None:
        self.use_simplifier = use_simplifier
        self.use_interval = use_interval
        self.stats = SolverStats()

        terms = [simplify(t) for t in preamble] if use_simplifier \
            else list(preamble)
        #: the preamble alone is contradictory: every query is UNSAT
        self._failed = any(t.is_false() for t in terms)
        self.preamble: List[Term] = [t for t in terms if not t.is_true()]
        self._preamble_bounds: Dict[str, Interval] = \
            derive_bounds(self.preamble) if use_interval else {}
        #: the preamble parsed for the range-chain layer; None when some
        #: preamble conjunct does not fit, which rules the layer out
        self._preamble_chain = parse_chain(self.preamble) \
            if use_interval else None
        self.session = SolverSession(
            self.preamble, self.stats, conflict_budget=conflict_budget,
            deadline=deadline, max_live_queries=max_live_queries,
            templates=templates)
        self._model: Optional[Model] = None

    # ------------------------------------------------------------------

    def check(self, goal: Sequence[Term] = ()) -> str:
        """Satisfiability of ``preamble AND goal`` (layered)."""
        self.stats.queries += 1
        self._model = None
        if self._failed:
            self.stats.by_simplifier += 1
            return CheckResult.UNSAT

        if self.use_simplifier:
            goal = [simplify(t) for t in goal]
        else:
            goal = list(goal)
        if any(t.is_false() for t in goal):
            self.stats.by_simplifier += 1
            return CheckResult.UNSAT
        goal = [t for t in goal if not t.is_true()]
        if not goal and not self.preamble:
            self.stats.by_simplifier += 1
            self._model = Model({})
            return CheckResult.SAT

        rest = goal
        if self.use_interval:
            bounds = dict(self._preamble_bounds)
            for name, iv in derive_bounds(goal).items():
                cur = bounds.get(name)
                bounds[name] = iv if cur is None else (cur.meet(iv) or cur)
            analysis = IntervalAnalysis(bounds)
            if any(analysis.must_be_false(t)
                   for t in self.preamble + goal):
                self.stats.by_interval += 1
                return CheckResult.UNSAT

            # same-base comparisons proven true (loop tests such as
            # (b + 48) <=s (b + 63)) need no lowering. None of them is
            # a bound fact, so every model of the rest satisfies them.
            rest = _drop_same_base(goal, analysis)
            if goal and not rest and self._preamble_chain is not None and \
                    self._preamble_chain.base is None:
                # a preamble of bound facts: each variable's lowest
                # proved value satisfies all of them
                self.stats.by_interval += 1
                return self._accept(goal, {
                    name: analysis.interval_of(var).lo for name, var
                    in self._preamble_chain.fact_vars.items()})

            if self._preamble_chain is not None:
                chain = parse_chain(rest, self._preamble_chain)
                verdict = None if chain is None else \
                    decide_chain(chain, analysis)
                if verdict is not None:
                    self.stats.by_range += 1
                    satisfiable, values = verdict
                    return self._accept(goal, values) if satisfiable \
                        else CheckResult.UNSAT

        result, values = self.session.check(rest)
        if result == SatResult.SAT:
            return self._accept(goal, values)
        return CheckResult.UNSAT if result == SatResult.UNSAT \
            else CheckResult.UNKNOWN

    def model(self) -> Model:
        if self._model is None:
            raise RuntimeError("no model available (last check was not SAT)")
        return self._model

    # ------------------------------------------------------------------

    def _accept(self, goal: List[Term], values: Dict[str, int]) -> str:
        """Answer SAT with a validated model."""
        model = Model(values)
        self._validate(goal, model)
        self._model = model
        return CheckResult.SAT

    def _validate(self, goal: List[Term], model: Model) -> None:
        assignment = dict(model.values)
        for t in self.preamble + goal:
            # fill variables no layer assigned (eliminated by simplify)
            for name in T.free_vars(t):
                assignment.setdefault(name, 0)
            try:
                ok = evaluate(t, assignment)
            except EvaluationError:
                continue  # uninterpreted applications: nothing to validate
            if not ok:
                raise AssertionError(
                    f"solver produced an invalid model {model} for {t}")
