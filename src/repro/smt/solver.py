"""Layered satisfiability solver for QF_BV queries.

The pipeline mirrors what production concolic engines do in front of their
SAT core:

1. **Simplify** each assertion (constant folding + algebraic rewrites).
2. **Trivial** answers: an assertion simplified to ``false`` is UNSAT; all
   ``true`` is SAT with an arbitrary model.
3. **Interval pre-filter**: derive per-variable bounds from the conjuncts
   and abstractly evaluate — many race queries (disjoint strides) die here
   without bit-blasting.
4. **Model reuse**: evaluate the goal under the last few models this
   solver produced, newest first (KLEE's counterexample cache). A model
   that makes every conjunct true answers SAT without bit-blasting; this
   layer never answers UNSAT.
5. **Range chains**: a conjunction of range tests over one shared base
   term (grid-stride loop exits, out-of-bounds tests) is decided by
   intersecting intervals on the base (:mod:`repro.smt.ranges`). It
   works from the interval layer's analysis, so it runs only with it.
6. **Bit-blast + CDCL SAT** with an optional conflict budget.

Models are validated against the concrete evaluator before being returned,
so a solver bug surfaces as a loud exception instead of a bogus witness.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional

from .bitblast import BitBlaster
from .cnf import CNF
from .interval import IntervalAnalysis, derive_bounds
from .ranges import decide_chain, parse_chain
from .sat import SatResult, SatSolver
from .simplify import simplify
from .sorts import BOOL, BVSort
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
    """Where queries were dispatched; drives the solver ablation bench.

    ``by_sat`` counts queries that required a *fresh* bitblast + SAT
    instance (the one-shot path); ``by_reuse`` counts queries answered
    by an earlier model of the same solver; ``by_range`` counts queries
    decided on the word level as range chains; ``by_session`` counts
    queries answered by assumption on a live incremental instance.
    ``sat_instances`` is the number of SAT solver constructions either
    way — the work the blast-once preamble amortises.
    """

    queries: int = 0
    by_simplifier: int = 0
    by_interval: int = 0
    by_sat: int = 0
    by_reuse: int = 0
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
        snapshot, for callers attributing shared-session work."""
        out = SolverStats()
        for f in out.__dataclass_fields__:
            setattr(out, f, getattr(self, f) - getattr(before, f))
        return out


#: models a :class:`Solver` keeps for the reuse layer
MODEL_HISTORY = 8


class Solver:
    """One-shot satisfiability checking with incremental assertion adding."""

    def __init__(self, *, use_simplifier: bool = True,
                 use_interval: bool = True,
                 conflict_budget: Optional[int] = 200_000,
                 deadline: Optional[float] = None,
                 validate_models: bool = True) -> None:
        self.assertions: List[Term] = []
        self.use_simplifier = use_simplifier
        self.use_interval = use_interval
        self.conflict_budget = conflict_budget
        self.deadline = deadline
        self.validate_models = validate_models
        self.stats = SolverStats()
        self._model: Optional[Model] = None
        #: values of the last MODEL_HISTORY models, newest first
        self._history: Deque[Dict[str, int]] = deque(maxlen=MODEL_HISTORY)

    # ------------------------------------------------------------------

    def add(self, *terms: Term) -> None:
        for t in terms:
            if t.sort is not BOOL:
                raise TypeError(f"assertions must be Bool, got {t.sort}")
            self.assertions.append(t)

    def push_scope(self) -> int:
        return len(self.assertions)

    def pop_scope(self, mark: int) -> None:
        del self.assertions[mark:]

    # ------------------------------------------------------------------

    def check(self, *extra: Term) -> str:
        """Check satisfiability of the conjunction of all assertions."""
        self.stats.queries += 1
        self._model = None
        goal = list(self.assertions) + list(extra)

        if self.use_simplifier:
            goal = [simplify(t) for t in goal]
        if any(t.is_false() for t in goal):
            self.stats.by_simplifier += 1
            return CheckResult.UNSAT
        goal = [t for t in goal if not t.is_true()]
        if not goal:
            self.stats.by_simplifier += 1
            self._model = Model({})
            return CheckResult.SAT

        analysis = None
        if self.use_interval:
            bounds = derive_bounds(goal)
            analysis = IntervalAnalysis(bounds)
            if any(analysis.must_be_false(t) for t in goal):
                self.stats.by_interval += 1
                return CheckResult.UNSAT

        model = self._reuse(goal)
        if model is not None:
            self.stats.by_reuse += 1
            self._model = model
            return CheckResult.SAT
        if analysis is not None:
            chain = parse_chain(goal)
            verdict = None if chain is None else \
                decide_chain(chain, analysis)
            if verdict is not None:
                self.stats.by_range += 1
                satisfiable, values = verdict
                return self._accept(goal, values) if satisfiable \
                    else CheckResult.UNSAT
        return self._check_sat(goal)

    def model(self) -> Model:
        if self._model is None:
            raise RuntimeError("no model available (last check was not SAT)")
        return self._model

    # ------------------------------------------------------------------

    def _reuse(self, goal: List[Term]) -> Optional[Model]:
        """An earlier model that makes every conjunct of ``goal`` true,
        restricted to the goal's variables (absent ones read as 0)."""
        if not self._history:
            return None
        names = [t.name for t in T.iter_dag(goal) if t.is_var()]
        for values in self._history:
            assignment = {name: values.get(name, 0) for name in names}
            cache: Dict[int, int] = {}
            try:
                if all(evaluate(t, assignment, cache) for t in goal):
                    return Model(assignment)
            except EvaluationError:
                continue  # uninterpreted applications: no concrete value
        return None

    def _check_sat(self, goal: List[Term]) -> str:
        self.stats.by_sat += 1
        self.stats.sat_instances += 1
        blaster = BitBlaster()
        for t in goal:
            blaster.assert_term(t)
        sat = SatSolver(blaster.cnf, conflict_budget=self.conflict_budget,
                        deadline=self.deadline)
        result = sat.solve()
        self.stats.sat_conflicts += sat.conflicts
        self.stats.sat_decisions += sat.decisions
        self.stats.sat_propagations += sat.propagations
        self.stats.learned_clauses += len(sat.learnts)
        if result == SatResult.UNKNOWN:
            return CheckResult.UNKNOWN
        if result == SatResult.UNSAT:
            return CheckResult.UNSAT

        values: Dict[str, int] = {}
        for name in blaster.var_bits:
            values[name] = blaster.extract_value(name, sat.model)
        for name in blaster.bool_vars:
            values[name] = int(blaster.extract_bool(name, sat.model))
        return self._accept(goal, values)

    def _accept(self, goal: List[Term], values: Dict[str, int]) -> str:
        """Answer SAT with a validated model, kept for the reuse
        layer."""
        model = Model(values)
        if self.validate_models:
            self._validate(goal, model)
        self._model = model
        self._history.appendleft(values)
        return CheckResult.SAT

    def _validate(self, goal: Iterable[Term], model: Model) -> None:
        assignment = dict(model.values)
        for t in goal:
            # fill variables the blaster never saw (eliminated by simplify)
            for name, var in T.free_vars(t).items():
                assignment.setdefault(name, 0)
            try:
                ok = evaluate(t, assignment)
            except EvaluationError:
                continue  # uninterpreted applications: nothing to validate
            if not ok:
                raise AssertionError(
                    f"solver produced an invalid model {model} for {t}")


def is_sat(*terms: Term, **kwargs) -> bool:
    """Convenience: one-shot satisfiability of a conjunction."""
    solver = Solver(**kwargs)
    solver.add(*terms)
    return solver.check() == CheckResult.SAT


def get_model(*terms: Term, **kwargs) -> Optional[Model]:
    """Convenience: model of a conjunction, or None if UNSAT/unknown."""
    solver = Solver(**kwargs)
    solver.add(*terms)
    if solver.check() == CheckResult.SAT:
        return solver.model()
    return None
