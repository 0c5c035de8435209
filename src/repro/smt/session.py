"""Incremental solver sessions: blast-once preambles, assumption SAT.

The race checker's queries share a large fixed prefix — thread bounds,
``t1 != t2``, launch assumptions — and differ only in a small per-pair
goal (guards + address overlap). A :class:`SolverSession` is the
layered :class:`~repro.smt.solver.Solver` pipeline rebuilt around that
shape:

* the preamble is simplified and bit-blasted **once** into a live
  :class:`~repro.smt.sat.SatSolver`;
* each :meth:`check` blasts only the goal conjuncts (the blaster skips
  subterms it has lowered before, and the shared
  :class:`~repro.smt.bitblast.TemplateCache` instantiates repeated
  offset skeletons) and solves under their literals as *assumptions*.
  Each goal literal only *implies* its conjunct (the positive-polarity
  lowering of :meth:`~repro.smt.bitblast.BitBlaster.blast_assume`),
  which is sound because goal conjuncts are only ever assumed true;
* learned clauses are retained across queries — they are resolvents of
  real clauses only, hence valid whatever the assumptions.

Unbounded growth is the classic failure mode of a pure-Python CDCL
instance that lives for thousands of queries (clause DB, stale heap
entries, full-assignment models), so a session *rotates*: after
``max_live_queries`` checks or ``max_live_clauses`` clauses it drops
the SAT instance. Rotation is cheap: the preamble CNF is *snapshotted*
after the first blast, so the next query restores the snapshot (no
re-lowering) and re-imports the short preamble-only learned clauses
harvested at retirement in ONE batched ``add_clauses`` call — they are
resolvents of preamble clauses and total Tseitin definitions, so they
stay valid for the restored instance. The same snapshot + learnts
bundle is what :mod:`repro.smt.persist` serialises for cross-run warm
starts (:meth:`SolverSession.export_state` /
:meth:`SolverSession.adopt_state`).

:class:`QueryMemo` is the cross-query cache above the session: interned
canonical goal term -> verdict (+ model values), so structurally
identical pairs — rampant in unrolled kernels — never touch the SAT
core at all. UNKNOWN is never memoized.

Every race and stream-pair query takes this one path: simplifier ->
memo -> session -> :class:`~repro.smt.sat.SatSolver`. Inside the
session a query passes the simplifier, the interval layer and the
range-chain layer (:mod:`repro.smt.ranges`) before it reaches the SAT
instance.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .bitblast import BitBlaster, TemplateCache
from .cnf import CNF
from .interval import Interval, IntervalAnalysis, derive_bounds
from .ranges import decide_chain, parse_chain
from .sat import SatResult, SatSolver
from .simplify import simplify
from .solver import CheckResult, Model, SolverStats
from . import terms as T
from .subst import EvaluationError, evaluate
from .terms import Term


class QueryMemo:
    """Canonical-query result cache (term identity -> verdict + model).

    Keys are ``(context_key, id(canonical_goal))``: interning makes
    ``id`` a stable global identity for a term, and the context key
    distinguishes preambles. SAT entries carry the witness values so a
    hit reproduces the one-shot answer; UNKNOWN is never stored (a
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
#: sound to share across sessions, preambles, and checkers (see
#: :class:`~repro.smt.bitblast.TemplateCache`); capped in size.
_SHARED_TEMPLATES = TemplateCache()

#: retention policy for learned clauses carried across rotations and
#: persisted for warm starts: short clauses only (long ones rarely pay
#: for their propagation cost), bounded total
_MAX_RETAINED_LEN = 24
_MAX_RETAINED = 4096


class SolverSession:
    """A persistent solving context for one fixed preamble.

    Mirrors the :class:`~repro.smt.solver.Solver` layering (simplify ->
    trivial -> interval -> range chain -> SAT) per query, but the SAT
    layer is a live incremental instance holding the blasted preamble,
    answered under assumption literals.
    """

    def __init__(self, preamble: Sequence[Term], *,
                 conflict_budget: Optional[int] = 200_000,
                 deadline: Optional[float] = None,
                 use_simplifier: bool = True,
                 use_interval: bool = True,
                 validate_models: bool = True,
                 stats: Optional[SolverStats] = None,
                 max_live_queries: int = 256,
                 max_live_clauses: int = 400_000,
                 templates: Optional[TemplateCache] = _SHARED_TEMPLATES
                 ) -> None:
        self.conflict_budget = conflict_budget
        self.deadline = deadline
        self.use_simplifier = use_simplifier
        self.use_interval = use_interval
        self.validate_models = validate_models
        self.stats = stats if stats is not None else SolverStats()
        self.max_live_queries = max_live_queries
        self.max_live_clauses = max_live_clauses

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

        self._cnf: Optional[CNF] = None
        self._blaster: Optional[BitBlaster] = None
        self._sat = None
        self._live_queries = 0
        self._model: Optional[Model] = None
        self._templates = templates

        #: preamble CNF snapshot taken after the first blast (or adopted
        #: from a persisted artifact); rotation restores it instead of
        #: re-lowering the preamble
        self._snapshot: Optional[dict] = None
        #: preamble-only learned clauses retained across rotations
        #: (external signed literals, all vars <= snapshot num_vars)
        self._retained: List[List[int]] = []
        self._retained_keys: set = set()

    # ------------------------------------------------------------------

    def check(self, goal: Sequence[Term]) -> str:
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

            if self._preamble_chain is not None:
                chain = parse_chain(goal, self._preamble_chain)
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
    # SAT layer
    # ------------------------------------------------------------------

    def _ensure_sat(self) -> None:
        if self._sat is not None:
            return
        cnf = CNF()
        blaster = BitBlaster(cnf, templates=self._templates)
        snap = self._snapshot
        if snap is None:
            for t in self.preamble:
                blaster.assert_term(t)
            self._snapshot = {
                "num_vars": cnf.num_vars,
                "clauses": cnf.clauses,       # frozen below via record=False
                "true_lit": cnf._true_lit,
                "var_bits": {n: list(b) for n, b in blaster.var_bits.items()},
                "bool_vars": dict(blaster.bool_vars),
            }
        else:
            # restore: no re-lowering — the snapshot IS the preamble CNF
            cnf.num_vars = snap["num_vars"]
            cnf.clauses = snap["clauses"]
            cnf._true_lit = snap["true_lit"]
            blaster.var_bits.update(
                {n: list(b) for n, b in snap["var_bits"].items()})
            blaster.bool_vars.update(snap["bool_vars"])
        cnf.record = False  # goal clauses die with the instance
        self._cnf = cnf
        self._blaster = blaster
        sat = SatSolver(cnf, conflict_budget=self.conflict_budget,
                        deadline=self.deadline)
        if self._retained:
            sat.add_clauses(self._retained)
        cnf.attach(sat)
        self._sat = sat
        self._live_queries = 0
        self.stats.sat_instances += 1

    def _retire(self) -> None:
        """Drop the live SAT instance, harvesting its learned clauses;
        the next query restores the preamble snapshot."""
        if self._sat is not None:
            self._harvest_learnts()
            if self._cnf is not None:
                self._cnf.detach(self._sat)
        self._cnf = None
        self._blaster = None
        self._sat = None
        self._live_queries = 0

    def _harvest_learnts(self) -> None:
        """Keep short learned clauses mentioning only preamble variables.

        Such a clause is a resolvent of the preamble clauses plus goal
        Tseitin *definitions*; the definitions are total (any preamble
        model extends over the gate variables), so a preamble-only
        resolvent is entailed by the preamble alone and stays valid in
        every restored instance — whatever goals come next.
        """
        sat, snap = self._sat, self._snapshot
        if sat is None or snap is None or not sat.learnts:
            return
        watermark = snap["num_vars"]
        fresh: List[List[int]] = []
        decode = getattr(sat, "clause_lits", None)
        for entry in sat.learnts:
            lits = decode(entry) if decode is not None else entry
            if len(lits) > _MAX_RETAINED_LEN:
                continue
            ok = True
            for lit in lits:
                if (lit if lit > 0 else -lit) > watermark:
                    ok = False
                    break
            if not ok:
                continue
            key = frozenset(lits)
            if key in self._retained_keys:
                continue
            self._retained_keys.add(key)
            fresh.append(list(lits))
        if fresh:
            fresh.sort(key=len)
            room = _MAX_RETAINED - len(self._retained)
            self._retained.extend(fresh[:max(0, room)])

    # ------------------------------------------------------------------
    # warm-start state (see repro.smt.persist)
    # ------------------------------------------------------------------

    def export_state(self) -> Optional[dict]:
        """The preamble CNF snapshot + retained learnts, or ``None`` if
        this session never reached the SAT layer."""
        if self._sat is not None:
            self._harvest_learnts()
        if self._snapshot is None:
            return None
        return {"snapshot": self._snapshot, "learnts": self._retained}

    def adopt_state(self, state: dict) -> bool:
        """Warm-start from a previously exported state.

        Only valid before the first SAT query (the caller matches the
        preamble by canonical fingerprint; see
        :func:`repro.smt.persist.preamble_fingerprint`). Returns False
        if the session already has live state.
        """
        if self._snapshot is not None or self._sat is not None:
            return False
        snap = state["snapshot"]
        self._snapshot = snap
        learnts = [list(c) for c in state.get("learnts", ())]
        self._retained = learnts[:_MAX_RETAINED]
        self._retained_keys = {frozenset(c) for c in self._retained}
        return True

    def _check_sat(self, goal: List[Term]) -> str:
        self._ensure_sat()
        blaster, sat = self._blaster, self._sat
        assert blaster is not None and sat is not None
        sat.deadline = self.deadline
        sat.conflict_budget = self.conflict_budget

        # Blast top-level conjuncts separately: the big shared ones
        # (flow conditions) stay on the incremental sharing path (the
        # blaster's node map answers them for free on later queries),
        # while the small per-pair ones (offset equations) are exactly
        # what the template cache instantiates.
        conjuncts: List[Term] = []
        seen_ids = set()
        stack = list(reversed(goal))
        while stack:
            t = stack.pop()
            if t.op == T.Op.BAND:
                stack.extend(reversed(t.args))
                continue
            if id(t) not in seen_ids:
                seen_ids.add(id(t))
                conjuncts.append(t)
        th0 = blaster.template_hits
        assumptions = [blaster.blast_assume(t) for t in conjuncts]
        self.stats.template_hits += blaster.template_hits - th0
        sat.ensure_vars(self._cnf.num_vars)

        c0, d0 = sat.conflicts, sat.decisions
        p0, l0 = sat.propagations, len(sat.learnts)
        result = sat.solve(assumptions)
        self.stats.by_session += 1
        self.stats.sat_conflicts += sat.conflicts - c0
        self.stats.sat_decisions += sat.decisions - d0
        self.stats.sat_propagations += sat.propagations - p0
        self.stats.learned_clauses += len(sat.learnts) - l0
        self._live_queries += 1

        outcome = CheckResult.UNKNOWN
        if result == SatResult.UNSAT:
            outcome = CheckResult.UNSAT
        elif result == SatResult.SAT:
            outcome = self._accept(
                goal, self._extract_values(goal, sat.model))

        if self._live_queries >= self.max_live_queries or \
                len(sat.clauses) + len(sat.learnts) >= self.max_live_clauses:
            self._retire()
        return outcome

    def _accept(self, goal: List[Term], values: Dict[str, int]) -> str:
        """Answer SAT with a validated model."""
        model = Model(values)
        if self.validate_models:
            self._validate(goal, model)
        self._model = model
        return CheckResult.SAT

    def _extract_values(self, goal: List[Term],
                        sat_model: Dict[int, bool]) -> Dict[str, int]:
        # restrict to the variables of THIS query: the blaster knows
        # every variable any query ever mentioned, and values for the
        # others would leak junk into race witnesses
        blaster = self._blaster
        assert blaster is not None
        values: Dict[str, int] = {}
        for name in T.free_vars(*self.preamble, *goal):
            if name in blaster.var_bits:
                values[name] = blaster.extract_value(name, sat_model)
            elif name in blaster.bool_vars:
                values[name] = int(blaster.extract_bool(name, sat_model))
        return values

    def _validate(self, goal: List[Term], model: Model) -> None:
        assignment = dict(model.values)
        for t in self.preamble + goal:
            for name in T.free_vars(t):
                assignment.setdefault(name, 0)
            try:
                ok = evaluate(t, assignment)
            except EvaluationError:
                continue  # uninterpreted applications: nothing to validate
            if not ok:
                raise AssertionError(
                    f"session produced an invalid model {model} for {t}")
