"""The incremental SAT back end: blast-once preambles, assumption SAT.

Every query the :class:`~repro.smt.solver.Solver` front end cannot
decide on the word level ends here. Queries against one solver share a
fixed preamble — thread bounds, ``t1 != t2``, launch assumptions — and
differ only in a small goal (a branch condition, or a pair's guards and
address overlap). A :class:`SolverSession` is the SAT layer built
around that shape:

* the preamble is bit-blasted **once** into a live
  :class:`~repro.smt.sat.SatSolver`;
* each :meth:`SolverSession.check` blasts only the goal conjuncts (the
  blaster skips subterms it has lowered before, and a
  :class:`~repro.smt.bitblast.TemplateCache` can instantiate repeated
  offset skeletons) and solves under their literals as *assumptions*.
  Each goal literal only *implies* its conjunct (the positive-polarity
  lowering of :meth:`~repro.smt.bitblast.BitBlaster.blast_assume`),
  which is sound because goal conjuncts are only ever assumed true;
* learned clauses are retained across queries — they are resolvents of
  real clauses only, hence valid whatever the assumptions.

Unbounded growth is the classic failure mode of a pure-Python CDCL
instance that lives for thousands of queries (clause DB, stale heap
entries, full-assignment models), so a session *rotates*: after
``max_live_queries`` checks or :data:`_MAX_LIVE_CLAUSES` clauses it
drops the SAT instance. Rotation is cheap: the preamble CNF is
*snapshotted* after the first blast, so the next query restores the
snapshot (no re-lowering) and re-imports the short preamble-only
learned clauses harvested at retirement in ONE batched ``add_clauses``
call — they are resolvents of preamble clauses and total Tseitin
definitions, so they stay valid for the restored instance.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .bitblast import BitBlaster, TemplateCache
from .cnf import CNF
from .sat import SatResult, SatSolver
from . import terms as T
from .terms import Term

if TYPE_CHECKING:
    from .solver import SolverStats


#: retention policy for learned clauses carried across rotations:
#: short clauses only (long ones rarely pay for their propagation
#: cost), bounded total
_MAX_RETAINED_LEN = 24
_MAX_RETAINED = 4096
#: a live instance with this many clauses (learned ones included)
#: rotates, whatever its query count
_MAX_LIVE_CLAUSES = 400_000


class SolverSession:
    """The SAT layer of one :class:`~repro.smt.solver.Solver`: a live
    incremental instance holding the blasted preamble, answered under
    assumption literals.

    *preamble* is the front end's simplified preamble; *stats* is the
    front end's :class:`~repro.smt.solver.SolverStats`, which the
    session credits with its SAT work. The front end supplies every
    option (its constructor documents them).
    """

    def __init__(self, preamble: Sequence[Term], stats: "SolverStats", *,
                 conflict_budget: Optional[int],
                 deadline: Optional[float],
                 max_live_queries: int,
                 templates: Optional[TemplateCache]) -> None:
        self.preamble: List[Term] = list(preamble)
        self.stats = stats
        self.conflict_budget = conflict_budget
        self.deadline = deadline
        self.max_live_queries = max_live_queries

        self._cnf: Optional[CNF] = None
        self._blaster: Optional[BitBlaster] = None
        self._sat = None
        self._live_queries = 0
        self._templates = templates

        #: preamble CNF snapshot taken after the first blast; rotation
        #: restores it instead of re-lowering the preamble
        self._snapshot: Optional[dict] = None
        #: preamble-only learned clauses retained across rotations
        #: (external signed literals, all vars <= snapshot num_vars)
        self._retained: List[List[int]] = []
        self._retained_keys: set = set()

    # ------------------------------------------------------------------

    def check(self, goal: Sequence[Term]
              ) -> Tuple[str, Optional[Dict[str, int]]]:
        """Solve ``preamble AND goal`` on the live instance.

        Returns the :class:`~repro.smt.sat.SatResult` tag and, when SAT,
        the values of the query's variables (unvalidated: the front end
        validates them).
        """
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

        values = self._extract_values(goal, sat.model) \
            if result == SatResult.SAT else None
        if self._live_queries >= self.max_live_queries or \
                len(sat.clauses) + len(sat.learnts) >= _MAX_LIVE_CLAUSES:
            self._retire()
        return result, values

    def _extract_values(self, goal: Sequence[Term],
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

    # ------------------------------------------------------------------
    # instance lifetime
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
