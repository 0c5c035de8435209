"""The incremental SAT back end: blast-once preambles, assumption SAT.

Every query the :class:`~repro.smt.solver.Solver` front end cannot
decide on the word level ends here. Queries against one solver share a
fixed preamble — thread bounds, ``t1 != t2``, launch assumptions — and
differ only in a small goal (a branch condition, or a pair's guards and
address overlap). A :class:`SolverSession` is the SAT layer built
around that shape:

* the preamble is bit-blasted **once** (per process, see below) into a
  live :class:`~repro.smt.sat.SatSolver`;
* each :meth:`SolverSession.check` blasts only the goal conjuncts (the
  blaster skips subterms it has lowered before, and a
  :class:`~repro.smt.bitblast.TemplateCache` can instantiate repeated
  offset skeletons) and solves under their literals as *assumptions*.
  Each goal literal only *implies* its conjunct (the positive-polarity
  lowering of :meth:`~repro.smt.bitblast.BitBlaster.blast_assume`),
  which is sound because goal conjuncts are only ever assumed true;
* learned clauses are retained across queries — they are resolvents of
  real clauses only, hence valid whatever the assumptions.

The blasted preamble instance is kept as a :class:`FrozenPreamble`: a
compact read-only record (the clause arena, problem-clause crefs and
root trail of :meth:`~repro.smt.sat.SatSolver.freeze`, plus the
blaster's maps). Every later instance *thaws* a copy of it instead of
blasting the preamble and inserting its clauses again.

Unbounded growth is the classic failure mode of a pure-Python CDCL
instance that lives for thousands of queries (clause DB, stale heap
entries, full-assignment models), so a session *rotates*: after
``max_live_queries`` checks or :data:`_MAX_LIVE_CLAUSES` clauses it
drops the SAT instance. The next query thaws the frozen preamble and
re-imports the short preamble-only learned clauses harvested at
retirement in ONE batched ``add_clauses`` call — they are resolvents of
preamble clauses and total Tseitin definitions, so they stay valid for
the thawed instance.

The race queries of one launch shape share one preamble, and many
solvers are built for it (one per check, per stream launch pair, per
feasibility scope). So the frozen records are also shared process-wide,
in a bounded LRU table keyed on the preamble's interned terms: a
preamble seen a second time stores its record there, and every later
session with that preamble thaws it for its first instance as well.
Sessions without a template cache (the differential references) stay
out of the table and blast their own preamble.
"""
from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .bitblast import BitBlaster, TemplateCache
from .cnf import CNF
from .sat import FrozenRoot, SatResult, SatSolver
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
#: preambles the shared table remembers (seen once, or frozen), least
#: recently used evicted first: a long-lived daemon worker meets an
#: unbounded stream of launch shapes
_MAX_PREAMBLES = 64


class FrozenPreamble:
    """One blasted preamble instance, frozen before its first solve.

    Holds the :class:`~repro.smt.sat.FrozenRoot`, the constant-true
    literal, and the blaster's maps (:meth:`BitBlaster.copy_maps`): the
    bits of every preamble variable and the literals of every lowered
    preamble node, so a goal that shares a subterm with the preamble
    reuses its circuit, as on the instance that blasted it. The node
    maps are keyed by ``id``, so the record pins the preamble terms.
    Nothing writes to a filled record, so threads share it;
    :meth:`thaw` copies it.
    """

    __slots__ = ("terms", "root", "true_lit", "maps")

    def __init__(self, terms: Tuple[Term, ...], sat: SatSolver, cnf: CNF,
                 blaster: BitBlaster) -> None:
        self.terms = terms
        self.root: FrozenRoot = sat.freeze()
        self.true_lit: Optional[int] = cnf._true_lit
        self.maps = blaster.copy_maps()

    def thaw(self, templates: Optional[TemplateCache],
             conflict_budget: Optional[int], deadline: Optional[float]
             ) -> Tuple[CNF, BitBlaster, SatSolver]:
        """A live instance holding the preamble: the goal CNF (attached
        to the solver), its blaster, and the solver."""
        cnf = CNF()
        cnf.num_vars = self.root.nvars
        cnf._true_lit = self.true_lit
        blaster = BitBlaster(cnf, templates=templates)
        blaster.load_maps(self.maps)
        sat = SatSolver.thaw(self.root, conflict_budget, deadline)
        cnf.attach(sat)
        return cnf, blaster, sat


#: preamble terms -> its shared frozen record, or None once seen only
#: once (the second sighting stores the record)
_PREAMBLES: "OrderedDict[Tuple[Term, ...], Optional[FrozenPreamble]]" = \
    OrderedDict()
_PREAMBLES_LOCK = threading.Lock()


def _shared_preamble(key: Tuple[Term, ...]
                     ) -> Tuple[Optional[FrozenPreamble], bool]:
    """The shared record for *key*, and whether *key* was seen before.

    Notes a sighting. The key holds the interned terms themselves, so
    two preambles share an entry only if they are the same terms.
    """
    with _PREAMBLES_LOCK:
        if key in _PREAMBLES:
            _PREAMBLES.move_to_end(key)
            return _PREAMBLES[key], True
        _remember(key, None)
        return None, False


def _share_preamble(key: Tuple[Term, ...], frozen: FrozenPreamble) -> None:
    """Store *frozen* unless another thread stored one first."""
    with _PREAMBLES_LOCK:
        if _PREAMBLES.get(key) is None:
            _remember(key, frozen)


def _remember(key: Tuple[Term, ...],
              frozen: Optional[FrozenPreamble]) -> None:
    """Make *key* the most recent entry, evicting the least recently
    used one past the cap. The caller holds the lock."""
    _PREAMBLES[key] = frozen
    _PREAMBLES.move_to_end(key)
    if len(_PREAMBLES) > _MAX_PREAMBLES:
        _PREAMBLES.popitem(last=False)


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
        self._sat: Optional[SatSolver] = None
        self._live_queries = 0
        self._templates = templates

        #: the preamble instance every instance after the first blast
        #: thaws: this session's own, or the shared one
        self._frozen: Optional[FrozenPreamble] = None
        #: preamble-only learned clauses retained across rotations
        #: (external signed literals, all vars <= the preamble's)
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
        th0 = blaster.template_hits
        assumptions = [blaster.blast_assume(t) for t in T.conjuncts(goal)]
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
        frozen, seen = self._frozen, False
        key = tuple(self.preamble)
        if frozen is None and self._templates is not None:
            frozen, seen = _shared_preamble(key)
        if frozen is None:
            cnf = CNF()
            blaster = BitBlaster(cnf, templates=self._templates)
            for t in self.preamble:
                blaster.assert_term(t)
            sat = SatSolver(cnf, conflict_budget=self.conflict_budget,
                            deadline=self.deadline)
            frozen = FrozenPreamble(key, sat, cnf, blaster)
            cnf.attach(sat)
            if seen:
                _share_preamble(key, frozen)
        else:
            cnf, blaster, sat = frozen.thaw(
                self._templates, self.conflict_budget, self.deadline)
        self._frozen = frozen
        if self._retained:
            sat.add_clauses(self._retained)
        self._cnf = cnf
        self._blaster = blaster
        self._sat = sat
        self._live_queries = 0
        self.stats.sat_instances += 1

    def _retire(self) -> None:
        """Drop the live SAT instance, harvesting its learned clauses;
        the next query thaws the frozen preamble."""
        if self._sat is not None:
            self._harvest_learnts()
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
        every thawed instance — whatever goals come next.
        """
        sat, frozen = self._sat, self._frozen
        if sat is None or frozen is None or not sat.learnts:
            return
        watermark = frozen.root.nvars
        fresh: List[List[int]] = []
        for cref in sat.learnts:
            lits = sat.clause_lits(cref)
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
