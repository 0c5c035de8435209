"""Differential tests: the arena SAT core vs. an exhaustive oracle.

The oracle enumerates all ``2**N_VARS`` assignments (256), so it is a
complete decision procedure for these formulas and shares no code with
any CDCL core. Property: on any CNF, any assumption set, and any
incremental add/solve sequence, ``SatSolver``'s SAT/UNSAT answer equals
brute-force satisfiability, and every SAT model actually satisfies the
clauses and the assumptions (models may legitimately differ from the
oracle's).
"""
import itertools

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.smt.cnf import CNF
from repro.smt.sat import SatResult, SatSolver

N_VARS = 8


@st.composite
def clauses(draw, max_clauses=24):
    """A random clause list over variables 1..N_VARS."""
    lits = st.integers(1, N_VARS).flatmap(
        lambda v: st.sampled_from([v, -v]))
    clause = st.lists(lits, min_size=1, max_size=4)
    return draw(st.lists(clause, min_size=0, max_size=max_clauses))


@st.composite
def assumption_sets(draw, max_size=4):
    vs = draw(st.lists(st.integers(1, N_VARS), min_size=0,
                       max_size=max_size, unique=True))
    return [v if draw(st.booleans()) else -v for v in vs]


def _cnf_of(clause_list):
    cnf = CNF()
    cnf.new_vars(N_VARS)
    for cl in clause_list:
        cnf.add(cl)
    return cnf


def _satisfies(model, clause_list, assumptions=()):
    def lit_true(lit):
        return model.get(abs(lit), False) == (lit > 0)
    return all(any(lit_true(l) for l in cl) for cl in clause_list) \
        and all(lit_true(a) for a in assumptions)


def _brute_force(clause_list, assumptions=()):
    """SAT or UNSAT by trying every assignment of variables 1..N_VARS."""
    for bits in itertools.product((False, True), repeat=N_VARS):
        model = dict(zip(range(1, N_VARS + 1), bits))
        if _satisfies(model, clause_list, assumptions):
            return SatResult.SAT
    return SatResult.UNSAT


class TestDifferential:
    @settings(max_examples=120, deadline=None)
    @given(clauses())
    def test_plain_solve_agrees(self, clause_list):
        solver = SatSolver(_cnf_of(clause_list))
        result = solver.solve()
        assert result == _brute_force(clause_list)
        if result == SatResult.SAT:
            assert _satisfies(solver.model, clause_list)

    @settings(max_examples=120, deadline=None)
    @given(clauses(), assumption_sets())
    def test_assumption_solve_agrees(self, clause_list, assumptions):
        solver = SatSolver(_cnf_of(clause_list))
        result = solver.solve(assumptions)
        assert result == _brute_force(clause_list, assumptions)
        if result == SatResult.SAT:
            assert _satisfies(solver.model, clause_list, assumptions)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(clauses(max_clauses=8),
                              assumption_sets(max_size=3)),
                    min_size=1, max_size=4))
    def test_incremental_sequence_agrees(self, rounds):
        """Interleaved add_clauses / solve-under-assumptions: the core
        agrees with the oracle at every step of the incremental
        session."""
        solver = SatSolver(_cnf_of([]))
        grown = []
        for clause_list, assumptions in rounds:
            solver.add_clauses(clause_list)
            grown.extend(clause_list)
            result = solver.solve(assumptions)
            assert result == _brute_force(grown, assumptions)
            if result == SatResult.SAT:
                assert _satisfies(solver.model, grown, assumptions)


class TestBatchedImport:
    """Satellite regression: `add_clauses` pays the backtrack-to-root
    cost once per batch, not once per clause."""

    def _solved_solver(self):
        # leave the solver at a non-root decision level: solve SAT,
        # so the trail still holds decisions
        cnf = _cnf_of([[1, 2], [2, 3], [-1, 3], [4, 5, 6]])
        solver = SatSolver(cnf)
        assert solver.solve() == SatResult.SAT
        return solver

    def test_batch_import_single_backtrack(self):
        solver = self._solved_solver()
        before = solver.backtracks
        solver.add_clauses([[1, -4], [2, -5], [3, -6], [-2, 6], [4, -1]])
        assert solver.backtracks - before <= 1

    def test_per_clause_import_backtracks_each_time(self):
        # the contrast that makes the batched count meaningful: adding
        # one clause mid-flight backtracks, and a fresh solve re-opens
        # a decision level for the next add to unwind
        solver = self._solved_solver()
        before = solver.backtracks
        for cl in [[1, -4], [2, -5], [3, -6]]:
            solver.add_clause(cl)
            assert solver.solve() == SatResult.SAT
        assert solver.backtracks - before >= 3

    @settings(max_examples=60, deadline=None)
    @given(clauses(), clauses(max_clauses=8))
    def test_batch_equals_sequential(self, base, extra):
        batched = SatSolver(_cnf_of(base))
        batched.solve()
        batched.add_clauses(extra)
        single = SatSolver(_cnf_of(base))
        single.solve()
        for cl in extra:
            single.add_clause(cl)
        assert batched.solve() == single.solve()

