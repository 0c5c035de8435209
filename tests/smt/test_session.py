"""Solvers over a fixed preamble: assumption scoping, blast-once, memo.

A :class:`Solver` must answer each goal as a fresh solver would (same
verdicts, valid models) while its SAT layer, the incremental
:class:`SolverSession`, reuses one SAT instance — assumptions from one
query must never leak into the next, and learned clauses must survive
because they are assumption-independent.
"""
import pytest

from repro.smt import (
    CheckResult, QueryMemo, Solver, evaluate,
    mk_add, mk_and, mk_bool_var, mk_bv, mk_bv_var, mk_bvxor, mk_eq,
    mk_ne, mk_not, mk_or, mk_ult,
)
from repro.smt.cnf import CNF
from repro.smt.sat import SatResult, SatSolver


X = mk_bv_var("x", 32)
Y = mk_bv_var("y", 32)


def make_session(**kw):
    # x < 16 and y < 16: a tiny but non-trivial preamble
    return Solver([mk_ult(X, mk_bv(16, 32)), mk_ult(Y, mk_bv(16, 32))],
                  **kw)


class TestAssumptionScoping:
    def test_contradictory_sequential_queries(self):
        s = make_session()
        assert s.check([mk_eq(X, mk_bv(3, 32))]) == CheckResult.SAT
        assert s.model()["x"] == 3
        # contradicts the previous goal but NOT the preamble: must be SAT
        assert s.check([mk_eq(X, mk_bv(5, 32))]) == CheckResult.SAT
        assert s.model()["x"] == 5
        # contradicts the preamble: UNSAT, not an error
        assert s.check([mk_eq(X, mk_bv(200, 32))]) == CheckResult.UNSAT
        # and the session still answers afterwards
        assert s.check([mk_eq(X, mk_bv(3, 32))]) == CheckResult.SAT

    def test_unsat_goal_does_not_poison_instance(self):
        s = make_session(use_interval=False)
        eq = mk_eq(X, Y)
        ne = mk_ne(X, Y)
        # x == y and x != y together are UNSAT...
        assert s.check([eq, ne]) == CheckResult.UNSAT
        # ...but each alone remains SAT on the same instance
        assert s.check([eq]) == CheckResult.SAT
        assert s.check([ne]) == CheckResult.SAT

    def test_empty_goal_checks_preamble(self):
        s = make_session()
        assert s.check([]) == CheckResult.SAT

    def test_contradictory_preamble(self):
        s = Solver([mk_eq(X, mk_bv(1, 32)),
                    mk_eq(X, mk_bv(2, 32)),
                    mk_ult(X, mk_bv(4, 32))])
        assert s.check([mk_eq(Y, mk_bv(0, 32))]) == CheckResult.UNSAT
        assert s.check([]) == CheckResult.UNSAT


class TestBlastOnce:
    def test_one_sat_instance_many_queries(self):
        s = make_session(use_interval=False)
        for k in range(10):
            assert s.check([mk_eq(X, mk_bv(k, 32))]) == CheckResult.SAT
        assert s.stats.sat_instances == 1
        assert s.stats.by_session == 10

    def test_rotation_rebuilds_instance(self):
        s = make_session(use_interval=False, max_live_queries=2)
        for k in range(5):
            assert s.check([mk_eq(X, mk_bv(k, 32))]) == CheckResult.SAT
        # 5 queries at 2 per instance: ceil(5/2) = 3 instances
        assert s.stats.sat_instances == 3
        assert s.stats.by_session == 5

    def test_models_are_valid(self):
        s = make_session(use_interval=False)
        goals = [
            [mk_eq(mk_add(X, Y), mk_bv(20, 32))],
            [mk_eq(mk_bvxor(X, Y), mk_bv(9, 32))],
            [mk_ne(X, Y), mk_ult(X, Y)],
        ]
        for goal in goals:
            assert s.check(goal) == CheckResult.SAT
            model = s.model()
            assignment = dict(model.values)
            assignment.setdefault("x", 0)
            assignment.setdefault("y", 0)
            for t in goal:
                assert evaluate(t, assignment)
            assert assignment["x"] < 16 and assignment["y"] < 16

    def test_budget_exhaustion_returns_unknown(self):
        # a propositional pigeonhole (5 pigeons, 4 holes) is UNSAT but
        # only via search; a zero conflict budget must surface UNKNOWN,
        # and a later easy query on the same session still works
        n = 5
        holes = [[mk_bool_var(f"h{p}_{j}") for j in range(n - 1)]
                 for p in range(n)]
        hard = [mk_or(*holes[p]) for p in range(n)]
        for j in range(n - 1):
            for p1 in range(n):
                for p2 in range(p1 + 1, n):
                    hard.append(mk_not(mk_and(holes[p1][j], holes[p2][j])))
        s = Solver([mk_ult(X, mk_bv(16, 32))],
                   conflict_budget=0, use_interval=False)
        assert s.check(hard) == CheckResult.UNKNOWN
        assert s.check([mk_eq(X, mk_bv(3, 32))]) == CheckResult.SAT

    def test_interval_layer_uses_preamble_bounds(self):
        s = make_session()
        # x >= 16 contradicts the preamble bound without bit-blasting
        before = s.stats.by_interval
        assert s.check([mk_eq(X, mk_bv(17, 32))]) == CheckResult.UNSAT
        assert s.stats.by_interval == before + 1
        assert s.stats.sat_instances == 0


class TestQueryMemo:
    def test_hit_miss_accounting(self):
        memo = QueryMemo()
        goal = mk_eq(X, mk_bv(3, 32))
        key = ((id(X),), id(goal))
        assert memo.get(key) is None
        memo.put(key, CheckResult.SAT, {"x": 3})
        assert memo.get(key) == (CheckResult.SAT, {"x": 3})
        assert memo.hits == 1 and memo.misses == 1

    def test_unknown_never_stored(self):
        memo = QueryMemo()
        memo.put(("k",), CheckResult.UNKNOWN)
        assert memo.get(("k",)) is None
        assert len(memo) == 0

    def test_distinct_preambles_do_not_collide(self):
        memo = QueryMemo()
        goal = mk_eq(X, mk_bv(3, 32))
        memo.put((("p1",), id(goal)), CheckResult.UNSAT)
        assert memo.get((("p2",), id(goal))) is None


class TestIncrementalSatSolver:
    def test_add_clause_after_solve(self):
        cnf = CNF()
        a, b = cnf.new_vars(2)
        cnf.add([a, b])
        sat = SatSolver(cnf)
        assert sat.solve() == SatResult.SAT
        sat.add_clause([-a])
        sat.add_clause([-b])
        assert sat.solve() == SatResult.UNSAT

    def test_attached_cnf_forwards_clauses(self):
        cnf = CNF()
        a = cnf.new_var()
        sat = SatSolver(cnf)
        cnf.attach(sat)
        assert sat.solve([a]) == SatResult.SAT
        cnf.add([-a])
        assert sat.solve([a]) == SatResult.UNSAT
        assert sat.solve([-a]) == SatResult.SAT

    def test_assumptions_do_not_persist(self):
        cnf = CNF()
        a, b = cnf.new_vars(2)
        cnf.add([-a, b])
        sat = SatSolver(cnf)
        assert sat.solve([a]) == SatResult.SAT
        assert sat.model[b] is True
        assert sat.solve([-b]) == SatResult.SAT
        assert sat.model[a] is False

    def test_per_call_conflict_budget(self):
        # pigeonhole guarded by an assumption: proving it UNSAT costs
        # conflicts, but those must count against a fresh per-call
        # allowance, not a lifetime total
        cnf = CNF()
        sel = cnf.new_var()
        n = 5
        holes = [[cnf.new_var() for _ in range(n - 1)] for _ in range(n)]
        for p in range(n):
            cnf.add([-sel] + holes[p])
        for h in range(n - 1):
            for p1 in range(n):
                for p2 in range(p1 + 1, n):
                    cnf.add([-holes[p1][h], -holes[p2][h]])
        probe = SatSolver(cnf)
        assert probe.solve([sel]) == SatResult.UNSAT
        assert probe.ok          # assumption-relative, not global
        needed = probe.conflicts
        assert needed > 0
        sat = SatSolver(cnf, conflict_budget=needed)
        sat.conflicts = 10 * needed   # as if prior queries burned it
        assert sat.solve([sel]) == SatResult.UNSAT

    def test_global_unsat_sets_ok_false(self):
        cnf = CNF()
        a = cnf.new_var()
        sat = SatSolver(cnf)
        sat.add_clause([a])
        sat.add_clause([-a])
        assert sat.solve() == SatResult.UNSAT
        assert not sat.ok
