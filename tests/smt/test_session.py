"""Solvers over a fixed preamble: assumption scoping, blast-once, memo.

A :class:`Solver` must answer each goal as a fresh solver would (same
verdicts, valid models) while its SAT layer, the incremental
:class:`SolverSession`, reuses one SAT instance — assumptions from one
query must never leak into the next, and learned clauses must survive
because they are assumption-independent.
"""
import contextlib
import sys
import threading
from collections import OrderedDict

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.smt import (
    CheckResult, QueryMemo, Solver, evaluate,
    mk_add, mk_and, mk_bool_var, mk_bv, mk_bv_var, mk_bvxor, mk_eq,
    mk_mul, mk_ne, mk_not, mk_or, mk_ult,
)
from repro.smt import session as session_mod
from repro.smt.cnf import CNF
from repro.smt.sat import SatResult, SatSolver

from .test_properties import WIDTH, bool_terms


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


# ----------------------------------------------------------------------
# the shared table of frozen preamble instances
# ----------------------------------------------------------------------

@contextlib.contextmanager
def fresh_table():
    """Run with an empty shared preamble table (restored afterwards)."""
    saved = session_mod._PREAMBLES
    session_mod._PREAMBLES = OrderedDict()
    try:
        yield session_mod._PREAMBLES
    finally:
        session_mod._PREAMBLES = saved


def share(preamble, **kw):
    """A solver whose first instance thaws the shared record of
    *preamble*: two earlier solvers blast it, the second stores it."""
    for _ in range(2):
        Solver(preamble, use_interval=False).check([])
    solver = Solver(preamble, use_interval=False, **kw)
    solver.check([])
    frozen = session_mod._PREAMBLES[tuple(solver.preamble)]
    assert frozen is not None and solver.session._frozen is frozen
    return solver, frozen


def snapshot(frozen):
    root = frozen.root
    return (root.nvars, bytes(root.arena), bytes(root.crefs),
            bytes(root.trail), root.ok, frozen.true_lit,
            [dict(m) for m in frozen.maps])


A = mk_bv_var("a", WIDTH)
B = mk_bv_var("b", WIDTH)
SMALL = [mk_ult(A, mk_bv(100, WIDTH)), mk_ne(A, B)]


class TestFrozenPreamble:
    def test_stored_on_second_sighting(self):
        with fresh_table() as table:
            Solver(SMALL, use_interval=False).check([])
            key = tuple(Solver(SMALL).preamble)
            assert table[key] is None          # seen once: no record
            Solver(SMALL, use_interval=False).check([])
            assert table[key] is not None
            s = Solver(SMALL, use_interval=False)
            s.check([])
            assert s.stats.sat_instances == 1  # a thaw is an instance

    def test_reference_sessions_stay_out(self):
        with fresh_table() as table:
            for _ in range(3):
                s = Solver(SMALL, use_interval=False, templates=None)
                assert s.check([mk_eq(A, mk_bv(3, WIDTH))]) \
                    == CheckResult.SAT
            assert len(table) == 0

    @given(st.lists(st.lists(bool_terms(), min_size=1, max_size=2),
                    min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_thawed_session_agrees_with_own_blast(self, goals):
        with fresh_table():
            thawed, _ = share(SMALL, max_live_queries=3)
            own = Solver(SMALL, use_interval=False, templates=None,
                         max_live_queries=3)
            for conjuncts in goals:
                got = thawed.check(conjuncts)
                assert got == own.check(conjuncts)
                if got == CheckResult.SAT:
                    assignment = {"a": 0, "b": 0, **thawed.model().values}
                    assert evaluate(mk_and(*SMALL, *conjuncts),
                                    assignment) is True

    def test_thaw_rebuilds_the_frozen_instance(self):
        cnf = CNF()
        a, b, c = cnf.new_vars(3)
        for clause in ([a], [-a, b, c], [-b, -c], [b, c, -a], [c, a]):
            cnf.add(clause)
        built = SatSolver(cnf)
        thawed = SatSolver.thaw(built.freeze())
        for attr in ("nvars", "lit_val", "watches", "levels", "reasons",
                     "saved_lit", "trail", "clauses", "ok", "_heap"):
            assert getattr(thawed, attr) == getattr(built, attr), attr
        assert bytes(thawed.arena) == bytes(built.arena)
        assert thawed.solve() == built.solve() == SatResult.SAT
        assert thawed.model == built.model

    def test_clones_leave_the_record_alone(self):
        with fresh_table():
            first, frozen = share(SMALL, max_live_queries=2)
            before = snapshot(frozen)
            # a second clone, thawed but never solved
            second = Solver(SMALL, use_interval=False)
            second.session._ensure_sat()
            assert second.session._frozen is frozen
            # solve, blast new goals, learn and rotate on the first clone
            hard = mk_eq(mk_mul(A, A), mk_add(B, mk_bv(7, WIDTH)))
            for k in range(6):
                first.check([hard, mk_ult(B, mk_bv(10 + k, WIDTH))])
            assert first.stats.sat_instances >= 3
            assert snapshot(frozen) == before
            # the second clone's instance is still the bare preamble
            sat = second.session._sat
            assert bytes(sat.arena) == bytes(frozen.root.arena)
            assert sat.trail == list(frozen.root.trail)
            assert sat.learnts == []
            assert second.check([hard]) == first.check([hard])

    def test_key_is_terms_not_names_or_widths(self):
        with fresh_table() as table:
            preambles = [
                [mk_ult(mk_bv_var("tid.x", 32), mk_bv(64, 32))],
                [mk_ult(mk_bv_var("tid.x", 16), mk_bv(64, 16))],
                [mk_ult(mk_bv_var("tid.x!1", 32), mk_bv(64, 32))],
            ]
            for preamble in preambles:
                for _ in range(3):
                    Solver(preamble, use_interval=False).check([])
            assert len(table) == 3
            records = list(table.values())
            assert len({id(r) for r in records}) == 3
            names = [set(r.maps[0]) for r in records]
            widths = [len(next(iter(r.maps[0].values()))) for r in records]
            assert names == [{"tid.x"}, {"tid.x"}, {"tid.x!1"}]
            assert widths == [32, 16, 32]

    def test_threads_share_one_entry(self):
        x = mk_bv_var("x", 32)
        preamble = [mk_ult(x, mk_bv(1000, 32)),
                    mk_ne(mk_mul(x, mk_bv(3, 32)), mk_bv(30, 32))]
        results = {}

        def work(i):
            s = Solver(preamble, use_interval=False)
            # x = 10 is excluded by the preamble; x = i is not
            results[i] = (s.check([mk_eq(x, mk_bv(10, 32))]),
                          s.check([mk_eq(x, mk_bv(i, 32))]),
                          s.model()["x"])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # interleave the first blasts
        try:
            with fresh_table() as table:
                threads = [threading.Thread(target=work, args=(i,))
                           for i in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                assert results == {
                    i: (CheckResult.UNSAT, CheckResult.SAT, i)
                    for i in range(8)}
                assert len(table) == 1
                assert next(iter(table.values())) is not None
        finally:
            sys.setswitchinterval(interval)

    def test_table_is_bounded(self):
        cap = session_mod._MAX_PREAMBLES
        x = mk_bv_var("x", 32)
        with fresh_table() as table:
            for n in range(1, 201):
                preamble = [mk_ult(x, mk_bv(n, 32))]
                for _ in range(2):
                    Solver(preamble, use_interval=False).check([])
                assert len(table) <= cap
            assert len(table) == cap
            # least recently used first out: the newest preambles stay
            assert tuple(Solver([mk_ult(x, mk_bv(200, 32))]).preamble) \
                in table
