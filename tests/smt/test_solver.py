"""End-to-end solver tests, including the paper's own race formulas."""
import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.smt import (
    CheckResult, Solver, mk_add, mk_and, mk_bv, mk_bv_var, mk_bvand,
    mk_bvxor, mk_eq, mk_lshr, mk_mul, mk_ne, mk_not, mk_or, mk_shl, mk_ult,
    mk_urem, evaluate,
)

from .test_properties import bool_terms


def bv(value, width=32):
    return mk_bv(value, width)


def get_model(*terms):
    """Model of the conjunction on a fresh solver, or None."""
    solver = Solver()
    if solver.check(list(terms)) == CheckResult.SAT:
        return solver.model()
    return None


def is_sat(*terms):
    return get_model(*terms) is not None


class TestBasicQueries:
    def test_trivially_sat(self):
        x = mk_bv_var("x")
        assert is_sat(mk_eq(x, bv(5)))

    def test_trivially_unsat(self):
        x = mk_bv_var("x")
        assert not is_sat(mk_and(mk_eq(x, bv(5)), mk_eq(x, bv(6))))

    def test_model_extraction(self):
        x, y = mk_bv_var("x"), mk_bv_var("y")
        model = get_model(mk_eq(mk_add(x, y), bv(10)), mk_eq(x, bv(3)))
        assert model is not None
        assert model["x"] == 3
        assert (model["x"] + model["y"]) % 2**32 == 10

    def test_unsat_has_no_model(self):
        x = mk_bv_var("x")
        solver = Solver([mk_ult(x, bv(0))])
        assert solver.check() == CheckResult.UNSAT
        with pytest.raises(RuntimeError):
            solver.model()


class TestPaperRaceFormulas:
    """The exact formulas from Section II of the paper."""

    def test_intro_wr_race_is_sat(self):
        # t1.x = (t2.x + 1) % bdim.x  with t1 != t2, both < bdim, bdim = 64
        t1, t2 = mk_bv_var("t1"), mk_bv_var("t2")
        bdim = bv(64)
        formula = mk_and(
            mk_ne(t1, t2),
            mk_ult(t1, bdim),
            mk_ult(t2, bdim),
            mk_eq(t1, mk_urem(mk_add(t2, bv(1)), bdim)),
        )
        model = get_model(formula)
        assert model is not None
        # the paper's witness shape: consecutive threads (mod bdim)
        assert (model["t2"] + 1) % 64 == model["t1"]

    def test_divergent_branch_rw_race_is_sat(self):
        # t1.x % 2 == 0  &&  t2.x % 2 != 0  &&  t1.x == t2.x >> 2
        t1, t2 = mk_bv_var("t1"), mk_bv_var("t2")
        formula = mk_and(
            mk_ne(t1, t2),
            mk_ult(t1, bv(64)), mk_ult(t2, bv(64)),
            mk_eq(mk_urem(t1, bv(2)), bv(0)),
            mk_ne(mk_urem(t2, bv(2)), bv(0)),
            mk_eq(t1, mk_lshr(t2, bv(2))),
        )
        model = get_model(formula)
        assert model is not None
        assert model["t1"] % 2 == 0 and model["t2"] % 2 == 1
        assert model["t1"] == model["t2"] >> 2

    def test_reduction_ww_query_is_unsat(self):
        # t1 != t2 && t1 % 2 == 0 && t2 % 2 == 0 && t1 == t2
        t1, t2 = mk_bv_var("t1"), mk_bv_var("t2")
        formula = mk_and(
            mk_ne(t1, t2),
            mk_eq(mk_urem(t1, bv(2)), bv(0)),
            mk_eq(mk_urem(t2, bv(2)), bv(0)),
            mk_eq(t1, t2),
        )
        assert not is_sat(formula)

    def test_reduction_rw_query_is_unsat(self):
        # t1 != t2 && t1%2 == 0 && t2%2 == 0 && (t1 + 1 == t2 || t1 == t2)
        t1, t2 = mk_bv_var("t1"), mk_bv_var("t2")
        formula = mk_and(
            mk_ne(t1, t2),
            mk_eq(mk_urem(t1, bv(2)), bv(0)),
            mk_eq(mk_urem(t2, bv(2)), bv(0)),
            mk_or(mk_eq(mk_add(t1, bv(1)), t2), mk_eq(t1, t2)),
        )
        assert not is_sat(formula)

    def test_bitonic_ixj_formula(self):
        # ixj = tid ^ j with j = 2: accesses shared[tid] and shared[ixj]
        t1, t2 = mk_bv_var("t1"), mk_bv_var("t2")
        j = bv(2)
        formula = mk_and(
            mk_ne(t1, t2),
            mk_ult(t1, bv(16)), mk_ult(t2, bv(16)),
            mk_ult(t1, mk_bvxor(t1, j)),      # ixj > tid guard for t1
            mk_eq(mk_bvxor(t1, j), t2),       # t1's partner address hits t2's own
        )
        model = get_model(formula)
        assert model is not None
        assert (model["t1"] ^ 2) == model["t2"]


class TestHistoFinalOOB:
    """Figure 9's OOB constraint, downscaled proportionally."""

    def test_oob_constraint_shape(self):
        # (tid + bid*512 + 47*42*512) * 8 < 8159230 is SAT for small tid/bid
        tid, bid = mk_bv_var("tid"), mk_bv_var("bid")
        expr = mk_add(mk_add(tid, mk_bv(512, 32) * bid), bv(47 * 42 * 512))
        formula = mk_and(
            mk_ult(tid, bv(512)),
            mk_ult(bid, bv(42)),
            mk_ult(expr * bv(8), bv(8159230 + 8 * 4)),
            mk_not(mk_ult(expr, bv(8159232 // 8))),
        )
        model = get_model(formula)
        assert model is not None
        idx = (model["tid"] + model["bid"] * 512 + 47 * 42 * 512)
        assert idx >= 8159232 // 8
        assert idx * 8 < 8159230 + 32


class TestSolverLayers:
    def test_interval_layer_catches_disjoint_strides(self):
        x = mk_bv_var("x")
        solver = Solver([mk_ult(x, bv(8))])
        assert solver.check([mk_eq(x, bv(100))]) == CheckResult.UNSAT
        assert solver.stats.by_interval == 1
        assert solver.stats.sat_instances == 0  # never reached SAT

    def test_simplifier_layer_catches_mask_contradiction(self):
        x = mk_bv_var("x")
        solver = Solver()
        # (x * 4) == 2 is impossible: multiples of 4 are never 2
        assert solver.check([mk_eq(mk_shl(x, bv(2)), bv(2))]) \
            == CheckResult.UNSAT
        assert solver.stats.by_simplifier == 1
        assert solver.stats.sat_instances == 0

    def test_layers_can_be_disabled(self):
        x = mk_bv_var("x")
        solver = Solver([mk_ult(x, bv(8))], use_simplifier=False,
                        use_interval=False)
        assert solver.check([mk_eq(x, bv(100))]) == CheckResult.UNSAT
        assert solver.stats.by_session == 1

    def test_extra_assumptions_not_persistent(self):
        x = mk_bv_var("x")
        solver = Solver([mk_ult(x, bv(10))])
        assert solver.check([mk_eq(x, bv(100))]) == CheckResult.UNSAT
        assert solver.check() == CheckResult.SAT

    def test_model_validates_against_evaluator(self):
        x, y = mk_bv_var("x"), mk_bv_var("y")
        formula = mk_eq(mk_bvand(mk_add(x, y), bv(0xFF)), bv(0x42))
        model = get_model(formula)
        assert model is not None
        assert evaluate(formula, dict(model.values)) is True

    def test_goal_every_model_falsifies_reaches_sat_core(self):
        x = mk_bv_var("x")
        solver = Solver([mk_ult(x, bv(10))], use_interval=False)
        for value in (0, 1, 2, 7):
            assert solver.check([mk_eq(x, bv(value))]) == CheckResult.SAT
            assert solver.model()["x"] == value
        # every query reached the SAT layer, on one live instance
        assert solver.stats.by_session == 4
        assert solver.stats.sat_instances == 1

    def test_sat_layer_answers_unsat_search_requires(self):
        x = mk_bv_var("x", 8)
        solver = Solver()
        assert solver.check([mk_eq(x, mk_bv(2, 8))]) == CheckResult.SAT
        # squares are 0 or 1 mod 4; neither the simplifier nor the
        # interval layer sees it, so only the SAT core can say UNSAT
        assert solver.check([mk_eq(mk_mul(x, x), mk_bv(2, 8))]) \
            == CheckResult.UNSAT
        assert solver.stats.by_session == 2

    def test_model_restricted_to_query_variables(self):
        x, y = mk_bv_var("x"), mk_bv_var("y")
        solver = Solver([mk_ult(x, bv(10))], use_interval=False)
        assert solver.check([mk_eq(y, bv(7))]) == CheckResult.SAT
        assert solver.check([mk_eq(x, bv(3))]) == CheckResult.SAT
        # y is known to the live instance, but not part of this query
        assert set(solver.model().values) == {"x"}

    @given(st.lists(st.lists(bool_terms(), min_size=1, max_size=2),
                    min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_reuse_agrees_with_fresh_solver(self, goals):
        # one solver answering a sequence of goals (one live SAT
        # instance, learned clauses retained) agrees with a fresh
        # solver per goal that shares no template cache with it
        reusing = Solver()
        for conjuncts in goals:
            expected = Solver(templates=None).check(conjuncts)
            got = reusing.check(conjuncts)
            assert got == expected
            if got == CheckResult.SAT:
                assignment = {"a": 0, "b": 0, **reusing.model().values}
                assert evaluate(mk_and(*conjuncts), assignment) is True
        assert reusing.stats.answered() == reusing.stats.queries
        assert reusing.stats.sat_instances <= 1
