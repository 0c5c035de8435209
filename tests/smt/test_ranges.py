"""The range-chain layer: word-level answers must match the SAT core.

A conjunction of range tests over one base term is decided by
intersecting intervals on the base (:mod:`repro.smt.ranges`). Whenever
the layer answers, a fresh solver that bit-blasts everything must give
the same verdict, and a SAT model must make every conjunct true.
Anything the layer cannot decide — a step that may overflow, a base it
cannot map back to the variables, a conjunct that is not a range test —
falls through to the SAT core.
"""
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.smt import (
    CheckResult, Solver, evaluate, mk_add, mk_and, mk_bv,
    mk_bv_var, mk_mul, mk_ne, mk_not, mk_shl, mk_ule, mk_ult,
)

W = 8  # small widths: wrapping adds and overflowing steps are common
A, B = mk_bv_var("a", W), mk_bv_var("b", W)

#: the random chains' width: wide enough that not every shift overflows
RW = 10
RA, RB = mk_bv_var("a", RW), mk_bv_var("b", RW)
MAX = (1 << RW) - 1


def bv(value):
    return mk_bv(value, W)


def rbv(value):
    return mk_bv(value, RW)


def sat_core_answer(conjuncts):
    """The verdict with the interval and range layers and the shared
    template cache off."""
    return Solver(use_interval=False, templates=None).check(conjuncts)


@st.composite
def chain_queries(draw):
    """(var-bound facts, chain predicates over one base term)."""
    shape = draw(st.sampled_from(["var", "shl", "mul"]))
    facts = []
    if shape == "var":
        base = RA
        if draw(st.booleans()):
            facts.append(mk_ult(RA, rbv(draw(st.integers(1, MAX)))))
    else:
        k = draw(st.integers(1, 4))
        scale = 1 << k if shape == "shl" else draw(st.integers(2, 12))
        scaled = mk_shl(RB, rbv(k)) if shape == "shl" else \
            mk_mul(RB, rbv(scale))
        base = mk_add(RA, scaled)
        # mostly a's exact digit range, so SAT answers can map back
        a_bound = scale if draw(st.booleans()) else \
            draw(st.integers(1, MAX))
        facts.append(mk_ult(RA, rbv(a_bound)))
        facts.append(mk_ult(RB, rbv(draw(st.integers(1, MAX >> k)))))
        if draw(st.booleans()):
            facts.append(mk_ule(rbv(draw(st.integers(0, 40))), RB))
    # half the queries only add: those never overflow, so every one the
    # interval layer leaves open exercises the wrap split
    kinds = draw(st.sampled_from([("add",), ("add", "add", "shl", "mul")]))
    preds = []
    for _ in range(draw(st.integers(1, 5))):
        x = base
        for _ in range(draw(st.integers(0, 3))):
            step = draw(st.sampled_from(kinds))
            if step == "add":
                x = mk_add(x, rbv(draw(st.integers(0, MAX))))
            elif step == "shl":
                x = mk_shl(x, rbv(draw(st.integers(1, 2))))
            else:
                x = mk_mul(x, rbv(draw(st.integers(2, 5))))
        limit = rbv(draw(st.integers(0, MAX)))
        make = draw(st.sampled_from([
            lambda: mk_ult(x, limit), lambda: mk_ule(x, limit),
            lambda: mk_ult(limit, x), lambda: mk_ule(limit, x)]))
        pred = make()
        preds.append(mk_not(pred) if draw(st.booleans()) else pred)
    return facts, preds


def assert_model_holds(conjuncts, values):
    assignment = {"a": 0, "b": 0, **values}
    assert evaluate(mk_and(*conjuncts), assignment) is True


@given(chain_queries())
@settings(max_examples=200, deadline=None)
def test_layer_agrees_with_sat_core(query):
    facts, preds = query
    expected = sat_core_answer(facts + preds)

    # the whole query as the goal, and split at the preamble
    for solver, goal in ((Solver(), facts + preds), (Solver(facts), preds)):
        assert solver.check(goal) == expected
        if solver.stats.by_range and expected == CheckResult.SAT:
            assert_model_holds(facts + preds, solver.model().values)
        assert solver.stats.answered() == solver.stats.queries


class TestDecisions:
    def test_wrapping_adds_decided_unsat(self):
        # a + 100 and a + 130 both wrap on a < 200, so the interval
        # layer sees only top; on a the tests are [156, 199] and
        # [0, 125], which do not meet
        goal = [mk_ult(A, bv(200)), mk_ult(mk_add(A, bv(100)), bv(50)),
                mk_not(mk_ult(mk_add(A, bv(130)), bv(100)))]
        solver = Solver()
        assert solver.check(goal) == CheckResult.UNSAT
        assert solver.stats.by_range == 1
        assert solver.stats.sat_instances == 0
        assert sat_core_answer(goal) == CheckResult.UNSAT

    def test_wrapping_add_decided_sat(self):
        goal = [mk_ult(A, bv(200)), mk_ult(mk_add(A, bv(100)), bv(50)),
                mk_not(mk_ult(A, bv(180)))]
        solver = Solver()
        assert solver.check(goal) == CheckResult.SAT
        assert solver.stats.by_range == 1
        assert solver.model()["a"] == 180

    def test_scaled_bounds_round_inward(self):
        # 10 < 3a < 14 holds only at a = 4, and 10 < 3a < 12 nowhere:
        # the preimage of a scaled bound must round up at its low end
        triple = mk_mul(A, bv(3))
        solver = Solver()
        assert solver.check([mk_ult(A, bv(50)), mk_ult(bv(10), triple),
                             mk_ult(triple, bv(14))]) == CheckResult.SAT
        assert solver.model().values == {"a": 4}
        assert solver.check([mk_ult(A, bv(50)), mk_ult(bv(10), triple),
                             mk_ult(triple, bv(12))]) == CheckResult.UNSAT
        assert solver.stats.by_range == 2

    def test_model_maps_back_through_shift(self):
        base = mk_add(A, mk_shl(B, bv(2)))
        goal = [mk_ult(A, bv(4)), mk_ult(B, bv(10)),
                mk_not(mk_ult(base, bv(5))),
                mk_ult(mk_add(base, bv(3)), bv(20))]
        solver = Solver()
        assert solver.check(goal) == CheckResult.SAT
        assert solver.stats.by_range == 1
        assert solver.model().values == {"a": 1, "b": 1}

    def test_model_maps_back_through_multiplication(self):
        base = mk_add(A, mk_mul(B, bv(5)))
        goal = [mk_ult(A, bv(5)), mk_ult(B, bv(10)),
                mk_ult(bv(22), base)]
        solver = Solver()
        assert solver.check(goal) == CheckResult.SAT
        assert solver.stats.by_range == 1
        assert solver.model().values == {"a": 3, "b": 4}


class TestFallThrough:
    def test_overflowing_step_reaches_sat_core(self):
        goal = [mk_ult(A, bv(200)), mk_ult(mk_shl(A, bv(2)), bv(10))]
        solver = Solver()
        assert solver.check(goal) == CheckResult.SAT
        assert solver.stats.by_range == 0
        assert solver.stats.by_session == 1

    def test_inexact_digit_range_sat_reaches_sat_core(self):
        # a < 3 leaves base values with a = 3 unreachable: a value in
        # the intersection need not map back to the variables
        base = mk_add(A, mk_shl(B, bv(2)))
        goal = [mk_ult(A, bv(3)), mk_ult(B, bv(10)),
                mk_ult(bv(6), base)]
        solver = Solver()
        assert solver.check(goal) == CheckResult.SAT
        assert solver.stats.by_range == 0
        assert solver.stats.by_session == 1

    def test_non_chain_conjunct_is_not_answered(self):
        t1, t2 = mk_bv_var("t1", W), mk_bv_var("t2", W)
        goal = [mk_ult(t1, bv(64)), mk_ult(t2, bv(64)),
                mk_ult(mk_add(t1, bv(8)), bv(40)), mk_ne(t1, t2)]
        solver = Solver()
        assert solver.check(goal) == CheckResult.SAT
        assert solver.stats.by_range == 0
        assert solver.stats.by_session == 1

    def test_session_preamble_that_does_not_fit_rules_layer_out(self):
        t1, t2 = mk_bv_var("t1", W), mk_bv_var("t2", W)
        solver = Solver([mk_ult(t1, bv(64)), mk_ult(t2, bv(64)),
                         mk_ne(t1, t2)])
        assert solver.check([mk_ult(mk_add(t1, bv(8)), bv(40))]) \
            == CheckResult.SAT
        assert solver.stats.by_range == 0
        assert solver.stats.by_session == 1

    def test_session_decides_chain_without_sat_instance(self):
        base = mk_add(A, mk_shl(B, bv(2)))
        solver = Solver([mk_ult(A, bv(4)), mk_ult(B, bv(10))])
        assert solver.check([mk_ult(bv(30), mk_add(base, bv(1)))]) \
            == CheckResult.SAT
        # base + 230 wraps, so only the range layer sees that no base
        # value in [10, 19] passes it
        assert solver.check([mk_ult(mk_add(base, bv(230)), bv(240)),
                             mk_not(mk_ult(base, bv(10))),
                             mk_ult(base, bv(20))]) == CheckResult.UNSAT
        assert solver.stats.by_range == 2
        assert solver.stats.sat_instances == 0
