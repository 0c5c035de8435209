"""Interval-domain unit tests (soundness is also covered by the
property suite: the solver pipeline never lets the interval layer claim
UNSAT on satisfiable queries)."""
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.smt import (
    CheckResult, Interval, IntervalAnalysis, Solver, derive_bounds,
    evaluate, mk_add, mk_and, mk_bv, mk_bv_var, mk_bvand, mk_eq, mk_lshr,
    mk_mul, mk_ne, mk_not, mk_shl, mk_sle, mk_slt, mk_ule, mk_ult,
    mk_urem,
)
from repro.smt.interval import B_FALSE, B_TOP, B_TRUE, byte_footprint


def var(name="x"):
    return mk_bv_var(name, 32)


class TestIntervalAlgebra:
    def test_point(self):
        iv = Interval.point(7, 32)
        assert iv.is_point() and iv.lo == iv.hi == 7

    def test_top(self):
        iv = Interval.top(8)
        assert iv.lo == 0 and iv.hi == 255

    def test_join_meet(self):
        a = Interval(0, 10, 32)
        b = Interval(5, 20, 32)
        assert a.join(b) == Interval(0, 20, 32)
        assert a.meet(b) == Interval(5, 10, 32)
        assert Interval(0, 3, 32).meet(Interval(5, 9, 32)) is None


class TestDeriveBounds:
    def test_ult_const(self):
        x = var()
        bounds = derive_bounds([mk_ult(x, mk_bv(64, 32))])
        assert bounds["x"] == Interval(0, 63, 32)

    def test_eq_const(self):
        x = var()
        bounds = derive_bounds([mk_eq(x, mk_bv(5, 32))])
        assert bounds["x"].is_point()

    def test_nested_and(self):
        x, y = var("x"), var("y")
        conj = mk_and(mk_ult(x, mk_bv(8, 32)), mk_ult(y, mk_bv(4, 32)))
        bounds = derive_bounds([conj])
        assert bounds["x"].hi == 7 and bounds["y"].hi == 3

    def test_meet_of_multiple_bounds(self):
        x = var()
        bounds = derive_bounds([mk_ult(x, mk_bv(64, 32)),
                                mk_ult(x, mk_bv(16, 32))])
        assert bounds["x"].hi == 15


class TestAbstractEvaluation:
    def test_bounded_add_no_overflow(self):
        x = var()
        analysis = IntervalAnalysis({"x": Interval(0, 10, 32)})
        iv = analysis.interval_of(mk_add(x, mk_bv(5, 32)))
        assert (iv.lo, iv.hi) == (5, 15)

    def test_mul_overflow_goes_top(self):
        x = var()
        analysis = IntervalAnalysis({"x": Interval(0, 2**31, 32)})
        iv = analysis.interval_of(mk_mul(x, mk_bv(4, 32)))
        assert iv.is_top()

    def test_urem_bounded(self):
        x = var()
        analysis = IntervalAnalysis()
        iv = analysis.interval_of(mk_urem(x, mk_bv(8, 32)))
        assert iv.hi <= 7

    def test_and_mask_bounded(self):
        x = var()
        analysis = IntervalAnalysis()
        iv = analysis.interval_of(mk_bvand(x, mk_bv(0xFF, 32)))
        assert iv.hi == 0xFF

    def test_disjoint_ranges_unsat(self):
        x = var()
        analysis = IntervalAnalysis({"x": Interval(0, 7, 32)})
        assert analysis.must_be_false(mk_eq(x, mk_bv(100, 32)))

    def test_tautology_detected(self):
        x = var()
        analysis = IntervalAnalysis({"x": Interval(0, 7, 32)})
        assert analysis.must_be_true(mk_ult(x, mk_bv(8, 32)))

    def test_unknown_stays_top(self):
        x, y = var("x"), var("y")
        analysis = IntervalAnalysis()
        assert analysis.bool_of(mk_eq(x, y)) == B_TOP


@settings(max_examples=200, deadline=None)
@given(x=st.integers(0, 2**32 - 1),
       c1=st.integers(0, 255), c2=st.integers(1, 255))
def test_interval_soundness(x, c1, c2):
    """Any concrete evaluation must fall inside the abstract interval."""
    xv = var()
    terms = [
        mk_add(xv, mk_bv(c1, 32)),
        mk_mul(xv, mk_bv(c2, 32)),
        mk_urem(xv, mk_bv(c2, 32)),
        mk_bvand(xv, mk_bv(c1, 32)),
        mk_lshr(xv, mk_bv(c1 % 32, 32)),
        mk_shl(xv, mk_bv(c1 % 32, 32)),
    ]
    analysis = IntervalAnalysis({"x": Interval(0, 2**32 - 1, 32)})
    for t in terms:
        value = evaluate(t, {"x": x})
        iv = analysis.interval_of(t)
        assert iv.lo <= value <= iv.hi, (t, value, iv)


@settings(max_examples=100, deadline=None)
@given(x=st.integers(0, 63), bound=st.integers(1, 64))
def test_bounded_var_soundness(x, bound):
    if x >= bound:
        x = x % bound
    xv = var()
    analysis = IntervalAnalysis({"x": Interval(0, bound - 1, 32)})
    t = mk_add(mk_mul(xv, mk_bv(4, 32)), mk_bv(2, 32))
    value = evaluate(t, {"x": x})
    iv = analysis.interval_of(t)
    assert iv.lo <= value <= iv.hi


class TestSameBase:
    """``(b + c1) P (b + c2)`` over one base term: matrixMul's loop
    tests, e.g. ``((bid.y << 10) + 48) <=s ((bid.y << 10) + 63)``."""

    @staticmethod
    def base():
        return mk_shl(var("bid.y"), mk_bv(10, 32))

    @staticmethod
    def analysis():
        return IntervalAnalysis({"bid.y": Interval(0, 39, 32)})

    def test_loop_tests_decided(self):
        b = self.base()
        plus = lambda c: mk_add(b, mk_bv(c, 32))   # noqa: E731
        analysis = self.analysis()
        assert analysis.bool_of(mk_sle(plus(48), plus(63))) == B_TRUE
        assert analysis.bool_of(mk_sle(b, plus(63))) == B_TRUE
        assert analysis.bool_of(mk_sle(plus(64), plus(63))) == B_FALSE
        assert analysis.bool_of(mk_slt(plus(63), plus(63 + 1))) == B_TRUE
        assert analysis.bool_of(mk_ult(plus(16), b)) == B_FALSE
        assert analysis.bool_of(mk_eq(plus(16), plus(48))) == B_FALSE
        assert analysis.bool_of(mk_not(mk_sle(plus(32), plus(63)))) \
            == B_FALSE

    def test_negative_offsets(self):
        # b - 1 is b + 0xffffffff; the base is at least 1, so it does
        # not wrap below zero
        x = var()
        analysis = IntervalAnalysis({"x": Interval(1, 100, 32)})
        minus_one = mk_add(x, mk_bv(-1, 32))
        assert analysis.bool_of(mk_ult(minus_one, x)) == B_TRUE
        assert analysis.bool_of(mk_slt(minus_one, x)) == B_TRUE

    def test_wrapping_base_is_not_decided(self):
        x = mk_bv_var("x", 8)
        one = mk_add(x, mk_bv(1, 8))
        # x = 255 wraps x + 1 to 0: unsigned order unknown
        assert IntervalAnalysis().bool_of(mk_ult(x, one)) == B_TOP
        # x in [100, 127]: x + 10 crosses the signed maximum
        near_max = IntervalAnalysis({"x": Interval(100, 127, 8)})
        assert near_max.bool_of(
            mk_slt(x, mk_add(x, mk_bv(10, 8)))) == B_TOP
        # a base spanning both signed halves is never decided
        both = IntervalAnalysis({"x": Interval(120, 130, 8)})
        assert both.bool_of(mk_sle(x, mk_add(x, mk_bv(1, 8)))) == B_TOP

    def test_solver_skips_the_sat_core(self):
        b = self.base()
        plus = lambda c: mk_add(b, mk_bv(c, 32))   # noqa: E731
        solver = Solver([mk_ult(var("bid.y"), mk_bv(40, 32))])
        loop = [mk_sle(plus(c), plus(63)) for c in (0, 16, 32, 48)]
        assert solver.check([mk_and(*loop)]) == CheckResult.SAT
        assert solver.model()["bid.y"] == 0
        assert solver.check(
            [mk_and(*loop[:3], mk_not(loop[3]))]) == CheckResult.UNSAT
        assert solver.stats.sat_instances == 0
        assert solver.stats.by_interval == 2


_SAME_BASE_PREDS = [mk_ult, mk_ule, mk_slt, mk_sle, mk_eq]


@st.composite
def same_base_queries(draw):
    """A bounded 8-bit variable, a base term over it, and a same-base
    comparison (possibly negated)."""
    lo = draw(st.integers(0, 255))
    hi = draw(st.integers(lo, 255))
    x = mk_bv_var("x", 8)
    base = draw(st.sampled_from([
        x, mk_shl(x, mk_bv(2, 8)), mk_mul(x, mk_bv(3, 8)),
        mk_bvand(x, mk_bv(0x3C, 8)), mk_add(x, mk_bv(100, 8))]))
    c1 = draw(st.integers(0, 255))
    c2 = draw(st.integers(0, 255))
    pred = draw(st.sampled_from(_SAME_BASE_PREDS))(
        mk_add(base, mk_bv(c1, 8)), mk_add(base, mk_bv(c2, 8)))
    if draw(st.booleans()):
        pred = mk_not(pred)
    bounds = [mk_ule(mk_bv(lo, 8), x), mk_ule(x, mk_bv(hi, 8))]
    return bounds, pred


@settings(max_examples=150, deadline=None)
@given(query=same_base_queries())
def test_same_base_rule_agrees_with_sat_core(query):
    """Whenever the rule decides a same-base comparison, the SAT core
    (no interval layer, no shared templates) agrees: the comparison
    and its negation have the verdicts the rule implies."""
    bounds, pred = query
    analysis = IntervalAnalysis(derive_bounds(bounds))
    verdict = analysis.bool_of(pred)

    def core(goal):
        return Solver(bounds, use_interval=False, templates=None).check(
            [goal])

    if verdict == B_TRUE:
        assert core(mk_not(pred)) == CheckResult.UNSAT
        assert core(pred) == CheckResult.SAT
    elif verdict == B_FALSE:
        assert core(pred) == CheckResult.UNSAT
    # the layered solver answers as the SAT core does
    for goal in (pred, mk_not(pred)):
        assert Solver(bounds).check([goal]) == core(goal)


class TestByteFootprint:
    def test_word_access(self):
        assert byte_footprint(Interval(0, 1020, 32), 4) == (0, 1023)

    def test_single_byte(self):
        assert byte_footprint(Interval(8, 8, 32), 1) == (8, 8)

    def test_wrapping_end_has_no_footprint(self):
        top = Interval.top(32)
        assert byte_footprint(top, 1) == (0, 2**32 - 1)
        assert byte_footprint(top, 2) is None

    def test_narrow_width(self):
        assert byte_footprint(Interval(250, 254, 8), 2) == (250, 255)
        assert byte_footprint(Interval(250, 254, 8), 3) is None
