"""Property-based tests: the three semantics must agree.

For random terms we check that (1) the concrete evaluator, (2) the
simplifier followed by the evaluator, and (3) the bitblaster + SAT solver
all define the same function. This pins down the SMT substrate that all
race verdicts depend on.
"""
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.smt import (
    BOOL, CheckResult, Solver, bv_sort, evaluate, mk_add, mk_and,
    mk_ashr, mk_bv, mk_bv_var, mk_bvand, mk_bvnot, mk_bvor, mk_bvxor,
    mk_eq, mk_extract, mk_ite, mk_lshr, mk_mul, mk_ne, mk_not, mk_or,
    mk_sdiv, mk_sext, mk_shl, mk_sle, mk_slt, mk_srem, mk_sub, mk_udiv,
    mk_ule, mk_ult, mk_urem, mk_zext, simplify,
)
from repro.smt.bitblast import BitBlaster
from repro.smt.sat import SatResult, SatSolver

WIDTH = 8  # small width keeps bit-blasting fast while covering wrap cases

_BINOPS = [mk_add, mk_sub, mk_mul, mk_udiv, mk_urem, mk_sdiv, mk_srem,
           mk_bvand, mk_bvor, mk_bvxor, mk_shl, mk_lshr, mk_ashr]
_PREDS = [mk_eq, mk_ne, mk_ult, mk_ule, mk_slt, mk_sle]


@st.composite
def bv_terms(draw, depth=3):
    """Random BV term over variables a, b and constants."""
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return mk_bv_var(draw(st.sampled_from(["a", "b"])), WIDTH)
        return mk_bv(draw(st.integers(0, 2**WIDTH - 1)), WIDTH)
    op = draw(st.sampled_from(_BINOPS + ["ite", "ext"]))
    if op == "ite":
        cond = draw(bool_terms(depth=depth - 1))
        x = draw(bv_terms(depth=depth - 1))
        y = draw(bv_terms(depth=depth - 1))
        return mk_ite(cond, x, y)
    if op == "ext":
        x = draw(bv_terms(depth=depth - 1))
        kind = draw(st.sampled_from(["zext", "sext", "extract", "not"]))
        if kind == "zext":
            return mk_extract(mk_zext(x, WIDTH + 4), WIDTH - 1, 0)
        if kind == "sext":
            return mk_extract(mk_sext(x, WIDTH + 4), WIDTH - 1, 0)
        if kind == "extract":
            return mk_zext(mk_extract(x, WIDTH - 2, 1), WIDTH)
        return mk_bvnot(x)
    x = draw(bv_terms(depth=depth - 1))
    y = draw(bv_terms(depth=depth - 1))
    return op(x, y)


@st.composite
def bool_terms(draw, depth=2):
    if depth == 0:
        pred = draw(st.sampled_from(_PREDS))
        return pred(draw(bv_terms(depth=1)), draw(bv_terms(depth=1)))
    kind = draw(st.sampled_from(["pred", "and", "or", "not"]))
    if kind == "pred":
        pred = draw(st.sampled_from(_PREDS))
        return pred(draw(bv_terms(depth=depth)), draw(bv_terms(depth=depth)))
    if kind == "not":
        return mk_not(draw(bool_terms(depth=depth - 1)))
    x = draw(bool_terms(depth=depth - 1))
    y = draw(bool_terms(depth=depth - 1))
    return mk_and(x, y) if kind == "and" else mk_or(x, y)


assignments = st.fixed_dictionaries({
    "a": st.integers(0, 2**WIDTH - 1),
    "b": st.integers(0, 2**WIDTH - 1),
})


@settings(max_examples=150, deadline=None)
@given(term=bv_terms(), env=assignments)
def test_simplify_preserves_semantics(term, env):
    assert evaluate(term, env) == evaluate(simplify(term), env)


@settings(max_examples=150, deadline=None)
@given(term=bool_terms(), env=assignments)
def test_simplify_preserves_bool_semantics(term, env):
    assert evaluate(term, env) == evaluate(simplify(term), env)


@settings(max_examples=60, deadline=None)
@given(term=bv_terms(depth=2), env=assignments)
def test_bitblast_agrees_with_evaluator(term, env):
    """Assert term == concrete-result; the blasted formula must be SAT
    when variables are pinned to env, proving circuit == evaluator."""
    expected = evaluate(term, env)
    a = mk_bv_var("a", WIDTH)
    b = mk_bv_var("b", WIDTH)
    pinned = mk_and(
        mk_eq(a, mk_bv(env["a"], WIDTH)),
        mk_eq(b, mk_bv(env["b"], WIDTH)),
        mk_eq(term, mk_bv(expected, WIDTH)),
    )
    blaster = BitBlaster()
    blaster.assert_term(pinned)
    solver = SatSolver(blaster.cnf)
    assert solver.solve() == SatResult.SAT

    # and the *wrong* result must be UNSAT
    wrong = mk_and(
        mk_eq(a, mk_bv(env["a"], WIDTH)),
        mk_eq(b, mk_bv(env["b"], WIDTH)),
        mk_eq(term, mk_bv((expected + 1) % 2**WIDTH, WIDTH)),
    )
    if not wrong.is_false():
        blaster2 = BitBlaster()
        blaster2.assert_term(wrong)
        assert SatSolver(blaster2.cnf).solve() == SatResult.UNSAT


@settings(max_examples=60, deadline=None)
@given(term=bool_terms(depth=1), env=assignments)
def test_full_solver_agrees_with_evaluator(term, env):
    expected = evaluate(term, env)
    a = mk_bv_var("a", WIDTH)
    b = mk_bv_var("b", WIDTH)
    pinned = mk_and(
        mk_eq(a, mk_bv(env["a"], WIDTH)),
        mk_eq(b, mk_bv(env["b"], WIDTH)),
        term if expected else mk_not(term),
    )
    assert Solver().check([pinned]) == CheckResult.SAT


@settings(max_examples=40, deadline=None)
@given(term=bool_terms(depth=1))
def test_models_satisfy_their_formula(term):
    solver = Solver()
    if solver.check([term]) == CheckResult.SAT:
        model = solver.model()
        env = {"a": model.get("a", 0), "b": model.get("b", 0)}
        assert evaluate(term, env) is True
    else:
        # claimed UNSAT: spot-check a grid of the small domain
        for av in range(0, 2**WIDTH, step := 7):
            for bv_ in range(0, 2**WIDTH, step):
                assert not evaluate(term, {"a": av, "b": bv_})
