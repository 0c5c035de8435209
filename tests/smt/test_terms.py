"""Unit tests for the term language: interning, folding, normalisation."""
import pytest

from repro.smt import (
    BOOL, BV32, FALSE, TRUE, Op, bv_sort, free_vars, mk_add, mk_and, mk_bool,
    mk_bv, mk_bv_var, mk_bvand, mk_bvnot, mk_bvor, mk_bvxor, mk_concat,
    mk_eq, mk_extract, mk_ite, mk_lshr, mk_mul, mk_ne, mk_not, mk_or,
    mk_sext, mk_shl, mk_sub, mk_udiv, mk_ule, mk_ult, mk_urem, mk_var,
    mk_zext, term_size, fresh_var,
)


class TestInterning:
    def test_identical_constants_are_same_object(self):
        assert mk_bv(42, 32) is mk_bv(42, 32)

    def test_different_widths_are_distinct(self):
        assert mk_bv(1, 32) is not mk_bv(1, 64)

    def test_constants_wrap_modulo_width(self):
        assert mk_bv(256, 8) is mk_bv(0, 8)
        assert mk_bv(-1, 8) is mk_bv(255, 8)

    def test_compound_terms_interned(self):
        x = mk_bv_var("x", 32)
        y = mk_bv_var("y", 32)
        assert mk_add(x, y) is mk_add(x, y)

    def test_commutative_constant_normalisation(self):
        x = mk_bv_var("x", 32)
        c = mk_bv(3, 32)
        assert mk_add(c, x) is mk_add(x, c)
        assert mk_mul(c, x) is mk_mul(x, c)

    def test_fresh_vars_are_unique(self):
        a = fresh_var("t", BV32)
        b = fresh_var("t", BV32)
        assert a is not b
        assert a.name != b.name


class TestConstantFolding:
    def test_arith_folds(self):
        assert mk_add(mk_bv(2, 32), mk_bv(3, 32)) is mk_bv(5, 32)
        assert mk_sub(mk_bv(2, 32), mk_bv(3, 32)) is mk_bv(2**32 - 1, 32)
        assert mk_mul(mk_bv(7, 32), mk_bv(6, 32)) is mk_bv(42, 32)

    def test_udiv_by_zero_is_all_ones(self):
        assert mk_udiv(mk_bv(5, 8), mk_bv(0, 8)) is mk_bv(255, 8)

    def test_urem_by_zero_is_lhs(self):
        assert mk_urem(mk_bv(5, 8), mk_bv(0, 8)) is mk_bv(5, 8)

    def test_shift_folds(self):
        assert mk_shl(mk_bv(1, 32), mk_bv(4, 32)) is mk_bv(16, 32)
        assert mk_lshr(mk_bv(16, 32), mk_bv(4, 32)) is mk_bv(1, 32)
        assert mk_shl(mk_bv(1, 32), mk_bv(32, 32)) is mk_bv(0, 32)

    def test_predicates_fold(self):
        assert mk_ult(mk_bv(1, 32), mk_bv(2, 32)) is TRUE
        assert mk_ule(mk_bv(3, 32), mk_bv(2, 32)) is FALSE
        assert mk_eq(mk_bv(5, 32), mk_bv(5, 32)) is TRUE


class TestIdentities:
    def setup_method(self):
        self.x = mk_bv_var("x", 32)

    def test_additive_identity(self):
        assert mk_add(self.x, mk_bv(0, 32)) is self.x

    def test_constant_chain_collapses(self):
        t = mk_add(mk_add(self.x, mk_bv(3, 32)), mk_bv(4, 32))
        assert t is mk_add(self.x, mk_bv(7, 32))

    def test_sub_self_is_zero(self):
        assert mk_sub(self.x, self.x) is mk_bv(0, 32)

    def test_mul_identities(self):
        assert mk_mul(self.x, mk_bv(1, 32)) is self.x
        assert mk_mul(self.x, mk_bv(0, 32)) is mk_bv(0, 32)

    def test_and_identities(self):
        assert mk_bvand(self.x, mk_bv(0, 32)) is mk_bv(0, 32)
        assert mk_bvand(self.x, mk_bv(2**32 - 1, 32)) is self.x
        assert mk_bvand(self.x, self.x) is self.x

    def test_or_identities(self):
        assert mk_bvor(self.x, mk_bv(0, 32)) is self.x
        assert mk_bvor(self.x, self.x) is self.x

    def test_xor_self_is_zero(self):
        assert mk_bvxor(self.x, self.x) is mk_bv(0, 32)

    def test_double_negation(self):
        assert mk_bvnot(mk_bvnot(self.x)) is self.x

    def test_eq_reflexive(self):
        assert mk_eq(self.x, self.x) is TRUE

    def test_ult_irreflexive(self):
        assert mk_ult(self.x, self.x) is FALSE

    def test_ult_zero_bound(self):
        assert mk_ult(self.x, mk_bv(0, 32)) is FALSE


class TestBooleanConnectives:
    def setup_method(self):
        self.p = mk_var("p", BOOL)
        self.q = mk_var("q", BOOL)

    def test_and_short_circuit(self):
        assert mk_and(self.p, FALSE) is FALSE
        assert mk_and(self.p, TRUE) is self.p
        assert mk_and() is TRUE

    def test_or_short_circuit(self):
        assert mk_or(self.p, TRUE) is TRUE
        assert mk_or(self.p, FALSE) is self.p
        assert mk_or() is FALSE

    def test_and_flattens(self):
        t = mk_and(mk_and(self.p, self.q), self.p)
        assert t.op == Op.BAND
        assert len(t.args) == 2

    def test_contradiction_detected(self):
        assert mk_and(self.p, mk_not(self.p)) is FALSE
        assert mk_or(self.p, mk_not(self.p)) is TRUE

    def test_not_involution(self):
        assert mk_not(mk_not(self.p)) is self.p

    def test_ne_is_not_eq(self):
        x = mk_bv_var("x", 32)
        y = mk_bv_var("y", 32)
        assert mk_ne(x, y) is mk_not(mk_eq(x, y))


class TestIte:
    def test_concrete_condition(self):
        x, y = mk_bv_var("x", 32), mk_bv_var("y", 32)
        assert mk_ite(TRUE, x, y) is x
        assert mk_ite(FALSE, x, y) is y

    def test_same_branches(self):
        p = mk_var("p", BOOL)
        x = mk_bv_var("x", 32)
        assert mk_ite(p, x, x) is x

    def test_bool_ite_lowers_to_connectives(self):
        p, a, b = (mk_var(n, BOOL) for n in "pab")
        t = mk_ite(p, a, b)
        assert t.sort is BOOL
        assert t.op in (Op.BOR, Op.BAND)

    def test_negated_condition_swaps(self):
        p = mk_var("p", BOOL)
        x, y = mk_bv_var("x", 32), mk_bv_var("y", 32)
        assert mk_ite(mk_not(p), x, y) is mk_ite(p, y, x)


class TestStructural:
    def test_extract_full_width_is_identity(self):
        x = mk_bv_var("x", 32)
        assert mk_extract(x, 31, 0) is x

    def test_extract_constant(self):
        assert mk_extract(mk_bv(0xAB, 8), 7, 4) is mk_bv(0xA, 4)

    def test_zext_same_width_identity(self):
        x = mk_bv_var("x", 32)
        assert mk_zext(x, 32) is x

    def test_sext_constant(self):
        assert mk_sext(mk_bv(0x80, 8), 16) is mk_bv(0xFF80, 16)

    def test_concat_widths(self):
        a, b = mk_bv_var("a", 8), mk_bv_var("b", 24)
        assert mk_concat(a, b).width == 32

    def test_concat_constants(self):
        assert mk_concat(mk_bv(0xAB, 8), mk_bv(0xCD, 8)) is mk_bv(0xABCD, 16)

    def test_extract_bounds_checked(self):
        x = mk_bv_var("x", 8)
        with pytest.raises(ValueError):
            mk_extract(x, 8, 0)
        with pytest.raises(ValueError):
            mk_extract(x, 3, 5)

    def test_sort_mismatch_raises(self):
        with pytest.raises(TypeError):
            mk_add(mk_bv_var("a", 8), mk_bv_var("b", 16))


class TestTraversal:
    def test_free_vars(self):
        x, y = mk_bv_var("x", 32), mk_bv_var("y", 32)
        t = mk_eq(mk_add(x, y), mk_mul(x, mk_bv(3, 32)))
        names = set(free_vars(t))
        assert names == {"x", "y"}

    def test_term_size_counts_shared_nodes_once(self):
        x = mk_bv_var("x", 32)
        shared = mk_add(x, mk_bv(1, 32))
        t = mk_mul(shared, shared)
        # nodes: x, 1, shared, t
        assert term_size(t) == 4

    def test_immutability(self):
        x = mk_bv_var("x", 32)
        with pytest.raises(AttributeError):
            x.op = "hacked"


class TestUninterpreted:
    def test_same_application_interned(self):
        from repro.smt.terms import mk_uf
        x = mk_bv_var("x", 32)
        assert mk_uf("f", (x,), 32) is mk_uf("f", (x,), 32)

    def test_different_args_distinct(self):
        from repro.smt.terms import mk_uf
        x, y = mk_bv_var("x", 32), mk_bv_var("y", 32)
        assert mk_uf("f", (x,), 32) is not mk_uf("f", (y,), 32)

    def test_different_names_distinct(self):
        from repro.smt.terms import mk_uf
        x = mk_bv_var("x", 32)
        assert mk_uf("f", (x,), 32) is not mk_uf("g", (x,), 32)

    def test_uf_is_free_for_the_solver(self):
        """A UF application can take any value: f(x) == 12345 is SAT."""
        from repro.smt.terms import mk_uf
        from repro.smt import CheckResult, Solver, mk_eq
        x = mk_bv_var("x", 32)
        f_x = mk_uf("f", (x,), 32)
        assert Solver().check([mk_eq(f_x, mk_bv(12345, 32))]) \
            == CheckResult.SAT

    def test_uf_consistency_within_one_query(self):
        """The same node cannot take two values at once."""
        from repro.smt.terms import mk_uf
        from repro.smt import CheckResult, Solver, mk_and, mk_eq
        x = mk_bv_var("x", 32)
        f_x = mk_uf("f", (x,), 32)
        both = mk_and(mk_eq(f_x, mk_bv(1, 32)), mk_eq(f_x, mk_bv(2, 32)))
        assert Solver().check([both]) == CheckResult.UNSAT

    def test_evaluation_raises(self):
        from repro.smt.terms import mk_uf
        from repro.smt import EvaluationError, evaluate
        x = mk_bv_var("x", 32)
        with pytest.raises(EvaluationError):
            evaluate(mk_uf("f", (x,), 32), {"x": 1})
