"""Bitvector SMT substrate: terms, simplifier, interval filter, CDCL SAT.

This is the constraint-solving backend that SESA's race checker sits on
(the role STP played in the original KLEE-based implementation).
"""
from .sorts import BOOL, BV1, BV8, BV16, BV32, BV64, BoolSort, BVSort, bv_sort
from .terms import (
    FALSE, TRUE, Op, Term,
    fresh_var, free_vars, iter_dag, term_size,
    mk_add, mk_and, mk_ashr, mk_bool, mk_bool_var, mk_bv, mk_bv_var, mk_bvand,
    mk_bvnot, mk_bvor, mk_bvxor, mk_bxor, mk_concat, mk_eq, mk_extract,
    mk_implies, mk_ite, mk_lshr, mk_mul, mk_ne, mk_neg, mk_not, mk_or,
    mk_sdiv, mk_sext, mk_sge, mk_sgt, mk_shl, mk_sle, mk_slt, mk_srem,
    mk_sub, mk_truncate, mk_udiv, mk_uge, mk_ugt, mk_ule, mk_ult, mk_urem,
    mk_var, mk_zext,
)
from .subst import EvaluationError, Substitution, evaluate, substitute
from .simplify import clear_simplify_cache, simplify
from .interval import Interval, IntervalAnalysis, byte_footprint, \
    derive_bounds
from .affine import (
    affine_decompose, equality_forces_equal_components, injective_on_box,
    stride_separated,
)
from .bitblast import TemplateCache
from .solver import CheckResult, Model, QueryMemo, Solver, SolverStats
from .session import SolverSession

__all__ = [
    "BOOL", "BV1", "BV8", "BV16", "BV32", "BV64", "BoolSort", "BVSort",
    "bv_sort", "FALSE", "TRUE", "Op", "Term", "fresh_var", "free_vars",
    "iter_dag", "term_size", "mk_add", "mk_and", "mk_ashr", "mk_bool",
    "mk_bool_var", "mk_bv", "mk_bv_var", "mk_bvand", "mk_bvnot", "mk_bvor",
    "mk_bvxor", "mk_bxor", "mk_concat", "mk_eq", "mk_extract", "mk_implies",
    "mk_ite", "mk_lshr", "mk_mul", "mk_ne", "mk_neg", "mk_not", "mk_or",
    "mk_sdiv", "mk_sext", "mk_sge", "mk_sgt", "mk_shl", "mk_sle", "mk_slt",
    "mk_srem", "mk_sub", "mk_truncate", "mk_udiv", "mk_uge", "mk_ugt",
    "mk_ule", "mk_ult", "mk_urem", "mk_var", "mk_zext",
    "EvaluationError", "Substitution", "evaluate", "substitute",
    "clear_simplify_cache", "simplify",
    "Interval", "IntervalAnalysis", "byte_footprint", "derive_bounds",
    "affine_decompose", "equality_forces_equal_components",
    "injective_on_box", "stride_separated",
    "CheckResult", "Model", "QueryMemo", "Solver", "SolverStats",
    "SolverSession", "TemplateCache",
]
