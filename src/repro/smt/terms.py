"""Hash-consed bitvector/boolean term DAG.

Every term is interned: structurally identical terms are the *same* Python
object, so equality is identity and common subexpressions are shared across
the whole analysis (the symbolic executor builds heavily shared DAGs, e.g.
the same ``tid`` subterm appears in thousands of access conditions).

Smart constructors perform constant folding and cheap local normalisation
at build time; the deeper rewriting lives in :mod:`repro.smt.simplify`.
"""
from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from .sorts import BOOL, BVSort, Sort, bv_sort


class Op:
    """Operator tags. Grouped by arity/theory for the bitblaster."""

    # nullary
    CONST = "const"          # payload: int (unsigned) for BV, bool for Bool
    VAR = "var"              # payload: name

    # bitvector arithmetic
    ADD = "bvadd"
    SUB = "bvsub"
    MUL = "bvmul"
    UDIV = "bvudiv"
    UREM = "bvurem"
    SDIV = "bvsdiv"
    SREM = "bvsrem"
    NEG = "bvneg"

    # bitwise
    AND = "bvand"
    OR = "bvor"
    XOR = "bvxor"
    NOT = "bvnot"
    SHL = "bvshl"
    LSHR = "bvlshr"
    ASHR = "bvashr"

    # structural
    CONCAT = "concat"
    EXTRACT = "extract"      # payload: (hi, lo)
    ZEXT = "zext"            # payload: new width
    SEXT = "sext"            # payload: new width

    # predicates (Bool-sorted)
    EQ = "eq"
    ULT = "bvult"
    ULE = "bvule"
    SLT = "bvslt"
    SLE = "bvsle"

    # boolean connectives
    BNOT = "not"
    BAND = "and"
    BOR = "or"
    BXOR = "bxor"
    IMPLIES = "implies"

    # polymorphic if-then-else (cond: Bool, branches of equal sort)
    ITE = "ite"

    # uninterpreted function application (payload: function name).
    # Used to model operations whose theory we do not decide (floating
    # point arithmetic): the bitblaster treats each distinct application
    # node as fresh bits, which over-approximates satisfiability — sound
    # for race *detection* (never misses a race), mirroring the paper's
    # treatment of unresolvable values.
    UF = "uf"


_COMMUTATIVE = frozenset({Op.ADD, Op.MUL, Op.AND, Op.OR, Op.XOR, Op.EQ,
                          Op.BAND, Op.BOR, Op.BXOR})


class Term:
    """An immutable, interned term.

    Do not construct directly — use the ``mk_*`` constructors below, which
    intern and constant-fold.
    """

    __slots__ = ("op", "args", "sort", "payload", "_hash", "__weakref__")

    op: str
    args: Tuple["Term", ...]
    sort: Sort
    payload: object

    def __init__(self, op: str, args: Tuple["Term", ...], sort: Sort,
                 payload: object) -> None:
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "sort", sort)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "_hash",
                           hash((op, sort, payload, tuple(map(id, args)))))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Term is immutable")

    def __hash__(self) -> int:
        return self._hash

    # identity equality: interning makes structural == identity
    def __eq__(self, other: object) -> bool:
        return self is other

    def __ne__(self, other: object) -> bool:
        return self is not other

    # -- inspection ---------------------------------------------------

    def is_const(self) -> bool:
        return self.op == Op.CONST

    def is_var(self) -> bool:
        return self.op == Op.VAR

    def is_true(self) -> bool:
        return self.op == Op.CONST and self.sort is BOOL and self.payload is True

    def is_false(self) -> bool:
        return self.op == Op.CONST and self.sort is BOOL and self.payload is False

    @property
    def value(self) -> int:
        """Constant value (unsigned int for BV, bool for Bool)."""
        if self.op != Op.CONST:
            raise ValueError(f"not a constant: {self}")
        return self.payload  # type: ignore[return-value]

    @property
    def name(self) -> str:
        if self.op != Op.VAR:
            raise ValueError(f"not a variable: {self}")
        return self.payload  # type: ignore[return-value]

    @property
    def width(self) -> int:
        if not isinstance(self.sort, BVSort):
            raise ValueError(f"not a bitvector: {self}")
        return self.sort.width

    def __repr__(self) -> str:
        from .printer import term_to_str
        return term_to_str(self)

    # -- convenience operators (unsigned semantics) --------------------

    def __add__(self, other: "Term | int") -> "Term":
        return mk_add(self, _coerce(other, self.sort))

    def __sub__(self, other: "Term | int") -> "Term":
        return mk_sub(self, _coerce(other, self.sort))

    def __mul__(self, other: "Term | int") -> "Term":
        return mk_mul(self, _coerce(other, self.sort))

    def __and__(self, other: "Term | int") -> "Term":
        if self.sort is BOOL:
            return mk_and(self, _coerce(other, BOOL))
        return mk_bvand(self, _coerce(other, self.sort))

    def __or__(self, other: "Term | int") -> "Term":
        if self.sort is BOOL:
            return mk_or(self, _coerce(other, BOOL))
        return mk_bvor(self, _coerce(other, self.sort))

    def __xor__(self, other: "Term | int") -> "Term":
        if self.sort is BOOL:
            return mk_bxor(self, _coerce(other, BOOL))
        return mk_bvxor(self, _coerce(other, self.sort))

    def __invert__(self) -> "Term":
        if self.sort is BOOL:
            return mk_not(self)
        return mk_bvnot(self)

    def __mod__(self, other: "Term | int") -> "Term":
        return mk_urem(self, _coerce(other, self.sort))

    def __lshift__(self, other: "Term | int") -> "Term":
        return mk_shl(self, _coerce(other, self.sort))

    def __rshift__(self, other: "Term | int") -> "Term":
        return mk_lshr(self, _coerce(other, self.sort))


# ---------------------------------------------------------------------------
# interning table
# ---------------------------------------------------------------------------

_TABLE: Dict[tuple, Term] = {}
_fresh_counter = itertools.count()


def _intern(op: str, args: Tuple[Term, ...], sort: Sort, payload: object) -> Term:
    key = (op, sort, payload, tuple(map(id, args)))
    term = _TABLE.get(key)
    if term is None:
        term = Term(op, args, sort, payload)
        _TABLE[key] = term
    return term


def interned_count() -> int:
    """Number of distinct live terms (diagnostics)."""
    return len(_TABLE)


def _coerce(value: "Term | int | bool", sort: Sort) -> Term:
    if isinstance(value, Term):
        return value
    if sort is BOOL:
        return mk_bool(bool(value))
    assert isinstance(sort, BVSort)
    return mk_bv(value, sort.width)


# ---------------------------------------------------------------------------
# leaf constructors
# ---------------------------------------------------------------------------

TRUE: Term
FALSE: Term


def mk_bool(value: bool) -> Term:
    """Boolean constant."""
    return _intern(Op.CONST, (), BOOL, bool(value))


def mk_bv(value: int, width: int) -> Term:
    """Bitvector constant (wrapped to ``width`` bits, unsigned)."""
    sort = bv_sort(width)
    return _intern(Op.CONST, (), sort, sort.wrap(int(value)))


def mk_var(name: str, sort: Sort) -> Term:
    """Variable of the given sort."""
    return _intern(Op.VAR, (), sort, name)


def mk_bv_var(name: str, width: int = 32) -> Term:
    """Bitvector variable (default 32 bits)."""
    return mk_var(name, bv_sort(width))


def mk_bool_var(name: str) -> Term:
    """Boolean variable."""
    return mk_var(name, BOOL)


def fresh_var(prefix: str, sort: Sort) -> Term:
    """A variable with a globally unique name."""
    return mk_var(f"{prefix}!{next(_fresh_counter)}", sort)


TRUE = mk_bool(True)
FALSE = mk_bool(False)


# ---------------------------------------------------------------------------
# concrete operator semantics (shared with the evaluator)
# ---------------------------------------------------------------------------

def _c_udiv(a: int, b: int, s: BVSort) -> int:
    # SMT-LIB semantics: x udiv 0 = all-ones
    return s.mask if b == 0 else a // b


def _c_urem(a: int, b: int, s: BVSort) -> int:
    return a if b == 0 else a % b


def _c_sdiv(a: int, b: int, s: BVSort) -> int:
    sa, sb = s.to_signed(a), s.to_signed(b)
    if sb == 0:
        return 1 if sa < 0 else s.mask
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return s.wrap(q)


def _c_srem(a: int, b: int, s: BVSort) -> int:
    sa, sb = s.to_signed(a), s.to_signed(b)
    if sb == 0:
        return a
    r = abs(sa) % abs(sb)
    if sa < 0:
        r = -r
    return s.wrap(r)


def _c_shl(a: int, b: int, s: BVSort) -> int:
    return 0 if b >= s.width else s.wrap(a << b)


def _c_lshr(a: int, b: int, s: BVSort) -> int:
    return 0 if b >= s.width else a >> b


def _c_ashr(a: int, b: int, s: BVSort) -> int:
    sa = s.to_signed(a)
    shift = min(b, s.width - 1) if b < s.width else s.width - 1
    if b >= s.width:
        return s.mask if sa < 0 else 0
    return s.wrap(sa >> b)


CONCRETE_BV_OPS: Dict[str, Callable[[int, int, BVSort], int]] = {
    Op.ADD: lambda a, b, s: s.wrap(a + b),
    Op.SUB: lambda a, b, s: s.wrap(a - b),
    Op.MUL: lambda a, b, s: s.wrap(a * b),
    Op.UDIV: _c_udiv,
    Op.UREM: _c_urem,
    Op.SDIV: _c_sdiv,
    Op.SREM: _c_srem,
    Op.AND: lambda a, b, s: a & b,
    Op.OR: lambda a, b, s: a | b,
    Op.XOR: lambda a, b, s: a ^ b,
    Op.SHL: _c_shl,
    Op.LSHR: _c_lshr,
    Op.ASHR: _c_ashr,
}

CONCRETE_PRED_OPS: Dict[str, Callable[[int, int, BVSort], bool]] = {
    Op.ULT: lambda a, b, s: a < b,
    Op.ULE: lambda a, b, s: a <= b,
    Op.SLT: lambda a, b, s: s.to_signed(a) < s.to_signed(b),
    Op.SLE: lambda a, b, s: s.to_signed(a) <= s.to_signed(b),
}


# ---------------------------------------------------------------------------
# bitvector smart constructors
# ---------------------------------------------------------------------------

def _bv_binop(op: str, a: Term, b: Term) -> Term:
    if a.sort != b.sort:
        raise TypeError(f"sort mismatch in {op}: {a.sort} vs {b.sort}")
    sort = a.sort
    assert isinstance(sort, BVSort)
    if a.is_const() and b.is_const():
        return mk_bv(CONCRETE_BV_OPS[op](a.value, b.value, sort), sort.width)
    if op in _COMMUTATIVE and a.is_const():
        a, b = b, a  # canonical: constant on the right
    return _intern(op, (a, b), sort, None)


def mk_add(a: Term, b: Term) -> Term:
    """Modular addition (folds constants, normalises offsets)."""
    if b.is_const() and b.value == 0:
        return a
    if a.is_const() and a.value == 0:
        return b
    # (x + c1) + c2  ->  x + (c1 + c2)
    if b.is_const() and a.op == Op.ADD and a.args[1].is_const():
        return mk_add(a.args[0], mk_bv(a.args[1].value + b.value, b.width))
    return _bv_binop(Op.ADD, a, b)


def mk_sub(a: Term, b: Term) -> Term:
    """Modular subtraction (x - c becomes x + (-c))."""
    if b.is_const() and b.value == 0:
        return a
    if a is b:
        return mk_bv(0, a.width)
    if b.is_const():
        return mk_add(a, mk_bv(-b.value, b.width))
    return _bv_binop(Op.SUB, a, b)


def mk_mul(a: Term, b: Term) -> Term:
    """Modular multiplication."""
    for x, y in ((a, b), (b, a)):
        if x.is_const():
            if x.value == 0:
                return mk_bv(0, x.width)
            if x.value == 1:
                return y
    return _bv_binop(Op.MUL, a, b)


def mk_udiv(a: Term, b: Term) -> Term:
    """Unsigned division (SMT-LIB: x/0 = all-ones)."""
    if b.is_const() and b.value == 1:
        return a
    return _bv_binop(Op.UDIV, a, b)


def mk_urem(a: Term, b: Term) -> Term:
    """Unsigned remainder (SMT-LIB: x%0 = x)."""
    if b.is_const() and b.value == 1:
        return mk_bv(0, a.width)
    return _bv_binop(Op.UREM, a, b)


def mk_sdiv(a: Term, b: Term) -> Term:
    """Signed (truncating) division."""
    if b.is_const() and b.value == 1:
        return a
    return _bv_binop(Op.SDIV, a, b)


def mk_srem(a: Term, b: Term) -> Term:
    """Signed remainder (follows the dividend sign)."""
    return _bv_binop(Op.SREM, a, b)


def mk_neg(a: Term) -> Term:
    """Two's-complement negation."""
    if a.is_const():
        return mk_bv(-a.value, a.width)
    if a.op == Op.NEG:
        return a.args[0]
    return _intern(Op.NEG, (a,), a.sort, None)


def mk_bvand(a: Term, b: Term) -> Term:
    """Bitwise AND."""
    assert isinstance(a.sort, BVSort)
    for x, y in ((a, b), (b, a)):
        if x.is_const():
            if x.value == 0:
                return mk_bv(0, x.width)
            if x.value == x.sort.mask:  # type: ignore[union-attr]
                return y
    if a is b:
        return a
    return _bv_binop(Op.AND, a, b)


def mk_bvor(a: Term, b: Term) -> Term:
    """Bitwise OR."""
    assert isinstance(a.sort, BVSort)
    for x, y in ((a, b), (b, a)):
        if x.is_const():
            if x.value == 0:
                return y
            if x.value == x.sort.mask:  # type: ignore[union-attr]
                return x
    if a is b:
        return a
    return _bv_binop(Op.OR, a, b)


def mk_bvxor(a: Term, b: Term) -> Term:
    """Bitwise XOR."""
    if a is b:
        return mk_bv(0, a.width)
    for x, y in ((a, b), (b, a)):
        if x.is_const() and x.value == 0:
            return y
    return _bv_binop(Op.XOR, a, b)


def mk_bvnot(a: Term) -> Term:
    """Bitwise complement."""
    if a.is_const():
        assert isinstance(a.sort, BVSort)
        return mk_bv(~a.value, a.width)
    if a.op == Op.NOT:
        return a.args[0]
    return _intern(Op.NOT, (a,), a.sort, None)


def mk_shl(a: Term, b: Term) -> Term:
    """Left shift (shift >= width yields 0)."""
    if b.is_const() and b.value == 0:
        return a
    return _bv_binop(Op.SHL, a, b)


def mk_lshr(a: Term, b: Term) -> Term:
    """Logical right shift."""
    if b.is_const() and b.value == 0:
        return a
    return _bv_binop(Op.LSHR, a, b)


def mk_ashr(a: Term, b: Term) -> Term:
    """Arithmetic right shift."""
    if b.is_const() and b.value == 0:
        return a
    return _bv_binop(Op.ASHR, a, b)


def mk_concat(a: Term, b: Term) -> Term:
    """``a`` becomes the high bits, ``b`` the low bits."""
    assert isinstance(a.sort, BVSort) and isinstance(b.sort, BVSort)
    width = a.width + b.width
    if a.is_const() and b.is_const():
        return mk_bv((a.value << b.width) | b.value, width)
    return _intern(Op.CONCAT, (a, b), bv_sort(width), None)


def mk_extract(a: Term, hi: int, lo: int) -> Term:
    """Bit slice ``[hi:lo]`` (inclusive)."""
    assert isinstance(a.sort, BVSort)
    if not (0 <= lo <= hi < a.width):
        raise ValueError(f"bad extract [{hi}:{lo}] of width {a.width}")
    width = hi - lo + 1
    if width == a.width:
        return a
    if a.is_const():
        return mk_bv(a.value >> lo, width)
    return _intern(Op.EXTRACT, (a,), bv_sort(width), (hi, lo))


def mk_zext(a: Term, width: int) -> Term:
    """Zero extension to ``width`` bits."""
    assert isinstance(a.sort, BVSort)
    if width == a.width:
        return a
    if width < a.width:
        raise ValueError(f"zext to smaller width {width} < {a.width}")
    if a.is_const():
        return mk_bv(a.value, width)
    return _intern(Op.ZEXT, (a,), bv_sort(width), width)


def mk_sext(a: Term, width: int) -> Term:
    """Sign extension to ``width`` bits."""
    assert isinstance(a.sort, BVSort)
    if width == a.width:
        return a
    if width < a.width:
        raise ValueError(f"sext to smaller width {width} < {a.width}")
    if a.is_const():
        assert isinstance(a.sort, BVSort)
        return mk_bv(a.sort.to_signed(a.value), width)
    return _intern(Op.SEXT, (a,), bv_sort(width), width)


def mk_truncate(a: Term, width: int) -> Term:
    """Keep the low ``width`` bits (no-op if already that width)."""
    if width == a.width:
        return a
    return mk_extract(a, width - 1, 0)


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def mk_eq(a: Term, b: Term) -> Term:
    """Equality (BV or Bool operands)."""
    if a.sort != b.sort:
        raise TypeError(f"sort mismatch in eq: {a.sort} vs {b.sort}")
    if a is b:
        return TRUE
    if a.is_const() and b.is_const():
        return mk_bool(a.value == b.value)
    if a.sort is BOOL:
        if a.is_true():
            return b
        if b.is_true():
            return a
        if a.is_false():
            return mk_not(b)
        if b.is_false():
            return mk_not(a)
    if a.is_const():
        a, b = b, a
    return _intern(Op.EQ, (a, b), BOOL, None)


def mk_ne(a: Term, b: Term) -> Term:
    """Disequality (``not eq``)."""
    return mk_not(mk_eq(a, b))


def _pred(op: str, a: Term, b: Term) -> Term:
    if a.sort != b.sort:
        raise TypeError(f"sort mismatch in {op}: {a.sort} vs {b.sort}")
    assert isinstance(a.sort, BVSort)
    if a.is_const() and b.is_const():
        return mk_bool(CONCRETE_PRED_OPS[op](a.value, b.value, a.sort))
    if a is b:
        return mk_bool(op in (Op.ULE, Op.SLE))
    return _intern(op, (a, b), BOOL, None)


def mk_ult(a: Term, b: Term) -> Term:
    """Unsigned less-than."""
    if b.is_const() and b.value == 0:
        return FALSE
    if a.is_const() and a.value == 0:
        return mk_ne(b, mk_bv(0, b.width))
    return _pred(Op.ULT, a, b)


def mk_ule(a: Term, b: Term) -> Term:
    """Unsigned less-or-equal."""
    if a.is_const() and a.value == 0:
        return TRUE
    assert isinstance(b.sort, BVSort)
    if b.is_const() and b.value == b.sort.mask:
        return TRUE
    return _pred(Op.ULE, a, b)


def mk_ugt(a: Term, b: Term) -> Term:
    """Unsigned greater-than."""
    return mk_ult(b, a)


def mk_uge(a: Term, b: Term) -> Term:
    """Unsigned greater-or-equal."""
    return mk_ule(b, a)


def mk_slt(a: Term, b: Term) -> Term:
    """Signed less-than."""
    return _pred(Op.SLT, a, b)


def mk_sle(a: Term, b: Term) -> Term:
    """Signed less-or-equal."""
    return _pred(Op.SLE, a, b)


def mk_sgt(a: Term, b: Term) -> Term:
    """Signed greater-than."""
    return mk_slt(b, a)


def mk_sge(a: Term, b: Term) -> Term:
    """Signed greater-or-equal."""
    return mk_sle(b, a)


# ---------------------------------------------------------------------------
# boolean connectives
# ---------------------------------------------------------------------------

def mk_not(a: Term) -> Term:
    """Boolean negation (involution folded)."""
    if a.sort is not BOOL:
        raise TypeError(f"not expects Bool, got {a.sort}")
    if a.is_true():
        return FALSE
    if a.is_false():
        return TRUE
    if a.op == Op.BNOT:
        return a.args[0]
    return _intern(Op.BNOT, (a,), BOOL, None)


def mk_and(*terms: Term) -> Term:
    """N-ary conjunction: flattens, dedups, detects p and not-p."""
    flat: list[Term] = []
    seen: set[int] = set()
    for t in terms:
        if t.sort is not BOOL:
            raise TypeError(f"and expects Bool, got {t.sort}")
        if t.is_false():
            return FALSE
        if t.is_true():
            continue
        stack = [t]
        while stack:
            u = stack.pop()
            if u.op == Op.BAND:
                stack.extend(reversed(u.args))
            elif id(u) not in seen:
                seen.add(id(u))
                flat.append(u)
    for t in flat:
        if t.op == Op.BNOT and id(t.args[0]) in seen:
            return FALSE
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return _intern(Op.BAND, tuple(flat), BOOL, None)


def mk_or(*terms: Term) -> Term:
    """N-ary disjunction: flattens, dedups, detects p or not-p."""
    flat: list[Term] = []
    seen: set[int] = set()
    for t in terms:
        if t.sort is not BOOL:
            raise TypeError(f"or expects Bool, got {t.sort}")
        if t.is_true():
            return TRUE
        if t.is_false():
            continue
        stack = [t]
        while stack:
            u = stack.pop()
            if u.op == Op.BOR:
                stack.extend(reversed(u.args))
            elif id(u) not in seen:
                seen.add(id(u))
                flat.append(u)
    for t in flat:
        if t.op == Op.BNOT and id(t.args[0]) in seen:
            return TRUE
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return _intern(Op.BOR, tuple(flat), BOOL, None)


def mk_bxor(a: Term, b: Term) -> Term:
    """Boolean exclusive-or."""
    if a is b:
        return FALSE
    if a.is_const() and b.is_const():
        return mk_bool(a.value != b.value)
    if a.is_true():
        return mk_not(b)
    if b.is_true():
        return mk_not(a)
    if a.is_false():
        return b
    if b.is_false():
        return a
    return _intern(Op.BXOR, (a, b), BOOL, None)


def mk_implies(a: Term, b: Term) -> Term:
    """Implication as ``!a || b``."""
    return mk_or(mk_not(a), b)


def mk_ite(cond: Term, then: Term, other: Term) -> Term:
    """If-then-else (Bool ites lower to connectives)."""
    if cond.sort is not BOOL:
        raise TypeError(f"ite condition must be Bool, got {cond.sort}")
    if then.sort != other.sort:
        raise TypeError(f"ite branch sorts differ: {then.sort} vs {other.sort}")
    if cond.is_true():
        return then
    if cond.is_false():
        return other
    if then is other:
        return then
    if then.sort is BOOL:
        if then.is_true() and other.is_false():
            return cond
        if then.is_false() and other.is_true():
            return mk_not(cond)
        # lower boolean ite into connectives so downstream reasoning is uniform
        return mk_or(mk_and(cond, then), mk_and(mk_not(cond), other))
    if cond.op == Op.BNOT:
        return mk_ite(cond.args[0], other, then)
    return _intern(Op.ITE, (cond, then, other), then.sort, None)


def mk_uf(name: str, args: Sequence["Term"], width: int) -> Term:
    """Uninterpreted function application returning a bitvector.

    Hash-consing gives functional consistency for syntactically identical
    applications; distinct applications are unconstrained.
    """
    return _intern(Op.UF, tuple(args), bv_sort(width), name)


# ---------------------------------------------------------------------------
# traversal helpers
# ---------------------------------------------------------------------------

def iter_dag(roots: Iterable[Term]) -> Iterator[Term]:
    """Post-order traversal of the term DAG, each node yielded once."""
    seen: set[int] = set()
    stack: list[tuple[Term, bool]] = [(r, False) for r in roots]
    while stack:
        term, expanded = stack.pop()
        if id(term) in seen:
            continue
        if expanded:
            seen.add(id(term))
            yield term
        else:
            stack.append((term, True))
            for arg in term.args:
                if id(arg) not in seen:
                    stack.append((arg, False))


def conjuncts(terms: Iterable[Term]) -> list[Term]:
    """The top-level conjuncts of ``AND(terms)``: ``BAND`` nests
    flattened, in order, each distinct term once."""
    out: list[Term] = []
    seen: set[Term] = set()
    stack = list(terms)[::-1]
    while stack:
        t = stack.pop()
        if t.op == Op.BAND:
            stack.extend(reversed(t.args))
        elif t not in seen:
            seen.add(t)
            out.append(t)
    return out


def free_vars(*roots: Term) -> Dict[str, Term]:
    """All variables appearing in the given terms, by name."""
    out: Dict[str, Term] = {}
    for t in iter_dag(roots):
        if t.is_var():
            out[t.name] = t
    return out


def term_size(term: Term) -> int:
    """Number of distinct DAG nodes reachable from ``term``."""
    return sum(1 for _ in iter_dag([term]))
