"""Unsigned-interval abstract interpretation over terms.

A cheap, sound pre-filter in front of bit-blasting: if the interval of an
asserted boolean is "must be false", the query is UNSAT without touching
the SAT solver. Race queries frequently die here — e.g. two accesses whose
address intervals are disjoint because the flow conditions pin ``tid`` to
disjoint strided ranges.

The domain is the classic unsigned interval lattice per width; operations
that may wrap return ⊤ rather than a wrapped interval, which keeps the
analysis sound (never claims UNSAT for a satisfiable query).

One relational rule sits on top: a comparison of two offsets of one
base term, ``(b + c1) P (b + c2)`` for an unsigned or signed order or
``==``, is decided by comparing ``c1`` and ``c2`` whenever the base's
interval proves that neither side wraps (:func:`same_base`). Loop exit
tests have this shape (matrixMul's ``(bid.y*1024)+48 <=s
(bid.y*1024)+63``), and the plain interval domain cannot see it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .sorts import BOOL, BVSort
from . import terms as T
from .terms import Op, Term


@dataclass(frozen=True)
class Interval:
    """Closed unsigned interval ``[lo, hi]`` of a given bit width."""

    lo: int
    hi: int
    width: int

    def __post_init__(self) -> None:
        assert 0 <= self.lo <= self.hi < (1 << self.width), self

    @staticmethod
    def top(width: int) -> "Interval":
        return Interval(0, (1 << width) - 1, width)

    @staticmethod
    def point(value: int, width: int) -> "Interval":
        value &= (1 << width) - 1
        return Interval(value, value, width)

    def is_point(self) -> bool:
        return self.lo == self.hi

    def is_top(self) -> bool:
        return self.lo == 0 and self.hi == (1 << self.width) - 1

    def join(self, other: "Interval") -> "Interval":
        assert self.width == other.width
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi), self.width)

    def meet(self, other: "Interval") -> Optional["Interval"]:
        assert self.width == other.width
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi, self.width)

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi


def byte_footprint(iv: Interval, size: int) -> Optional[Tuple[int, int]]:
    """Closed byte range ``[lo, hi]`` touched by a ``size``-byte access
    whose start offset lies in ``iv``, or None when the end could wrap
    the bit width (a wrapped range is not an interval, so no sound
    footprint exists)."""
    hi = iv.hi + size - 1
    if hi >= (1 << iv.width):
        return None
    return (iv.lo, hi)


# Boolean abstract values: (can_be_true, can_be_false)
BoolAbs = Tuple[bool, bool]
B_TRUE: BoolAbs = (True, False)
B_FALSE: BoolAbs = (False, True)
B_TOP: BoolAbs = (True, True)


def _binop_interval(op: str, a: Interval, b: Interval, width: int) -> Interval:
    mask = (1 << width) - 1
    if op == Op.ADD:
        if a.hi + b.hi <= mask:
            return Interval(a.lo + b.lo, a.hi + b.hi, width)
        return Interval.top(width)
    if op == Op.SUB:
        if a.lo >= b.hi:
            return Interval(a.lo - b.hi, a.hi - b.lo, width)
        return Interval.top(width)
    if op == Op.MUL:
        if a.hi * b.hi <= mask:
            return Interval(a.lo * b.lo, a.hi * b.hi, width)
        return Interval.top(width)
    if op == Op.UDIV:
        if b.lo > 0:
            return Interval(a.lo // b.hi, a.hi // b.lo, width)
        return Interval.top(width)
    if op == Op.UREM:
        if b.lo > 0:
            hi = min(a.hi, b.hi - 1)
            if a.hi < b.lo:  # no reduction ever happens
                return Interval(a.lo, a.hi, width)
            return Interval(0, hi, width)
        return Interval.top(width)
    if op == Op.AND:
        return Interval(0, min(a.hi, b.hi), width)
    if op == Op.OR:
        # result >= max(lo) and < 2**bits(max(hi))
        hi_bits = max(a.hi, b.hi).bit_length()
        both = a.hi | b.hi
        bound = min(mask, (1 << max(hi_bits, both.bit_length())) - 1)
        return Interval(max(a.lo, b.lo), bound, width)
    if op == Op.XOR:
        bits = max(a.hi, b.hi).bit_length()
        return Interval(0, min(mask, (1 << bits) - 1), width)
    if op == Op.SHL:
        if b.is_point() and b.lo < width and a.hi << b.lo <= mask:
            return Interval(a.lo << b.lo, a.hi << b.lo, width)
        return Interval.top(width)
    if op == Op.LSHR:
        if b.is_point():
            s = min(b.lo, width)
            return Interval(a.lo >> s, a.hi >> s, width)
        return Interval(0, a.hi, width)
    return Interval.top(width)


def _pred_abs(op: str, a: Interval, b: Interval) -> BoolAbs:
    """Unsigned orders and equality over two intervals (a signed order
    is left undecided)."""
    if op == Op.ULT:
        if a.hi < b.lo:
            return B_TRUE
        if a.lo >= b.hi:
            return B_FALSE
        return B_TOP
    if op == Op.ULE:
        if a.hi <= b.lo:
            return B_TRUE
        if a.lo > b.hi:
            return B_FALSE
        return B_TOP
    if op == Op.EQ:
        if a.is_point() and b.is_point():
            return B_TRUE if a.lo == b.lo else B_FALSE
        if a.meet(b) is None:
            return B_FALSE
        return B_TOP
    return B_TOP


_COMPARISONS = (Op.ULT, Op.ULE, Op.SLT, Op.SLE, Op.EQ)


def _offset_of(t: Term) -> Tuple[Term, int]:
    """``(base, c)`` with ``t == base + c``: an addition of a constant,
    or *t* itself with ``c = 0``."""
    if t.op == Op.ADD:
        a, b = t.args
        if b.is_const():
            return a, b.value
        if a.is_const():
            return b, a.value
    return t, 0


def same_base(t: Term) -> bool:
    """Whether *t* compares two offsets of one base term,
    ``(b + c1) P (b + c2)`` (a bare ``b`` has offset 0), or negates
    such a comparison."""
    if t.op == Op.BNOT:
        t = t.args[0]
    if t.op not in _COMPARISONS or not isinstance(t.args[0].sort, BVSort):
        return False
    return _offset_of(t.args[0])[0] is _offset_of(t.args[1])[0]


def _same_base_abs(op: str, a: Term, b: Term,
                   base_iv: Interval) -> Optional[BoolAbs]:
    """Decide ``(b + c1) P (b + c2)`` over the base's interval, or None.

    Adding a constant is a bijection modulo ``2^w``, so ``==`` compares
    the offsets. An order holds iff ``c1 P c2`` when neither side wraps
    on the base's range: taking each offset signed, every
    ``base + c`` stays inside ``[0, 2^w)`` for an unsigned order, and
    inside ``[-2^(w-1), 2^(w-1))`` around the base's signed value for a
    signed one. Otherwise the layer cannot tell.
    """
    _, ca = _offset_of(a)
    _, cb = _offset_of(b)
    if op == Op.EQ:
        return B_TRUE if ca == cb else B_FALSE
    mod = 1 << a.width
    half = mod >> 1
    sa = ca - mod if ca >= half else ca
    sb = cb - mod if cb >= half else cb
    lo, hi = base_iv.lo, base_iv.hi
    if op in (Op.ULT, Op.ULE):
        floor, ceil = 0, mod
    elif hi < half:
        floor, ceil = -half, half
    elif lo >= half:
        lo, hi = lo - mod, hi - mod
        floor, ceil = -half, half
    else:
        return None
    if lo + min(sa, sb) < floor or hi + max(sa, sb) >= ceil:
        return None
    holds = sa < sb if op in (Op.ULT, Op.SLT) else sa <= sb
    return B_TRUE if holds else B_FALSE


class IntervalAnalysis:
    """Evaluates terms to intervals / abstract booleans with memoisation."""

    def __init__(self, var_bounds: Mapping[str, Interval] | None = None) -> None:
        self.var_bounds: Dict[str, Interval] = dict(var_bounds or {})
        self._bv_cache: Dict[int, Interval] = {}
        self._bool_cache: Dict[int, BoolAbs] = {}

    def interval_of(self, term: Term) -> Interval:
        assert isinstance(term.sort, BVSort)
        self._run([term])
        return self._bv_cache[id(term)]

    def bool_of(self, term: Term) -> BoolAbs:
        assert term.sort is BOOL
        self._run([term])
        return self._bool_cache[id(term)]

    def must_be_false(self, term: Term) -> bool:
        return self.bool_of(term) == B_FALSE

    def must_be_true(self, term: Term) -> bool:
        return self.bool_of(term) == B_TRUE

    # -- core ----------------------------------------------------------

    def _run(self, roots: Iterable[Term]) -> None:
        for node in T.iter_dag(roots):
            nid = id(node)
            if node.sort is BOOL:
                if nid not in self._bool_cache:
                    self._bool_cache[nid] = self._abs_bool(node)
            else:
                if nid not in self._bv_cache:
                    self._bv_cache[nid] = self._abs_bv(node)

    def _abs_bv(self, node: Term) -> Interval:
        width = node.width
        op = node.op
        if op == Op.CONST:
            return Interval.point(node.value, width)
        if op == Op.VAR:
            bound = self.var_bounds.get(node.name)
            if bound is not None and bound.width == width:
                return bound
            return Interval.top(width)
        if op in (Op.ADD, Op.SUB, Op.MUL, Op.UDIV, Op.UREM,
                  Op.AND, Op.OR, Op.XOR, Op.SHL, Op.LSHR):
            a = self._bv_cache[id(node.args[0])]
            b = self._bv_cache[id(node.args[1])]
            return _binop_interval(op, a, b, width)
        if op == Op.ZEXT:
            a = self._bv_cache[id(node.args[0])]
            return Interval(a.lo, a.hi, width)
        if op == Op.EXTRACT:
            hi, lo = node.payload  # type: ignore[misc]
            a = self._bv_cache[id(node.args[0])]
            if lo == 0 and a.hi < (1 << (hi + 1)):
                return Interval(a.lo, a.hi, width)
            return Interval.top(width)
        if op == Op.ITE:
            a = self._bv_cache[id(node.args[1])]
            b = self._bv_cache[id(node.args[2])]
            cond = self._bool_cache[id(node.args[0])]
            if cond == B_TRUE:
                return a
            if cond == B_FALSE:
                return b
            return a.join(b)
        return Interval.top(width)

    def _abs_bool(self, node: Term) -> BoolAbs:
        op = node.op
        if op == Op.CONST:
            return B_TRUE if node.payload else B_FALSE
        if op == Op.VAR:
            return B_TOP
        if op in _COMPARISONS:
            if op == Op.EQ and node.args[0].sort is BOOL:
                a0 = self._bool_cache[id(node.args[0])]
                b0 = self._bool_cache[id(node.args[1])]
                if a0 != B_TOP and b0 != B_TOP:
                    return B_TRUE if a0 == b0 else B_FALSE
                return B_TOP
            a, b = node.args
            if same_base(node):
                base = _offset_of(a)[0]
                decided = _same_base_abs(op, a, b,
                                         self._bv_cache[id(base)])
                if decided is not None:
                    return decided
            return _pred_abs(op, self._bv_cache[id(a)],
                             self._bv_cache[id(b)])
        if op == Op.BNOT:
            t, f = self._bool_cache[id(node.args[0])]
            return (f, t)
        if op == Op.BAND:
            kids = [self._bool_cache[id(a)] for a in node.args]
            if any(k == B_FALSE for k in kids):
                return B_FALSE
            if all(k == B_TRUE for k in kids):
                return B_TRUE
            return B_TOP
        if op == Op.BOR:
            kids = [self._bool_cache[id(a)] for a in node.args]
            if any(k == B_TRUE for k in kids):
                return B_TRUE
            if all(k == B_FALSE for k in kids):
                return B_FALSE
            return B_TOP
        return B_TOP


def derive_bounds(assertions: Iterable[Term]) -> Dict[str, Interval]:
    """Extract simple per-variable bounds from top-level conjuncts.

    Recognises ``v < c``, ``v <= c``, ``c <= v``, ``v == c`` patterns (and
    within ``and`` nests). These arise constantly from SESA: ``tid.x <
    bdim.x`` with a concrete ``bdim``.
    """
    bounds: Dict[str, Interval] = {}

    def note(name: str, iv: Interval) -> None:
        cur = bounds.get(name)
        met = iv if cur is None else (cur.meet(iv) or cur)
        bounds[name] = met

    def visit(t: Term) -> None:
        if t.op == Op.BAND:
            for a in t.args:
                visit(a)
            return
        if t.op == Op.ULT:
            a, b = t.args
            if a.is_var() and b.is_const() and b.value > 0:
                note(a.name, Interval(0, b.value - 1, a.width))
            elif b.is_var() and a.is_const():
                mask = (1 << b.width) - 1
                if a.value < mask:
                    note(b.name, Interval(a.value + 1, mask, b.width))
        elif t.op == Op.ULE:
            a, b = t.args
            if a.is_var() and b.is_const():
                note(a.name, Interval(0, b.value, a.width))
            elif b.is_var() and a.is_const():
                note(b.name, Interval(a.value, (1 << b.width) - 1, b.width))
        elif t.op == Op.EQ:
            a, b = t.args
            if a.is_var() and b.is_const() and isinstance(a.sort, BVSort):
                note(a.name, Interval.point(b.value, a.width))
            elif b.is_var() and a.is_const() and isinstance(b.sort, BVSort):
                note(b.name, Interval.point(a.value, b.width))

    for t in assertions:
        visit(t)
    return bounds
