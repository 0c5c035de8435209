"""Word-level decision of range-chain queries over one shared base term.

Grid-stride loops make SESA ask the same kind of query over and over:
a conjunction of range tests on one thread-index term, e.g. for
Parboil histo_final (Table IV)

    ((tid.x + (bid.x << 9)) + c_i) <u N          for every iteration i
    !(((tid.x + (bid.x << 9)) + c) << 2 <=u M)   the out-of-bounds test

plus per-variable bounds such as ``tid.x <u 512``. Bit-blasting each
test separately costs hundreds of thousands of clauses; on the base
term the conjunction is just an intersection of intervals.

A *chain predicate* is ``P(f(base))`` where ``P`` is ``<u K``, ``<=u K``,
``K <u .``, ``K <=u .`` or the negation of one, and ``f`` is a stack of
``+ const``, ``<< const`` and ``* const`` steps. :func:`parse_chain`
accepts a conjunction whose conjuncts are all either *var-bound facts*
(the ones :func:`~repro.smt.interval.derive_bounds` folds into
per-variable bounds) or chain predicates over one base node, and bails
at the first conjunct that is neither. :func:`decide_chain` then

1. takes the base's range from the interval analysis of the query (a
   sound over-approximation of the values the base can take);
2. computes each predicate's exact preimage on that range as a sorted
   list of disjoint intervals — ``+ c`` wraps at most once, so its range
   splits at the wrap point; a ``<<``/``*`` step that can overflow
   makes the query undecided;
3. answers UNSAT when the preimages do not intersect (this rests only
   on the over-approximation), and SAT when a value in the
   intersection maps back to the free variables exactly: the base is a
   variable, or ``a + (b << k)`` / ``a + b*m`` with ``a`` proved to
   range over exactly ``[0, 2^k - 1]`` / ``[0, m - 1]``.

Anything else is left to the SAT core. The caller validates every SAT
model against the evaluator, as it does for SAT-core models.
"""
from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .interval import IntervalAnalysis
from .sorts import BVSort
from .terms import Op, Term

#: one step of a chain, innermost first: (Op.ADD, c) adds c, (Op.MUL, m)
#: multiplies by m (a ``<< k`` step is stored as a multiplication by 2^k)
Step = Tuple[str, int]
#: closed intervals of base values, sorted and disjoint
Intervals = List[Tuple[int, int]]
#: a chain predicate (steps, lo, hi): it holds iff ``lo <= f(base) <= hi``
Pred = Tuple[Tuple[Step, ...], int, int]
#: the layer's answer: (satisfiable, model values of a SAT answer)
Verdict = Tuple[bool, Optional[Dict[str, int]]]


class Chain:
    """A parsed conjunction: chain predicates over :attr:`base` plus the
    variables that var-bound facts constrain."""

    __slots__ = ("base", "preds", "fact_vars")

    def __init__(self, base: Optional[Term] = None,
                 preds: Optional[List[Pred]] = None,
                 fact_vars: Optional[Dict[str, Term]] = None) -> None:
        self.base = base
        self.preds: List[Pred] = preds or []
        #: variables of the var-bound facts, by name
        self.fact_vars: Dict[str, Term] = fact_vars or {}

    def copy(self) -> "Chain":
        return Chain(self.base, list(self.preds), dict(self.fact_vars))


def _fact_var(t: Term) -> Optional[Term]:
    """The variable of a conjunct :func:`derive_bounds` folds into a
    per-variable bound, or None."""
    if t.op in (Op.ULT, Op.ULE) or (t.op == Op.EQ
                                    and isinstance(t.args[0].sort, BVSort)):
        a, b = t.args
        if a.is_var() and b.is_const():
            return a
        if b.is_var() and a.is_const():
            return b
    return None


def _chain_pred(t: Term) -> Optional[Tuple[Term, Tuple[Step, ...], int, int]]:
    """``t`` as ``lo <= f(base) <= hi``: (base, steps of f, lo, hi)."""
    negated = t.op == Op.BNOT
    if negated:
        t = t.args[0]
    if t.op not in (Op.ULT, Op.ULE):
        return None
    a, b = t.args
    mask = (1 << a.width) - 1
    strict = int(t.op == Op.ULT)
    if b.is_const():
        x, lo, hi = a, 0, b.value - strict
    elif a.is_const():
        x, lo, hi = b, a.value + strict, mask
    else:
        return None
    if negated:  # the complement of a prefix is a suffix and vice versa
        lo, hi = (hi + 1, mask) if lo == 0 else (0, lo - 1)
    steps: List[Step] = []
    while x.op in (Op.ADD, Op.MUL, Op.SHL) and x.args[1].is_const():
        k = x.args[1].value
        if x.op == Op.SHL:
            if k >= x.width:
                return None
            steps.append((Op.MUL, 1 << k))
        else:
            steps.append((x.op, k))
        x = x.args[0]
    steps.reverse()
    return x, tuple(steps), lo, hi


def parse_chain(conjuncts: Iterable[Term],
                into: Optional[Chain] = None) -> Optional[Chain]:
    """Parse a conjunction (``BAND`` nests are flattened) into a
    :class:`Chain`, extending ``into`` if given; None at the first
    conjunct that is neither a var-bound fact nor a chain predicate over
    the chain's base."""
    chain = into.copy() if into is not None else Chain()
    stack = list(conjuncts)
    while stack:
        t = stack.pop()
        if t.op == Op.BAND:
            stack.extend(t.args)
            continue
        var = _fact_var(t)
        if var is not None:
            chain.fact_vars[var.name] = var
            continue
        pred = _chain_pred(t)
        if pred is None:
            return None
        base, steps, lo, hi = pred
        if chain.base is None:
            chain.base = base
        elif base is not chain.base:
            return None
        chain.preds.append((steps, lo, hi))
    return chain


def _preimage(steps: Tuple[Step, ...], lo: int, hi: int,
              rlo: int, rhi: int, modulus: int) -> Optional[Intervals]:
    """Base values ``v`` in ``[rlo, rhi]`` with ``lo <= f(v) <= hi``, or
    None when a multiplication can overflow on the range.

    ``f`` is tracked as pieces ``(plo, phi, m, c)``: for ``v`` in
    ``[plo, phi]``, ``f(v) = m*v + c`` exactly, with no reduction
    modulo the width left to do.
    """
    pieces = [(rlo, rhi, 1, 0)]
    for op, k in steps:
        nxt = []
        for plo, phi, m, c in pieces:
            if op == Op.ADD:
                # f(v) + k < 2 * modulus: it wraps at most once, from
                # the first v with m*v + c + k >= modulus on
                c += k
                cut = -((c - modulus) // m)
                if cut > plo:
                    nxt.append((plo, min(phi, cut - 1), m, c))
                if cut <= phi:
                    nxt.append((max(plo, cut), phi, m, c - modulus))
            else:
                if (m * phi + c) * k >= modulus:
                    return None
                nxt.append((plo, phi, m * k, c * k))
        pieces = nxt
    out: Intervals = []
    for plo, phi, m, c in pieces:
        a = max(plo, -((c - lo) // m))
        b = min(phi, (hi - c) // m)
        if a <= b:
            out.append((a, b))
    return out


def _intersect(xs: Intervals, ys: Intervals) -> Intervals:
    out: Intervals = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        lo = max(xs[i][0], ys[j][0])
        hi = min(xs[i][1], ys[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if xs[i][1] < ys[j][1]:
            i += 1
        else:
            j += 1
    return out


def _invert(base: Term, v: int,
            analysis: IntervalAnalysis) -> Optional[Dict[str, int]]:
    """Values of the base's variables that make it evaluate to ``v``,
    each inside its proved range; None for any other base shape."""
    if base.is_var():
        return {base.name: v}
    if base.op != Op.ADD:
        return None
    for a, scaled in (base.args, base.args[::-1]):
        if not (a.is_var() and scaled.op in (Op.SHL, Op.MUL)
                and scaled.args[0].is_var() and scaled.args[0] is not a
                and scaled.args[1].is_const()):
            continue
        b, k = scaled.args[0], scaled.args[1].value
        if scaled.op == Op.SHL:
            if k >= base.width:
                continue
            k = 1 << k
        ra, rb = analysis.interval_of(a), analysis.interval_of(b)
        high, low = divmod(v, k)
        if ra.lo == 0 and ra.hi == k - 1 and rb.contains(high):
            return {a.name: low, b.name: high}
    return None


def decide_chain(chain: Chain, analysis: IntervalAnalysis
                 ) -> Optional[Verdict]:
    """Decide a parsed chain under the query's interval analysis (whose
    bounds fold the same var-bound facts), or None if undecided.

    The caller must have run the interval layer on the same conjuncts:
    a SAT model gives each fact variable the low end of its proved
    range, which satisfies every fact unless a fact is refuted there.
    """
    base = chain.base
    if base is None:
        return None
    r = analysis.interval_of(base)
    modulus = 1 << base.width
    feasible: Intervals = [(r.lo, r.hi)]
    for steps, lo, hi in chain.preds:
        pre = _preimage(steps, lo, hi, r.lo, r.hi, modulus)
        if pre is None:
            return None
        feasible = _intersect(feasible, pre)
        if not feasible:
            return False, None
    values = _invert(base, feasible[0][0], analysis)
    if values is None:
        return None
    for name, var in chain.fact_vars.items():
        if name not in values:
            values[name] = analysis.interval_of(var).lo
    return True, values
