"""Static adjudication: decide the engine's race/OOB queries exactly,
without a solver.

The executed kernel's guards, offsets and values are interned terms
over the *bounded, concrete* thread box (``tid.* < blockDim``,
``bid.* < gridDim``) plus summary index variables with known extents.
For a pure term (no uninterpreted application, no free symbolic
input), exhaustive evaluation over that box decides the engine's SAT
query *exactly* — same satisfiability, never an approximation.
:class:`StaticAdjudicator` plugs :meth:`StaticAdjudicator._enumerate`,
a vectorised enumeration, into the engine's own :class:`RaceChecker`
as the discharge step that runs before the solver; candidate-pair
enumeration, pair memo, affine fast path and report emission are the
checker's.

A guard that reads an input or havoc value (an uninterpreted
application) over a pure offset is enumerated through its *projection*:
the guard's top-level conjuncts without an uninterpreted application,
the others taken as true. The projection relaxes the query, so when no
valid thread pair collides under it (no guard-true row overruns, for
OOB) the real query is UNSAT too — the bitonic kernels' guards compare
input values, their offsets do not read them. A collision under the
projection proves nothing: that pair goes to the solver.

A pair outside the decidable fragment — a free non-thread variable
(symbolic scalar input), an uninterpreted application in an offset or
in a guard whose projection collides, or a domain too large to
enumerate under the caps — raises :class:`StaticUnknown`, and that one
pair goes to the solver. The caps keep enumeration cheap: a pair that
would need a big enumeration is solved instead.
"""
from __future__ import annotations

import itertools
import time
from typing import Dict, List, Optional, Tuple

from .. import ir
from ..smt import Model
from ..smt.sorts import BVSort
from ..smt.subst import _eval_node
from ..smt.terms import Op, Term, free_vars
from ..sym.access import Access
from ..sym.memory import contains_havoc, contains_uf
from ..sym.races import RaceChecker

#: per-side enumeration domain cap (product of variable extents)
ENUM_CAP = 4096
#: total (i, j) pair iterations allowed per pair adjudication
SCAN_CAP = 1 << 16
#: a discharge hook's "enumeration could not decide it" marker
_UNKNOWN = object()


class StaticUnknown(Exception):
    """The pair/access leaves the decidable fragment — solve it."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# vectorised term evaluation
# ---------------------------------------------------------------------------

def _vec(x, d: int) -> list:
    return x if isinstance(x, list) else [x] * d


def _apply(node: Term, args: list, d: int):
    """One DAG node over *d* parallel assignments. Scalar results stay
    scalars (constant subtrees cost nothing); every element matches
    :func:`repro.smt.subst.evaluate` exactly — the generic fallback IS
    that evaluator, applied pointwise."""
    if not any(isinstance(a, list) for a in args):
        return _eval_node(node, args)
    op = node.op
    if op == Op.ITE:
        c, t, e = (_vec(a, d) for a in args)
        return [tv if cv else ev for cv, tv, ev in zip(c, t, e)]
    if op in (Op.BAND, Op.BOR):
        out = _vec(args[0], d)[:]
        for other in args[1:]:
            ov = _vec(other, d)
            if op == Op.BAND:
                out = [bool(p) and bool(q) for p, q in zip(out, ov)]
            else:
                out = [bool(p) or bool(q) for p, q in zip(out, ov)]
        return out
    if op == Op.BNOT:
        return [not p for p in _vec(args[0], d)]
    if len(args) == 2:
        x, y = _vec(args[0], d), _vec(args[1], d)
        if op == Op.EQ:
            return [p == q for p, q in zip(x, y)]
        if op == Op.ULT:
            return [p < q for p, q in zip(x, y)]
        if op == Op.ULE:
            return [p <= q for p, q in zip(x, y)]
        sort = node.sort
        if isinstance(sort, BVSort):
            mask = sort.mask
            if op == Op.ADD:
                return [(p + q) & mask for p, q in zip(x, y)]
            if op == Op.SUB:
                return [(p - q) & mask for p, q in zip(x, y)]
            if op == Op.MUL:
                return [(p * q) & mask for p, q in zip(x, y)]
            if op == Op.AND:
                return [p & q for p, q in zip(x, y)]
            if op == Op.OR:
                return [p | q for p, q in zip(x, y)]
            if op == Op.XOR:
                return [p ^ q for p, q in zip(x, y)]
            if not isinstance(args[1], list):
                q0 = args[1]
                if op == Op.UREM and q0 != 0:
                    return [p % q0 for p in x]
                if op == Op.UDIV and q0 != 0:
                    return [p // q0 for p in x]
                if op == Op.SHL and q0 < sort.width:
                    return [(p << q0) & mask for p in x]
                if op == Op.LSHR and q0 < sort.width:
                    return [p >> q0 for p in x]
    # generic fallback: the scalar evaluator, pointwise
    cols = [_vec(a, d) for a in args]
    return [_eval_node(node, [c[i] for c in cols]) for i in range(d)]


def _veval(roots: List[Term], columns: Dict[str, list], d: int,
           vals: Optional[Dict[int, object]] = None) -> list:
    """Evaluate term DAGs column-wise over *d* assignments.

    Raises :class:`StaticUnknown` on an unbound variable (a symbolic
    scalar input) or an uninterpreted application — exactly the leaves
    a solver would treat as free, which enumeration cannot decide.

    *vals* is a node-id → column cache; a shared dict (one per box)
    lets subDAGs common to many pairs — the block's address arithmetic,
    repeated guards — evaluate exactly once per adjudication, and the
    traversal prunes at already-cached nodes.
    """
    if vals is None:
        vals = {}
    stack: list = [(r, False) for r in roots]
    while stack:
        node, expanded = stack.pop()
        nid = id(node)
        if nid in vals:
            continue
        if not expanded:
            stack.append((node, True))
            for arg in node.args:
                if id(arg) not in vals:
                    stack.append((arg, False))
            continue
        op = node.op
        if op == Op.CONST:
            vals[nid] = node.payload
        elif op == Op.VAR:
            col = columns.get(node.name)
            if col is None:
                raise StaticUnknown(f"free input {node.name}")
            vals[nid] = col
        elif op == Op.UF:
            raise StaticUnknown(f"uninterpreted {node.payload}")
        else:
            vals[nid] = _apply(
                node, [vals[id(a)] for a in node.args], d)
    return [_vec(vals[id(r)], d) for r in roots]


# ---------------------------------------------------------------------------
# the adjudicator
# ---------------------------------------------------------------------------

class StaticAdjudicator:
    """Enumeration as the first discharge step of one record's
    :class:`RaceChecker`.

    :meth:`discharge_pair` / :meth:`discharge_oob` are the checker's
    discharge hooks: they decide a pair or access by enumeration and
    hand it to the checker's own solver step (``_solve_pair`` /
    ``_solve_oob``) when it leaves the decidable fragment. The time
    spent enumerating is ``stats.static_seconds``.
    """

    def __init__(self, checker: RaceChecker) -> None:
        self.checker = checker
        #: the first :class:`StaticUnknown` reason of a pair or access
        #: that fell back to the solver (``None``: none did)
        self.fallback_reason: Optional[str] = None
        self._extents: Dict[str, int] = checker._side1.extents
        self._box_cache: Dict[tuple, tuple] = {}
        self._col_cache: Dict[tuple, Dict[str, list]] = {}
        #: per-box node-id → column vector cache (see :func:`_veval`)
        self._node_cache: Dict[tuple, Dict[int, object]] = {}
        self._fv_cache: Dict[tuple, Dict[str, Term]] = {}
        #: address-bucket maps, one per (access terms, box) — each
        #: access participates in many pairs
        self._bucket_cache: Dict[tuple, Dict[int, List[int]]] = {}
        #: term ids -> the reason their evaluation left the fragment
        #: (an uninterpreted application fails under every box)
        self._failed: Dict[tuple, str] = {}
        #: guard id -> its projection's conjuncts (None: no
        #: uninterpreted application, the guard is evaluated whole)
        self._projections: Dict[int, Optional[List[Term]]] = {}
        #: (guard id, box names) -> the projection's guard column
        self._projected_guards: Dict[tuple, list] = {}

    # -- discharge hooks -----------------------------------------------

    def discharge_pair(self, a1: Access, a2: Access, same_bi: bool
                       ) -> Optional[Tuple[Model, bool]]:
        stats = self.checker.stats
        stats.static_pairs_checked += 1
        verdict = self._try(self._enumerate, a1, a2, same_bi)
        if verdict is _UNKNOWN:
            return self.checker._solve_pair(a1, a2, same_bi)
        stats.static_pairs_discharged += 1
        return verdict

    def discharge_oob(self, access: Access) -> Optional[Model]:
        verdict = self._try(self._enumerate_oob, access)
        if verdict is _UNKNOWN:
            return self.checker._solve_oob(access)
        return verdict

    def _try(self, enumerate_, *args):
        """``enumerate_(*args)``, or ``_UNKNOWN`` when it leaves the
        decidable fragment."""
        stats = self.checker.stats
        start = time.perf_counter()
        try:
            return enumerate_(*args)
        except StaticUnknown as exc:
            if self.fallback_reason is None:
                self.fallback_reason = exc.reason
            return _UNKNOWN
        finally:
            stats.static_seconds += time.perf_counter() - start

    # -- race pairs ----------------------------------------------------

    def _enumerate(self, a1: Access, a2: Access, same_bi: bool
                   ) -> Optional[Tuple[Model, bool]]:
        """Decide the pair's race query by exhaustive evaluation.

        Returns ``None`` (provably disjoint under thread distinctness)
        or ``(witness model, benign)``; raises :class:`StaticUnknown`
        outside the decidable fragment. Semantics mirrored exactly:
        preamble bounds become the enumeration box, ``_different_thread``
        / the cross-interval ``not same_block`` conjunct become the
        validity predicate over coordinate tuples, ``_overlap`` becomes
        the address join, ``_classify_benign`` becomes a value sweep
        over the colliding assignments.
        """
        rc = self.checker
        obj = a1.obj
        # W/W pairs with pure recorded values qualify for the benign
        # classification, whose query ranges over the value terms' own
        # thread variables too — fold them into the enumeration so
        # thread distinctness sees every coordinate that matters
        needs_values = (a1.kind.is_write() and a2.kind.is_write()
                        and a1.value is not None and a2.value is not None
                        and not contains_havoc(a1.value)
                        and not contains_havoc(a2.value))
        roots1 = [a1.cond, a1.offset] + ([a1.value] if needs_values else [])
        roots2 = [a2.cond, a2.offset] + ([a2.value] if needs_values else [])
        fv1 = self._free_vars(roots1)
        fv2 = self._free_vars(roots2)
        for name in set(fv1) | set(fv2):
            if name not in self._extents \
                    and name not in rc._summary_bounds:
                raise StaticUnknown(f"free input {name}")
        occurring = tuple(sorted(
            n for n in self._extents if n in fv1 or n in fv2))
        n_occ = len(occurring)
        occ_tid = [i for i, n in enumerate(occurring)
                   if n.startswith("tid")]
        occ_bid = [i for i, n in enumerate(occurring)
                   if n.startswith("bid")]
        has_rtid = any(n.startswith("tid") and n not in occurring
                       for n in self._extents)
        has_rbid = any(n.startswith("bid") and n not in occurring
                       for n in self._extents)
        # per-side domains: shared occurring coordinates plus each
        # side's own summary index variables (instantiated per side,
        # like the engine's k!1 / k!2)
        names1 = occurring + tuple(sorted(
            n for n in fv1 if n in rc._summary_bounds))
        names2 = occurring + tuple(sorted(
            n for n in fv2 if n in rc._summary_bounds))
        tuples1, d1, vals1, proj1 = self._eval_side(a1, roots1, names1)
        tuples2, d2, vals2, proj2 = self._eval_side(a2, roots2, names2)
        cond1, off1 = vals1[0], vals1[1]
        cond2, off2 = vals2[0], vals2[1]
        projected = [(r, n) for r, n, p in ((roots1, names1, proj1),
                                            (roots2, names2, proj2)) if p]

        if obj.space == ir.MemSpace.SHARED:
            mode = "S"
        elif same_bi:
            mode = "G"
        else:
            mode = "X"

        def valid(t1: tuple, t2: tuple) -> bool:
            """thread-distinctness over the enumerated coordinates;
            non-occurring coordinates are free, so their mere existence
            satisfies (or defeats) the corresponding (in)equality"""
            if mode == "S":
                # same block, different thread-in-block
                if any(t1[i] != t2[i] for i in occ_bid):
                    return False
                return has_rtid or any(t1[i] != t2[i] for i in occ_tid)
            if mode == "X":
                # different block (which implies different thread)
                return has_rbid or any(t1[i] != t2[i] for i in occ_bid)
            # global, same interval: any coordinate may differ
            return has_rtid or has_rbid or t1[:n_occ] != t2[:n_occ]

        # address join: bucket guard-true rows by byte footprint
        same_size = a1.size == a2.size
        if not same_size:
            # the engine's byte-range overlap is mod-2^32; byte keys
            # match it only when neither footprint wraps
            m = (1 << 32) - a1.size
            if any(off1[i] > m for i in range(d1) if cond1[i]):
                raise self._unknown("wrapping byte footprint", projected)
            m = (1 << 32) - a2.size
            if any(off2[j] > m for j in range(d2) if cond2[j]):
                raise self._unknown("wrapping byte footprint", projected)

        b1 = self._buckets(a1, names1, cond1, off1, same_size, d1)
        b2 = self._buckets(a2, names2, cond2, off2, same_size, d2)

        hit: Optional[Tuple[int, int]] = None
        work = 0
        for addr, idxs1 in b1.items():
            idxs2 = b2.get(addr)
            if not idxs2:
                continue
            for i in idxs1:
                t1 = tuples1[i]
                for j in idxs2:
                    work += 1
                    if work > SCAN_CAP:
                        raise self._unknown("pair scan cap", projected)
                    if valid(t1, tuples2[j]):
                        hit = (i, j)
                        break
                if hit:
                    break
            if hit:
                break
        if hit is None:
            return None
        if projected:
            raise self._unknown("projection collides", projected)

        benign = False
        if needs_values:
            v1, v2 = vals1[2], vals2[2]
            benign = True
            seen = set()
            work = 0
            for addr, idxs1 in b1.items():
                idxs2 = b2.get(addr)
                if not idxs2:
                    continue
                for i in idxs1:
                    t1 = tuples1[i]
                    for j in idxs2:
                        if (i, j) in seen:
                            continue  # byte buckets repeat pairs
                        seen.add((i, j))
                        work += 1
                        if work > SCAN_CAP:
                            raise StaticUnknown("benign scan cap")
                        if v1[i] != v2[j] and valid(t1, tuples2[j]):
                            benign = False
                            hit = (i, j)  # a witness with the conflict
                            break
                    if not benign:
                        break
                if not benign:
                    break

        i, j = hit
        values: Dict[str, int] = {}
        for n, v in zip(names1, tuples1[i]):
            values[f"{n}!1"] = v
        for n, v in zip(names2, tuples2[j]):
            values[f"{n}!2"] = v
        self._mark_residual(values, tuples1[i], tuples2[j], mode,
                            occ_tid, occ_bid, n_occ, occurring)
        return Model(values), benign

    def _mark_residual(self, values: Dict[str, int], t1: tuple, t2: tuple,
                       mode: str, occ_tid: list, occ_bid: list,
                       n_occ: int, occurring: tuple) -> None:
        """When validity leaned on a non-occurring coordinate, pin it in
        the witness so the reported threads really are distinct
        (``_witness`` defaults unmentioned coordinates to 0)."""
        def first_residual(prefix: str) -> Optional[str]:
            for n in sorted(self._extents):
                if n.startswith(prefix) and n not in occurring:
                    return n
            return None

        if mode == "S":
            if not any(t1[i] != t2[i] for i in occ_tid):
                name = first_residual("tid")
                values[f"{name}!1"], values[f"{name}!2"] = 0, 1
        elif mode == "G":
            if t1[:n_occ] == t2[:n_occ]:
                name = first_residual("tid") or first_residual("bid")
                values[f"{name}!1"], values[f"{name}!2"] = 0, 1
        else:
            if not any(t1[i] != t2[i] for i in occ_bid):
                name = first_residual("bid")
                values[f"{name}!1"], values[f"{name}!2"] = 0, 1

    # -- out-of-bounds -------------------------------------------------

    def _enumerate_oob(self, access: Access) -> Optional[Model]:
        """Decide the access's past-the-end query by single-side
        enumeration; raises :class:`StaticUnknown` outside the
        decidable fragment."""
        rc = self.checker
        fv = self._free_vars([access.cond, access.offset])
        for name in fv:
            if name not in self._extents \
                    and name not in rc._summary_bounds:
                raise StaticUnknown(f"free input {name}")
        names = tuple(sorted(
            n for n in self._extents if n in fv)) + tuple(sorted(
                n for n in fv if n in rc._summary_bounds))
        roots = [access.cond, access.offset]
        tuples, d, (cond, off), projected = self._eval_side(
            access, roots, names)
        # negative when the access is wider than the object: then every
        # guard-true row overruns it
        limit = access.obj.size_bytes - access.size
        for i in range(d):
            if cond[i] and off[i] > limit:
                if projected:
                    raise self._unknown("projection overruns",
                                        [(roots, names)])
                return Model({f"{n}!1": v
                              for n, v in zip(names, tuples[i])})
        return None

    # -- enumeration machinery ----------------------------------------

    def _free_vars(self, roots: List[Term]) -> Dict[str, Term]:
        key = tuple(id(r) for r in roots)
        out = self._fv_cache.get(key)
        if out is None:
            out = free_vars(*roots)
            self._fv_cache[key] = out
        return out

    def _buckets(self, a: Access, names: tuple, cond: list, off: list,
                 same_size: bool, d: int) -> Dict[int, List[int]]:
        """Guard-true rows of one access keyed by byte footprint —
        exact address when both sides have equal sizes, byte-granular
        otherwise."""
        key = (id(a.cond), id(a.offset), a.size, same_size, names)
        out = self._bucket_cache.get(key)
        if out is not None:
            return out
        out = {}
        for i in range(d):
            if not cond[i]:
                continue
            if same_size:
                out.setdefault(off[i], []).append(i)
            else:
                for b in range(off[i], off[i] + a.size):
                    out.setdefault(b, []).append(i)
        self._bucket_cache[key] = out
        return out

    def _box(self, names: tuple) -> Tuple[list, int]:
        """All assignments to *names* (row-major tuples), capped."""
        cached = self._box_cache.get(names)
        if cached is not None:
            return cached
        rc = self.checker
        sizes = []
        for n in names:
            if n in self._extents:
                sizes.append(self._extents[n])
            else:
                iv = rc._summary_bounds[n]
                sizes.append(iv.hi - iv.lo + 1)
        d = 1
        for s in sizes:
            d *= s
        if d > ENUM_CAP:
            raise StaticUnknown(f"domain {d} exceeds enumeration cap")
        tuples = list(itertools.product(*[range(s) for s in sizes]))
        cached = (tuples, d)
        self._box_cache[names] = cached
        return cached

    def _projection(self, cond: Term) -> Optional[List[Term]]:
        """The top-level conjuncts of *cond* without an uninterpreted
        application (the rest count as true), or ``None`` when *cond*
        has none and is evaluated whole."""
        key = id(cond)
        if key in self._projections:
            return self._projections[key]
        out = None
        if contains_uf(cond):
            out = []
            stack = [cond]
            while stack:
                t = stack.pop()
                if t.op == Op.BAND:
                    stack.extend(reversed(t.args))
                elif not contains_uf(t):
                    out.append(t)
        self._projections[key] = out
        return out

    def _eval_side(self, a: Access, roots: List[Term], names: tuple
                   ) -> Tuple[list, int, List[list], bool]:
        """:meth:`_eval_terms` of one side's *roots* (guard, offset,
        maybe value), or — when only the guard reads an uninterpreted
        application — the guard projection's column and the offset's.
        The flag says which: a projected side decides only UNSAT."""
        conjuncts = self._projection(a.cond)
        if conjuncts is None or contains_uf(a.offset):
            return (*self._eval_terms(roots, names), False)
        tuples, d, cols = self._eval_terms(conjuncts + [a.offset], names)
        key = (id(a.cond), names)
        guard = self._projected_guards.get(key)
        if guard is None:
            guard = [all(row) for row in zip(*cols[:-1])] \
                if conjuncts else [True] * d
            self._projected_guards[key] = guard
        return tuples, d, [guard, cols[-1]], True

    def _unknown(self, reason: str, projected: List[tuple]
                 ) -> StaticUnknown:
        """Why a pair or access goes to the solver. A projection only
        proves UNSAT; past it, the first projected side's exact terms
        — ``(roots, names)`` in *projected* — leave the fragment, and
        their reason is the one the pair falls back with."""
        for roots, names in projected:
            try:
                self._eval_terms(roots, names)
            except StaticUnknown as exc:
                return exc
        return StaticUnknown(reason)

    def _eval_terms(self, terms: List[Term], names: tuple
                    ) -> Tuple[list, int, List[list]]:
        """The box of *names* (rows, row count) and the column vectors
        of *terms* over it, with a per-box persistent node cache — the
        same guards and address arithmetic show up in many pairs. Terms
        whose evaluation failed once re-raise its reason at once."""
        key = tuple(id(t) for t in terms)
        reason = self._failed.get(key)
        if reason is not None:
            raise StaticUnknown(reason)
        tuples, d = self._box(names)
        columns = self._col_cache.get(names)
        if columns is None:
            columns = {n: [t[i] for t in tuples]
                       for i, n in enumerate(names)}
            self._col_cache[names] = columns
        cache = self._node_cache.setdefault(names, {})
        try:
            return tuples, d, _veval(terms, columns, d, cache)
        except StaticUnknown as exc:
            self._failed[key] = exc.reason
            raise
