"""Memory model of the symbolic VM.

Three kinds of objects, matching the CUDA hierarchy:

* LOCAL — thread-private (alloca'd arrays and spilled scalars). Stored as
  a concrete-offset map; symbolic indexing into a local array havocs.
* SHARED — one object per ``__shared__`` declaration, per block.
* GLOBAL — one object per kernel pointer argument (size set by the launch
  configuration).

Shared/global objects do not hold a flat value map: every store is kept
as a *write record* (guard, offset term, value) and loads are resolved
against the log, which is exactly what parametric race checking needs.
A load resolves precisely when every potentially-aliasing write has a
syntactically identical offset (the paper's "read over the parametric
thread's own write"); otherwise the value is havocked and tagged, which
the resolvability analysis (§IV-B) picks up.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import ir
from ..smt import TRUE, Term, mk_bv, mk_ite
from ..smt.terms import Op, mk_uf

_havoc_counter = itertools.count()

#: UF namespace tags (recognisable in terms)
HAVOC_TAG = "havoc"
INPUT_TAG = "in"
UNINIT_TAG = "uninit"


def make_havoc(width: int, why: str) -> Term:
    """A fresh unconstrained value, tagged so resolvability analysis can
    find it inside access conditions/addresses."""
    return mk_uf(f"{HAVOC_TAG}:{why}:{next(_havoc_counter)}", (), width)


def is_havoc_term(term: Term) -> bool:
    """Is this term a tagged havoc symbol?"""
    return term.op == Op.UF and str(term.payload).startswith(HAVOC_TAG + ":")


#: :func:`term_facts` bits: an uninterpreted application occurs in the
#: DAG / a havoc symbol (a tagged uninterpreted application) occurs
HAS_UF = 1
HAS_HAVOC = 2

#: interned term -> its fact bits. Interned terms live as long as the
#: intern table, so the memo adds no lifetime, and the bits are a pure
#: function of the term, so every caller may share them; each node is
#: walked once per process, however many accesses, pairs and reports
#: share it.
_FACTS: Dict[Term, int] = {}


def term_facts(term: Term) -> int:
    """The :data:`HAS_UF` / :data:`HAS_HAVOC` bits of *term*, memoised
    per node: a node's bits are its own or'ed with its arguments'."""
    facts = _FACTS.get(term)
    if facts is not None:
        return facts
    stack = [term]
    while stack:
        node = stack[-1]
        if node in _FACTS:
            stack.pop()
            continue
        pending = [a for a in node.args if a not in _FACTS]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        facts = 0
        if node.op == Op.UF:
            facts = HAS_UF | (HAS_HAVOC if is_havoc_term(node) else 0)
        for arg in node.args:
            facts |= _FACTS[arg]
        _FACTS[node] = facts
    return _FACTS[term]


def contains_havoc(term: Term) -> bool:
    """Does any havoc symbol occur in the term DAG?"""
    return bool(term_facts(term) & HAS_HAVOC)


def contains_uf(term: Term) -> bool:
    """Does any uninterpreted application (input read, havoc) occur in
    the term DAG?"""
    return bool(term_facts(term) & HAS_UF)


@dataclass
class MemoryObject:
    """A distinct allocation visible to the race checker."""

    name: str
    space: ir.MemSpace
    size_bytes: Optional[int]     # None: unknown/unbounded (no OOB check)
    elem_width: int = 32          # bit width of the canonical element
    is_symbolic_input: bool = False
    concrete_values: Optional[List[int]] = None  # for concrete input arrays

    def __hash__(self) -> int:
        return id(self)

    def __eq__(self, other: object) -> bool:
        return self is other

    def input_value_at(self, offset: Term, width: int) -> Term:
        """Value of an input buffer cell prior to any kernel write."""
        if self.is_symbolic_input:
            return mk_uf(f"{INPUT_TAG}:{self.name}", (offset,), width)
        if self.concrete_values is not None and offset.is_const():
            index = offset.value // max(1, self.elem_width // 8)
            if 0 <= index < len(self.concrete_values):
                return mk_bv(self.concrete_values[index], width)
        if self.space == ir.MemSpace.SHARED:
            return mk_uf(f"{UNINIT_TAG}:{self.name}", (offset,), width)
        if offset.is_const():
            return mk_bv(0, width)  # concrete inputs default to zero fill
        return mk_uf(f"{INPUT_TAG}:{self.name}", (offset,), width)


@dataclass(frozen=True)
class WriteRecord:
    """One store to a shared/global object by the parametric thread."""

    guard: Term        # path guard within the flow (flow cond excluded)
    offset: Term       # byte offset
    value: Term
    width: int
    instr_id: int
    atomic: bool = False


class ObjectLog:
    """Per-flow write log for one shareable object.

    Copy-on-write so that flow splits are O(1): children share the parent
    list and only append to their own tail.
    """

    __slots__ = ("obj", "_records",)

    def __init__(self, obj: MemoryObject,
                 records: Optional[List[WriteRecord]] = None) -> None:
        self.obj = obj
        self._records: List[WriteRecord] = records if records is not None \
            else []

    def clone(self) -> "ObjectLog":
        return ObjectLog(self.obj, list(self._records))

    def append(self, record: WriteRecord) -> None:
        self._records.append(record)

    def records(self) -> List[WriteRecord]:
        return self._records

    def resolve_read(self, offset: Term, width: int) -> Tuple[Term, bool]:
        """Value at ``offset``; returns (value, resolved_precisely).

        Precise when every write that might alias the read has an offset
        syntactically identical to it (same parametric thread, same cell);
        then the value is the guarded fold of those writes over the
        initial contents. Otherwise havoc.
        """
        matching: List[WriteRecord] = []
        for rec in self._records:
            if rec.offset is offset:
                matching.append(rec)
            elif rec.offset.is_const() and offset.is_const():
                continue  # distinct concrete cells never alias
            else:
                return (make_havoc(width, f"read:{self.obj.name}"), False)
        value = self.obj.input_value_at(offset, width)
        for rec in matching:
            if rec.atomic:
                return (make_havoc(width, f"atomic:{self.obj.name}"), False)
            rec_value = rec.value
            if rec.width != width:
                return (make_havoc(width, f"width:{self.obj.name}"), False)
            value = rec_value if rec.guard is TRUE \
                else mk_ite(rec.guard, rec_value, value)
        return (value, True)


class LocalMemory:
    """Thread-private memory: concrete offsets → terms."""

    def __init__(self) -> None:
        self.objects: Dict[int, Dict[int, Term]] = {}
        self.sizes: Dict[int, int] = {}

    def clone(self) -> "LocalMemory":
        copy = LocalMemory()
        copy.objects = {k: dict(v) for k, v in self.objects.items()}
        copy.sizes = dict(self.sizes)
        return copy

    def allocate(self, key: int, size_bytes: int) -> None:
        self.objects.setdefault(key, {})
        self.sizes[key] = size_bytes

    def store(self, key: int, offset: Term, value: Term,
              guard: Term) -> bool:
        """Returns False if the store had to be dropped (symbolic offset)."""
        cells = self.objects.setdefault(key, {})
        if not offset.is_const():
            # symbolic index into a private array: havoc the whole object
            self.objects[key] = {}
            return False
        off = offset.value
        if guard is not TRUE and off in cells:
            value = mk_ite(guard, value, cells[off])
        elif guard is not TRUE:
            value = mk_ite(guard, value,
                           make_havoc(value.width, "local-uninit"))
        cells[off] = value
        return True

    def load(self, key: int, offset: Term, width: int) -> Term:
        cells = self.objects.get(key, {})
        if not offset.is_const():
            return make_havoc(width, "local-symbolic-index")
        value = cells.get(offset.value)
        if value is None:
            return make_havoc(width, "local-uninit")
        if value.width != width:
            from .value import fit_width
            return fit_width(value, width)
        return value
