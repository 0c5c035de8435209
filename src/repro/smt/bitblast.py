"""Bit-blasting: lowering bitvector terms to CNF circuits.

Every BV term maps to a list of CNF literals (LSB first); every Bool term
maps to a single literal. Standard circuits: ripple-carry adders,
shift-add multipliers, restoring dividers, barrel shifters, borrow-chain
comparators. Division follows SMT-LIB semantics (``x udiv 0 = all-ones``,
``x urem 0 = x``) so the solver agrees with the concrete evaluator in
:mod:`repro.smt.subst` bit for bit — a property the test suite checks with
hypothesis.

Batched lowering: race-pair goals are massively isomorphic — the same
access-offset skeleton instantiated with different constants (loop
ordinals, element sizes, summary strides). A :class:`TemplateCache`
recognises repeated skeletons (same interned DAG shape modulo BV
constant leaves), lowers the constant-abstracted skeleton ONCE into a
template CNF, and instantiates later queries by literal substitution —
a tight translate loop plus one batched clause import instead of a full
gate-by-gate Tseitin walk.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .cnf import CNF
from .sorts import BOOL, BVSort
from . import terms as T
from .terms import Op, Term

Bits = List[int]

#: sentinel for "this scratch literal is compile-time true" in template
#: literal maps (its negation marks compile-time false). Large enough to
#: never collide with a real DIMACS literal.
_TRUE_SENT = 1 << 60


class _Template:
    """One compiled skeleton: a scratch CNF plus a variable binding plan.

    ``binding[v]`` (scratch var ``v`` in 1..nvars) says how to map that
    variable when instantiating into a target blaster:

    * ``("c", slot, bit)`` — bit *bit* of constant slot *slot*: resolved
      to compile-time true/false from the instance's constant value;
    * ``("v", name, bit)`` — bit *bit* of the BV leaf variable *name*:
      mapped to the target blaster's ``var_bits[name]``;
    * ``("b", name)`` — the Bool leaf variable *name*;
    * ``("t",)`` — the scratch CNF's const-true variable;
    * ``("i", k)`` — internal Tseitin gate *k*: a fresh target variable.
    """

    __slots__ = ("nvars", "clauses", "out", "binding", "var_widths",
                 "n_internal")

    def __init__(self, nvars: int, clauses: List[List[int]], out: int,
                 binding: List[Optional[tuple]],
                 var_widths: Dict[str, int], n_internal: int) -> None:
        self.nvars = nvars
        self.clauses = clauses
        self.out = out
        self.binding = binding
        self.var_widths = var_widths
        self.n_internal = n_internal


class _Entry:
    __slots__ = ("count", "template")

    def __init__(self) -> None:
        self.count = 0
        self.template: Optional[_Template] = None


class TemplateCache:
    """Skeleton-keyed cache of compiled lowering templates.

    Keyed purely on term structure (leaf variables by name, each
    distinct BV constant node abstracted to a positional slot), so one
    cache is safely shared across sessions and preambles: a template
    carries no target-CNF state. Terms containing uninterpreted
    functions are never templated — UF applications get fresh bits per
    *node*, and re-instantiating them per query would sever the
    Ackermann-style sharing that makes ``f(x) = f(x)`` valid.
    """

    def __init__(self, min_sightings: int = 2, min_nodes: int = 8,
                 max_nodes: int = 600, max_templates: int = 256) -> None:
        self.min_sightings = min_sightings
        self.min_nodes = min_nodes
        self.max_nodes = max_nodes
        self.max_templates = max_templates
        # id(root) -> (root pin, key, const nodes) — the pin keeps the
        # term alive so the id key cannot be recycled under us
        self._skel: Dict[int, tuple] = {}
        self._entries: Dict[str, _Entry] = {}
        self.hits = 0
        self.builds = 0

    # -- skeleton ------------------------------------------------------

    def skeleton_of(self, root: Term) -> Tuple[Optional[str], Optional[list]]:
        """Structural key of *root* with BV constants slotted out.

        Returns ``(key, const_nodes)`` — const nodes in deterministic
        first-visit order, so slot *i* of any two terms with equal keys
        corresponds positionally — or ``(None, None)`` when the term is
        not templatable (contains UF, too small, too large, or has no
        constant to abstract).
        """
        cached = self._skel.get(id(root))
        if cached is not None:
            return cached[1], cached[2]
        index: Dict[int, int] = {}
        parts: List[str] = []
        consts: List[Term] = []
        bad = False
        count = 0
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            nid = id(node)
            if nid in index:
                continue
            if not expanded:
                stack.append((node, True))
                for a in node.args:
                    stack.append((a, False))
                continue
            if nid in index:
                continue
            index[nid] = count
            count += 1
            op = node.op
            if op == Op.UF or count > self.max_nodes:
                bad = True
                break
            if op == Op.CONST and node.sort is not BOOL:
                slot = len(consts)
                consts.append(node)
                parts.append(f"k{slot}.{node.width}")
            elif op == Op.VAR:
                parts.append(f"v.{node.name}.{node.sort}")
            else:
                child = ",".join(str(index[id(a)]) for a in node.args)
                parts.append(f"{op}.{node.payload}.{child}")
        if bad or count < self.min_nodes or not consts:
            entry = (root, None, None)
        else:
            entry = (root, "|".join(parts), consts)
        if len(self._skel) > 200_000:
            self._skel.clear()
        self._skel[id(root)] = entry
        return entry[1], entry[2]

    # -- template construction ----------------------------------------

    def lookup(self, root: Term) -> Tuple[Optional[_Template], Optional[list]]:
        """Return ``(template, const_nodes)`` if *root* should go through
        the template path; build the template on the Nth sighting of its
        skeleton."""
        key, consts = self.skeleton_of(root)
        if key is None:
            return None, None
        entry = self._entries.get(key)
        if entry is None:
            if len(self._entries) >= self.max_templates:
                # drop the older half (insertion order ~ first-seen order)
                for k in list(self._entries)[:self.max_templates // 2]:
                    del self._entries[k]
            entry = _Entry()
            self._entries[key] = entry
        entry.count += 1
        if entry.template is None:
            if entry.count < self.min_sightings:
                return None, None
            entry.template = self._build(root, consts)
            if entry.template is None:
                return None, None
            self.builds += 1
        self.hits += 1
        return entry.template, consts

    def _build(self, root: Term, consts: List[Term]) -> Optional[_Template]:
        from .subst import substitute
        repl = {c: T.mk_bv_var(f"~tmpl{i}", c.width)
                for i, c in enumerate(consts)}
        abstract = substitute(root, repl)
        if abstract.sort is not BOOL:
            return None
        scratch = CNF()
        blaster = BitBlaster(scratch)
        out = blaster.blast_bool(abstract)
        nvars = scratch.num_vars
        binding: List[Optional[tuple]] = [None] * (nvars + 1)
        var_widths: Dict[str, int] = {}
        for i in range(len(consts)):
            bits = blaster.var_bits.get(f"~tmpl{i}")
            if bits is None:
                continue  # the slot folded away in the abstract term
            for b_i, lit in enumerate(bits):
                binding[lit] = ("c", i, b_i)
        for name, bits in blaster.var_bits.items():
            if name.startswith("~tmpl"):
                continue
            var_widths[name] = len(bits)
            for b_i, lit in enumerate(bits):
                binding[lit] = ("v", name, b_i)
        for name, lit in blaster.bool_vars.items():
            binding[lit] = ("b", name)
        if scratch._true_lit is not None:
            binding[scratch._true_lit] = ("t",)
        n_internal = 0
        for v in range(1, nvars + 1):
            if binding[v] is None:
                binding[v] = ("i", n_internal)
                n_internal += 1
        return _Template(nvars, [list(c) for c in scratch.clauses], out,
                         binding, var_widths, n_internal)


class BitBlaster:
    """Lowers a set of boolean terms into a shared :class:`CNF`."""

    def __init__(self, cnf: CNF | None = None,
                 templates: "TemplateCache | None" = None) -> None:
        self.cnf = cnf if cnf is not None else CNF()
        self._bv_map: Dict[int, Bits] = {}
        self._bool_map: Dict[int, int] = {}
        self.var_bits: Dict[str, Bits] = {}   # BV variable name -> bit literals
        self.bool_vars: Dict[str, int] = {}   # Bool variable name -> literal
        self.templates = templates
        self.template_hits = 0
        #: positive-polarity (Plaisted–Greenbaum) literals, keyed by
        #: id(term). NEVER merged into ``_bool_map``: these literals
        #: only *imply* their term, so they are sound as assumptions or
        #: positive assertions but not under negation.
        self._pos_map: Dict[int, int] = {}

    #: every map a lowering fills: variable bits and the node caches
    _MAPS = ("var_bits", "bool_vars", "_bv_map", "_bool_map", "_pos_map")

    def copy_maps(self) -> Tuple[dict, ...]:
        """Copies of this blaster's maps, for :meth:`load_maps` on a
        blaster over a copy of the same CNF. The bit lists are shared:
        a lowering never changes one after storing it. The node caches
        are keyed by ``id(term)``, so whoever keeps the copies must also
        keep the lowered terms alive."""
        return tuple(dict(getattr(self, name)) for name in self._MAPS)

    def load_maps(self, maps: Tuple[dict, ...]) -> None:
        """Take over maps from :meth:`copy_maps` (a fresh blaster)."""
        for name, copied in zip(self._MAPS, maps):
            getattr(self, name).update(copied)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def assert_term(self, term: Term) -> None:
        """Constrain a Bool term to be true.

        Uses the positive-polarity path: an asserted term is only ever
        used positively, so the one-directional encoding suffices (and
        emits a fraction of the clauses for (dis)equalities).
        """
        if term.sort is not BOOL:
            raise TypeError(f"can only assert Bool terms, got {term.sort}")
        lit = self.blast_assume(term)
        self.cnf.add([lit])

    def blast_assume(self, term: Term) -> int:
        """A literal L with ``L -> term`` — sound wherever *term* is
        only used positively: assumption conjuncts and assertions.

        ``sat(preamble AND L AND (L -> term)) == sat(preamble AND term)``
        in both directions, so verdicts are unchanged; but a positive
        (dis)equality needs only 2 clauses per bit instead of a full
        Tseitin equivalence circuit. Falls back to :meth:`blast_bool`
        (full equivalence) for shapes without a cheap positive form.
        """
        nid = id(term)
        lit = self._bool_map.get(nid)
        if lit is not None:
            return lit  # a full encoding exists: reuse it for free
        lit = self._pos_map.get(nid)
        if lit is not None:
            return lit
        op = term.op
        cnf = self.cnf
        out: Optional[int] = None
        if op == Op.EQ and isinstance(term.args[0].sort, BVSort):
            a = self.blast_bv(term.args[0])
            b = self.blast_bv(term.args[1])
            out = cnf.new_var()
            clauses = []
            for ai, bi in zip(a, b):
                clauses.append([-out, ai, -bi])
                clauses.append([-out, -ai, bi])
            cnf.add_batch(clauses)
        elif op == Op.BNOT and term.args[0].op == Op.EQ and \
                isinstance(term.args[0].args[0].sort, BVSort):
            a = self.blast_bv(term.args[0].args[0])
            b = self.blast_bv(term.args[0].args[1])
            out = cnf.new_var()
            diffs = []
            clauses = []
            for ai, bi in zip(a, b):
                d = cnf.new_var()
                clauses.append([-d, ai, bi])
                clauses.append([-d, -ai, -bi])
                diffs.append(d)
            clauses.append([-out] + diffs)
            cnf.add_batch(clauses)
        elif op == Op.BAND:
            lits = [self.blast_assume(a) for a in term.args]
            out = cnf.new_var()
            cnf.add_batch([[-out, l] for l in lits])
        elif op == Op.BOR:
            lits = [self.blast_assume(a) for a in term.args]
            out = cnf.new_var()
            cnf.add([-out] + lits)
        if out is None:
            return self.blast_bool(term)
        self._pos_map[nid] = out
        return out

    def blast_bool(self, term: Term) -> int:
        lit = self._bool_map.get(id(term))
        if lit is not None:
            return lit
        if self.templates is not None and term.sort is BOOL:
            lit = self._instantiate_template(term)
            if lit is not None:
                self._bool_map[id(term)] = lit
                self.template_hits += 1
                return lit
        self._lower([term])
        return self._bool_map[id(term)]

    def _instantiate_template(self, term: Term) -> Optional[int]:
        """Lower *term* by literal-substituting a cached template.

        Returns the output literal, or ``None`` to fall back to the
        gate-by-gate path (no template yet, or the instance degenerated).
        """
        template, consts = self.templates.lookup(term)
        if template is None:
            return None
        cnf = self.cnf
        binding = template.binding
        lit_map = [0] * (template.nvars + 1)
        # resolve leaf-variable blocks up front (allocating as needed)
        blocks: Dict[str, Bits] = {}
        for name, width in template.var_widths.items():
            bits = self.var_bits.get(name)
            if bits is None:
                bits = cnf.new_vars(width)
                self.var_bits[name] = bits
            blocks[name] = bits
        base = cnf.num_vars
        cnf.num_vars = base + template.n_internal
        true_lit = None
        for v in range(1, template.nvars + 1):
            b = binding[v]
            kind = b[0]
            if kind == "i":
                lit_map[v] = base + 1 + b[1]
            elif kind == "c":
                bit = (consts[b[1]].value >> b[2]) & 1
                lit_map[v] = _TRUE_SENT if bit else -_TRUE_SENT
            elif kind == "v":
                lit_map[v] = blocks[b[1]][b[2]]
            elif kind == "b":
                name = b[1]
                lit = self.bool_vars.get(name)
                if lit is None:
                    lit = cnf.new_var()
                    self.bool_vars[name] = lit
                lit_map[v] = lit
            else:  # ("t",)
                if true_lit is None:
                    true_lit = cnf.const_true()
                lit_map[v] = true_lit
        out_clauses: List[List[int]] = []
        for cl in template.clauses:
            nc: List[int] = []
            satisfied = False
            for lit in cl:
                m = lit_map[lit] if lit > 0 else -lit_map[-lit]
                if m == _TRUE_SENT:
                    satisfied = True
                    break
                if m == -_TRUE_SENT:
                    continue
                nc.append(m)
            if satisfied:
                continue
            if not nc:
                # the instance degenerated to a contradiction inside the
                # circuit — cannot happen for Tseitin output (every
                # clause mentions its gate var), but never guess: fall
                # back to the reference lowering
                return None
            out_clauses.append(nc)
        ol = template.out
        out = lit_map[ol] if ol > 0 else -lit_map[-ol]
        if out == _TRUE_SENT:
            out = self.cnf.const_true()
        elif out == -_TRUE_SENT:
            out = self.cnf.const_false()
        cnf.add_batch(out_clauses)
        return out

    def blast_bv(self, term: Term) -> Bits:
        self._lower([term])
        return self._bv_map[id(term)]

    def extract_value(self, name: str, model: Dict[int, bool]) -> int:
        """Read a BV variable's value out of a SAT model."""
        bits = self.var_bits.get(name)
        if bits is None:
            return 0
        value = 0
        for i, lit in enumerate(bits):
            if self._lit_value(lit, model):
                value |= 1 << i
        return value

    def extract_bool(self, name: str, model: Dict[int, bool]) -> bool:
        lit = self.bool_vars.get(name)
        if lit is None:
            return False
        return self._lit_value(lit, model)

    @staticmethod
    def _lit_value(lit: int, model: Dict[int, bool]) -> bool:
        val = model.get(abs(lit), False)
        return val if lit > 0 else not val

    # ------------------------------------------------------------------
    # lowering
    # ------------------------------------------------------------------

    def _lower(self, roots: List[Term]) -> None:
        # explicit post-order that does NOT descend into already-lowered
        # subterms — repeated blasts against a long-lived instance (the
        # incremental session) cost O(new nodes), not O(whole DAG)
        stack = [(node, False) for node in roots]
        while stack:
            node, expanded = stack.pop()
            nid = id(node)
            mapped = self._bool_map if node.sort is BOOL else self._bv_map
            if nid in mapped:
                continue
            if not expanded:
                stack.append((node, True))
                for a in node.args:
                    stack.append((a, False))
            elif node.sort is BOOL:
                self._bool_map[nid] = self._lower_bool(node)
            else:
                self._bv_map[nid] = self._lower_bv(node)

    # -- bitvector nodes -------------------------------------------------

    def _lower_bv(self, node: Term) -> Bits:
        op = node.op
        width = node.width
        cnf = self.cnf
        if op == Op.CONST:
            return [self._const_bit((node.value >> i) & 1) for i in range(width)]
        if op == Op.VAR:
            bits = self.var_bits.get(node.name)
            if bits is None:
                bits = cnf.new_vars(width)
                self.var_bits[node.name] = bits
            return bits

        args = [self._bv_map[id(a)] for a in node.args
                if isinstance(a.sort, BVSort)]

        if op == Op.ADD:
            return self._adder(args[0], args[1])[0]
        if op == Op.SUB:
            return self._subtract(args[0], args[1])
        if op == Op.NEG:
            return self._subtract([self._const_bit(0)] * width, args[0])
        if op == Op.MUL:
            return self._multiplier(args[0], args[1])
        if op == Op.UDIV:
            q, _ = self._divider(args[0], args[1])
            return q
        if op == Op.UREM:
            _, r = self._divider(args[0], args[1])
            return r
        if op == Op.SDIV:
            return self._signed_divrem(args[0], args[1], want_quotient=True)
        if op == Op.SREM:
            return self._signed_divrem(args[0], args[1], want_quotient=False)
        if op == Op.AND:
            return [cnf.gate_and(a, b) for a, b in zip(args[0], args[1])]
        if op == Op.OR:
            return [cnf.gate_or(a, b) for a, b in zip(args[0], args[1])]
        if op == Op.XOR:
            return [cnf.gate_xor(a, b) for a, b in zip(args[0], args[1])]
        if op == Op.NOT:
            return [-b for b in args[0]]
        if op == Op.SHL:
            return self._barrel_shift(args[0], args[1], kind="shl")
        if op == Op.LSHR:
            return self._barrel_shift(args[0], args[1], kind="lshr")
        if op == Op.ASHR:
            return self._barrel_shift(args[0], args[1], kind="ashr")
        if op == Op.CONCAT:
            hi, lo = args[0], args[1]
            return lo + hi
        if op == Op.EXTRACT:
            h, l = node.payload  # type: ignore[misc]
            return args[0][l:h + 1]
        if op == Op.ZEXT:
            pad = width - len(args[0])
            return args[0] + [self._const_bit(0)] * pad
        if op == Op.SEXT:
            pad = width - len(args[0])
            return args[0] + [args[0][-1]] * pad
        if op == Op.ITE:
            cond = self._bool_map[id(node.args[0])]
            t_bits = self._bv_map[id(node.args[1])]
            e_bits = self._bv_map[id(node.args[2])]
            return [cnf.gate_mux(cond, t, e) for t, e in zip(t_bits, e_bits)]
        if op == Op.UF:
            # fresh unconstrained bits per application node (Ackermann-lite:
            # identical applications share a node via hash-consing)
            return cnf.new_vars(width)
        raise NotImplementedError(f"bitblast: unsupported BV op {op}")

    # -- boolean nodes ----------------------------------------------------

    def _lower_bool(self, node: Term) -> int:
        op = node.op
        cnf = self.cnf
        if op == Op.CONST:
            return cnf.const_true() if node.payload else cnf.const_false()
        if op == Op.VAR:
            lit = self.bool_vars.get(node.name)
            if lit is None:
                lit = cnf.new_var()
                self.bool_vars[node.name] = lit
            return lit
        if op == Op.EQ:
            a, b = node.args
            if a.sort is BOOL:
                la, lb = self._bool_map[id(a)], self._bool_map[id(b)]
                return -cnf.gate_xor(la, lb)
            return self._equal(self._bv_map[id(a)], self._bv_map[id(b)])
        if op in (Op.ULT, Op.ULE, Op.SLT, Op.SLE):
            a_bits = list(self._bv_map[id(node.args[0])])
            b_bits = list(self._bv_map[id(node.args[1])])
            if op in (Op.SLT, Op.SLE):
                # flip sign bits: signed compare == unsigned on biased values
                a_bits[-1] = -a_bits[-1]
                b_bits[-1] = -b_bits[-1]
            lt = self._less_than(a_bits, b_bits)
            if op in (Op.ULE, Op.SLE):
                eq = self._equal(a_bits, b_bits)
                return cnf.gate_or(lt, eq)
            return lt
        if op == Op.BNOT:
            return -self._bool_map[id(node.args[0])]
        if op == Op.BAND:
            return cnf.gate_and_many([self._bool_map[id(a)] for a in node.args])
        if op == Op.BOR:
            return cnf.gate_or_many([self._bool_map[id(a)] for a in node.args])
        if op == Op.BXOR:
            la = self._bool_map[id(node.args[0])]
            lb = self._bool_map[id(node.args[1])]
            return cnf.gate_xor(la, lb)
        raise NotImplementedError(f"bitblast: unsupported Bool op {op}")

    # ------------------------------------------------------------------
    # circuits
    # ------------------------------------------------------------------

    def _const_bit(self, bit: int) -> int:
        return self.cnf.const_true() if bit else self.cnf.const_false()

    def _full_adder(self, a: int, b: int, cin: int) -> tuple[int, int]:
        cnf = self.cnf
        s1 = cnf.gate_xor(a, b)
        total = cnf.gate_xor(s1, cin)
        c1 = cnf.gate_and(a, b)
        c2 = cnf.gate_and(s1, cin)
        cout = cnf.gate_or(c1, c2)
        return total, cout

    def _adder(self, a: Bits, b: Bits, cin: int | None = None) -> tuple[Bits, int]:
        carry = cin if cin is not None else self._const_bit(0)
        out: Bits = []
        for ai, bi in zip(a, b):
            s, carry = self._full_adder(ai, bi, carry)
            out.append(s)
        return out, carry

    def _subtract(self, a: Bits, b: Bits) -> Bits:
        out, _ = self._adder(a, [-x for x in b], cin=self._const_bit(1))
        return out

    def _multiplier(self, a: Bits, b: Bits) -> Bits:
        width = len(a)
        zero = self._const_bit(0)
        acc: Bits = [zero] * width
        for i in range(width):
            partial = ([zero] * i +
                       [self.cnf.gate_and(b[i], a[j]) for j in range(width - i)])
            acc, _ = self._adder(acc, partial)
        return acc

    def _less_than(self, a: Bits, b: Bits) -> int:
        """Unsigned a < b via MSB-down chain."""
        cnf = self.cnf
        lt = self._const_bit(0)
        eq_so_far = self._const_bit(1)
        for ai, bi in zip(reversed(a), reversed(b)):
            bit_lt = cnf.gate_and(-ai, bi)
            lt = cnf.gate_or(lt, cnf.gate_and(eq_so_far, bit_lt))
            eq_so_far = cnf.gate_and(eq_so_far, -cnf.gate_xor(ai, bi))
        return lt

    def _equal(self, a: Bits, b: Bits) -> int:
        cnf = self.cnf
        xnors = [-cnf.gate_xor(x, y) for x, y in zip(a, b)]
        return cnf.gate_and_many(xnors)

    def _barrel_shift(self, a: Bits, amount: Bits, kind: str) -> Bits:
        """Logarithmic shifter; shift >= width saturates to 0 / sign fill."""
        cnf = self.cnf
        width = len(a)
        fill = a[-1] if kind == "ashr" else self._const_bit(0)
        stages = max(1, (width - 1).bit_length())
        cur = list(a)
        for s in range(stages):
            sel = amount[s] if s < len(amount) else self._const_bit(0)
            step = 1 << s
            shifted: Bits = []
            for i in range(width):
                if kind == "shl":
                    src = cur[i - step] if i - step >= 0 else self._const_bit(0)
                else:
                    src = cur[i + step] if i + step < width else fill
                shifted.append(cnf.gate_mux(sel, src, cur[i]))
            cur = shifted
        # amount >= width (any high bit set beyond the stage range)?
        high = [amount[s] for s in range(stages, len(amount))]
        # also handle non-power-of-two widths: amount in [width, 2**stages)
        if (1 << stages) > width:
            low_part = amount[:stages] + [self._const_bit(0)]
            width_bits = [self._const_bit((width >> i) & 1)
                          for i in range(stages + 1)]
            ge_width = -self._less_than(low_part, width_bits)
            high.append(ge_width)
        if high:
            overflow = cnf.gate_or_many(high)
            cur = [cnf.gate_mux(overflow, fill, bit) for bit in cur]
        return cur

    def _divider(self, a: Bits, b: Bits) -> tuple[Bits, Bits]:
        """Restoring division. SMT-LIB: x/0 = all-ones, x%0 = x."""
        cnf = self.cnf
        width = len(a)
        zero = self._const_bit(0)
        # work in width+1 bits so (r << 1 | a_i) never wraps
        rem: Bits = [zero] * (width + 1)
        b_ext = list(b) + [zero]
        q: Bits = [zero] * width
        for i in range(width - 1, -1, -1):
            rem = [a[i]] + rem[:width]
            ge = -self._less_than(rem, b_ext)
            sub = self._subtract(rem, b_ext)
            rem = [cnf.gate_mux(ge, s, r) for s, r in zip(sub, rem)]
            q[i] = ge
        b_is_zero = self._equal(b, [zero] * width)
        ones = self._const_bit(1)
        q = [cnf.gate_mux(b_is_zero, ones, qi) for qi in q]
        r = [cnf.gate_mux(b_is_zero, ai, ri) for ai, ri in zip(a, rem[:width])]
        return q, r

    def _signed_divrem(self, a: Bits, b: Bits, want_quotient: bool) -> Bits:
        """Signed division by sign-abs-unsigned-divide-fix-signs.

        SMT-LIB semantics: truncating division, remainder follows dividend's
        sign; division by zero handled in the unsigned core then sign-fixed
        to match :func:`repro.smt.terms._c_sdiv` / ``_c_srem``.
        """
        cnf = self.cnf
        width = len(a)
        zero_bits = [self._const_bit(0)] * width
        sa, sb = a[-1], b[-1]
        abs_a = [cnf.gate_mux(sa, n, x)
                 for n, x in zip(self._subtract(zero_bits, a), a)]
        abs_b = [cnf.gate_mux(sb, n, x)
                 for n, x in zip(self._subtract(zero_bits, b), b)]
        q, r = self._divider(abs_a, abs_b)
        q_neg = cnf.gate_xor(sa, sb)
        q_fixed = [cnf.gate_mux(q_neg, n, x)
                   for n, x in zip(self._subtract(zero_bits, q), q)]
        r_fixed = [cnf.gate_mux(sa, n, x)
                   for n, x in zip(self._subtract(zero_bits, r), r)]
        b_is_zero = self._equal(b, zero_bits)
        if want_quotient:
            # SMT-LIB: sdiv by 0 is 1 if a < 0 else all-ones
            one = [self._const_bit(1)] + [self._const_bit(0)] * (width - 1)
            ones = [self._const_bit(1)] * width
            dz = [cnf.gate_mux(sa, o, m) for o, m in zip(one, ones)]
            return [cnf.gate_mux(b_is_zero, d, x) for d, x in zip(dz, q_fixed)]
        # srem by 0 is a
        return [cnf.gate_mux(b_is_zero, ai, x) for ai, x in zip(a, r_fixed)]
