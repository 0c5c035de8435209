"""CNF formula container with Tseitin helpers.

Literals are non-zero ints: ``+v`` / ``-v`` for variable ``v >= 1``
(DIMACS convention). The bitblaster emits into a :class:`CNF`. A
standalone formula keeps its clauses for the SAT solver to consume; an
*attached* one sends each clause straight to a live solver and keeps
none (the incremental session's goal clauses).

The Tseitin gates fold inputs that are the constant true/false literal,
so constant-heavy circuits (multiply/add by a literal constant — the
common shape of address expressions) collapse to a few clauses instead
of a full word-width netlist.
"""
from __future__ import annotations

from typing import List, Sequence


class CNF:
    """A growable CNF formula plus fresh-variable allocation.

    Clauses collect in :attr:`clauses` until a live
    :class:`~repro.smt.sat.SatSolver` is *attached*; from then on every
    added clause goes to that solver instead. This is how the
    incremental session keeps blasting goal terms into an instance that
    has already answered queries: goal clauses live in the instance
    only, and die with it at rotation.
    """

    def __init__(self) -> None:
        self.num_vars: int = 0
        self.clauses: List[List[int]] = []
        self._solver = None

    def attach(self, solver) -> None:
        """Send every future clause to *solver* (incremental mode)."""
        self._solver = solver

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, count: int) -> List[int]:
        start = self.num_vars + 1
        self.num_vars += count
        return list(range(start, start + count))

    def add(self, clause: Sequence[int]) -> None:
        lits = list(clause)
        for lit in lits:
            v = abs(lit)
            if v == 0:
                raise ValueError("literal 0 is not allowed")
            if v > self.num_vars:
                self.num_vars = v
        if self._solver is None:
            self.clauses.append(lits)
        else:
            self._solver.add_clause(lits)

    def add_batch(self, clauses: Sequence[Sequence[int]]) -> None:
        """Append many clauses, sending them in ONE solver call.

        The template instantiator and the positive-polarity lowerings go
        through here: an attached solver receives the whole batch via
        ``add_clauses`` (a single backtrack-to-root) instead of one
        ``add_clause`` call per clause.
        """
        num_vars = self.num_vars
        for lits in clauses:
            for lit in lits:
                v = lit if lit > 0 else -lit
                if v > num_vars:
                    num_vars = v
        self.num_vars = num_vars
        if self._solver is None:
            self.clauses.extend(list(c) for c in clauses)
        else:
            self._solver.add_clauses(clauses)

    # -- Tseitin gates --------------------------------------------------
    # Each returns the output literal.

    def gate_and(self, a: int, b: int) -> int:
        if a == b:
            return a
        if a == -b:
            return self.const_false()
        if self._true_lit is not None:
            t = self._true_lit
            if a == t:
                return b
            if b == t:
                return a
            if a == -t or b == -t:
                return -t
        out = self.new_var()
        self.add([-out, a])
        self.add([-out, b])
        self.add([out, -a, -b])
        return out

    def gate_or(self, a: int, b: int) -> int:
        return -self.gate_and(-a, -b)

    def gate_xor(self, a: int, b: int) -> int:
        if a == b:
            return self.const_false()
        if a == -b:
            return self.const_true()
        if self._true_lit is not None:
            t = self._true_lit
            if a == t:
                return -b
            if b == t:
                return -a
            if a == -t:
                return b
            if b == -t:
                return a
        out = self.new_var()
        self.add([-out, a, b])
        self.add([-out, -a, -b])
        self.add([out, a, -b])
        self.add([out, -a, b])
        return out

    def gate_and_many(self, lits: Sequence[int]) -> int:
        if not lits:
            return self.const_true()
        out = lits[0]
        for lit in lits[1:]:
            out = self.gate_and(out, lit)
        return out

    def gate_or_many(self, lits: Sequence[int]) -> int:
        return -self.gate_and_many([-l for l in lits])

    def gate_mux(self, sel: int, then_lit: int, else_lit: int) -> int:
        """``sel ? then_lit : else_lit``."""
        if then_lit == else_lit:
            return then_lit
        if sel == then_lit:
            # sel ? sel : e  ==  sel | e
            return self.gate_or(sel, else_lit)
        if sel == else_lit:
            # sel ? t : sel  ==  sel & t
            return self.gate_and(sel, then_lit)
        if sel == -then_lit:
            # sel ? !sel : e  ==  !sel & e
            return self.gate_and(-sel, else_lit)
        if sel == -else_lit:
            # sel ? t : !sel  ==  !sel | t
            return self.gate_or(-sel, then_lit)
        if self._true_lit is not None:
            t = self._true_lit
            if sel == t:
                return then_lit
            if sel == -t:
                return else_lit
            if then_lit == t and else_lit == -t:
                return sel
            if then_lit == -t and else_lit == t:
                return -sel
            if then_lit == t:
                return self.gate_or(sel, else_lit)
            if then_lit == -t:
                return self.gate_and(-sel, else_lit)
            if else_lit == t:
                return self.gate_or(-sel, then_lit)
            if else_lit == -t:
                return self.gate_and(sel, then_lit)
        out = self.new_var()
        self.add([-out, -sel, then_lit])
        self.add([-out, sel, else_lit])
        self.add([out, -sel, -then_lit])
        self.add([out, sel, -else_lit])
        return out

    # -- constants ------------------------------------------------------

    _true_lit: int | None = None

    def const_true(self) -> int:
        if self._true_lit is None:
            self._true_lit = self.new_var()
            self.add([self._true_lit])
        return self._true_lit

    def const_false(self) -> int:
        return -self.const_true()

    def __len__(self) -> int:
        return len(self.clauses)
