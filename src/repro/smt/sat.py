"""CDCL SAT solver on a flat clause arena.

A from-scratch conflict-driven clause-learning solver with the standard
modern ingredients: two-watched-literal propagation with blocker
literals, 1UIP conflict analysis with learned-clause minimisation,
VSIDS-style activity decay, phase saving, and Luby restarts.

The hot-path data layout is flat integers rather than Python objects:

* every clause lives in one shared ``array('i')`` arena as
  ``[size, lit0, lit1, ...]`` and is referred to by its index (a
  *cref*), so there is no per-clause list object and no pointer chase;
* literals are encoded as ``2*var + sign`` so a literal's value is one
  list index (``lit_val[el]``) — no ``abs()`` in the inner loop;
* watcher lists are flat ``[cref, blocker, cref, blocker, ...]`` lists
  indexed by encoded literal; a clause whose blocker literal is already
  true is skipped without touching the arena at all.

The solver is *incremental*: clauses can be appended between ``solve``
calls (:meth:`add_clause` for one, :meth:`add_clauses` for a batch that
backtracks to the root only once), queries can be posed under
assumption literals, and learned clauses are retained across queries —
they are derived by resolution from real clauses only, so they stay
valid whatever the assumptions. This is what lets a
:class:`~repro.smt.session.SolverSession` blast a preamble once and
answer thousands of per-pair or per-branch queries against the same
instance. A root-level instance can also be *frozen*
(:meth:`SatSolver.freeze`: a compact copy of its arena, problem-clause
crefs and root trail) and *thawed* into any number of live copies
(:meth:`SatSolver.thaw`), which rebuild the watch lists in one pass
instead of inserting every clause again; this is how a session's
preamble is blasted once per process.

The solver accepts a conflict budget so callers can bound worst-case
work and receive ``"unknown"`` instead of hanging. The budget is
per-``solve``-call (a delta, not a lifetime total), so a long-lived
incremental instance gives every query the same allowance.

It is the only SAT core, and the checker reaches it by one path: the
SAT layer of a :class:`~repro.smt.solver.Solver`, its
:class:`~repro.smt.session.SolverSession`. Its differential oracle is
an exhaustive truth-table check in the test suite, which shares no code
with any CDCL core.
"""
from __future__ import annotations

import heapq
import time
from array import array
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

from .cnf import CNF


class SatResult:
    """Result tags for the SAT core."""
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class FrozenRoot(NamedTuple):
    """A root-level SAT instance frozen by :meth:`SatSolver.freeze`:
    the variable count, the clause arena (encoded literals), the crefs
    of its problem clauses, the root trail and the ``ok`` flag. Nothing
    writes to it; :meth:`SatSolver.thaw` copies it."""

    nvars: int
    arena: array
    crefs: array
    trail: array
    ok: bool


def _luby(i: int) -> int:
    """The Luby restart sequence 1,1,2,1,1,2,4,... (1-indexed)."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


class SatSolver:
    """Solve a growable CNF instance.

    Build from a :class:`CNF` (or :meth:`thaw` a frozen instance), call
    :meth:`solve` (optionally under assumptions), read :attr:`model`.
    Between calls, append clauses with :meth:`add_clause` /
    :meth:`add_clauses`; after ``cnf.attach(solver)`` every later
    ``cnf.add`` goes to the solver instead of the formula.

    :attr:`clauses` and :attr:`learnts` hold arena indices (crefs), not
    literal lists — use :meth:`clause_lits` to decode one.
    """

    def __init__(self, cnf: CNF, conflict_budget: Optional[int] = None,
                 deadline: Optional[float] = None) -> None:
        self.nvars = 0
        self.conflict_budget = conflict_budget
        self.deadline = deadline  # time.monotonic() timestamp

        # indexed by encoded literal 2*var + (1 if negative)
        self.lit_val: List[int] = [0, 0]   # +1 true, -1 false, 0 unassigned
        self.watches: List[List[int]] = [[], []]  # flat [cref, blocker, ...]
        # indexed by var
        self.levels: List[int] = [-1]
        self.reasons: List[int] = [-1]     # cref, or -1 (decision/unit)
        self.activity: List[float] = [0.0]
        self.saved_lit: List[int] = [1]    # preferred decision literal (encoded)

        self.arena = array("i")
        self.trail: List[int] = []         # encoded literals
        self.trail_lim: List[int] = []
        self.qhead = 0

        # decision order: a lazy max-heap of (-activity, var). Stale
        # entries (var already assigned) are skipped at pop time; every
        # unassigned variable always has at least one fresh entry.
        self._heap: List[tuple] = []

        self.clauses: List[int] = []       # crefs of problem clauses
        self.learnts: List[int] = []       # crefs of learned clauses
        self.ok = True
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.backtracks = 0
        self.model: Dict[int, bool] = {}

        self.ensure_vars(cnf.num_vars)
        for clause in cnf.clauses:
            self._add_root(clause)
            if not self.ok:
                break

    # ------------------------------------------------------------------
    # frozen root instances
    # ------------------------------------------------------------------

    def freeze(self) -> "FrozenRoot":
        """A compact read-only copy of this instance, for :meth:`thaw`.

        Take it before the first :meth:`solve`: it keeps the problem
        clauses and the root trail, and nothing a search leaves behind.
        """
        return FrozenRoot(self.nvars, array("i", self.arena),
                          array("i", self.clauses), array("i", self.trail),
                          self.ok)

    @classmethod
    def thaw(cls, root: "FrozenRoot",
             conflict_budget: Optional[int] = None,
             deadline: Optional[float] = None) -> "SatSolver":
        """A live instance equal to the one *root* was frozen from.

        Copies the arena and rebuilds the watch lists and the variable
        arrays in one pass over the clause crefs, so no clause is
        inserted again. *root* is left untouched.
        """
        sat = cls(CNF(), conflict_budget, deadline)
        sat.ensure_vars(root.nvars)
        arena = sat.arena = array("i", root.arena)
        watches = sat.watches
        for cref in root.crefs:
            l0 = arena[cref + 1]
            l1 = arena[cref + 2]
            watches[l0] += (cref, l1)
            watches[l1] += (cref, l0)
        sat.clauses = list(root.crefs)
        lit_val, levels = sat.lit_val, sat.levels
        for el in root.trail:
            lit_val[el] = 1
            lit_val[el ^ 1] = -1
            levels[el >> 1] = 0
        sat.trail = list(root.trail)
        sat.ok = root.ok
        return sat

    # ------------------------------------------------------------------
    # clause management
    # ------------------------------------------------------------------

    def ensure_vars(self, n: int) -> None:
        """Grow the variable arrays to cover variables 1..n."""
        if n <= self.nvars:
            return
        grow = n - self.nvars
        self.lit_val.extend([0] * (2 * grow))
        self.levels.extend([-1] * grow)
        self.reasons.extend([-1] * grow)
        self.activity.extend([0.0] * grow)
        watches, saved_lit, heap = self.watches, self.saved_lit, self._heap
        for var in range(self.nvars + 1, n + 1):
            watches.append([])
            watches.append([])
            saved_lit.append((var << 1) | 1)  # default polarity: false
            # (0.0, var) above every existing var is the heap's largest
            # key: appending it is what heappush would do
            heap.append((0.0, var))
        self.nvars = n

    def add_clause(self, lits: Sequence[int]) -> None:
        """Append one clause to the live instance (incremental API).

        Backtracks to the root level first so the new clause's watches
        are consistent; literals already decided at level 0 are
        simplified away.
        """
        if not self.ok:
            return
        if self.trail_lim:
            self._backtrack(0)
        self._add_root(lits)

    def add_clauses(self, clause_list: Iterable[Sequence[int]]) -> None:
        """Batched import: one backtrack, then append every clause.

        Equivalent to ``add_clause`` per element but pays the
        backtrack-to-root cost once for the whole batch — the fast path
        for learned-clause re-import and template instantiation.
        """
        if not self.ok:
            return
        if self.trail_lim:
            self._backtrack(0)
        add = self._add_root
        for lits in clause_list:
            add(lits)
            if not self.ok:
                return

    def _add_root(self, lits: Sequence[int]) -> None:
        """Append one clause; the solver must be at the root level."""
        lit_val = self.lit_val
        nv = self.nvars
        enc: List[int] = []
        for lit in lits:
            if lit > 0:
                v = lit
                el = lit << 1
            else:
                v = -lit
                el = (v << 1) | 1
            if v > nv:
                self.ensure_vars(v)
                lit_val = self.lit_val
                nv = self.nvars
            val = lit_val[el]
            if val == 1:
                return  # root-satisfied: drop the clause
            if val == -1:
                continue  # root-falsified literal: drop the literal
            # dedupe / tautology check (clauses are tiny: linear scan)
            if el in enc:
                continue
            if el ^ 1 in enc:
                return  # tautology: always satisfied
            enc.append(el)
        if not enc:
            self.ok = False
            return
        if len(enc) == 1:
            el = enc[0]
            lit_val[el] = 1
            lit_val[el ^ 1] = -1
            v = el >> 1
            self.levels[v] = 0
            self.reasons[v] = -1
            self.trail.append(el)
            return
        cref = self._alloc(enc)
        self.clauses.append(cref)

    def _alloc(self, enc: List[int]) -> int:
        """Store an encoded clause in the arena and watch lits 0 and 1."""
        arena = self.arena
        cref = len(arena)
        arena.append(len(enc))
        arena.extend(enc)
        w0 = self.watches[enc[0]]
        w0.append(cref)
        w0.append(enc[1])
        w1 = self.watches[enc[1]]
        w1.append(cref)
        w1.append(enc[0])
        return cref

    def clause_lits(self, cref: int) -> List[int]:
        """Decode one arena clause back to external (signed) literals."""
        arena = self.arena
        size = arena[cref]
        out = []
        for i in range(cref + 1, cref + 1 + size):
            el = arena[i]
            v = el >> 1
            out.append(-v if el & 1 else v)
        return out

    # ------------------------------------------------------------------
    # assignment / propagation
    # ------------------------------------------------------------------

    def _value(self, lit: int) -> int:
        """External-literal value (kept for tests and slow paths)."""
        el = (lit << 1) if lit > 0 else (((-lit) << 1) | 1)
        return self.lit_val[el]

    def _enqueue_root(self, el: int) -> bool:
        """Assign an encoded literal at the current level, no reason."""
        val = self.lit_val[el]
        if val == 1:
            return True
        if val == -1:
            return False
        self.lit_val[el] = 1
        self.lit_val[el ^ 1] = -1
        v = el >> 1
        self.levels[v] = len(self.trail_lim)
        self.reasons[v] = -1
        self.trail.append(el)
        return True

    def _propagate(self) -> int:
        """Unit propagation; returns a conflicting cref or -1."""
        trail = self.trail
        lit_val = self.lit_val
        arena = self.arena
        watches = self.watches
        levels = self.levels
        reasons = self.reasons
        lvl = len(self.trail_lim)
        qhead = self.qhead
        props = 0
        conflict = -1
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            props += 1
            neg = p ^ 1  # the literal falsified by this assignment
            ws = watches[neg]
            if not ws:
                continue
            i = j = 0
            n = len(ws)
            while i < n:
                cref = ws[i]
                blocker = ws[i + 1]
                i += 2
                if lit_val[blocker] == 1:
                    ws[j] = cref
                    ws[j + 1] = blocker
                    j += 2
                    continue
                base = cref + 1
                l0 = arena[base]
                if l0 == neg:
                    first = arena[base + 1]
                    arena[base] = first
                    arena[base + 1] = neg
                else:
                    first = l0
                fv = lit_val[first]
                if fv == 1:
                    ws[j] = cref
                    ws[j + 1] = first
                    j += 2
                    continue
                # search a replacement watch among the tail literals
                end = base + arena[cref]
                found = False
                for k in range(base + 2, end):
                    lk = arena[k]
                    if lit_val[lk] != -1:
                        arena[base + 1] = lk
                        arena[k] = neg
                        wk = watches[lk]
                        wk.append(cref)
                        wk.append(first)
                        found = True
                        break
                if found:
                    continue
                # clause is unit or conflicting
                ws[j] = cref
                ws[j + 1] = first
                j += 2
                if fv == -1:
                    # conflict: keep remaining watchers
                    while i < n:
                        ws[j] = ws[i]
                        ws[j + 1] = ws[i + 1]
                        j += 2
                        i += 2
                    conflict = cref
                    break
                # enqueue the implied literal with this clause as reason
                lit_val[first] = 1
                lit_val[first ^ 1] = -1
                v = first >> 1
                levels[v] = lvl
                reasons[v] = cref
                trail.append(first)
            del ws[j:]
            if conflict >= 0:
                break
        self.qhead = qhead
        self.propagations += props
        return conflict

    # ------------------------------------------------------------------
    # conflict analysis (first UIP)
    # ------------------------------------------------------------------

    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for i in range(1, self.nvars + 1):
                self.activity[i] *= 1e-100
            self.var_inc *= 1e-100
            # every heap key is now wrong: rebuild for the unassigned
            # vars (assigned ones re-enter on backtrack)
            self._heap = [(-self.activity[v], v)
                          for v in range(1, self.nvars + 1)
                          if self.lit_val[v << 1] == 0]
            heapq.heapify(self._heap)

    def _analyze(self, conflict: int) -> tuple[List[int], int]:
        """Derive the 1UIP clause (encoded literals) from a conflict."""
        arena = self.arena
        levels = self.levels
        reasons = self.reasons
        trail = self.trail
        learnt: List[int] = [0]  # placeholder for the asserting literal
        seen = bytearray(self.nvars + 1)
        counter = 0
        lit = -1  # sentinel: no literal is skipped on the first pass
        reason = conflict
        index = len(trail) - 1
        cur_level = len(self.trail_lim)

        while True:
            for k in range(reason + 1, reason + 1 + arena[reason]):
                q = arena[k]
                if q == lit:
                    continue
                var = q >> 1
                if not seen[var] and levels[var] > 0:
                    seen[var] = 1
                    self._bump(var)
                    if levels[var] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            # pick next literal from trail
            while not seen[trail[index] >> 1]:
                index -= 1
            lit = trail[index]
            index -= 1
            var = lit >> 1
            seen[var] = 0
            counter -= 1
            if counter == 0:
                learnt[0] = lit ^ 1
                break
            reason = reasons[var]

        # clause minimisation: drop literals implied by the rest
        marked = set(q >> 1 for q in learnt)
        minimized = [learnt[0]]
        for q in learnt[1:]:
            r = reasons[q >> 1]
            if r < 0:
                minimized.append(q)
                continue
            redundant = True
            for k in range(r + 1, r + 1 + arena[r]):
                p = arena[k]
                if p == q ^ 1:
                    continue
                if (p >> 1) not in marked and levels[p >> 1] != 0:
                    redundant = False
                    break
            if not redundant:
                minimized.append(q)
        learnt = minimized

        # backtrack level = max level among learnt[1:]; put one literal
        # of that level in the second watch position
        if len(learnt) == 1:
            back = 0
        else:
            mi = 1
            back = levels[learnt[1] >> 1]
            for idx in range(2, len(learnt)):
                l = levels[learnt[idx] >> 1]
                if l > back:
                    back = l
                    mi = idx
            learnt[1], learnt[mi] = learnt[mi], learnt[1]
        return learnt, back

    def _backtrack(self, level: int) -> None:
        if len(self.trail_lim) <= level:
            return
        self.backtracks += 1
        limit = self.trail_lim[level]
        heap = self._heap
        lit_val = self.lit_val
        levels = self.levels
        reasons = self.reasons
        saved_lit = self.saved_lit
        activity = self.activity
        trail = self.trail
        for idx in range(len(trail) - 1, limit - 1, -1):
            el = trail[idx]
            var = el >> 1
            saved_lit[var] = el
            lit_val[el] = 0
            lit_val[el ^ 1] = 0
            reasons[var] = -1
            levels[var] = -1
            heapq.heappush(heap, (-activity[var], var))
        del trail[limit:]
        del self.trail_lim[level:]
        self.qhead = limit

    # ------------------------------------------------------------------
    # decision
    # ------------------------------------------------------------------

    def _decide(self) -> int:
        # pop until a live entry surfaces. Keys are (-activity, var), so
        # this picks the highest-activity unassigned variable, lowest
        # index on ties. Returns the saved-phase encoded literal, or -1
        # when every variable is assigned.
        heap = self._heap
        lit_val = self.lit_val
        while heap:
            _, var = heapq.heappop(heap)
            if lit_val[var << 1] == 0:
                return self.saved_lit[var]
        return -1

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = ()) -> str:
        if self.trail_lim:
            self._backtrack(0)
        self.model = {}
        if not self.ok:
            return SatResult.UNSAT
        if self._propagate() >= 0:
            self.ok = False
            return SatResult.UNSAT

        # assumptions as level-1.. decisions
        lit_val = self.lit_val
        for lit in assumptions:
            el = (lit << 1) if lit > 0 else (((-lit) << 1) | 1)
            if el >> 1 > self.nvars:
                self.ensure_vars(el >> 1)
                lit_val = self.lit_val
            val = lit_val[el]
            if val == 1:
                continue
            if val == -1:
                return SatResult.UNSAT
            self.trail_lim.append(len(self.trail))
            self._enqueue_root(el)
            if self._propagate() >= 0:
                return SatResult.UNSAT
        root_level = len(self.trail_lim)

        # the conflict budget is per call: a fresh allowance for every
        # query on a long-lived incremental instance
        budget_limit = None if self.conflict_budget is None \
            else self.conflicts + self.conflict_budget

        restart_idx = 1
        restart_budget = 100 * _luby(restart_idx)
        conflicts_since_restart = 0

        while True:
            conflict = self._propagate()
            if conflict >= 0:
                self.conflicts += 1
                conflicts_since_restart += 1
                if budget_limit is not None and self.conflicts > budget_limit:
                    return SatResult.UNKNOWN
                if self.deadline is not None and (self.conflicts & 0x3F) == 0 \
                        and time.monotonic() > self.deadline:
                    return SatResult.UNKNOWN
                if len(self.trail_lim) == root_level:
                    if root_level == 0:
                        self.ok = False
                    return SatResult.UNSAT
                learnt, back = self._analyze(conflict)
                self._backtrack(max(back, root_level))
                if len(learnt) == 1:
                    if not self._enqueue_root(learnt[0]):
                        if len(self.trail_lim) == 0:
                            self.ok = False
                        return SatResult.UNSAT
                else:
                    cref = self._alloc(learnt)
                    self.learnts.append(cref)
                    el = learnt[0]
                    self.lit_val[el] = 1
                    self.lit_val[el ^ 1] = -1
                    v = el >> 1
                    self.levels[v] = len(self.trail_lim)
                    self.reasons[v] = cref
                    self.trail.append(el)
                self.var_inc /= self.var_decay
            else:
                if conflicts_since_restart >= restart_budget and \
                        len(self.trail_lim) > root_level:
                    restart_idx += 1
                    restart_budget = 100 * _luby(restart_idx)
                    conflicts_since_restart = 0
                    self.restarts += 1
                    self._backtrack(root_level)
                    continue
                el = self._decide()
                if el < 0:
                    lit_val = self.lit_val
                    self.model = {v: lit_val[v << 1] == 1
                                  for v in range(1, self.nvars + 1)}
                    return SatResult.SAT
                self.decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue_root(el)


def solve_cnf(cnf: CNF, assumptions: Sequence[int] = (),
              conflict_budget: Optional[int] = None) -> tuple[str, Dict[int, bool]]:
    """Convenience wrapper: returns (result, model)."""
    solver = SatSolver(cnf, conflict_budget=conflict_budget)
    result = solver.solve(assumptions)
    return result, solver.model
