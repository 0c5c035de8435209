"""The CEGIS repair loop: propose → re-check → refine → minimize.

Each iteration takes the current race reports as counterexamples,
generates legal barrier placements, applies one to the IR, and re-runs
the executor + race checker.  Re-checks share one pool of per-preamble
:class:`~repro.smt.Solver` instances and one :class:`QueryMemo` across
the whole loop — the preambles (thread bounds, ``t1 != t2``) are
interned terms, so iteration *N*'s queries land on the CDCL instances
iteration 1 warmed up.

After the loop converges, delta-debugging removes each inserted barrier
in turn and re-verifies, so no removable barrier survives (the fix is
minimal by construction).  The accepted edits are rendered as a source
diff, and the *patched source* is recompiled and checked from scratch —
the ``verified`` flag comes from that independent run, never from the
in-place IR state.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..passes import check_barrier_uniformity
from ..smt import QueryMemo
from ..sym import MAX_REPORTS, LaunchConfig, RaceChecker
from .candidates import CandidateGenerator, InsertionPoint, barrier_removals
from .diff import RenderError, SourceEdit, apply_edits, render_diff
from .rewriter import IRRewriter, RewriteError

_DIVERGENCE_MARKER = "barrier divergence"


@dataclass
class RepairEdit:
    """One accepted source-level barrier edit."""

    action: str          # "insert" | "remove"
    line: int            # insert: after this line; remove: this line
    note: str = ""

    def source_edit(self) -> SourceEdit:
        kind = "insert_after" if self.action == "insert" else "remove_line"
        return SourceEdit(kind, self.line)

    def describe(self) -> str:
        where = f"after line {self.line}" if self.action == "insert" \
            else f"at line {self.line}"
        out = f"{self.action} __syncthreads() {where}"
        if self.note:
            out += f" [{self.note}]"
        return out

    def to_dict(self) -> dict:
        return {"action": self.action, "line": self.line, "note": self.note}


@dataclass
class IterationStats:
    """Solver work done by one CEGIS iteration's re-checks."""

    iteration: int
    races_remaining: int
    candidates_tried: int
    queries: int
    preamble_reuse: int
    memo_hits: int
    sessions_created: int
    elapsed_seconds: float
    accepted: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "races_remaining": self.races_remaining,
            "candidates_tried": self.candidates_tried,
            "queries": self.queries,
            "preamble_reuse": self.preamble_reuse,
            "memo_hits": self.memo_hits,
            "sessions_created": self.sessions_created,
            "elapsed_seconds": self.elapsed_seconds,
            "accepted": self.accepted,
        }


@dataclass
class RepairResult:
    """Outcome of one repair run (attach to ``AnalysisReport.repair``)."""

    kernel: str
    converged: bool = False
    #: the patched *source* re-verified race-free from scratch
    verified: bool = False
    #: every surviving barrier was proven necessary by re-checking
    minimal: bool = False
    edits: List[RepairEdit] = field(default_factory=list)
    iterations: int = 0
    candidates_tried: int = 0
    initial_races: int = 0
    residual_races: int = 0
    minimized_out: int = 0
    rechecks: int = 0
    recheck_queries: int = 0
    preamble_reuse: int = 0
    memo_hits: int = 0
    sessions_created: int = 0
    iteration_stats: List[IterationStats] = field(default_factory=list)
    diff: str = ""
    patched_source: Optional[str] = None
    verification: Optional[dict] = None
    warnings: List[str] = field(default_factory=list)
    message: str = ""
    elapsed_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "converged": self.converged,
            "verified": self.verified,
            "minimal": self.minimal,
            "edits": [e.to_dict() for e in self.edits],
            "iterations": self.iterations,
            "candidates_tried": self.candidates_tried,
            "initial_races": self.initial_races,
            "residual_races": self.residual_races,
            "minimized_out": self.minimized_out,
            "rechecks": self.rechecks,
            "recheck_queries": self.recheck_queries,
            "preamble_reuse": self.preamble_reuse,
            "memo_hits": self.memo_hits,
            "sessions_created": self.sessions_created,
            "iteration_stats": [s.to_dict() for s in self.iteration_stats],
            "diff": self.diff,
            "patched_source": self.patched_source,
            "verification": self.verification,
            "warnings": list(self.warnings),
            "message": self.message,
            "elapsed_seconds": self.elapsed_seconds,
        }

    def summary(self) -> str:
        if self.initial_races == 0 and not self.edits:
            status = "nothing to repair (kernel already race-free)"
        elif self.converged:
            n = len(self.edits)
            status = (f"{n} edit{'s' if n != 1 else ''} in "
                      f"{self.iterations} iteration"
                      f"{'s' if self.iterations != 1 else ''}")
            status += ", verified race-free" if self.verified \
                else ", NOT verified"
            if self.minimal:
                status += " (minimal)"
        else:
            status = (f"FAILED to converge after {self.iterations} "
                      f"iteration{'s' if self.iterations != 1 else ''} "
                      f"({self.residual_races} race(s) remain)")
        lines = [f"  repair: {status}"]
        for edit in self.edits:
            lines.append(f"    edit: {edit.describe()}")
        lines.append(
            f"    solver: {self.rechecks} re-checks, "
            f"{self.recheck_queries} queries, "
            f"preamble reuse {self.preamble_reuse}, "
            f"memo hits {self.memo_hits}, "
            f"sessions created {self.sessions_created}")
        if self.message:
            lines.append(f"    note: {self.message}")
        for warning in self.warnings:
            lines.append(f"    warning: {warning}")
        return "\n".join(lines)


class _CopyChecker(RaceChecker):
    """Reports every racy pair, not each distinct race once: the repair
    loop's progress rule counts the copies a candidate barrier
    removes, so each pair is its own report key."""

    def _report_key(self, a1, a2) -> tuple:
        return (self._current_ordinal,)


class RepairEngine:
    """Drives the repair loop for one kernel."""

    def __init__(self, source: str, kernel_name: Optional[str] = None,
                 config: Optional[LaunchConfig] = None,
                 max_iterations: int = 8,
                 max_candidates: int = 24,
                 solver_budget: Optional[int] = 200_000,
                 max_reports: int = MAX_REPORTS,
                 share_sessions: bool = True,
                 remove_redundant: bool = False,
                 time_budget_seconds: Optional[float] = None) -> None:
        self.source = source
        self.kernel_name = kernel_name
        self.user_config = config or LaunchConfig()
        self.max_iterations = max_iterations
        self.max_candidates = max_candidates
        self.solver_budget = solver_budget
        self.max_reports = max_reports
        self.share_sessions = share_sessions
        self.remove_redundant = remove_redundant
        self.time_budget_seconds = time_budget_seconds

        # the loop rewrites this IR: a tool of its own (lazy import —
        # repro.core re-exports this package)
        from ..core.sesa import SESA
        self.tool = SESA.from_source(source, kernel_name)
        self.kernel = self.tool.kernel
        self.rewriter = IRRewriter(self.kernel)
        # the warm re-check machinery the whole loop shares
        self._sessions: Dict[tuple, object] = {}
        self._memo = QueryMemo()
        # repair iterations target races; OOB checking (not fixable by
        # barriers) is deferred to the final from-source verification,
        # which runs the user's config unmodified
        self.check_config = replace(self.user_config.copy(),
                                    check_oob=False)

    # ------------------------------------------------------------------

    def _recheck(self, res: RepairResult):
        """Execute + race-check the current IR on the shared sessions."""
        result = self.tool.execute(self.check_config)
        checker = _CopyChecker(
            result, solver_budget=self.solver_budget,
            max_reports=self.max_reports,
            sessions=self._sessions if self.share_sessions else None,
            memo=self._memo if self.share_sessions else None)
        checker.check()
        res.rechecks += 1
        res.recheck_queries += checker.stats.queries
        res.preamble_reuse += checker.stats.preamble_reuse
        res.memo_hits += checker.stats.by_memo
        res.sessions_created += checker.stats.sessions_created
        return result, checker

    @staticmethod
    def _nonbenign(checker) -> list:
        return [r for r in checker.races if not r.benign]

    @staticmethod
    def _diverged(result) -> bool:
        return any(_DIVERGENCE_MARKER in err for err in result.errors)

    # ------------------------------------------------------------------

    def run(self) -> RepairResult:
        start = time.perf_counter()
        deadline = (start + self.time_budget_seconds
                    if self.time_budget_seconds else None)
        res = RepairResult(kernel=self.kernel.name)

        result, checker = self._recheck(res)
        races = self._nonbenign(checker)
        res.initial_races = len(races)
        res.iteration_stats.append(IterationStats(
            iteration=0, races_remaining=len(races), candidates_tried=0,
            queries=checker.stats.queries,
            preamble_reuse=checker.stats.preamble_reuse,
            memo_hits=checker.stats.by_memo,
            sessions_created=checker.stats.sessions_created,
            elapsed_seconds=time.perf_counter() - start))
        if self._diverged(result):
            res.warnings.append(
                "input kernel already exhibits barrier divergence")

        inserted: List[Tuple[RepairEdit, object]] = []
        out_of_budget = False
        while races and res.iterations < self.max_iterations:
            res.iterations += 1
            iter_start = time.perf_counter()
            stats = IterationStats(
                iteration=res.iterations, races_remaining=len(races),
                candidates_tried=0, queries=0, preamble_reuse=0,
                memo_hits=0, sessions_created=0, elapsed_seconds=0.0)
            generator = CandidateGenerator(self.kernel)
            accepted: Optional[RepairEdit] = None
            for cand in generator.for_races(races)[:self.max_candidates]:
                if deadline is not None and time.perf_counter() > deadline:
                    out_of_budget = True
                    break
                stats.candidates_tried += 1
                try:
                    sync = self.rewriter.insert_sync(cand)
                except RewriteError:
                    continue
                before = (res.recheck_queries, res.preamble_reuse,
                          res.memo_hits, res.sessions_created)
                r2, c2 = self._recheck(res)
                stats.queries += res.recheck_queries - before[0]
                stats.preamble_reuse += res.preamble_reuse - before[1]
                stats.memo_hits += res.memo_hits - before[2]
                stats.sessions_created += res.sessions_created - before[3]
                remaining = self._nonbenign(c2)
                if self._diverged(r2) or len(remaining) >= len(races):
                    self.rewriter.remove_sync(sync)
                    continue
                accepted = RepairEdit("insert", cand.source_line,
                                      note=cand.note)
                inserted.append((accepted, sync))
                races = remaining
                break
            stats.races_remaining = len(races)
            stats.accepted = accepted.describe() if accepted else None
            stats.elapsed_seconds = time.perf_counter() - iter_start
            res.iteration_stats.append(stats)
            res.candidates_tried += stats.candidates_tried
            if accepted is None:
                break

        res.residual_races = len(races)
        res.converged = not races

        # delta-debugging: shrink the fix — every inserted barrier must
        # still be necessary under re-verification
        if res.converged and inserted:
            for pair in list(inserted):
                edit, sync = pair
                removed = self.rewriter.remove_sync(sync)
                r3, c3 = self._recheck(res)
                if self._nonbenign(c3) or self._diverged(r3):
                    removed.restore()
                else:
                    inserted.remove(pair)
                    res.minimized_out += 1
            res.minimal = True

        removal_edits: List[RepairEdit] = []
        if res.converged and self.remove_redundant:
            inserted_ids = {id(sync) for _, sync in inserted}
            for sync in barrier_removals(self.kernel):
                if id(sync) in inserted_ids or sync.loc is None:
                    continue
                removed = self.rewriter.remove_sync(sync)
                r4, c4 = self._recheck(res)
                if self._nonbenign(c4) or self._diverged(r4):
                    removed.restore()
                else:
                    removal_edits.append(RepairEdit(
                        "remove", int(sync.loc),
                        note="provably redundant barrier"))

        res.edits = sorted([e for e, _ in inserted] + removal_edits,
                           key=lambda e: (e.line, e.action))

        if out_of_budget:
            res.message = "wall-clock budget exhausted"
        if res.converged and res.edits:
            self._render_and_verify(res)
        elif res.converged:
            res.verified = res.initial_races == 0
            if res.initial_races == 0:
                res.message = res.message or \
                    "kernel is already race-free; no edits needed"
        else:
            res.message = res.message or (
                f"no barrier placement reduced the race count "
                f"({res.residual_races} race(s) remain) — likely a true "
                f"data race needing atomics or an algorithm change")
        res.elapsed_seconds = time.perf_counter() - start
        return res

    # ------------------------------------------------------------------

    def _render_and_verify(self, res: RepairResult) -> None:
        try:
            patched = apply_edits(
                self.source, [e.source_edit() for e in res.edits])
        except RenderError as exc:
            res.message = f"could not render the fix as source: {exc}"
            return
        res.patched_source = patched
        res.diff = render_diff(self.source, patched,
                               name=f"{self.kernel.name}.cu")
        # ground truth: compile the patched source once and check it
        # from scratch at the user's launch config (lazy import —
        # repro.core re-exports this package)
        from ..core.sesa import SESA
        tool = SESA.from_source(patched, self.kernel_name)
        report = tool.check(self.user_config.copy())
        res.verification = report.to_dict()
        diverged = bool(report.execution
                        and self._diverged(report.execution))
        audit = check_barrier_uniformity(tool.kernel)
        res.warnings.extend(audit)
        if report.has_oob:
            res.warnings.append(
                "out-of-bounds reports remain (not repairable by "
                "barrier insertion)")
        res.verified = (not report.has_races and not diverged
                        and not audit)
        if not res.verified and not res.message:
            res.message = "patched source failed re-verification"


def repair_source(source: str, config: Optional[LaunchConfig] = None,
                  kernel_name: Optional[str] = None,
                  **kwargs) -> RepairResult:
    """One-shot convenience: build the engine and run the repair loop."""
    return RepairEngine(source, kernel_name=kernel_name, config=config,
                        **kwargs).run()
