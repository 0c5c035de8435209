"""Structured telemetry for batch runs.

Every lifecycle transition of every job emits one JSON object — to an
in-memory list always, and to a JSONL trace file when a path is given.
The invariant consumers rely on: **exactly one ``job_started`` and one
``job_finished`` event per job**, bracketed by one ``batch_started`` /
``batch_finished`` pair; retries appear as ``job_retry`` events in
between, cache hits as ``cache_hit``.

Timestamps are wall-clock seconds relative to telemetry creation, so
traces from different hosts line up without clock agreement.

The daemon (:mod:`repro.service.daemon`) extends the vocabulary with
queue/lease lifecycle events — ``job_submitted`` / ``job_deduped`` /
``lease_claimed`` / ``lease_renewed`` / ``lease_expired`` /
``job_requeued`` — and periodic :meth:`queue_sample` snapshots; the
batch scheduler emits one final ``queue_sample`` in the same schema so
a single trace consumer understands both run modes. A long-running
daemon opens its trace in append mode (``mode="a"``) so restarts
extend the operational log instead of truncating it.
"""
from __future__ import annotations

import json
import threading
import time
from typing import Dict, List, Optional

from .jobs import JobResult, JobStatus


class Telemetry:
    """Thread-safe JSONL event emitter + aggregate summariser."""

    def __init__(self, trace_path: Optional[str] = None,
                 mode: str = "w") -> None:
        self.trace_path = trace_path
        self.events: List[dict] = []
        self._lock = threading.Lock()
        self._epoch = time.monotonic()
        self._fh = open(trace_path, mode, encoding="utf-8") \
            if trace_path else None

    # ------------------------------------------------------------------

    def emit(self, event: str, **fields) -> dict:
        record = {"event": event,
                  "t": round(time.monotonic() - self._epoch, 6)}
        record.update(fields)
        with self._lock:
            self.events.append(record)
            if self._fh is not None:
                self._fh.write(json.dumps(record, sort_keys=True) + "\n")
                self._fh.flush()
        return record

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def queue_sample(self, *, depth: int, leased: int,
                     oldest_age_seconds: Optional[float],
                     workers: Dict[str, dict], **extra) -> dict:
        """One ``queue_sample`` event — THE schema for queue health.

        ``depth`` runnable jobs waiting, ``leased`` jobs under a live
        lease, ``oldest_age_seconds`` age of the oldest waiting job
        (``None`` for an empty queue), ``workers`` per-worker
        ``{"jobs": n, "jobs_per_sec": r}`` throughput. Emitted
        periodically by the daemon and once, as the final summary, by
        the batch scheduler.
        """
        return self.emit(
            "queue_sample", depth=depth, leased=leased,
            oldest_age_seconds=(round(oldest_age_seconds, 3)
                                if oldest_age_seconds is not None
                                else None),
            workers=workers, **extra)

    def job_finished(self, result: JobResult, **extra) -> dict:
        """The one ``job_finished`` event per job (batch scheduler and
        daemon worker alike; *extra* adds the emitter's own fields)."""
        return self.emit(
            "job_finished", job_id=result.job_id, status=result.status,
            attempts=result.attempts, cached=result.cached,
            elapsed_seconds=round(result.elapsed_seconds, 6),
            tier=(result.check_stats or {}).get("tier"),
            check_stats=result.check_stats,
            issues=result.issue_tags() if result.verdict else None,
            **extra)

    # ------------------------------------------------------------------

    def select(self, event: str) -> List[dict]:
        with self._lock:
            return [e for e in self.events if e["event"] == event]

    # ------------------------------------------------------------------

    @staticmethod
    def tier_counts(results: List[JobResult]) -> Dict[str, int]:
        """Per-tier verdict counts (``{"static": n, "parametric": m}``).

        Jobs without check stats (errors, timeouts, stub runners) are
        not counted under either tier.
        """
        tiers: Dict[str, int] = {}
        for r in results:
            if r.check_stats:
                tier = r.check_stats.get("tier", "parametric")
                tiers[tier] = tiers.get(tier, 0) + 1
        return tiers

    @staticmethod
    def aggregate(results: List[JobResult]) -> dict:
        """Batch-level rollup of per-job records."""
        by_status: Dict[str, int] = {}
        queries = pairs = affine = 0
        issues = 0
        elapsed = 0.0
        for r in results:
            by_status[r.status] = by_status.get(r.status, 0) + 1
            elapsed += r.elapsed_seconds
            if r.check_stats:
                queries += r.check_stats.get("queries", 0)
                pairs += r.check_stats.get("pairs_considered", 0)
                affine += r.check_stats.get("by_affine", 0)
            if r.has_issues:
                issues += 1
        return {
            "jobs": len(results),
            "by_status": by_status,
            "by_tier": Telemetry.tier_counts(results),
            "jobs_with_issues": issues,
            "solver_queries": queries,
            "pairs_considered": pairs,
            "by_affine": affine,
            "analysis_seconds": round(elapsed, 3),
        }

    @staticmethod
    def summary_table(results: List[JobResult]) -> str:
        """Human-readable aggregate block for the CLI."""
        agg = Telemetry.aggregate(results)
        done = agg["by_status"].get(JobStatus.DONE, 0)
        cached = agg["by_status"].get(JobStatus.CACHED, 0)
        errors = agg["by_status"].get(JobStatus.ERROR, 0)
        timeouts = agg["by_status"].get(JobStatus.TIMEOUT, 0)
        lines = [
            f"jobs: {agg['jobs']}  "
            f"(done {done}, cached {cached}, "
            f"error {errors}, timeout {timeouts})",
            f"jobs with issues: {agg['jobs_with_issues']}",
            f"solver: {agg['solver_queries']} queries over "
            f"{agg['pairs_considered']} pairs "
            f"({agg['by_affine']} by affine fast path)",
            f"analysis time: {agg['analysis_seconds']:.2f}s "
            f"(sum over jobs)",
        ]
        if agg["by_tier"]:
            tiers = ", ".join(f"{tier} {n}" for tier, n
                              in sorted(agg["by_tier"].items()))
            lines.insert(2, f"tiers: {tiers}")
        return "\n".join(lines)
