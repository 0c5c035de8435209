"""Fault-isolating parallel scheduler for batch analysis jobs.

Design: N dispatcher threads pull jobs from a shared queue; each job
runs in its *own* worker process (forked by the fork server; the
payload comes back over a pipe) so that

* a hard wall-clock **timeout** can actually kill the work (terminate),
* a worker **crash** (segfault, ``os._exit``, OOM kill) is contained —
  the job is retried with backoff and, failing that, recorded as
  ``ERROR``; the batch always completes with one record per job,
* jobs never share interpreter state, so a corrupted analysis cannot
  poison its successors.

The process-per-job model (rather than a long-lived pool) is what the
robustness properties above rely on. Every job process is forked by one
single-threaded fork server that imported the checker once
(:func:`~repro.service.runner.start_child`): the first child in a
process waits about 0.3 s for the server to start, each later one a few
milliseconds, far below a typical analysis. ``isolate=False`` runs jobs in the dispatcher
threads instead (crashes are not contained and timeouts then rely on
the engine's soft budget); the tests use it.

Results come back in **submission order** regardless of completion
order, so batch output is deterministic modulo timing fields.
"""
from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from .cache import ResultCache, cache_key, get_result, put_result
from .jobs import JobResult, JobSpec, JobStatus
from .runner import execute_job, run_attempt
from .telemetry import Telemetry

Runner = Callable[[dict], dict]


@dataclass
class BatchResult:
    """Everything one batch run produced."""

    jobs: List[JobResult]
    elapsed_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def ok(self) -> bool:
        return all(r.status != JobStatus.ERROR for r in self.jobs)

    def by_status(self, status: str) -> List[JobResult]:
        return [r for r in self.jobs if r.status == status]

    def to_dict(self) -> dict:
        return {
            "jobs": [r.to_dict() for r in self.jobs],
            "summary": dict(
                Telemetry.aggregate(self.jobs),
                wall_seconds=round(self.elapsed_seconds, 3),
                cache_hits=self.cache_hits,
                cache_misses=self.cache_misses),
        }


class Scheduler:
    """Runs a corpus of :class:`JobSpec` to completion."""

    def __init__(self,
                 max_workers: int = 4,
                 timeout_seconds: Optional[float] = None,
                 max_retries: int = 1,
                 retry_backoff: float = 0.05,
                 cache: Optional[ResultCache] = None,
                 telemetry: Optional[Telemetry] = None,
                 runner: Runner = execute_job,
                 isolate: bool = True) -> None:
        self.max_workers = max(1, max_workers)
        self.timeout_seconds = timeout_seconds
        self.max_retries = max(0, max_retries)
        self.retry_backoff = retry_backoff
        self.cache = cache
        self.telemetry = telemetry or Telemetry()
        self.runner = runner
        self.isolate = isolate

    # ------------------------------------------------------------------
    # single-job execution
    # ------------------------------------------------------------------

    def _execute(self, spec: JobSpec, key: Optional[str]) -> JobResult:
        """Run one job to a terminal status, retrying crashes only: a
        hard timeout would just burn its budget again."""
        spec_dict = spec.to_dict()
        start = time.perf_counter()
        if spec.repair:
            self.telemetry.emit("repair_started", job_id=spec.job_id,
                                engine=spec.engine)
        attempts = 0
        while True:
            attempts += 1
            outcome, result = run_attempt(spec_dict, self.runner,
                                          self.timeout_seconds,
                                          self.isolate)
            if outcome != "crash" or attempts > self.max_retries:
                break
            # crash — possibly transient (OOM kill, fork bomb next door)
            self.telemetry.emit("job_retry", job_id=spec.job_id,
                                attempt=attempts, error=result.error)
            time.sleep(self.retry_backoff * attempts)
        result.job_id, result.attempts, result.cache_key = \
            spec.job_id, attempts, key
        result.elapsed_seconds = time.perf_counter() - start
        if outcome == "crash":
            result.error += f" after {attempts} attempt(s)"
        if result.repair is not None:
            self.telemetry.emit(
                "repair_finished", job_id=spec.job_id,
                converged=result.repair.get("converged"),
                verified=result.repair.get("verified"),
                edits=len(result.repair.get("edits") or ()),
                iterations=result.repair.get("iterations"),
                recheck_queries=result.repair.get("recheck_queries"),
                preamble_reuse=result.repair.get("preamble_reuse"))
        if key is not None:
            put_result(self.cache, key, result)
        return result

    def _process_one(self, spec: JobSpec) -> JobResult:
        key = cache_key(spec) if self.cache is not None else None
        if key is not None:
            result = get_result(self.cache, key, spec.job_id)
            if result is not None:
                self.telemetry.emit("cache_hit", job_id=spec.job_id,
                                    cache_key=key)
                self.telemetry.emit("job_started", job_id=spec.job_id,
                                    engine=spec.engine, cached=True)
                self.telemetry.job_finished(result)
                return result
            self.telemetry.emit("cache_miss", job_id=spec.job_id,
                                cache_key=key)
        self.telemetry.emit("job_started", job_id=spec.job_id,
                            engine=spec.engine, cached=False)
        result = self._execute(spec, key)
        self.telemetry.job_finished(result)
        return result

    # ------------------------------------------------------------------
    # batch driving
    # ------------------------------------------------------------------

    def run(self, specs: Sequence[JobSpec]) -> BatchResult:
        """Run all *specs*; one terminal :class:`JobResult` each, in
        submission order."""
        start = time.perf_counter()
        hits0 = self.cache.hits if self.cache else 0
        misses0 = self.cache.misses if self.cache else 0
        self.telemetry.emit("batch_started", jobs=len(specs),
                            workers=self.max_workers,
                            timeout_seconds=self.timeout_seconds,
                            cache=bool(self.cache))
        results: List[Optional[JobResult]] = [None] * len(specs)
        work: "queue.Queue" = queue.Queue()
        for i, spec in enumerate(specs):
            self.telemetry.emit("job_queued", job_id=spec.job_id,
                                engine=spec.engine)
            work.put((i, spec))
        jobs_by_worker: Dict[str, int] = {}

        def drain(worker_id: str) -> None:
            jobs_by_worker[worker_id] = 0
            while True:
                try:
                    i, spec = work.get_nowait()
                except queue.Empty:
                    return
                try:
                    results[i] = self._process_one(spec)
                except Exception as exc:  # scheduler bug — still record
                    results[i] = JobResult.failure(
                        f"scheduler: {type(exc).__name__}: {exc}",
                        job_id=spec.job_id, engine=spec.engine)
                    self.telemetry.job_finished(results[i])
                finally:
                    jobs_by_worker[worker_id] += 1
                    work.task_done()

        n_threads = min(self.max_workers, max(1, len(specs)))
        threads = [threading.Thread(target=drain, args=(f"batch-w{i}",),
                                    daemon=True)
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        batch = BatchResult(
            jobs=[r for r in results if r is not None],
            elapsed_seconds=time.perf_counter() - start,
            cache_hits=(self.cache.hits - hits0) if self.cache else 0,
            cache_misses=(self.cache.misses - misses0) if self.cache else 0)
        # final state snapshot in the daemon's queue_sample schema, so
        # one trace consumer understands both batch and daemon runs
        wall = max(batch.elapsed_seconds, 1e-9)
        self.telemetry.queue_sample(
            depth=0, leased=0, oldest_age_seconds=None,
            workers={wid: {"jobs": n,
                           "jobs_per_sec": round(n / wall, 3)}
                     for wid, n in sorted(jobs_by_worker.items())},
            tiers=Telemetry.tier_counts(batch.jobs))
        self.telemetry.emit(
            "batch_finished",
            wall_seconds=round(batch.elapsed_seconds, 6),
            cache_hits=batch.cache_hits, cache_misses=batch.cache_misses,
            **{"summary": Telemetry.aggregate(batch.jobs)})
        return batch


def run_batch(specs: Sequence[JobSpec], *,
              max_workers: int = 4,
              timeout_seconds: Optional[float] = None,
              max_retries: int = 1,
              cache_dir: Optional[str] = None,
              trace_path: Optional[str] = None,
              engine: Optional[str] = None,
              isolate: bool = True,
              runner: Runner = execute_job) -> BatchResult:
    """One-call convenience wrapper around :class:`Scheduler`."""
    specs = list(specs)
    if engine is not None:
        for spec in specs:
            spec.engine = engine
    if cache_dir:
        # a stream job's per-launch verdicts share the verdict cache's
        # store; explicit per-spec dirs win (and None stays None when the
        # batch has no cache at all)
        for spec in specs:
            if spec.config.solver_cache_dir is None:
                spec.config.solver_cache_dir = cache_dir
    cache = ResultCache(cache_dir) if cache_dir else None
    with Telemetry(trace_path) as telemetry:
        sched = Scheduler(max_workers=max_workers,
                          timeout_seconds=timeout_seconds,
                          max_retries=max_retries,
                          cache=cache, telemetry=telemetry,
                          runner=runner, isolate=isolate)
        batch = sched.run(specs)
    batch.telemetry = telemetry  # type: ignore[attr-defined]
    return batch
