"""Worker daemons: claim → run isolated → heartbeat → record.

A :class:`WorkerDaemon` is one long-lived claim loop. Each claimed job
runs in a *fresh process* from the fork server (the same
:func:`~repro.service.runner.run_attempt` the batch scheduler
uses), so an analysis crash kills the child, not the worker;
a :class:`~repro.service.daemon.lease.Heartbeat` thread renews the
lease while the child runs, so only a worker that dies *whole*
(SIGKILL, OOM, power loss) lets the lease expire — and then the reaper
requeues the job for someone else.

Outcome → state mapping (the worker's core policy):

* result ``done``             → ``done`` (cached for dedup unless the
  verdict timed out)
* cache hit on claim          → ``done`` immediately, zero solver work
* result ``error``            → ``failed`` — the runner caught a
  deterministic analysis/validation failure; retrying wastes budget
* hard timeout                → ``failed`` — equally deterministic
* child **crash**             → released back: ``queued`` while
  attempts remain, ``dead`` after
* heartbeat lost              → result *dropped* — the reaper already
  gave the job away; writing would race the new owner
"""
from __future__ import annotations

import os
import threading
import time
from typing import Optional

from ..cache import ResultCache, get_result, put_result
from ..jobs import JobResult, JobState, JobStatus
from ..runner import Runner, execute_job, run_attempt
from ..telemetry import Telemetry
from .lease import DEFAULT_LEASE_TTL, Heartbeat
from .store import JobRow, JobStore

#: how long an idle worker sleeps between claim attempts
DEFAULT_POLL_INTERVAL = 0.2


class WorkerDaemon:
    """One claim-loop worker (usually a thread in the serve process,
    but nothing here assumes that — a separate process pointed at the
    same database behaves identically)."""

    def __init__(self, store: JobStore,
                 worker_id: Optional[str] = None,
                 cache: Optional[ResultCache] = None,
                 telemetry: Optional[Telemetry] = None,
                 runner: Runner = execute_job,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 poll_interval: float = DEFAULT_POLL_INTERVAL,
                 timeout_seconds: Optional[float] = None,
                 isolate: bool = True) -> None:
        self.store = store
        self.worker_id = worker_id or f"worker-{os.getpid()}"
        self.cache = cache
        self.telemetry = telemetry or Telemetry()
        self.runner = runner
        self.lease_ttl = lease_ttl
        self.poll_interval = poll_interval
        self.timeout_seconds = timeout_seconds
        self.isolate = isolate
        self.jobs_done = 0
        self.tier_counts: dict = {}
        self.started_at = time.time()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # health / throughput accounting (feeds ``queue_sample``)
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        elapsed = max(time.time() - self.started_at, 1e-9)
        return {"jobs": self.jobs_done,
                "jobs_per_sec": round(self.jobs_done / elapsed, 3),
                "tiers": dict(self.tier_counts)}

    @property
    def alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # ------------------------------------------------------------------
    # one job
    # ------------------------------------------------------------------

    def _record(self, job: JobRow, result: JobResult, state: str) -> None:
        error = None if state == JobState.DONE else result.error
        wrote = self.store.complete(job.job_id, self.worker_id,
                                    result.to_dict(), state=state,
                                    error=error)
        tier = (result.check_stats or {}).get("tier")
        if wrote:
            self.jobs_done += 1
            if tier is not None:
                self.tier_counts[tier] = self.tier_counts.get(tier, 0) + 1
        self.telemetry.job_finished(
            result, state=state if wrote else "lost",
            worker=self.worker_id)
        if wrote and state == JobState.DONE and result.verdict \
                and "stream" in result.verdict:
            # the stream job ran in a child process; re-emit the merge
            # event into the daemon's durable trace (cached verdicts
            # included — a replayed merge is still a merge)
            stream = result.verdict.get("stream") or {}
            self.telemetry.emit(
                "stream_merged", job_id=job.job_id,
                worker=self.worker_id,
                program=(stream.get("program") or {}).get("name"),
                launches=len(stream.get("launches") or ()),
                inter_launch_races=len(
                    stream.get("inter_launch_races") or ()),
                launch_cache_hits=(result.check_stats or {}).get(
                    "launch_cache_hits"),
                cached=result.cached)

    def process_one(self) -> bool:
        """Claim and fully process one job; False when the queue had
        nothing runnable."""
        job = self.store.claim(self.worker_id, self.lease_ttl)
        if job is None:
            return False
        self.telemetry.emit("lease_claimed", job_id=job.job_id,
                            worker=self.worker_id,
                            attempt=job.attempts,
                            lease_ttl=self.lease_ttl)
        if job.spec_error is not None:
            # a damaged row fails its job; the worker keeps claiming
            self._record(job, JobResult.failure(
                job.spec_error, job_id=job.job_id,
                attempts=job.attempts), JobState.FAILED)
            return True
        spec_dict = job.spec
        if self.cache is not None \
                and spec_dict.get("solver_cache_dir") is None:
            # a stream job caches its per-launch verdicts in the
            # daemon's cache tree (a pure accelerator: not in the
            # fingerprint)
            spec_dict = dict(spec_dict,
                             solver_cache_dir=self.cache.cache_dir)

        # dedup fast path: an identical submission already paid for
        # this verdict (possibly in a previous daemon's lifetime)
        if self.cache is not None:
            result = get_result(self.cache, job.fingerprint, job.job_id)
            if result is not None:
                result.attempts = job.attempts
                self.telemetry.emit("cache_hit", job_id=job.job_id,
                                    cache_key=job.fingerprint)
                self._record(job, result, JobState.DONE)
                return True
            self.telemetry.emit("cache_miss", job_id=job.job_id,
                                cache_key=job.fingerprint)

        self.telemetry.emit("job_started", job_id=job.job_id,
                            worker=self.worker_id,
                            engine=spec_dict.get("engine", "sesa"),
                            cached=False)
        with Heartbeat(self.store, job.job_id, self.worker_id,
                       self.lease_ttl,
                       telemetry=self.telemetry) as beat:
            outcome, result = run_attempt(spec_dict, self.runner,
                                          self.timeout_seconds,
                                          self.isolate)
        result.job_id, result.attempts, result.cache_key = \
            job.job_id, job.attempts, job.fingerprint
        if outcome == "crash":
            state = "crash"
        elif result.status == JobStatus.DONE:
            state = JobState.DONE
        else:
            # deterministic failure (analysis error, validation error,
            # hard timeout): retrying cannot change the outcome
            state = JobState.FAILED
        if beat.lost:
            # the reaper reassigned the job mid-run; our verdict may
            # already disagree with the new owner's bookkeeping
            self.telemetry.emit("result_dropped", job_id=job.job_id,
                                worker=self.worker_id, state=state)
            return True
        if state == "crash":
            new_state = self.store.release(
                job.job_id, self.worker_id,
                error=f"{result.error} on attempt {job.attempts}")
            self.telemetry.emit("job_requeued" if new_state ==
                                JobState.QUEUED else "job_dead",
                                job_id=job.job_id,
                                worker=self.worker_id,
                                error=result.error,
                                attempt=job.attempts)
            return True
        if self.cache is not None:
            put_result(self.cache, job.fingerprint, result)
        self._record(job, result, state)
        return True

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------

    def run(self) -> None:
        """Claim until stopped; an in-flight job is always finished
        (graceful drain) — stop only prevents *new* claims."""
        self.telemetry.emit("worker_started", worker=self.worker_id,
                            lease_ttl=self.lease_ttl)
        while not self._stop.is_set():
            worked = self.process_one()
            if not worked and self._stop.wait(self.poll_interval):
                break
        self.telemetry.emit("worker_stopped", worker=self.worker_id,
                            jobs_done=self.jobs_done)

    def start(self) -> "WorkerDaemon":
        self._thread = threading.Thread(
            target=self.run, daemon=True, name=self.worker_id)
        self._thread.start()
        return self

    def stop(self, join_timeout: Optional[float] = 60.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=join_timeout)


class QueueSampler:
    """Periodic ``queue_sample`` emitter — the daemon's vital signs.

    Each sample carries queue depth, leased count, oldest-job age and
    per-worker throughput in the exact schema
    :meth:`repro.service.telemetry.Telemetry.queue_sample` defines (and
    the batch scheduler reuses for its final summary).
    """

    def __init__(self, store: JobStore, telemetry: Telemetry,
                 workers, interval: float = 5.0) -> None:
        self.store = store
        self.telemetry = telemetry
        self.workers = list(workers)
        self.interval = interval
        self.samples = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="queue-sampler")

    def sample(self) -> dict:
        stats = self.store.queue_stats()
        self.samples += 1
        return self.telemetry.queue_sample(
            depth=stats["depth"], leased=stats["leased"],
            oldest_age_seconds=stats["oldest_age_seconds"],
            workers={w.worker_id: w.stats() for w in self.workers},
            by_state=stats["by_state"])

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def start(self) -> "QueueSampler":
        # baseline sample before the periodic thread: a daemon that
        # drains its whole queue inside one ``interval`` still records
        # at least one queue_sample over its lifetime
        self.sample()
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        # flush one final sample so even a daemon that drains its queue
        # faster than ``interval`` leaves a terminal vital-signs record
        self.sample()
