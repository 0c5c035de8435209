"""Daemon subsystem: durable store, lease semantics, worker fleet.

Lease tests avoid real waiting where possible by passing explicit
``now`` timestamps to the reaper; worker tests use purpose-built
module-level runners (instant, slow, crashing, SIGKILLed) so each
property runs in milliseconds, exactly like the scheduler tests.
"""
import json
import os
import signal
import time

import pytest

from repro.service import JobSpec, JobState, JobStatus
from repro.service.daemon import (
    Daemon, Heartbeat, JobStore, Reaper, WorkerDaemon,
)
from repro.service.runner import execute_job


def _spec(job_id="k1", source="x", **meta):
    return JobSpec(job_id=job_id, source=source, meta=meta)


def _payload(status=JobStatus.DONE, **extra):
    out = {"status": status, "verdict": {"races": [], "oobs": []},
           "check_stats": None, "inputs": None,
           "elapsed_seconds": 0.0, "error": None}
    out.update(extra)
    return out


def ok_runner(spec):
    return _payload(verdict={"races": [], "oobs": [],
                             "job": spec["job_id"]})


def slow_runner(spec):
    time.sleep(spec["meta"].get("sleep", 0.5))
    return ok_runner(spec)


def error_runner(spec):
    return _payload(status=JobStatus.ERROR, verdict=None,
                    error="deterministic analysis failure")


def sigkill_once_runner(spec):
    """SIGKILL the worker child on the first attempt (the marker file
    records that an attempt happened), succeed on the second."""
    marker = spec["meta"]["marker"]
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("attempted")
        os.kill(os.getpid(), signal.SIGKILL)
    return ok_runner(spec)


def always_crash_runner(spec):
    os._exit(21)


@pytest.fixture
def store(tmp_path):
    return JobStore(str(tmp_path / "queue.sqlite3"))


class TestStoreLifecycle:
    def test_submit_claim_complete(self, store):
        job_id, deduped = store.submit(_spec(), "fp-1")
        assert not deduped
        assert store.get(job_id).state == JobState.QUEUED

        job = store.claim("w0", lease_ttl=30.0)
        assert job.job_id == job_id
        assert job.state == JobState.LEASED
        assert job.attempts == 1
        assert store.get(job_id).lease_owner == "w0"

        assert store.complete(job_id, "w0", {"status": "done"})
        row = store.get(job_id)
        assert row.state == JobState.DONE and row.terminal
        assert row.result == {"status": "done"}
        assert row.lease_owner is None

    def test_claim_is_fifo_and_empty_queue_is_none(self, store):
        first, _ = store.submit(_spec("a"), "fp-a")
        time.sleep(0.01)
        store.submit(_spec("b"), "fp-b")
        assert store.claim("w0", 30.0).job_id == first
        assert store.claim("w0", 30.0) is not None
        assert store.claim("w0", 30.0) is None

    def test_only_lease_owner_can_complete(self, store):
        job_id, _ = store.submit(_spec(), "fp-1")
        store.claim("w0", 30.0)
        assert not store.complete(job_id, "w1", {"status": "done"})
        assert store.get(job_id).state == JobState.LEASED

    def test_spec_roundtrips_through_store(self, store):
        spec = _spec("roundtrip", source="__global__ void k() {}")
        job_id, _ = store.submit(spec, "fp-rt")
        job = store.claim("w0", 30.0)
        restored = JobSpec.from_dict(job.spec)
        assert restored.job_id == "roundtrip"
        assert restored.source == spec.source


class TestDedup:
    def test_duplicate_submit_collapses_to_one_job(self, store):
        job_id, deduped = store.submit(_spec("a"), "fp-same")
        dup_id, dup = store.submit(_spec("b"), "fp-same")
        assert dup and dup_id == job_id
        assert len(store.list_jobs()) == 1

    def test_dedup_spans_leased_and_done(self, store):
        job_id, _ = store.submit(_spec(), "fp-1")
        store.claim("w0", 30.0)
        assert store.submit(_spec(), "fp-1") == (job_id, True)
        store.complete(job_id, "w0", {"status": "done"})
        assert store.submit(_spec(), "fp-1") == (job_id, True)

    def test_failed_and_dead_do_not_block_resubmit(self, store):
        job_id, _ = store.submit(_spec(), "fp-1")
        store.claim("w0", 30.0)
        store.complete(job_id, "w0", {"status": "error"},
                       state=JobState.FAILED, error="boom")
        new_id, deduped = store.submit(_spec(), "fp-1")
        assert not deduped and new_id != job_id


class TestLeaseSemantics:
    def test_expired_lease_is_reclaimed_for_retry(self, store):
        job_id, _ = store.submit(_spec(), "fp-1")
        store.claim("w0", lease_ttl=0.01)
        # sweep "later": the deadline has passed, attempts remain
        reclaimed = store.reap_expired(now=time.time() + 1.0)
        assert reclaimed == [(job_id, JobState.QUEUED)]
        job = store.get(job_id)
        assert job.state == JobState.QUEUED
        assert job.lease_owner is None
        # next claim is attempt 2
        assert store.claim("w1", 30.0).attempts == 2

    def test_reclaim_exhausts_budget_to_dead(self, store):
        job_id, _ = store.submit(_spec(), "fp-1", max_attempts=2)
        for _attempt in range(2):
            store.claim("w0", lease_ttl=0.01)
            store.reap_expired(now=time.time() + 1.0)
        job = store.get(job_id)
        assert job.state == JobState.DEAD
        assert "retry budget exhausted" in job.error

    def test_live_lease_is_not_reaped(self, store):
        store.submit(_spec(), "fp-1")
        store.claim("w0", lease_ttl=30.0)
        assert store.reap_expired() == []

    def test_heartbeat_renewal_prevents_reclaim(self, store):
        job_id, _ = store.submit(_spec(), "fp-1")
        store.claim("w0", lease_ttl=0.2)
        with Heartbeat(store, job_id, "w0", lease_ttl=0.2,
                       interval=0.05) as beat:
            # without renewal the lease would expire ~0.2s in; the
            # heartbeat keeps pushing the deadline ahead of the reaper
            deadline = time.monotonic() + 0.6
            while time.monotonic() < deadline:
                assert store.reap_expired() == []
                time.sleep(0.05)
            assert not beat.lost
        assert store.get(job_id).state == JobState.LEASED

    def test_heartbeat_discovers_lost_lease(self, store):
        job_id, _ = store.submit(_spec(), "fp-1")
        store.claim("w0", lease_ttl=0.01)
        store.reap_expired(now=time.time() + 1.0)   # reclaimed
        with Heartbeat(store, job_id, "w0", lease_ttl=0.01,
                       interval=0.02) as beat:
            time.sleep(0.1)
        assert beat.lost
        # ... and the zombie's late result is refused by the store
        assert not store.complete(job_id, "w0", {"status": "done"})

    def test_release_requeues_then_kills(self, store):
        job_id, _ = store.submit(_spec(), "fp-1", max_attempts=2)
        store.claim("w0", 30.0)
        assert store.release(job_id, "w0", "crash 1") == JobState.QUEUED
        store.claim("w0", 30.0)
        assert store.release(job_id, "w0", "crash 2") == JobState.DEAD

    def test_reaper_thread_counts_transitions(self, store):
        store.submit(_spec("a"), "fp-a", max_attempts=1)
        store.claim("w0", lease_ttl=0.05)
        reaper = Reaper(store, lease_ttl=0.05, interval=0.02).start()
        try:
            deadline = time.monotonic() + 2.0
            while store.get(store.list_jobs()[0].job_id).state \
                    == JobState.LEASED and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            reaper.stop()
        assert store.list_jobs()[0].state == JobState.DEAD
        assert reaper.killed == 1


class TestWorkerDaemon:
    def test_worker_processes_queue(self, store, tmp_path):
        for i in range(4):
            store.submit(_spec(f"job{i}", source=f"src{i}"), f"fp{i}")
        worker = WorkerDaemon(store, worker_id="w0", runner=ok_runner,
                              poll_interval=0.02)
        while worker.process_one():
            pass
        jobs = store.list_jobs()
        assert len(jobs) == 4
        assert all(j.state == JobState.DONE for j in jobs)
        assert all(j.result["status"] == JobStatus.DONE for j in jobs)
        assert worker.jobs_done == 4

    def test_sigkilled_worker_child_is_retried(self, store, tmp_path):
        """SIGKILL mid-job: the crash is detected, the job requeued,
        and the second attempt produces a correct verdict."""
        marker = str(tmp_path / "attempted.marker")
        job_id, _ = store.submit(
            _spec("victim", marker=marker), "fp-v", max_attempts=2)
        worker = WorkerDaemon(store, worker_id="w0",
                              runner=sigkill_once_runner,
                              poll_interval=0.02)
        assert worker.process_one()          # attempt 1: SIGKILL
        job = store.get(job_id)
        assert job.state == JobState.QUEUED
        assert os.path.exists(marker)
        assert worker.process_one()          # attempt 2: verdict
        job = store.get(job_id)
        assert job.state == JobState.DONE
        assert job.attempts == 2
        assert job.result["verdict"]["job"] == "victim"

    def test_crash_budget_exhausts_to_dead(self, store):
        job_id, _ = store.submit(_spec(), "fp-1", max_attempts=2)
        worker = WorkerDaemon(store, worker_id="w0",
                              runner=always_crash_runner)
        worker.process_one()
        worker.process_one()
        job = store.get(job_id)
        assert job.state == JobState.DEAD
        assert "exit code 21" in job.error

    def test_deterministic_error_is_failed_not_retried(self, store):
        job_id, _ = store.submit(_spec(), "fp-1", max_attempts=3)
        worker = WorkerDaemon(store, worker_id="w0",
                              runner=error_runner)
        worker.process_one()
        job = store.get(job_id)
        assert job.state == JobState.FAILED
        assert job.attempts == 1    # no retry burned on determinism
        assert "deterministic analysis failure" in job.error

    def test_hard_timeout_is_failed(self, store):
        job_id, _ = store.submit(_spec(sleep=30.0), "fp-1")
        worker = WorkerDaemon(store, worker_id="w0",
                              runner=slow_runner, timeout_seconds=0.3)
        worker.process_one()
        job = store.get(job_id)
        assert job.state == JobState.FAILED
        assert "hard timeout" in job.error

    def test_graceful_shutdown_drains_in_flight_job(self, store):
        """stop() during a job: no new claims, but the in-flight job
        runs to a recorded verdict before the worker exits."""
        job_id, _ = store.submit(_spec(sleep=0.4), "fp-slow")
        store.submit(_spec("later", source="y", sleep=0.0), "fp-later")
        worker = WorkerDaemon(store, worker_id="w0",
                              runner=slow_runner,
                              poll_interval=0.02).start()
        deadline = time.monotonic() + 5.0
        while store.get(job_id).state != JobState.LEASED \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        worker.stop()                       # drains, then returns
        assert store.get(job_id).state == JobState.DONE
        # the second job was never claimed — stop means stop
        assert store.get(
            store.list_jobs(state=JobState.QUEUED)[0].job_id
        ).state == JobState.QUEUED
        assert not worker.alive


class TestCacheDedup:
    def test_cache_hit_skips_solver_work(self, store, tmp_path):
        """Same fingerprint resubmitted after completion: the worker
        serves the verdict from the cache without running anything."""
        from repro.service import ResultCache
        cache = ResultCache(str(tmp_path / "cache"))
        job_id, _ = store.submit(_spec(), "fp-same")
        w = WorkerDaemon(store, worker_id="w0", cache=cache,
                         runner=ok_runner)
        w.process_one()
        assert store.get(job_id).state == JobState.DONE

        new_id, deduped = store.submit(_spec(), "fp-same")
        assert deduped and new_id == job_id   # still sharable: done

        # force a genuinely new row for the same content (as if the
        # old one had failed): the cache still serves the verdict
        with store._tx() as cur:
            cur.execute("UPDATE jobs SET state = ? WHERE job_id = ?",
                        (JobState.FAILED, job_id))
        fresh_id, deduped = store.submit(_spec(), "fp-same")
        assert not deduped and fresh_id != job_id
        w.process_one()
        fresh = store.get(fresh_id)
        assert fresh.state == JobState.DONE
        assert fresh.result["status"] == JobStatus.CACHED
        assert fresh.result["cached"] is True
        assert cache.hits == 1

    def test_validation_error_is_structured_failed(self, store):
        """Malformed specs land as ``failed`` with a clean one-line
        error — no traceback — via the real execute_job runner."""
        bad = JobSpec(job_id="bad", source="x", engine="sesa")
        bad.engine = "no-such-engine"   # bypass construction checks
        job_id, _ = store.submit(bad, "fp-bad", max_attempts=3)
        worker = WorkerDaemon(store, worker_id="w0",
                              runner=execute_job)
        worker.process_one()
        job = store.get(job_id)
        assert job.state == JobState.FAILED
        assert job.attempts == 1
        assert "invalid job spec" in job.error
        assert "no-such-engine" in job.error
        assert "Traceback" not in job.error

    @pytest.mark.parametrize("text", ["[]", "not json", "3"])
    def test_damaged_spec_row_is_a_failed_job(self, store, text):
        """A stored spec that is not a JSON object fails its job with
        ``invalid job spec``: the worker survives and claims the next
        job, and listing the queue still works."""
        bad_id, _ = store.submit(_spec("bad"), "fp-bad")
        good_id, _ = store.submit(_spec("good"), "fp-good")
        with store._tx() as cur:
            cur.execute("UPDATE jobs SET spec = ? WHERE job_id = ?",
                        (text, bad_id))
        assert len(store.list_jobs()) == 2
        worker = WorkerDaemon(store, worker_id="w0", runner=ok_runner,
                              isolate=False)
        assert worker.process_one()
        bad = store.get(bad_id)
        assert bad.state == JobState.FAILED
        assert bad.error.startswith("invalid job spec")
        assert worker.process_one()
        assert store.get(good_id).state == JobState.DONE
        assert {j.state for j in store.list_jobs()} == {
            JobState.FAILED, JobState.DONE}

    @pytest.mark.parametrize("text", ["{trunc", "[]", "3"])
    def test_damaged_result_row_reads_as_failed(self, store, text):
        """A done job whose stored result is not a JSON object reads as
        failed with ``invalid job result``; every other row still lists,
        and a resubmit of its content runs afresh."""
        bad_id, _ = store.submit(_spec("bad"), "fp-bad")
        good_id, _ = store.submit(_spec("good"), "fp-good")
        worker = WorkerDaemon(store, worker_id="w0", runner=ok_runner,
                              isolate=False)
        assert worker.process_one() and worker.process_one()
        with store._tx() as cur:
            cur.execute("UPDATE jobs SET result = ? WHERE job_id = ?",
                        (text, bad_id))
        jobs = {j.job_id: j for j in store.list_jobs()}
        assert set(jobs) == {bad_id, good_id}
        bad = store.get(bad_id)
        assert bad.state == JobState.FAILED and bad.result is None
        assert bad.error.startswith("invalid job result")
        assert bad.status_dict()["terminal"]
        assert jobs[good_id].state == JobState.DONE
        assert jobs[good_id].result is not None
        fresh_id, deduped = store.submit(_spec("bad"), "fp-bad")
        assert not deduped and fresh_id != bad_id


class TestDaemonSupervisor:
    def test_in_process_end_to_end(self, tmp_path):
        daemon = Daemon(db_path=str(tmp_path / "q.sqlite3"),
                        cache_dir=str(tmp_path / "cache"),
                        workers=2, lease_ttl=5.0, poll_interval=0.02,
                        sample_interval=0.1, runner=ok_runner)
        daemon.start(serve_http=False)
        try:
            submitted = [daemon.submit_spec(
                _spec(f"job{i}", source=f"src{i}")) for i in range(6)]
            assert daemon.wait_idle(timeout=30.0)
            for entry in submitted:
                job = daemon.store.get(entry["job_id"])
                assert job.state == JobState.DONE
            # the sampler emitted periodic queue_sample events with
            # the canonical schema
            samples = daemon.telemetry.select("queue_sample")
            assert samples, "sampler never fired"
            sample = samples[-1]
            assert {"depth", "leased", "oldest_age_seconds",
                    "workers"} <= set(sample)
            assert set(sample["workers"]) == {"w0", "w1"}
            assert all({"jobs", "jobs_per_sec"} <= set(w.keys())
                       for w in sample["workers"].values())
        finally:
            daemon.stop()

    def test_startup_sweep_recovers_orphaned_leases(self, tmp_path):
        """Leases from a daemon that died whole are reclaimed at the
        next daemon's startup, before one TTL elapses."""
        db = str(tmp_path / "q.sqlite3")
        store = JobStore(db)
        job_id, _ = store.submit(_spec(), "fp-1")
        store.claim("dead-daemon-w0", lease_ttl=0.01)
        store.close()
        time.sleep(0.05)
        daemon = Daemon(db_path=db, workers=1, lease_ttl=30.0,
                        poll_interval=0.02, runner=ok_runner)
        daemon.start(serve_http=False)
        try:
            assert daemon.wait_idle(timeout=10.0)
            assert daemon.store.get(job_id).state == JobState.DONE
        finally:
            daemon.stop()


class TestBatchQueueSampleParity:
    def test_batch_final_summary_uses_queue_sample_schema(self):
        from repro.service import Scheduler, Telemetry
        telemetry = Telemetry()
        Scheduler(max_workers=2, runner=ok_runner,
                  telemetry=telemetry).run(
            [_spec(f"j{i}", source=f"s{i}") for i in range(4)])
        samples = telemetry.select("queue_sample")
        assert len(samples) == 1
        sample = samples[0]
        assert sample["depth"] == 0 and sample["leased"] == 0
        assert sum(w["jobs"] for w in sample["workers"].values()) == 4
        assert all({"jobs", "jobs_per_sec"} <= set(w.keys())
                   for w in sample["workers"].values())
