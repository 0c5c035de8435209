"""Scheduler behaviour: ordering, timeout, retry, crash isolation.

These tests drive the scheduler with purpose-built runners (sleeping,
crashing, flaky) instead of the real analysis, so each property is
exercised in isolation and in milliseconds. The runners live at module
level so worker processes can reach them under any start method.
"""
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.service import JobSpec, JobStatus, Scheduler, Telemetry
from repro.service.runner import run_attempt
from repro.service.scheduler import run_batch

#: held by the test process while a job child tries to take it
LOCK = threading.Lock()


def _spec(job_id, **meta):
    return JobSpec(job_id=job_id, source="", meta=meta)


def _payload(status=JobStatus.DONE, **extra):
    out = {"status": status, "verdict": {"races": [], "oobs": []},
           "check_stats": None, "inputs": None,
           "elapsed_seconds": 0.0, "error": None}
    out.update(extra)
    return out


def ok_runner(spec):
    return _payload(verdict={"races": [], "oobs": [],
                             "job": spec["job_id"]})


def sleepy_runner(spec):
    time.sleep(spec["meta"].get("sleep", 0))
    return ok_runner(spec)


def crash_runner(spec):
    os._exit(17)


def flaky_runner(spec):
    """Crashes until the marker file exists (simulating a transient
    worker failure), then succeeds."""
    marker = spec["meta"]["marker"]
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("attempted")
        os._exit(9)
    return ok_runner(spec)


def raising_runner(spec):
    raise ValueError("deterministic analysis failure")


def router(spec):
    if spec["job_id"] == "boom":
        return crash_runner(spec)
    return ok_runner(spec)


def preload_runner(spec):
    """Reports whether the child came from a fork server that imported
    the checker: nothing this module imports loads ``repro.core``."""
    return _payload(verdict={"races": [], "oobs": [],
                             "preloaded": "repro.core" in sys.modules})


def lock_runner(spec):
    """Succeeds only if the child can take :data:`LOCK`: a child that
    inherited it held (a plain fork of the test process) cannot."""
    if not LOCK.acquire(timeout=2):
        raise RuntimeError("LOCK was held in the child")
    LOCK.release()
    return ok_runner(spec)


class TestOrderingAndCompletion:
    def test_results_in_submission_order(self):
        specs = [_spec(f"job{i}", sleep=0.05 * ((i * 3) % 4) / 10)
                 for i in range(8)]
        batch = Scheduler(max_workers=4, runner=sleepy_runner).run(specs)
        assert [r.job_id for r in batch.jobs] == \
            [s.job_id for s in specs]
        assert all(r.status == JobStatus.DONE for r in batch.jobs)

    def test_empty_batch(self):
        batch = Scheduler(runner=ok_runner).run([])
        assert batch.jobs == [] and batch.ok

    def test_inline_mode(self):
        batch = Scheduler(runner=ok_runner, isolate=False).run(
            [_spec("a"), _spec("b")])
        assert [r.status for r in batch.jobs] == ["done", "done"]

    def test_inline_mode_contains_exceptions(self):
        batch = Scheduler(runner=raising_runner, isolate=False).run(
            [_spec("a")])
        assert batch.jobs[0].status == JobStatus.ERROR
        assert "deterministic analysis failure" in batch.jobs[0].error


class TestTimeout:
    def test_slow_job_is_killed_not_the_batch(self):
        specs = [_spec("fast1"), _spec("stuck", sleep=30.0),
                 _spec("fast2")]
        start = time.monotonic()
        batch = Scheduler(max_workers=3, timeout_seconds=1.0,
                          runner=sleepy_runner).run(specs)
        assert time.monotonic() - start < 15.0
        by_id = {r.job_id: r for r in batch.jobs}
        assert by_id["stuck"].status == JobStatus.TIMEOUT
        assert by_id["fast1"].status == JobStatus.DONE
        assert by_id["fast2"].status == JobStatus.DONE

    def test_timeout_is_not_retried(self):
        batch = Scheduler(timeout_seconds=0.5, max_retries=3,
                          runner=sleepy_runner).run(
            [_spec("stuck", sleep=30.0)])
        assert batch.jobs[0].status == JobStatus.TIMEOUT
        assert batch.jobs[0].attempts == 1


class TestCrashIsolation:
    def test_crash_becomes_error_record(self):
        specs = [_spec("boom"), _spec("fine")]
        sched = Scheduler(max_workers=2, max_retries=1,
                          runner=crash_runner)
        sched2 = Scheduler(max_workers=2, runner=ok_runner)
        batch = sched.run(specs[:1])
        assert batch.jobs[0].status == JobStatus.ERROR
        assert "exit code" in batch.jobs[0].error
        assert not batch.ok
        # an unrelated batch on the same machine is unaffected
        assert sched2.run(specs[1:]).ok

    def test_crash_attempts_bounded(self):
        batch = Scheduler(max_retries=2, retry_backoff=0.01,
                          runner=crash_runner).run([_spec("boom")])
        assert batch.jobs[0].attempts == 3  # 1 try + 2 retries

    def test_crash_does_not_abort_siblings(self):
        specs = [_spec("a"), _spec("boom"), _spec("b")]
        batch = Scheduler(max_workers=3, max_retries=0,
                          runner=router).run(specs)
        statuses = [r.status for r in batch.jobs]
        assert statuses == [JobStatus.DONE, JobStatus.ERROR,
                            JobStatus.DONE]


class TestChildStart:
    def test_child_does_not_inherit_a_held_lock(self):
        # the scheduler's dispatcher threads and the daemon's workers
        # start children while other threads may hold locks; a child
        # must start with none of them held
        with LOCK:
            outcome, result = run_attempt(_spec("locked").to_dict(),
                                          lock_runner, timeout_seconds=20)
        assert outcome == "ok"
        assert result.status == JobStatus.DONE, result.error

    def test_server_preloads_without_pythonpath(self, tmp_path):
        # a process that put the package on sys.path by hand (not via
        # PYTHONPATH) still gets a fork server that imported the checker
        root = Path(__file__).resolve().parents[2]
        code = (
            f"import sys; sys.path[:0] = [{str(root / 'src')!r}, "
            f"{str(root)!r}]\n"
            "from repro.service.runner import run_attempt\n"
            "from tests.service.test_scheduler import preload_runner\n"
            "_, result = run_attempt({'job_id': 'p'}, preload_runner, 60)\n"
            "print(result.verdict['preloaded'])\n")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                             env=env, capture_output=True, text=True,
                             timeout=120)
        assert out.stdout.strip() == "True", out.stderr


class TestRetry:
    def test_transient_crash_retried_with_success(self, tmp_path):
        marker = str(tmp_path / "attempted.marker")
        batch = Scheduler(max_retries=2, retry_backoff=0.01,
                          runner=flaky_runner).run(
            [_spec("flaky", marker=marker)])
        assert batch.jobs[0].status == JobStatus.DONE
        assert batch.jobs[0].attempts == 2

    def test_retry_emits_telemetry(self, tmp_path):
        marker = str(tmp_path / "attempted.marker")
        telemetry = Telemetry()
        Scheduler(max_retries=2, retry_backoff=0.01, runner=flaky_runner,
                  telemetry=telemetry).run([_spec("flaky", marker=marker)])
        assert len(telemetry.select("job_retry")) == 1


class TestTelemetryEvents:
    def test_one_start_finish_pair_per_job(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        specs = [_spec(f"j{i}") for i in range(5)]
        batch = run_batch(specs, max_workers=2, trace_path=trace,
                          runner=ok_runner)
        telemetry = batch.telemetry
        assert len(telemetry.select("batch_started")) == 1
        assert len(telemetry.select("batch_finished")) == 1
        started = [e["job_id"] for e in telemetry.select("job_started")]
        finished = [e["job_id"] for e in telemetry.select("job_finished")]
        assert sorted(started) == sorted(s.job_id for s in specs)
        assert sorted(finished) == sorted(s.job_id for s in specs)
        # and the JSONL file mirrors the in-memory trail
        import json
        with open(trace) as fh:
            lines = [json.loads(line) for line in fh]
        assert len(lines) == len(telemetry.events)

    def test_error_jobs_still_get_finish_events(self):
        telemetry = Telemetry()
        Scheduler(max_retries=0, runner=crash_runner,
                  telemetry=telemetry).run([_spec("boom")])
        finished = telemetry.select("job_finished")
        assert len(finished) == 1
        assert finished[0]["status"] == JobStatus.ERROR
