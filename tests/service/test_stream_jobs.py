"""``stream`` JobSpec kind through the service stack.

Covers spec validation, fingerprint stability for plain kernel jobs,
inline execution, the stream-wide settings every launch must honour,
corpus enumeration, batch scheduling, and daemon round-trips with
per-launch cache replay.
"""
import json

import pytest

from repro.core import SESA
from repro.service import (
    JobSpec, JobState, JobStatus, JobValidationError, builtin_jobs,
    execute_job, run_batch, stream_jobs,
)
from repro.service.daemon import Daemon
from repro.streams import StreamChecker, StreamProgram
from repro.streams.checker import launch_fingerprint
from repro.sym import LaunchConfig

SOURCE = """\
__global__ void produce(int *a) { a[threadIdx.x] = threadIdx.x; }
__global__ void consume(int *a, int *b) {
  b[threadIdx.x] = a[threadIdx.x] + 1;
}
"""

PROGRAM = {
    "name": "pipe",
    "buffers": {"a": 64, "b": 64},
    "steps": [
        {"launch": "produce", "args": {"a": "a"}},
        {"launch": "consume", "stream": 1,
         "args": {"a": "a", "b": "b"}},
    ],
}


def _spec(job_id="stream-job", program=PROGRAM, **overrides):
    return JobSpec(job_id=job_id, source=SOURCE, kind="stream",
                   stream_program=dict(program), **overrides)


class TestSpecValidation:
    def test_stream_spec_round_trips(self):
        spec = _spec()
        spec.validate()
        back = JobSpec.from_dict(spec.to_dict())
        assert back.kind == "stream"
        assert back.stream_program == spec.stream_program

    def test_kernel_spec_defaults_to_kernel_kind(self):
        spec = JobSpec(job_id="k", source="__global__ void k() {}")
        spec.validate()
        assert spec.kind == "kernel"

    def test_unknown_kind_rejected(self):
        spec = JobSpec(job_id="k", source="x", kind="graph")
        with pytest.raises(JobValidationError):
            spec.validate()

    def test_stream_without_program_rejected(self):
        spec = JobSpec(job_id="k", source=SOURCE, kind="stream")
        with pytest.raises(JobValidationError):
            spec.validate()

    def test_program_on_kernel_kind_rejected(self):
        spec = JobSpec(job_id="k", source=SOURCE,
                       stream_program=dict(PROGRAM))
        with pytest.raises(JobValidationError):
            spec.validate()

    def test_kernel_fingerprint_unchanged_by_new_fields(self):
        """Adding the ``kind`` field must not shift any existing cache
        key: plain kernel specs serialise exactly as before."""
        spec = JobSpec(job_id="k", source="__global__ void k() {}")
        fp = spec.config_fingerprint()
        assert "kind" not in fp
        assert "stream_program" not in fp
        # stream specs key on kind + the whole program
        sfp = _spec().config_fingerprint()
        assert sfp["kind"] == "stream"
        assert sfp["stream_program"]["steps"]

    def test_stream_fingerprint_differs_from_kernel(self):
        from repro.service import cache_key
        kernel = JobSpec(job_id="x", source=SOURCE)
        stream = _spec(job_id="x")
        assert cache_key(kernel) != cache_key(stream)


class TestExecuteJob:
    def test_racy_program_reports_inter_launch_races(self):
        payload = execute_job(_spec().to_dict())
        assert payload["status"] == JobStatus.DONE
        verdict = payload["verdict"]
        assert verdict["engine"] == "stream"
        assert verdict["stream"]["inter_launch_races"]
        assert payload["check_stats"]["launches"] == 2
        json.dumps(payload)

    def test_invalid_program_is_validation_error(self):
        bad = dict(PROGRAM, steps=[{"launch": "ghost", "args": {}}])
        payload = execute_job(_spec(program=bad).to_dict())
        assert payload["status"] == JobStatus.ERROR
        assert payload.get("validation_error") is True
        assert "ghost" in payload["error"]

    def test_uncompilable_source_is_validation_error(self):
        spec = JobSpec(job_id="bad-stream", kind="stream",
                       source="__global__ void produce(int *a) { a[0] = ; }",
                       stream_program=dict(PROGRAM))
        payload = execute_job(spec.to_dict())
        assert payload["status"] == JobStatus.ERROR
        assert payload.get("validation_error") is True
        assert payload["error"] == ("invalid job spec 'bad-stream': line 1: "
                                    "expected expression (at ';')")

    def test_solver_cache_dir_enables_launch_replay(self, tmp_path):
        d = _spec(config=LaunchConfig(
            solver_cache_dir=str(tmp_path / "c"))).to_dict()
        first = execute_job(d)
        second = execute_job(d)
        assert first["check_stats"]["launch_cache_hits"] == 0
        assert second["check_stats"]["launch_cache_hits"] == 2
        assert second["check_stats"]["pair_cache_hits"] == 1


#: race-free only under warp lock-step: every thread reads its
#: neighbour's slot after the whole warp of 32 has written it
LOCKSTEP_SOURCE = """\
__shared__ int s[32];
__global__ void shift(int *a) {
  s[threadIdx.x] = a[threadIdx.x];
  a[threadIdx.x] = s[(threadIdx.x + 1) % 32];
}
"""

LOCKSTEP_PROGRAM = {
    "name": "lockstep",
    "buffers": {"a": 32},
    "steps": [{"launch": "shift", "block": 32, "args": {"a": "a"}}],
}


def _lockstep_spec(**config):
    return JobSpec(job_id="lockstep", source=LOCKSTEP_SOURCE,
                   kind="stream", stream_program=dict(LOCKSTEP_PROGRAM),
                   config=LaunchConfig(**config))


#: one changed value per stream-wide setting a launch must honour
STREAM_WIDE = {
    "warp_size": 16,
    "warp_lockstep": True,
    "max_flows": 7,
    "max_steps": 1000,
    "max_loop_splits": 3,
    "check_oob": False,
    "pair_pruning": False,
    "static_tier": False,
    "solver_conflict_budget": 1234,
}


class TestStreamWideSettings:
    def test_lockstep_launch_is_race_free(self):
        lone = SESA.from_source(LOCKSTEP_SOURCE).check(
            LaunchConfig(block_dim=32, warp_lockstep=True))
        assert not lone.races
        payload = execute_job(_lockstep_spec(warp_lockstep=True).to_dict())
        assert payload["status"] == JobStatus.DONE, payload["error"]
        assert payload["verdict"]["races"] == []
        # ... and racy under the default warp-size-1 view
        payload = execute_job(_lockstep_spec().to_dict())
        assert payload["verdict"]["races"]

    @pytest.mark.parametrize("name", sorted(STREAM_WIDE))
    def test_setting_reaches_the_launch_check_and_key(self, name,
                                                      monkeypatch):
        seen = []
        real = SESA.check

        def spy(self, config=None, **kwargs):
            seen.append(getattr(config, name))
            return real(self, config, **kwargs)

        monkeypatch.setattr(SESA, "check", spy)
        program = StreamProgram.from_dict(dict(PROGRAM, source=SOURCE))
        value = STREAM_WIDE[name]
        checker = StreamChecker(program,
                                config=LaunchConfig(**{name: value}))
        checker.check()
        assert seen == [value] * len(program.launches())
        launch = program.launches()[0]
        plain = StreamChecker(program)
        assert launch_fingerprint(
            checker.module, launch, checker._config_for(launch)) != \
            launch_fingerprint(plain.module, launch,
                               plain._config_for(launch))

    @pytest.mark.parametrize("config", [
        {"symbolic_inputs": {"a"}}, {"scalar_values": {"n": 4}},
        {"array_sizes": {"a": 8}}, {"block_dim": 32}])
    def test_per_launch_setting_is_rejected(self, config):
        with pytest.raises(JobValidationError, match="per launch"):
            _spec(config=LaunchConfig(**config)).validate()


class TestCorpus:
    def test_stream_suite_enumerates_builtin_cases(self):
        specs = stream_jobs()
        assert len(specs) >= 8
        assert all(s.kind == "stream" for s in specs)
        assert all(s.stream_program["steps"] for s in specs)
        for spec in specs:
            spec.validate()

    def test_builtin_jobs_routes_streams_suite(self):
        assert [s.job_id for s in builtin_jobs("streams")] == \
            [s.job_id for s in stream_jobs()]
        # the kernels-only full corpus does not include stream jobs
        assert all(s.kind == "kernel" for s in builtin_jobs(None))

    def test_unknown_suite_error_mentions_streams(self):
        with pytest.raises(ValueError) as err:
            builtin_jobs("nope")
        assert "streams" in str(err.value)


class TestBatchAndDaemon:
    def test_run_batch_executes_stream_jobs(self, tmp_path):
        specs = [_spec("s/racy"),
                 _spec("s/safe", program=dict(
                     PROGRAM, steps=[PROGRAM["steps"][0],
                                     {"sync": "device"},
                                     PROGRAM["steps"][1]]))]
        batch = run_batch(specs, max_workers=2,
                          cache_dir=str(tmp_path / "cache"))
        results = {r.job_id: r for r in batch.jobs}
        assert results["s/racy"].has_issues
        assert not results["s/safe"].has_issues
        racy_stream = results["s/racy"].verdict["stream"]
        assert racy_stream["inter_launch_races"]

    def test_daemon_runs_stream_suite_and_replays_cache(self, tmp_path):
        daemon = Daemon(db_path=str(tmp_path / "q.sqlite3"),
                        cache_dir=str(tmp_path / "cache"),
                        workers=2, lease_ttl=30.0, poll_interval=0.02)
        daemon.start(serve_http=False)
        try:
            job_id = daemon.submit_spec(_spec())["job_id"]
            assert daemon.wait_idle(timeout=300.0)
            job = daemon.store.get(job_id)
            assert job.state == JobState.DONE, job.error
            verdict = job.result["verdict"]
            assert verdict["stream"]["inter_launch_races"]
            # identical re-submission hits the whole-job verdict cache
            again = daemon.submit_spec(_spec(job_id="stream-dup"))
            assert again["deduped"] or again["job_id"] != job_id
        finally:
            daemon.stop()
