"""Swarm service-layer failure semantics.

The merge rule under fire: a shard that dies (SIGKILL mid-run), times
out, or never reports must drag the parent verdict to UNKNOWN — never
SAFE — with the dead shard identified and no leased daemon rows left
behind. Runners are module-level functions so the scheduler/worker
children can import them.
"""
import json
import os
import signal

import pytest

from repro.service import (
    JobSpec, SwarmPlanError, plan_shard_specs, run_swarm_batch,
    run_swarm_check, spec_from_kernel,
)
from repro.service.corpus import SUITES
from repro.service.runner import execute_job
from repro.service.swarm import merged_job_result, outcomes_from_results
from repro.sym.swarm import ShardOutcome


def _kernel(suite, name):
    for k in SUITES[suite]:
        if k.name == name:
            return k
    raise KeyError(f"{suite}/{name}")


def _safe_spec():
    # a clean kernel: all shards SAFE unless something kills one, so
    # any UNKNOWN in these tests is attributable to the failure
    return spec_from_kernel(_kernel("paper", "reduction"), suite="paper")


def kill_shard_two_runner(spec_dict):
    """SIGKILL the worker child that drew shard index 1."""
    shard = spec_dict.get("shard") or {}
    if shard.get("index") == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return execute_job(spec_dict)


# ---------------------------------------------------------------------
# SIGKILLed shard → parent UNKNOWN, never SAFE
# ---------------------------------------------------------------------

def test_sigkilled_shard_merges_unknown_scheduler(monkeypatch):
    monkeypatch.setattr("repro.service.swarm.execute_job",
                        kill_shard_two_runner)
    batch = run_swarm_batch([_safe_spec()], 4, max_workers=2,
                            max_retries=0)
    parent = batch.jobs[0]
    assert parent.status == "done"   # a merged verdict exists...
    verdict = parent.verdict
    swarm = verdict["swarm"]
    assert swarm["verdict"] == "unknown"        # ...but is not SAFE
    assert verdict["timed_out"]
    assert swarm["unresolved"] == ["s2of4"]     # dead shard identified
    assert any("s2of4" in w for w in verdict["warnings"])
    assert not verdict["races"]


def test_sigkilled_shard_merges_unknown_daemon(tmp_path):
    from repro.service.daemon import Daemon
    daemon = Daemon(db_path=str(tmp_path / "q.sqlite3"),
                    workers=1, poll_interval=0.05, max_attempts=1,
                    runner=kill_shard_two_runner,
                    timeout_seconds=120).start(serve_http=False)
    try:
        spec = _safe_spec()
        body = spec.to_dict()
        body["swarm"] = 4
        job = daemon.submit_request(body)[0]
        assert len(job["shards"]) >= 2
        assert daemon.wait_idle(timeout=300)
        parent = daemon.store.get(job["job_id"])
        assert parent.state == "done"
        swarm = parent.result["verdict"]["swarm"]
        assert swarm["verdict"] == "unknown"
        assert swarm["unresolved"] == ["s2of4"]
        dead = daemon.store.get(job["shards"][1])
        assert dead.state == "dead"
        # the lease protocol cleaned up after the killed child
        assert not daemon.store.counts().get("leased")
    finally:
        daemon.stop()


def test_all_shards_failed_is_error_not_safe():
    spec = _safe_spec()
    shard_specs, selectors, _info = plan_shard_specs(spec, 2)
    outcomes = outcomes_from_results(selectors, [None] * len(selectors))
    result = merged_job_result(spec, outcomes)
    assert result.status == "error"
    assert "failed" in result.error


def test_partial_verdicts_never_silently_safe():
    spec = _safe_spec()
    _shard_specs, selectors, _info = plan_shard_specs(spec, 2)
    safe_verdict = {"races": [], "oobs": [], "assertion_failures": [],
                    "warnings": [], "timed_out": False,
                    "check_stats": None, "elapsed_seconds": 0.0}
    outcomes = [
        ShardOutcome(shard=selectors[0], status="done",
                     verdict=dict(safe_verdict)),
        ShardOutcome(shard=selectors[1], status="timeout",
                     error="hard timeout after 1s"),
    ]
    result = merged_job_result(spec, outcomes)
    assert result.status == "done"
    assert result.verdict["swarm"]["verdict"] == "unknown"
    assert result.verdict["timed_out"]


# ---------------------------------------------------------------------
# planner guard rails
# ---------------------------------------------------------------------

def test_plan_rejects_unplannable_specs():
    spec = _safe_spec()
    gk = JobSpec.from_dict(dict(spec.to_dict(), engine="gkleep"))
    with pytest.raises(SwarmPlanError):
        plan_shard_specs(gk, 2)
    rep = JobSpec.from_dict(dict(spec.to_dict(), repair=True))
    with pytest.raises(SwarmPlanError):
        plan_shard_specs(rep, 2)
    shard_specs, _sels, _info = plan_shard_specs(spec, 2)
    with pytest.raises(SwarmPlanError):
        plan_shard_specs(shard_specs[0], 2)   # no re-sharding
    with pytest.raises(SwarmPlanError):
        plan_shard_specs(spec, 0)


def test_unplannable_spec_falls_back_to_monolithic():
    spec = _safe_spec()
    gk = JobSpec.from_dict(dict(spec.to_dict(), engine="gkleep"))
    result = run_swarm_check(gk, 4)
    assert result.status == "done"
    assert "swarm" not in (result.verdict or {})


# ---------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------

def test_check_swarm_cli(tmp_path, capsys):
    from repro.cli import main
    racy = tmp_path / "racy.cu"
    racy.write_text("""
__global__ void k(int *a, int *b) {
    __shared__ int s[64];
    int t = threadIdx.x;
    s[t] = a[t];
    b[t] = s[t + 1];
}
""")
    code = main(["check", str(racy), "--block", "64", "--swarm", "2",
                 "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["verdict"]["swarm"]["verdict"] == "racy"

    # portfolio mode is retired: argparse rejects the option
    with pytest.raises(SystemExit) as exc:
        main(["check", str(racy), "--swarm", "2", "--portfolio"])
    assert exc.value.code == 2
    assert main(["check", str(racy), "--swarm", "0"]) == 2
