"""Differential gate: swarm verdicts must equal monolithic verdicts.

Swarm mode is a pure execution-strategy change — for every kernel the
merged shard verdict must match the sequential checker's verdict at
every shard count, through both backends (the process-isolated
scheduler and the daemon queue), and the merged witnesses must still
be concretely valid models. The signatures compare the deduplicated
verdict *sets* (kind, object, source locations, benign/unresolvable
flags): shards re-solve queries under different learned-clause state,
so witness coordinates may legitimately differ while the verdict set
may not.
"""
import json
import os

import pytest

from repro.core import SESA
from repro.service import execute_job, run_swarm_check, spec_from_kernel
from repro.service.corpus import SUITES
from repro.smt import evaluate
from repro.smt.subst import EvaluationError

# one representative per behaviour class across the three gated
# suites: racy, clean/safe, benign-WW, many distinct races (reduce4
# reports 20), loop-unrolled and divergence-heavy
KERNELS = [
    ("paper", "race_example"),
    ("paper", "reduction_racy"),
    ("paper", "bitonic_fig1"),
    ("reductions", "reduce0"),
    ("reductions", "reduce4"),
    ("divergent", "stream_compaction"),
]
SHARD_COUNTS = (1, 2, 4, 8)


def _kernel(suite, name):
    for k in SUITES[suite]:
        if k.name == name:
            return k
    raise KeyError(f"{suite}/{name}")


def _spec(suite, name):
    return spec_from_kernel(_kernel(suite, name), suite=suite)


def _signature(verdict):
    """Deduplicated verdict set from an AnalysisReport-shaped dict,
    built from the JSON-stable ``locs`` fields so in-process, pickled
    and JSON-round-tripped verdicts compare equal."""
    verdict = json.loads(json.dumps(verdict))
    races = sorted(set(
        (r["kind"], r["object"],
         json.dumps(r["locs"]), bool(r["benign"]),
         bool(r["unresolvable"]))
        for r in verdict.get("races", [])))
    oobs = sorted(set((o["object"], json.dumps(o["loc"]))
                      for o in verdict.get("oobs", [])))
    asserts = sorted(set(json.dumps(a["loc"])
                         for a in verdict.get("assertion_failures", [])))
    return (races, oobs, asserts, bool(verdict.get("timed_out")))


@pytest.fixture(scope="module")
def mono_verdicts():
    """Monolithic verdicts, computed once per kernel."""
    out = {}
    for suite, name in KERNELS:
        payload = execute_job(_spec(suite, name).to_dict())
        assert payload["status"] == "done", payload.get("error")
        out[(suite, name)] = payload["verdict"]
    return out


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("suite,name", KERNELS,
                         ids=[f"{s}/{n}" for s, n in KERNELS])
def test_scheduler_swarm_matches_monolithic(suite, name, shards,
                                            mono_verdicts):
    spec = _spec(suite, name)
    result = run_swarm_check(spec, shards, max_workers=2)
    assert result.status == "done", result.error
    verdict = result.verdict
    assert verdict["swarm"]["shards"] >= 1
    assert not verdict["timed_out"], verdict["warnings"]
    assert verdict["swarm"]["unresolved"] == []
    assert _signature(verdict) == _signature(mono_verdicts[(suite, name)])
    # the merged verdict label agrees with the monolithic content
    mono_racy = bool(mono_verdicts[(suite, name)]["races"])
    assert (verdict["swarm"]["verdict"] == "racy") == mono_racy


def test_swarm_race_lists_replay_monolithic_order(mono_verdicts):
    """Beyond set equality: on the kernel with the most distinct races
    the merged race list must reproduce the monolithic list
    ordinal-for-ordinal (the merge replays the one-report-per-distinct-
    race rule over the shard races in ordinal order)."""
    spec = _spec("reductions", "reduce4")
    mono = mono_verdicts[("reductions", "reduce4")]
    for shards in (2, 8):
        result = run_swarm_check(spec, shards, max_workers=2)
        assert result.status == "done", result.error
        got = [(r["ordinal"], r["kind"], r["object"])
               for r in result.verdict["races"]]
        want = [(r["ordinal"], r["kind"], r["object"])
                for r in mono["races"]]
        assert got == want


def test_merged_witnesses_are_valid_models():
    """Re-replay: every witness in a merged racy verdict must satisfy
    the access conditions and collide the addresses of the pair at its
    ordinal (looked up in an in-process monolithic run, which carries
    the actual symbolic access expressions)."""
    spec = _spec("paper", "reduction_racy")
    result = run_swarm_check(spec, 4, max_workers=2)
    assert result.status == "done", result.error
    verdict = result.verdict
    assert verdict["swarm"]["verdict"] == "racy"

    tool = SESA.from_source(spec.source, spec.kernel_name)
    report = tool.check(spec.launch_config())
    by_ordinal = {r.ordinal: r for r in report.races}

    def env(w, which):
        coords = w["thread1"] if which == 1 else w["thread2"]
        blocks = w["block1"] if which == 1 else w["block2"]
        out = {"tid.x": coords[0], "tid.y": coords[1],
               "tid.z": coords[2], "bid.x": blocks[0],
               "bid.y": blocks[1], "bid.z": blocks[2]}
        out.update(w["inputs"])
        return out

    replayed = 0
    for race in verdict["races"]:
        mono = by_ordinal.get(race["ordinal"])
        assert mono is not None, \
            f"swarm reported ordinal {race['ordinal']} unknown to " \
            f"the monolithic run"
        w = race["witness_data"]
        assert w is not None and w["thread2"] is not None
        try:
            cond1 = evaluate(mono.access1.cond, env(w, 1))
            cond2 = evaluate(mono.access2.cond, env(w, 2))
            addr1 = evaluate(mono.access1.offset, env(w, 1))
            addr2 = evaluate(mono.access2.offset, env(w, 2))
        except EvaluationError:
            continue   # havocked parts: nothing to validate
        assert cond1 and cond2, race
        lo1, hi1 = addr1, addr1 + mono.access1.size
        lo2, hi2 = addr2, addr2 + mono.access2.size
        assert lo1 < hi2 and lo2 < hi1, \
            f"merged witness addresses disjoint at ordinal " \
            f"{race['ordinal']}"
        replayed += 1
    assert replayed >= 1


def test_daemon_swarm_matches_monolithic(tmp_path, mono_verdicts):
    """Daemon backend: server-side shard expansion over the queue must
    produce the same verdicts as the monolithic path."""
    from repro.service.daemon import Daemon
    daemon = Daemon(db_path=str(tmp_path / "q.sqlite3"),
                    cache_dir=str(tmp_path / "cache"),
                    workers=2, poll_interval=0.05,
                    timeout_seconds=300).start(serve_http=False)
    try:
        jobs = {}
        for suite, name in [("paper", "reduction_racy"),
                            ("paper", "bitonic_fig1")]:
            spec = _spec(suite, name)
            body = spec.to_dict()
            body["swarm"] = 4
            job = daemon.submit_request(body)[0]
            assert job.get("shards"), job
            jobs[(suite, name)] = job
        assert daemon.wait_idle(timeout=600)
        for key, job in jobs.items():
            row = daemon.store.get(job["job_id"])
            assert row is not None and row.state == "done", \
                (key, row and row.state, row and row.error)
            verdict = row.result["verdict"]
            assert _signature(verdict) == _signature(mono_verdicts[key])
            assert verdict["swarm"]["unresolved"] == []
        assert not daemon.store.counts().get("leased")
    finally:
        daemon.stop()
