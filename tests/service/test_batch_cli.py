"""`repro batch` CLI smoke tests over the examples/ corpus."""
import json
import os
import subprocess
import sys

import pytest

from repro.cli import main

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..",
                        "examples", "kernels")


@pytest.fixture
def examples_dir():
    assert os.path.isdir(EXAMPLES), "examples/kernels/ must exist"
    return EXAMPLES


class TestBatchCli:
    def test_smoke_over_examples(self, examples_dir, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        code = main(["batch", examples_dir, "--jobs", "2",
                     "--cache-dir", cache, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        jobs = {j["job_id"]: j for j in payload["jobs"]}
        assert len(jobs) == 3
        assert all(j["status"] == "done" for j in jobs.values())
        racy = jobs["neighbor_race.cu"]
        assert any(r["kind"] == "RW" for r in racy["verdict"]["races"])
        assert jobs["saxpy.cu"]["verdict"]["races"] == []
        assert payload["summary"]["cache_misses"] == 3

        # second run: all verdicts served from the cache, byte-identical
        code = main(["batch", examples_dir, "--jobs", "2",
                     "--cache-dir", cache, "--json"])
        assert code == 0
        payload2 = json.loads(capsys.readouterr().out)
        jobs2 = {j["job_id"]: j for j in payload2["jobs"]}
        assert all(j["status"] == "cached" for j in jobs2.values())
        assert payload2["summary"]["cache_hits"] == 3
        for job_id, job in jobs.items():
            assert json.dumps(job["verdict"], sort_keys=True) == \
                json.dumps(jobs2[job_id]["verdict"], sort_keys=True)

        # telemetry invariant: one started/finished pair per job
        with open(payload2["trace"]) as fh:
            events = [json.loads(line) for line in fh]
        started = [e["job_id"] for e in events
                   if e["event"] == "job_started"]
        finished = [e["job_id"] for e in events
                    if e["event"] == "job_finished"]
        assert sorted(started) == sorted(jobs) == sorted(finished)

    def test_no_cache_flag(self, examples_dir, tmp_path, capsys):
        code = main(["batch", examples_dir, "--jobs", "2", "--no-cache",
                     "--trace", str(tmp_path / "t.jsonl"), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(j["status"] == "done" for j in payload["jobs"])
        assert payload["summary"]["cache_hits"] == 0

    def test_single_file_and_limit(self, examples_dir, tmp_path, capsys):
        target = os.path.join(examples_dir, "saxpy.cu")
        code = main(["batch", target, "--jobs", "1", "--no-cache",
                     "--trace", str(tmp_path / "t.jsonl"),
                     "--limit", "1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["jobs"]) == 1

    def test_builtin_suite_target(self, tmp_path, capsys):
        code = main(["batch", "builtin:paper", "--jobs", "2",
                     "--limit", "2", "--no-cache",
                     "--trace", str(tmp_path / "t.jsonl"), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [j["status"] for j in payload["jobs"]] == ["done", "done"]

    def test_limit_zero_runs_no_jobs(self, tmp_path, capsys):
        # regression: used to crash with "max() arg is an empty
        # sequence" while rendering an empty batch
        code = main(["batch", "builtin:paper", "--limit", "0",
                     "--no-cache",
                     "--trace", str(tmp_path / "t.jsonl"), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs"] == []

    def test_limit_zero_human_output(self, tmp_path, capsys):
        code = main(["batch", "builtin:paper", "--limit", "0",
                     "--no-cache",
                     "--trace", str(tmp_path / "t.jsonl")])
        assert code == 0
        assert "jobs: 0" in capsys.readouterr().out

    def test_negative_limit_exits_2(self, capsys):
        # regression: a negative --limit used to silently slice jobs
        # from the *end* of the corpus instead of being rejected
        assert main(["batch", "builtin:paper", "--limit", "-1"]) == 2
        assert "--limit" in capsys.readouterr().err

    def test_bad_target_exits_2(self, capsys):
        assert main(["batch", "/no/such/dir"]) == 2
        assert "corpus target" in capsys.readouterr().err

    def test_unknown_suite_exits_2(self, capsys):
        assert main(["batch", "builtin:nope"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_cache_dir_that_is_a_file_exits_2(self, examples_dir, tmp_path,
                                               capsys):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        assert main(["batch", examples_dir, "--cache-dir",
                     str(blocker)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ") and "not-a-dir" in err
        assert "Traceback" not in err

    def test_uncompilable_source_is_a_one_line_input_error(
            self, tmp_path, capsys):
        bad = tmp_path / "bad.cu"
        bad.write_text("__global__ void k(float *a) { a[threadIdx.x] = ; }\n")
        code = main(["batch", str(bad), "--no-cache", "--json",
                     "--trace", str(tmp_path / "t.jsonl")])
        assert code == 1
        (job,) = json.loads(capsys.readouterr().out)["jobs"]
        assert job["status"] == "error"
        assert job["validation_error"] is True
        assert job["error"] == (f"invalid job spec {job['job_id']!r}: "
                                f"line 1: expected expression (at ';')")


class TestCacheKeyCrossProcess:
    def test_keys_stable_across_interpreter_runs(self, examples_dir):
        """The content-addressed key must not depend on interpreter
        state (hash randomisation, object addresses) — regression test
        for nondeterministic phi numbering in mem2reg."""
        # matrixMul has several loop counters → several promoted phis,
        # the shape that exposed the ordering bug
        prog = (
            "from repro.kernels import ALL_KERNELS;"
            "from repro.service import cache_key, spec_from_kernel;"
            "print(cache_key(spec_from_kernel(ALL_KERNELS['matrixMul'])))"
        )
        keys = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.join(os.path.dirname(__file__), "..", "..",
                              "src")] +
                env.get("PYTHONPATH", "").split(os.pathsep))
            out = subprocess.run(
                [sys.executable, "-c", prog], env=env, check=True,
                capture_output=True, text=True)
            keys.add(out.stdout.strip())
        assert len(keys) == 1
