"""Kernel-level warm-start tests: cross-process replay, damaged
artifacts, an unusable store, and the shared-session stats audit.

The cross-process tests use subprocesses deliberately: fresh-variable
counters are process-global, so two runs *in one process* produce
different havoc names (and thus different canonical goal digests) —
the disk artifacts are built for the run-the-tool-again workflow,
which always crosses a process boundary.
"""
import glob
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.core import SESA, LaunchConfig, check_source
from repro.kernels import ALL_KERNELS
from repro.smt import QueryMemo
from repro.sym.executor import Executor
from repro.sym.races import RaceChecker

SRC_DIR = os.path.dirname(os.path.dirname(
    os.path.abspath(repro.__file__)))

RACY = """
__shared__ int s[64];
__global__ void k() {
  s[threadIdx.x] = s[(threadIdx.x + 1) % blockDim.x];
}
"""

TWO_OBJECTS = """
__shared__ int a[64];
__shared__ int b[64];
__global__ void k() {
  a[threadIdx.x] = a[(threadIdx.x + 1) % blockDim.x];
  b[threadIdx.x] = b[(threadIdx.x + 3) % blockDim.x];
}
"""

# run one check in a child process; print signature + warm counters
CHILD = """
import json, sys
from repro.core import LaunchConfig, check_source
report = check_source(sys.argv[2], LaunchConfig(
    block_dim=(64, 1, 1), solver_cache_dir=sys.argv[1],
    static_tier=False))
cs = report.check_stats
print(json.dumps({
    "races": sorted((r.kind, r.obj_name, str(r.access1.loc),
                     str(r.access2.loc), r.benign) for r in report.races),
    "warm_starts": cs.warm_starts,
    "warm_memo_hits": cs.warm_memo_hits,
    "warm_pair_hits": cs.warm_pair_hits,
    "by_session": cs.solver.by_session,
    "warnings": report.execution.warnings,
}))
"""


def _child_run(cache_dir):
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, cache_dir, RACY],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _artifacts(cache_dir):
    return glob.glob(os.path.join(cache_dir, "*", "*.json"))


class TestCrossProcessWarmStart:
    def test_warm_rerun_replays_and_matches(self, tmp_path):
        cache = str(tmp_path / "cache")
        cold = _child_run(cache)
        assert _artifacts(cache), "cold run must persist artifacts"
        warm = _child_run(cache)
        assert warm["races"] == cold["races"]
        assert warm["warm_memo_hits"] + warm["warm_pair_hits"] >= 1
        # replay displaces live SAT work entirely (a fully replayed
        # run never even constructs a session, so warm_starts may be 0)
        assert warm["by_session"] < cold["by_session"]
        assert not warm["warnings"]


class TestDamagedArtifacts:
    def _cold(self, cache):
        # warm-start artifacts only exist on the solver path; keep the
        # static tier out so the cold run actually writes them
        report = check_source(RACY, LaunchConfig(
            block_dim=(64, 1, 1), solver_cache_dir=cache,
            static_tier=False))
        paths = _artifacts(cache)
        assert paths
        return report, paths

    @staticmethod
    def _signature(report):
        return sorted((r.kind, r.obj_name, r.benign)
                      for r in report.races)

    def test_corrupted_artifact_cold_starts_with_warning(self, tmp_path):
        cache = str(tmp_path / "cache")
        cold, paths = self._cold(cache)
        for path in paths:
            with open(path, "w") as fh:
                fh.write("{torn write")
        again = check_source(RACY, LaunchConfig(
            block_dim=(64, 1, 1), solver_cache_dir=cache,
            static_tier=False))
        assert self._signature(again) == self._signature(cold)
        assert any("cold-starting" in w
                   for w in again.execution.warnings)
        assert again.check_stats.warm_starts == 0


class TestUnusableStore:
    """A cache dir the store cannot open or write to costs only the warm
    start: the check still returns the no-cache verdict, with a warning
    on the execution record."""

    @staticmethod
    def _check(cache_dir):
        kernel = ALL_KERNELS["histo_prescan"]
        config = kernel.launch_config()
        config.solver_cache_dir = cache_dir
        config.static_tier = False
        report = SESA.from_source(kernel.source,
                                  kernel.kernel_name).check(config)
        signature = (sorted((r.kind, r.obj_name, str(r.access1.loc),
                             str(r.access2.loc), r.benign, r.unresolvable)
                            for r in report.races),
                     sorted((o.obj_name, str(o.access.loc))
                            for o in report.oobs),
                     report.timed_out)
        return signature, report.execution.warnings

    def test_cache_dir_that_is_a_file(self, tmp_path):
        reference, _ = self._check(None)
        path = tmp_path / "not-a-dir"
        path.write_text("")
        signature, warnings = self._check(str(path))
        assert signature == reference
        assert any("unusable" in w and "cold-starting" in w
                   for w in warnings)

    def test_failed_artifact_write(self, tmp_path):
        reference, _ = self._check(None)
        cache = tmp_path / "cache"
        cache.mkdir()
        for i in range(256):    # every fan-out slot is a regular file
            (cache / f"{i:02x}").write_text("")
        signature, warnings = self._check(str(cache))
        assert signature == reference
        assert any("not saved" in w for w in warnings)


class TestSharedSessionStatsAudit:
    """Sessions outlive a checker (the repair loop re-checks against a
    warm shared pool); per-checker solver counters must reflect only
    that checker's queries, not the session's lifetime totals."""

    def _execution(self):
        tool = SESA.from_source(TWO_OBJECTS, None)
        config = LaunchConfig(block_dim=(64, 1, 1))
        config.symbolic_inputs = tool.inferred_symbolic_inputs()
        executor = Executor(tool.module, tool.kernel, config,
                            mode="sesa",
                            sink_value_ids=tool.taint.sink_value_ids)
        return executor.run()

    def test_second_checker_not_double_counted(self):
        result = self._execution()
        sessions = {}
        c1 = RaceChecker(result, sessions=sessions, memo=QueryMemo())
        c1.check()
        c2 = RaceChecker(result, sessions=sessions, memo=QueryMemo())
        c2.check()
        # both objects share one structurally identical preamble, so
        # the pool holds one warm session the second pass reuses whole
        assert c1.stats.sessions_created >= 1
        assert c2.stats.sessions_created == 0
        assert c2.stats.preamble_reuse > 0
        for checker in (c1, c2):
            # every query dispatched exactly once: a double-merge of
            # session-lifetime stats would push by_session past queries
            for s in (checker.stats.solver, checker.stats.feasibility):
                assert s.answered() == s.queries
        # both checkers solved the same queries against the same pool
        assert c2.stats.solver.by_session <= c1.stats.solver.by_session
        assert len(c2.races) == len(c1.races)
