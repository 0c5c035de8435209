"""Differential check: incremental sessions must not change verdicts.

The incremental solver path (blast-once preambles + assumption-based
SAT + query memo) is a pure performance layer: for every kernel the
set of races, OOBs and assertion failures — including kinds, objects,
source lines and benign flags — must be identical to the one-shot
reference (the ``one_shot_solving`` fixture: a fresh solver per query).
Witness *values* may legitimately differ (both are valid models of the
same formula), so they are excluded from the signature.
"""
import pytest

from repro.core import SESA, LaunchConfig
from repro.service.corpus import SUITES, spec_from_kernel
from repro.smt import QueryMemo
from repro.sym.executor import Executor
from repro.sym.races import RaceChecker

# a fast cross-section of the corpus: racy, clean, benign-WW, OOB,
# divergence-heavy and barrier-heavy kernels (each < ~1 s per mode)
FAST_KERNELS = [
    ("paper", "race_example"),
    ("paper", "reduction_racy"),
    ("paper", "bitonic_fig1"),
    ("sdk", "histogram64"),
    ("sdk", "scan_short"),
    ("reductions", "reduce4"),
    ("divergent", "stream_compaction"),
]


def _kernel(suite, name):
    for k in SUITES[suite]:
        if k.name == name:
            return k
    raise KeyError(f"{suite}/{name}")


def _run(suite, name):
    spec = spec_from_kernel(_kernel(suite, name), suite=suite)
    tool = SESA.from_source(spec.source, spec.kernel_name)
    config = spec.launch_config()
    # this suite studies the solver session path; the static tier would
    # resolve these kernels before a session is ever constructed
    config.static_tier = False
    return tool.check(config)


def _signature(report):
    races = sorted(
        (r.kind, r.obj_name, r.access1.loc, r.access2.loc,
         r.benign, r.unresolvable) for r in report.races)
    oobs = sorted((o.obj_name, o.access.loc) for o in report.oobs)
    asserts = sorted(a.loc for a in report.assertion_failures)
    return (races, oobs, asserts, report.timed_out)


@pytest.mark.parametrize("suite,name", FAST_KERNELS,
                         ids=[f"{s}/{n}" for s, n in FAST_KERNELS])
def test_identical_verdicts(suite, name, one_shot_solving):
    incremental = _run(suite, name)
    with one_shot_solving():
        one_shot = _run(suite, name)
    # the reference really bypassed the sessions
    assert one_shot.check_stats.sessions_created == 0
    assert _signature(incremental) == _signature(one_shot)


def test_incremental_actually_engages():
    # a racy kernel with several candidate pairs must hit the session
    # path, reuse preambles across pairs, and never fall back to the
    # one-shot SAT constructor per query
    report = _run("paper", "reduction_racy")
    cs = report.check_stats
    assert cs is not None
    assert cs.sessions_created >= 1
    assert cs.preamble_reuse >= 1
    assert cs.solver.by_session > 0
    assert cs.solver.sat_instances <= cs.solver.by_session


def test_witnesses_remain_valid_models(one_shot_solving):
    # equivalence of *verdicts* is the contract; each path's witnesses
    # must still satisfy its own reported race condition
    with one_shot_solving():
        one_shot = _run("paper", "race_example")
    for report in (one_shot, _run("paper", "race_example")):
        assert report.races
        for race in report.races:
            assert race.witness is not None


TWO_OBJECTS = """
__shared__ int a[64];
__shared__ int b[64];
__global__ void k() {
  a[threadIdx.x] = a[(threadIdx.x + 1) % blockDim.x];
  b[threadIdx.x] = b[(threadIdx.x + 3) % blockDim.x];
}
"""


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
