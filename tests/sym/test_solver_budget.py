"""Solver-budget exhaustion must surface as a timeout, not silence.

When a race query burns through ``solver_conflict_budget`` conflicts
(the one conflict-budget setting, a :class:`LaunchConfig` field) the SAT
core answers UNKNOWN. Dropping that on the floor would report "no
races found" for a kernel the checker never actually decided — so the
checker must set ``timed_out`` and the report must carry the budget
warning, exactly like a wall-clock timeout.
"""
import pytest

from repro.core import GKLEEp, SESA, LaunchConfig
from repro.sym import RaceChecker

# the xor address defeats both the affine fast path (xor is not
# affine) and the interval pre-filter, so the disjointness query
# reaches the SAT core, where proving UNSAT needs conflicts
XOR_ADDR = """
__shared__ int s[64];
__global__ void k() {
  s[(threadIdx.x ^ 21) & 63] = threadIdx.x;
}
"""


def _check(budget):
    tool = SESA.from_source(XOR_ADDR)
    return tool.check(LaunchConfig(block_dim=64, check_oob=False,
                                   solver_conflict_budget=budget))


class TestSolverBudgetTimeout:
    def test_exhausted_budget_sets_timed_out(self):
        report = _check(budget=0)
        assert report.timed_out
        assert not report.races  # undecided, not "clean"

    def test_exhausted_budget_appends_warning(self):
        report = _check(budget=0)
        assert any("budget" in w for w in report.execution.warnings)

    def test_generous_budget_decides_cleanly(self):
        report = _check(budget=200_000)
        assert not report.timed_out
        assert report.execution.warnings == []
        assert not report.races  # xor with a constant is a bijection

    def test_checker_flag_directly(self):
        tool = SESA.from_source(XOR_ADDR)
        config = LaunchConfig(block_dim=64, check_oob=False)
        config.symbolic_inputs = tool.inferred_symbolic_inputs()
        from repro.sym import Executor
        result = Executor(tool.module, tool.kernel, config, mode="sesa",
                          sink_value_ids=tool.taint.sink_value_ids).run()
        checker = RaceChecker(result, solver_budget=0).check()
        assert checker.timed_out

    def test_json_report_carries_the_flag(self):
        payload = _check(budget=0).to_dict()
        assert payload["timed_out"] is True

    def test_gkleep_honours_the_budget(self):
        tool = GKLEEp.from_source(XOR_ADDR)
        assert tool.check(LaunchConfig(block_dim=64, check_oob=False,
                                       solver_conflict_budget=0)).timed_out
