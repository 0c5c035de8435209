"""SESA — the tool's front door.

Pipeline (Fig. 2 of the paper): MiniCUDA source → front-end (with device
function inlining) → mem2reg/CFG cleanup → static taint analysis →
parametric symbolic execution with flow combining → race / OOB checking →
report with concrete witnesses.

Typical use::

    from repro.core import SESA, LaunchConfig

    tool = SESA.from_source(KERNEL_SOURCE)
    report = tool.check(LaunchConfig(grid_dim=1, block_dim=64))
    print(report.summary())
"""
from __future__ import annotations

import time
from typing import Dict, List, Optional, Set

from .. import ir
from ..passes import analyze_taint, compile_module
from ..passes.taint import TaintReport
from ..smt import CheckResult, Solver
from ..static import run_static_tier, static_reason
from ..sym import (
    MAX_REPORTS, ExecutionResult, Executor, LaunchConfig, RaceChecker,
    analyze_resolvability,
)
from .report import AnalysisReport


class Engine:
    """One kernel of a compiled module: what every engine checks."""

    def __init__(self, module: ir.Module,
                 kernel_name: Optional[str] = None) -> None:
        self.module = module
        self.kernel = module.get_kernel(kernel_name)

    @classmethod
    def from_source(cls, source: str, kernel_name: Optional[str] = None):
        """A tool over a module of its own: callers may rewrite it."""
        return cls(compile_module(source), kernel_name)

    @classmethod
    def from_compiled(cls, compiled, kernel_name: Optional[str] = None):
        """A tool over a shared, read-only
        :class:`~repro.service.cache.CompiledModule`."""
        return cls(compiled.module, kernel_name)


class SESA(Engine):
    """Symbolic Executor with Static Analysis."""

    _taint: Optional[TaintReport] = None

    @classmethod
    def from_compiled(cls, compiled, kernel_name: Optional[str] = None):
        tool = super().from_compiled(compiled, kernel_name)
        tool._taint = compiled.taint(tool.kernel.name)
        return tool

    # ------------------------------------------------------------------

    @property
    def taint(self) -> TaintReport:
        """The §V taint analysis (computed once, cached)."""
        if self._taint is None:
            self._taint = analyze_taint(self.kernel)
        return self._taint

    def inferred_symbolic_inputs(self) -> Set[str]:
        """Inputs SESA decides to symbolise.

        Policy (matching the paper's Table I/III/IV counts): pointer
        inputs whose *contents* flow into access addresses are kept
        symbolic; dimension scalars are concretised even when they appear
        in address arithmetic (they are launch-configuration-like, and
        the verdict records the address flow as an advisory); inputs that
        only bound loops are concretised so the concolic search
        terminates (§III-C), which this rule already does: a loop bound
        that does not flow into an address is never kept.
        """
        return {name for name, v in self.taint.verdicts.items()
                if v.is_pointer and v.flows_into_address}

    # ------------------------------------------------------------------

    def execute(self, config: LaunchConfig) -> ExecutionResult:
        """The one parametric execution of a check: fills in the
        taint-inferred symbolic inputs when *config* leaves them unset,
        then runs the executor."""
        if config.symbolic_inputs is None:
            config.symbolic_inputs = self.inferred_symbolic_inputs()
        return Executor(self.module, self.kernel, config, mode="sesa",
                        sink_value_ids=self.taint.sink_value_ids).run()

    def check(self, config: Optional[LaunchConfig] = None,
              max_reports: int = MAX_REPORTS) -> AnalysisReport:
        """Full SESA analysis: taint-guided symbolisation, parametric
        execution with flow combining, race + OOB checking."""
        config = config or LaunchConfig()
        start = time.perf_counter()
        result = self.execute(config)
        checker = RaceChecker(result, solver_budget=config.conflict_budget,
                              max_reports=max_reports)
        # tier 0: on an enumerable record every pair is enumerated
        # first and only pairs outside the fragment reach the solver
        reason = static_reason(self.kernel, result) \
            if config.static_tier else None
        if config.static_tier and reason is None:
            run_static_tier(checker)
        else:
            checker.check()
            checker.stats.static_bail_reason = reason
        if checker.timed_out:
            result.timed_out = True
            result.warnings.append(
                "race checking diverged from the shard plan"
                if checker.plan_mismatch else
                "race checking hit the wall-clock budget")
        return AnalysisReport(
            kernel=self.kernel.name, mode="sesa",
            races=checker.races, oobs=checker.oobs,
            assertion_failures=checker.assertion_failures,
            taint=self.taint,
            resolvability=analyze_resolvability(result),
            execution=result, check_stats=checker.stats,
            elapsed_seconds=time.perf_counter() - start)

    def plan_check_groups(self, config: Optional[LaunchConfig] = None):
        """Enumerate the canonical pair groups without any solving.

        This is the swarm planner's front half: run the executor, walk
        the candidate-pair enumeration, and return
        ``(group_key, size)`` tuples in enumeration order (see
        :meth:`RaceChecker.plan_groups`). Costs execution +
        pair generation only — no SAT queries.
        """
        result = self.execute(config or LaunchConfig())
        return RaceChecker(result).plan_groups()

    def generate_tests(self, config: Optional[LaunchConfig] = None
                       ) -> List[Dict[str, int]]:
        """Concrete test vectors, one per final parametric flow.

        Concolic tools "can also generate concrete tests" (§I): each
        flow condition is solved for a representative thread coordinate
        and input assignment. Flow coverage — every group of threads
        that behaves distinctly gets one vector.
        """
        config = config or LaunchConfig()
        result = self.execute(config)
        vectors: List[Dict[str, int]] = []
        solver = Solver([*result.env.bounds(), *config.assumptions],
                        conflict_budget=50_000)
        for cond in result.final_flow_conds:
            if solver.check([cond]) == CheckResult.SAT:
                model = solver.model()
                vectors.append({k: v for k, v in
                                sorted(model.values.items())})
        return vectors


def check_source(source: str, config: Optional[LaunchConfig] = None,
                 kernel_name: Optional[str] = None,
                 **kwargs) -> AnalysisReport:
    """One-shot convenience: compile, analyse, and check a kernel."""
    return SESA.from_source(source, kernel_name).check(config, **kwargs)
