"""Comparator engines: GKLEEp and GKLEE as the paper describes them.

* :class:`GKLEEp` — parametric flows *without* flow combining and
  *without* taint-guided input selection: every symbolic branch forks a
  flow, and the user must name the symbolic inputs (defaults to "all of
  them", the cautious choice the paper says users make). This is the
  engine SESA beats in Tables I-III / Figs. 6-7.
* :class:`GKLEE` — explicit-thread execution: every thread of the block
  is enumerated concretely (thread IDs concrete, inputs symbolic). Exact
  but exponentially slower; usable only for tiny configurations — which
  is precisely the paper's motivation. Implemented by running the
  parametric engine once per concrete thread pair assignment domain and
  reusing the race checker with pinned thread variables; it serves as
  the ground-truth oracle for the soundness test-suite.
"""
from __future__ import annotations

import itertools
import time
from typing import Dict, List, Optional, Set, Tuple

from ..smt import mk_and, mk_bv, mk_bv_var, mk_eq
from ..sym import (
    MAX_REPORTS, Executor, LaunchConfig, RaceChecker, analyze_resolvability,
)
from .report import AnalysisReport
from .sesa import Engine


class GKLEEp(Engine):
    """Parametric engine without SESA's two innovations."""

    def default_symbolic_inputs(self) -> Set[str]:
        """A typical GKLEEp user symbolises every data input (the paper:
        'picking excessively burdens the symbolic analysis engine')."""
        return {arg.name for arg in self.kernel.args}

    def check(self, config: Optional[LaunchConfig] = None,
              max_reports: int = MAX_REPORTS) -> AnalysisReport:
        config = config or LaunchConfig()
        start = time.perf_counter()
        if config.symbolic_inputs is None:
            config.symbolic_inputs = self.default_symbolic_inputs()
        config.flow_combining = False
        executor = Executor(self.module, self.kernel, config,
                            mode="gkleep", sink_value_ids=None)
        result = executor.run()
        checker = RaceChecker(result, solver_budget=config.conflict_budget,
                              max_reports=max_reports).check()
        if checker.timed_out:
            result.timed_out = True
        return AnalysisReport(
            kernel=self.kernel.name, mode="gkleep",
            races=checker.races, oobs=checker.oobs,
            assertion_failures=checker.assertion_failures,
            taint=None, resolvability=analyze_resolvability(result),
            execution=result, check_stats=checker.stats,
            elapsed_seconds=time.perf_counter() - start)


class GKLEE(Engine):
    """Explicit-thread oracle for small configurations.

    Enumerates all ordered pairs of concrete threads and re-checks the
    parametric access sets with both thread identities pinned. For the
    resolvable kernels of §IV-B this agrees with SESA by the Proposition;
    the property-based soundness suite exercises exactly that.
    """

    def default_symbolic_inputs(self) -> Set[str]:
        """Every data input is symbolic, as under :class:`GKLEEp`."""
        return {arg.name for arg in self.kernel.args}

    def check(self, config: Optional[LaunchConfig] = None,
              solver_budget: Optional[int] = 100_000,
              max_reports: int = 4) -> AnalysisReport:
        config = config or LaunchConfig()
        start = time.perf_counter()
        if config.symbolic_inputs is None:
            config.symbolic_inputs = self.default_symbolic_inputs()
        config.flow_combining = False
        executor = Executor(self.module, self.kernel, config,
                            mode="gkleep", sink_value_ids=None)
        result = executor.run()

        races = []
        oobs = []
        stats = None
        # pin every ordered pair of distinct thread coordinates
        bx, by, bz = config.block_dim
        gx, gy, gz = config.grid_dim
        coords = [(t, b)
                  for t in itertools.product(range(bx), range(by), range(bz))
                  for b in itertools.product(range(gx), range(gy), range(gz))]
        # ordered pairs: with both threads pinned, the symmetry argument
        # of §IV-B no longer applies, so each orientation is checked
        for (t1, b1), (t2, b2) in itertools.permutations(coords, 2):
            checker = RaceChecker(result, solver_budget=solver_budget,
                                  max_reports=max_reports)
            pins = []
            for which, (t, b) in ((1, (t1, b1)), (2, (t2, b2))):
                for axis, i in (("x", 0), ("y", 1), ("z", 2)):
                    for prefix, vec in (("tid", t), ("bid", b)):
                        side = checker._side1 if which == 1 \
                            else checker._side2
                        var = side.vars.get(f"{prefix}.{axis}")
                        if var is not None:
                            pins.append(mk_eq(var, mk_bv(vec[i], 32)))
            checker.extra_assumptions = pins
            checker.check()
            races.extend(checker.races)
            oobs.extend(checker.oobs)
            stats = checker.stats
            if len(races) >= max_reports:
                break
        return AnalysisReport(
            kernel=self.kernel.name, mode="gklee",
            races=races[:max_reports], oobs=oobs[:max_reports],
            taint=None, resolvability=analyze_resolvability(result),
            execution=result, check_stats=stats,
            elapsed_seconds=time.perf_counter() - start)
