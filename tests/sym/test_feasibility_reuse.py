"""Reusing one solver for a run must not change what the executor explores.

The executor answers every branch-feasibility check on one
:class:`~repro.smt.Solver` per run: its SAT layer blasts the preamble
once and keeps one incremental instance (and its learned clauses) for
all checks, and the range-chain layer decides loop-exit tests before
they reach it. Neither may change a verdict, so every flow, split and
access set must be the same as on a cold run. Each kernel runs twice in
both executor modes: as shipped, and with the range-chain layer
switched off, the SAT instance rebuilt after every query and no learned
clauses carried across a rebuild, so every check the simplifier and the
interval layer leave open reaches a fresh SAT instance over the preamble
snapshot.
"""
import functools
import itertools

import pytest

from repro.core import SESA
from repro.kernels import ALL_KERNELS
from repro.kernels.divergent import DIVERGENT_KERNELS
from repro.smt import Solver
from repro.smt import session as session_mod
from repro.smt import solver as solver_mod
from repro.sym import access, executor, memory, state
from repro.sym.executor import Executor
from repro.sym.races import RaceChecker

# histo_final's grid-stride loop at 12 iterations instead of ~95: the
# same loop shape (one loop-exit test per refinement), and global_histo
# still holds half of what the loop reads, as in Fig. 9
HISTO_N = 21504 * 48
HISTO_OVERRIDES = dict(
    scalar_values={"size_low_histo": HISTO_N},
    array_sizes={"global_histo": HISTO_N // 8,
                 "global_subhisto": HISTO_N // 4,
                 "final_histo": HISTO_N // 4})
#: flow budget for split (gkleep) execution: budget exhaustion is
#: counted in flows, so a truncated run is still deterministic
GKLEEP_FLOWS = 16

CASES = [("histo_final", ALL_KERNELS["histo_final"], HISTO_OVERRIDES)] + \
    [(k.name, k, {}) for k in DIVERGENT_KERNELS]


def _execute(kernel, overrides, mode, monkeypatch):
    # restart the fresh-name counters so both runs mint the same flow
    # ids and havoc/summary variables, hence identical interned terms
    monkeypatch.setattr(state, "_flow_counter", itertools.count())
    monkeypatch.setattr(access, "_access_counter", itertools.count())
    monkeypatch.setattr(access, "_summary_counter", itertools.count())
    monkeypatch.setattr(memory, "_havoc_counter", itertools.count())
    tool = SESA.from_source(kernel.source, kernel.kernel_name)
    config = kernel.launch_config(**overrides)
    config.symbolic_inputs = tool.inferred_symbolic_inputs()
    sinks = tool.taint.sink_value_ids
    if mode == "gkleep":
        config.flow_combining = False
        config.max_flows = config.max_loop_splits = GKLEEP_FLOWS
        sinks = None
    return Executor(tool.module, tool.kernel, config, mode=mode,
                    sink_value_ids=sinks).run()


def _access_sets(result):
    return [[(a.kind, a.obj.name, a.offset, a.size, a.cond, a.flow_id,
              a.bi_index, a.loc, a.value,
              a.summary and (a.summary.index_var, a.summary.count,
                             a.summary.stride))
             for a in bi_set]
            for bi_set in result.bi_access_sets]


def _dispatched_once(stats):
    return stats.answered() == stats.queries


@pytest.mark.parametrize("mode", ["sesa", "gkleep"])
@pytest.mark.parametrize("name,kernel,overrides", CASES,
                         ids=[c[0] for c in CASES])
def test_reuse_keeps_exploration_identical(name, kernel, overrides, mode,
                                           monkeypatch):
    shipped = _execute(kernel, overrides, mode, monkeypatch)
    monkeypatch.setattr(solver_mod, "decide_chain",
                        lambda chain, analysis: None)
    monkeypatch.setattr(executor, "Solver",
                        functools.partial(Solver, max_live_queries=1))
    monkeypatch.setattr(session_mod, "_MAX_RETAINED", 0)
    cold = _execute(kernel, overrides, mode, monkeypatch)

    assert shipped.max_flows == cold.max_flows
    assert shipped.num_splits == cold.num_splits
    assert shipped.timed_out == cold.timed_out
    assert shipped.flow_events == cold.flow_events
    assert shipped.final_flow_conds == cold.final_flow_conds
    assert _access_sets(shipped) == _access_sets(cold)

    feas, cold_feas = shipped.feasibility, cold.feasibility
    assert feas.queries == cold_feas.queries
    assert cold_feas.by_range == 0
    # one SAT instance per cold SAT query
    assert cold_feas.sat_instances == cold_feas.by_session
    # the range layer only takes over checks that would otherwise reach
    # the SAT core
    assert feas.by_session + feas.by_range == cold_feas.by_session
    assert feas.sat_instances <= 1
    checker_feas = RaceChecker(shipped).stats.feasibility
    assert checker_feas == feas
    assert _dispatched_once(feas) and _dispatched_once(checker_feas)
    if name == "histo_final":
        # the interval and range layers decide every loop-exit test
        assert feas.sat_instances == feas.by_session == 0
        assert cold_feas.by_session > 0
