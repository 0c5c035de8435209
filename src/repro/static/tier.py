"""Tier 0 of the tiered checker: enumeration as a per-pair step.

The engine executes a kernel once. When the execution record is
*enumerable* (:func:`static_reason` finds nothing against it),
:func:`run_static_tier` runs the record's one :class:`RaceChecker` with
enumeration as the first discharge step: each pair (and OOB access)
that the memo, replay and affine steps leave open is decided by
exhaustive evaluation over the bounded thread box (see
:mod:`.checker`), and only a pair that leaves the decidable fragment
goes to the solver. A kernel whose every pair enumerates is decided
with ``queries == 0`` — tier ``"static"``.
"""
from __future__ import annotations

from typing import Optional

from .. import ir
from ..sym.config import LaunchConfig
from ..sym.executor import ExecutionResult
from ..sym.races import RaceChecker
from .checker import StaticAdjudicator


def prescreen(kernel: ir.Function, config: LaunchConfig) -> Optional[str]:
    """Reasons the launch is not enumerable, read off the IR and the
    config alone, or ``None``."""
    if config.shard is not None:
        # a swarm shard's verdict covers one ordinal partition of the
        # solver-path enumeration; the static tier has no shard notion
        return "swarm shard"
    if config.assumptions:
        return "user assumptions"
    if config.warp_lockstep and config.warp_size > 1:
        # intra-warp races need the warp-aware solving mode
        return "warp lockstep"
    if config.time_budget_seconds is not None:
        # under a wall-clock budget the engine may legitimately time
        # out with a partial report; the tier must not out-run it
        return "time budget"
    if config.solver_conflict_budget is not None:
        # a caller-set budget asks for solver behaviour; a
        # solver-less verdict would not honour it
        return "solver budget override"
    for block in kernel.blocks:
        for instr in block.instrs:
            if isinstance(instr, (ir.AtomicRMW, ir.AtomicCAS)):
                # atomics need the engine's happens-before treatment
                return "atomic"
            if isinstance(instr, ir.Call) and instr.callee == "__assert":
                # assertion checking is a solver query by construction
                return "assertion"
    return None


def static_reason(kernel: ir.Function,
                  result: ExecutionResult) -> Optional[str]:
    """Why the execution record is not enumerable, or ``None``.

    On top of :func:`prescreen`, the record must be one flow: any
    ``_split_flow`` (a parametric split or a forced loop exit) puts
    per-flow guards and merges in play, which are the engine's.
    """
    reason = prescreen(kernel, result.config)
    if reason is None and result.num_splits:
        reason = "divergent flow split"
    if reason is None and result.timed_out:
        reason = "execution budget"
    if reason is None and result.errors:
        # barrier divergence is a verdict-bearing warning
        reason = "barrier divergence"
    return reason


def run_static_tier(checker: RaceChecker) -> RaceChecker:
    """Check one enumerable record, enumeration first per pair.

    Sets the tier bookkeeping on ``checker.stats``: tier ``"static"``
    when no pair fell back to the solver, otherwise the first
    fallback's reason in ``static_bail_reason``.
    """
    adj = StaticAdjudicator(checker)
    checker.check(adj.discharge_pair, adj.discharge_oob)
    stats = checker.stats
    # enumeration ran inside the pair and OOB steps, which check()
    # times as solve_seconds; carve it out so the phases are disjoint
    stats.solve_seconds -= stats.static_seconds
    if adj.fallback_reason is None and stats.queries == 0:
        stats.tier = "static"
        stats.static_resolved = 1
    else:
        stats.static_bail_reason = adj.fallback_reason
    return checker
