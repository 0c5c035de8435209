"""Tier-0 static walk: the kernel IR explored as one single flow.

The static tier only owns a kernel when it can reproduce the parametric
engine's execution record *exactly* and then decide every race/OOB query
without a solver. The first half of that bargain lives here: a
:class:`StaticWalker` is the symbolic executor constrained to a single
flow — any structural divergence (a genuine flow split, which is where
the flow tree, per-flow guards and merge machinery earn their keep)
raises :class:`StaticBail` instead of splitting, and the kernel
escalates to the full engine untouched. Kernels that survive the walk
produce an :class:`~repro.sym.executor.ExecutionResult` identical to
the one the engine itself would build, because it is built by the same
code: straight-line execution, constant-folded loop bounds, and
mergeable (barrier-free) diamonds never call :meth:`_split_flow` at
all.

Atomics and assertions also bail: atomics need the engine's
happens-before treatment, and assertion checking is a solver query by
construction. Both are detected by a cheap IR pre-scan before any
execution work is spent.
"""
from __future__ import annotations

from typing import Optional, Set

from .. import ir
from ..smt import TRUE, Term
from ..sym.config import LaunchConfig
from ..sym.executor import ExecutionError, ExecutionResult, Executor


class StaticBail(Exception):
    """The static tier cannot own this kernel — escalate.

    Raised for *structural* reasons (divergence, atomics, assertions,
    budgets); the adjudicator's value-level reasons use
    :class:`repro.static.checker.StaticUnknown`.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def prescreen(kernel: ir.Function, config: LaunchConfig) -> Optional[str]:
    """Walk-free reasons the static tier must escalate, or ``None``.

    Cheap single pass over the instruction stream plus a few config
    checks; anything caught here bails before an executor is built.
    """
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
        # portfolio variants study solver behaviour under tiny budgets;
        # a solver-less verdict would defeat the comparison
        return "solver budget override"
    for block in kernel.blocks:
        for instr in block.instrs:
            if isinstance(instr, (ir.AtomicRMW, ir.AtomicCAS)):
                return "atomic"
            if isinstance(instr, ir.Call) and instr.callee == "__assert":
                return "assertion"
    return None


class StaticWalker(Executor):
    """The parametric executor restricted to one flow.

    Overrides exactly the three points where the engine leaves
    single-flow execution; everything else (memory model, access
    recording, summarization, barrier intervals, mergeable diamonds)
    runs unchanged, which is what guarantees a resolved kernel's
    execution record matches the engine's bit for bit.
    """

    def _split_flow(self, flow, block, br, cond, idx):
        # covers both the genuine parametric split and the
        # bounded-unrolling forced exit (a symbolic loop condition
        # either way)
        raise StaticBail("divergent flow split")

    def _exec_atomic(self, flow, instr, guard):
        raise StaticBail("atomic")  # prescreen catches this first

    def _exec_call(self, flow, instr, guard=TRUE):
        if instr.callee == "__assert":
            raise StaticBail("assertion")  # prescreen catches this first
        super()._exec_call(flow, instr, guard)


def static_walk(module: ir.Module, kernel: ir.Function,
                config: LaunchConfig,
                sink_value_ids: Optional[Set[int]] = None
                ) -> ExecutionResult:
    """Run the single-flow walk, or raise :class:`StaticBail`.

    Post-conditions on the returned record: exactly one flow, no
    timeout, no execution errors — so the engine, run on the same
    kernel, would produce the identical record.
    """
    reason = prescreen(kernel, config)
    if reason is not None:
        raise StaticBail(reason)
    walker = StaticWalker(module, kernel, config, mode="sesa",
                          sink_value_ids=sink_value_ids)
    try:
        result = walker.run()
    except ExecutionError as exc:
        # deterministic: the engine would raise the same error; let it
        # produce the failure (and its message) on the escalation path
        raise StaticBail(f"execution error: {exc}") from None
    if result.timed_out:
        raise StaticBail("execution budget")
    if result.errors:
        # barrier divergence is a verdict-bearing warning the engine
        # attaches during the run; keep that path on the engine
        raise StaticBail("barrier divergence")
    return result
