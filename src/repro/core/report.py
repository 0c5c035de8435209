"""Analysis report: the user-facing result of one SESA run."""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from ..passes.taint import TaintReport
from ..sym.executor import ExecutionResult
from ..sym.races import AssertionReport, CheckStats, OOBReport, RaceReport
from ..sym.resolvable import ResolvabilityReport


def _loc_json(loc) -> Optional[List[int]]:
    """``[line, col]`` for a SourceLoc (or plain line int); None if unknown."""
    if loc is None:
        return None
    return [int(loc), getattr(loc, "col", 0)]


def _witness_json(witness) -> Optional[dict]:
    """Structured witness coordinates (machine-replayable, unlike the
    human-readable ``witness`` string)."""
    if witness is None:
        return None
    return {
        "thread1": list(witness.thread1), "block1": list(witness.block1),
        "thread2": (list(witness.thread2)
                    if witness.thread2 is not None else None),
        "block2": (list(witness.block2)
                   if witness.block2 is not None else None),
        "inputs": dict(witness.inputs),
    }


@dataclass
class AnalysisReport:
    """Everything one analysis run produced."""

    kernel: str
    mode: str
    races: List[RaceReport] = field(default_factory=list)
    oobs: List[OOBReport] = field(default_factory=list)
    assertion_failures: List[AssertionReport] = field(default_factory=list)
    taint: Optional[TaintReport] = None
    resolvability: Optional[ResolvabilityReport] = None
    execution: Optional[ExecutionResult] = None
    check_stats: Optional[CheckStats] = None
    elapsed_seconds: float = 0.0
    #: result of an automated-repair run, when one was requested
    #: (duck-typed to avoid a core -> repair import cycle; anything
    #: with ``to_dict()`` and ``summary()`` works)
    repair: Optional[object] = None

    def to_dict(self) -> dict:
        """JSON-ready summary (used by ``python -m repro check --json``)."""
        return {
            "kernel": self.kernel,
            "engine": self.mode,
            "races": [
                {"kind": r.kind, "object": r.obj_name, "benign": r.benign,
                 "unresolvable": r.unresolvable,
                 "lines": [r.access1.loc, r.access2.loc],
                 "locs": [_loc_json(r.access1.loc), _loc_json(r.access2.loc)],
                 "ordinal": r.ordinal,
                 "witness": str(r.witness),
                 "witness_data": _witness_json(r.witness)}
                for r in self.races],
            "oobs": [
                {"object": o.obj_name, "line": o.access.loc,
                 "loc": _loc_json(o.access.loc),
                 "witness": str(o.witness)} for o in self.oobs],
            "assertion_failures": [
                {"line": a.loc, "loc": _loc_json(a.loc),
                 "witness": str(a.witness)}
                for a in self.assertion_failures],
            "flows": self.max_flows,
            "resolvable": self.resolvable,
            "timed_out": self.timed_out,
            "warnings": (list(self.execution.warnings)
                         if self.execution else []),
            "symbolic_inputs": (sorted(self.taint.symbolic_inputs)
                                if self.taint else None),
            "check_stats": (asdict(self.check_stats)
                            if self.check_stats is not None else None),
            "repair": (self.repair.to_dict()
                       if self.repair is not None else None),
            "elapsed_seconds": self.elapsed_seconds,
        }

    # -- convenience ----------------------------------------------------

    @property
    def has_races(self) -> bool:
        return any(not r.benign for r in self.races)

    @property
    def has_benign_races(self) -> bool:
        return any(r.benign for r in self.races)

    @property
    def has_oob(self) -> bool:
        return bool(self.oobs)

    @property
    def max_flows(self) -> int:
        return self.execution.max_flows if self.execution else 0

    @property
    def timed_out(self) -> bool:
        return bool(self.execution and self.execution.timed_out)

    @property
    def resolvable(self) -> str:
        return self.resolvability.verdict if self.resolvability else "?"

    def race_kinds(self) -> List[str]:
        out = []
        for r in self.races:
            tag = f"{r.kind}{' (Benign)' if r.benign else ''}"
            if tag not in out:
                out.append(tag)
        return out

    def summary(self) -> str:
        lines = [f"kernel {self.kernel} [{self.mode}]"]
        if self.taint is not None:
            lines.append(f"  inputs: {self.taint.summary()}")
        if self.execution is not None:
            lines.append(
                f"  flows: {self.execution.max_flows} "
                f"(splits {self.execution.num_splits}, "
                f"barriers {self.execution.num_barriers}, "
                f"steps {self.execution.steps})"
                + (" [TIMED OUT]" if self.execution.timed_out else ""))
        lines.append(f"  resolvable: {self.resolvable}")
        if self.check_stats is not None:
            cs = self.check_stats
            tier = getattr(cs, "tier", "parametric")
            # static_seconds is the enumeration time alone; the rest
            # of the check is in the execute/pairgen/solve phases
            enumerated = (f"{cs.static_pairs_discharged}/"
                          f"{cs.static_pairs_checked} pairs enumerated, "
                          f"{cs.static_seconds * 1e3:.2f} ms")
            if tier == "static":
                lines.append(f"  tier: static ({enumerated}, no solver)")
            elif cs.static_bail_reason is not None:
                lines.append(
                    f"  tier: parametric (static tier: "
                    f"{cs.static_bail_reason}; {enumerated})")
            lines.append(
                f"  solver: {cs.queries} queries (affine {cs.by_affine}, "
                f"memo {cs.by_memo}, sessions {cs.sessions_created}, "
                f"sat {cs.solver.by_session} on "
                f"{cs.solver.sat_instances} instances)")
            pruned = (cs.dedup_skipped + cs.summarized_accesses +
                      cs.bucketed_out + cs.pair_memo_hits + cs.oob_pruned)
            if pruned:
                lines.append(
                    f"  pruning: dedup {cs.dedup_skipped}, summarized "
                    f"{cs.summarized_accesses}, bucketed {cs.bucketed_out}, "
                    f"pair-memo {cs.pair_memo_hits}, "
                    f"oob-pruned {cs.oob_pruned}")
            lines.append(
                f"  phases: execute {cs.execute_seconds * 1e3:.1f} ms, "
                f"pair-gen {cs.pairgen_seconds * 1e3:.1f} ms, "
                f"solve {cs.solve_seconds * 1e3:.1f} ms")
        if self.races:
            for race in self.races:
                lines.append(f"  RACE: {race.describe()}")
        else:
            lines.append("  no races found")
        for oob in self.oobs:
            lines.append(f"  OOB: {oob.describe()}")
        for failure in self.assertion_failures:
            lines.append(f"  ASSERT: {failure.describe()}")
        if self.execution:
            for err in self.execution.errors:
                lines.append(f"  ERROR: {err}")
            for warning in self.execution.warnings:
                lines.append(f"  WARNING: {warning}")
        if self.repair is not None:
            lines.append(self.repair.summary())
        return "\n".join(lines)
