"""Swarm verification: partition one race check into solver shards.

One hard kernel is normally one sequential job even though the service
stack runs many kernels in parallel. Swarm mode splits a *single*
kernel's candidate-pair space into independently solvable shards — the
Lazy-CSeq/Verismart "swarm" idea applied to the paper's per-interval
race argument — and merges the shard verdicts back into one report.

The partition is defined over **ordinals of the canonical pair
enumeration** (:meth:`RaceChecker.iter_grouped_pairs`): a deterministic
walk of barrier intervals → shared objects → disjointness buckets,
then cross-interval global pairs. Each shard owns a set of half-open
ordinal ranges; a shard re-derives the enumeration in its own process
and checks exactly the pairs inside its ranges. Shard boundaries
prefer enumeration-group edges (interval/object/bucket), recursively
halving any group larger than the size budget.

Soundness of the merge (this is where silent unsoundness would hide):

* every ordinal lands in **exactly one** shard — checked structurally
  by :func:`validate_partition` and property-tested;
* a shard whose own enumeration disagrees with the planned
  ``total_pairs`` reports a plan mismatch and is *unknown*, never safe;
* any shard that crashed, timed out, or ran out of budget makes the
  merged verdict *unknown* (``timed_out`` is set, the unresolved
  shards are listed) — only a full set of clean SAFE shards merges to
  SAFE;
* any racy shard makes the merge racy, carrying that shard's witness.

Racy merges reproduce the monolithic report list exactly. Every
emitted race is tagged with its pair ordinal. The merge sorts the
union of shard races by ordinal and replays the sequential checker's
report rule (:class:`~repro.sym.pairs.ReportKeys`) over it: a report
whose distinct race an earlier ordinal already holds, or whose key
already has a harmful report, is dropped, and the walk stops once
``max_reports`` distinct keys are in. A shard reports the first pair
of each of its own keys, so every report the sequential checker makes
in a shard's range is one that shard made. A shard stops early only
after ``max_reports`` keys of its own; each of them is in the merge at
or before its ordinal, so the merged cap is full before any ordinal
the shard skipped.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .pairs import MAX_REPORTS, ReportKeys


@dataclass(frozen=True)
class ShardSelector:
    """One shard's slice of the canonical pair enumeration.

    ``ranges`` are sorted, disjoint, half-open ``[lo, hi)`` ordinal
    intervals. ``total_pairs`` is the planner's pair count for the
    whole kernel — the shard re-counts during its own enumeration and
    flags a mismatch (≠ plan) as *unknown*. Exactly one shard per plan
    carries ``check_aux`` and runs the single-thread OOB/assertion
    checks (they are not pair-indexed, so exactly-once coverage needs
    a designated owner).
    """

    index: int
    count: int
    total_pairs: int
    ranges: Tuple[Tuple[int, int], ...]
    check_aux: bool = False

    def __post_init__(self) -> None:
        if not (0 <= self.index < self.count):
            raise ValueError(f"shard index {self.index} outside "
                             f"0..{self.count - 1}")
        if self.total_pairs < 0:
            raise ValueError("total_pairs must be >= 0")
        prev = 0
        for lo, hi in self.ranges:
            if lo < prev or hi <= lo or hi > self.total_pairs:
                raise ValueError(
                    f"malformed shard ranges {self.ranges!r} "
                    f"(total {self.total_pairs})")
            prev = hi

    @property
    def num_pairs(self) -> int:
        return sum(hi - lo for lo, hi in self.ranges)

    def contains(self, ordinal: int) -> bool:
        i = bisect_right(self.ranges, (ordinal, math.inf)) - 1
        return i >= 0 and self.ranges[i][0] <= ordinal < self.ranges[i][1]

    def label(self) -> str:
        return f"s{self.index + 1}of{self.count}"

    def to_dict(self) -> dict:
        return {"index": self.index, "count": self.count,
                "total_pairs": self.total_pairs,
                "ranges": [[lo, hi] for lo, hi in self.ranges],
                "check_aux": self.check_aux}

    @classmethod
    def from_dict(cls, data: dict) -> "ShardSelector":
        if not isinstance(data, dict):
            raise ValueError(f"shard must be an object, got "
                             f"{type(data).__name__}")
        try:
            return cls(
                index=int(data["index"]), count=int(data["count"]),
                total_pairs=int(data["total_pairs"]),
                ranges=tuple((int(lo), int(hi))
                             for lo, hi in data.get("ranges", ())),
                check_aux=bool(data.get("check_aux", False)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed shard descriptor: {exc}") \
                from None


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------

def split_span(lo: int, hi: int, budget: int) -> List[Tuple[int, int]]:
    """Recursively halve ``[lo, hi)`` until every piece is ≤ budget.

    Halving (not greedy slicing) keeps the pieces balanced, and with
    ``budget >= 1`` and strictly shrinking halves it terminates for
    any span — the property test drives this with random spans.
    """
    budget = max(1, budget)
    out: List[Tuple[int, int]] = []
    stack = [(lo, hi)]
    while stack:
        a, b = stack.pop()
        if b - a <= budget:
            out.append((a, b))
            continue
        mid = (a + b) // 2
        # push right first so the output comes back in ascending order
        stack.append((mid, b))
        stack.append((a, mid))
    return out


def plan_partitions(group_sizes: Sequence[int], num_shards: int,
                    max_pairs_per_shard: Optional[int] = None,
                    ) -> List[ShardSelector]:
    """Partition the enumeration into at most *num_shards* shards.

    *group_sizes* are the sizes of the contiguous enumeration groups
    (interval × object × bucket spans, then cross-interval spans) in
    enumeration order; group ``g`` owns ordinals
    ``[sum(sizes[:g]), sum(sizes[:g+1]))``. Groups stay intact unless
    they exceed the per-shard budget, in which case they are
    recursively halved; the chunks are then LPT-packed (largest first
    onto the least-loaded shard) and adjacent ranges coalesced.

    Every ordinal lands in exactly one shard; empty shards are
    dropped, so fewer than *num_shards* selectors can come back.
    Exactly one selector carries ``check_aux`` (the least-loaded one).
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if any(s < 0 for s in group_sizes):
        raise ValueError("group sizes must be >= 0")
    total = sum(group_sizes)
    if total == 0:
        # nothing to split: one aux-only shard keeps OOB/assert coverage
        return [ShardSelector(index=0, count=1, total_pairs=0,
                              ranges=(), check_aux=True)]
    budget = max_pairs_per_shard if max_pairs_per_shard is not None \
        else math.ceil(total / num_shards)
    budget = max(1, budget)
    chunks: List[Tuple[int, int]] = []
    start = 0
    for size in group_sizes:
        if size > 0:
            chunks.extend(split_span(start, start + size, budget))
        start += size
    # LPT greedy packing: biggest chunk first (earliest ordinal breaks
    # ties) onto the least-loaded bin — classic 4/3-approx makespan
    n_bins = min(num_shards, len(chunks))
    order = sorted(range(len(chunks)),
                   key=lambda i: (chunks[i][0] - chunks[i][1],
                                  chunks[i][0]))
    bins: List[List[Tuple[int, int]]] = [[] for _ in range(n_bins)]
    loads = [0] * n_bins
    for i in order:
        lo, hi = chunks[i]
        b = min(range(n_bins), key=lambda k: (loads[k], k))
        bins[b].append((lo, hi))
        loads[b] += hi - lo
    aux_bin = min(range(n_bins), key=lambda k: (loads[k], k))
    selectors = []
    for idx, spans in enumerate(bins):
        spans.sort()
        merged: List[List[int]] = []
        for lo, hi in spans:
            if merged and merged[-1][1] == lo:
                merged[-1][1] = hi
            else:
                merged.append([lo, hi])
        selectors.append(ShardSelector(
            index=idx, count=n_bins, total_pairs=total,
            ranges=tuple((lo, hi) for lo, hi in merged),
            check_aux=(idx == aux_bin)))
    return selectors


def validate_partition(selectors: Sequence[ShardSelector]) -> None:
    """Raise unless the selectors tile ``[0, total_pairs)`` exactly
    once and designate exactly one aux owner."""
    if not selectors:
        raise ValueError("empty partition")
    totals = {s.total_pairs for s in selectors}
    if len(totals) != 1:
        raise ValueError(f"inconsistent total_pairs: {sorted(totals)}")
    total = totals.pop()
    spans = sorted(r for s in selectors for r in s.ranges)
    cursor = 0
    for lo, hi in spans:
        if lo != cursor:
            raise ValueError(
                f"partition {'overlap' if lo < cursor else 'gap'} at "
                f"ordinal {min(lo, cursor)}")
        cursor = hi
    if cursor != total:
        raise ValueError(f"partition covers {cursor} of {total} pairs")
    aux = sum(1 for s in selectors if s.check_aux)
    if aux != 1:
        raise ValueError(f"{aux} aux owners (want exactly 1)")


# ----------------------------------------------------------------------
# merging
# ----------------------------------------------------------------------

#: classification of one shard's outcome
RACY, SAFE, UNKNOWN = "racy", "safe", "unknown"


@dataclass
class ShardOutcome:
    """One shard's result as seen by the merger (plain data — the
    shard may have run in another process, or never run at all)."""

    shard: ShardSelector
    status: str                 # JobStatus / JobState string
    verdict: Optional[dict] = None   # AnalysisReport.to_dict() shape
    job_id: Optional[str] = None
    error: Optional[str] = None
    elapsed_seconds: float = 0.0

    def classify(self) -> str:
        """RACY / SAFE / UNKNOWN. Anything short of a clean completed
        verdict is UNKNOWN — a crashed or killed shard can never make
        the merge safer."""
        if self.status not in ("done", "cached") or self.verdict is None:
            return UNKNOWN
        if self.verdict.get("timed_out"):
            return UNKNOWN
        if self.verdict.get("races"):
            return RACY
        return SAFE


def merge_check_stats(stats: Iterable[Optional[dict]]) -> Optional[dict]:
    """Sum numeric counters recursively across shard CheckStats dicts
    (bools and non-numerics keep the first value seen)."""
    merged: Optional[dict] = None
    for cs in stats:
        if not isinstance(cs, dict):
            continue
        if merged is None:
            merged = _sum_dicts({}, cs)
        else:
            merged = _sum_dicts(merged, cs)
    return merged


def _sum_dicts(acc: dict, new: dict) -> dict:
    for key, value in new.items():
        if isinstance(value, dict):
            inner = acc.get(key)
            acc[key] = _sum_dicts(inner if isinstance(inner, dict)
                                  else {}, value)
        elif isinstance(value, bool):
            acc[key] = acc.get(key, False) or value
        elif isinstance(value, (int, float)):
            acc[key] = acc.get(key, 0) + value
        elif key not in acc:
            acc[key] = value
    return acc


def _replay_report_rule(races: List[dict], max_reports: int
                        ) -> List[dict]:
    """The sequential checker's report list from the union of shard
    races: ordinal order, one report per distinct race, capped at
    *max_reports* distinct keys (ordinals are globally unique, so the
    sort is total)."""
    keys = ReportKeys()
    kept: List[dict] = []
    for race in sorted(races, key=lambda r: (r.get("ordinal")
                                             if r.get("ordinal") is not None
                                             else -1)):
        if len(keys) >= max_reports:
            break
        sites = tuple(tuple(loc) if loc is not None else None
                      for loc in race.get("locs") or (None, None))
        key = (race.get("kind"), race.get("object"), *sites,
               bool(race.get("unresolvable")))
        if keys.admit(key, bool(race.get("benign"))):
            kept.append(race)
    return kept


def merge_shard_outcomes(outcomes: Sequence[ShardOutcome],
                         max_reports: int = MAX_REPORTS) -> dict:
    """Combine shard outcomes into one AnalysisReport-shaped verdict.

    Verdict rule: any RACY shard ⇒ racy (that shard's witnesses ride
    along); all shards SAFE ⇒ safe; any UNKNOWN ⇒ ``timed_out`` is set
    and the unresolved shards are listed in ``warnings`` — the merge
    can then never be read as a clean SAFE.
    """
    if not outcomes:
        raise ValueError("cannot merge zero shard outcomes")
    validate_partition([o.shard for o in outcomes])

    classes = [o.classify() for o in outcomes]
    unresolved = [o for o, c in zip(outcomes, classes) if c == UNKNOWN]
    overall = RACY if RACY in classes else \
        (UNKNOWN if unresolved else SAFE)

    base = next((o.verdict for o in outcomes if o.verdict), None) or {}
    races: List[dict] = []
    oobs: List[dict] = []
    asserts: List[dict] = []
    warnings: List[str] = []
    seen_warn = set()
    for outcome in outcomes:
        verdict = outcome.verdict or {}
        races.extend(verdict.get("races") or ())
        oobs.extend(verdict.get("oobs") or ())
        asserts.extend(verdict.get("assertion_failures") or ())
        for w in verdict.get("warnings") or ():
            if w not in seen_warn:
                seen_warn.add(w)
                warnings.append(w)
    for outcome in unresolved:
        warnings.append(
            f"swarm: shard {outcome.shard.label()} unresolved "
            f"(status {outcome.status}"
            + (f": {outcome.error}" if outcome.error else "") + ")")
    races = _replay_report_rule(races, max_reports)
    oobs = oobs[:max_reports]
    asserts = asserts[:max_reports]

    merged_stats = merge_check_stats(
        o.verdict.get("check_stats") if o.verdict else None
        for o in outcomes)
    if merged_stats is not None:
        merged_stats["races_found"] = len(races)
        merged_stats["oob_found"] = len(oobs)

    return {
        "kernel": base.get("kernel"),
        "engine": base.get("engine", "sesa"),
        "races": races,
        "oobs": oobs,
        "assertion_failures": asserts,
        "flows": base.get("flows", 0),
        "resolvable": base.get("resolvable", "?"),
        "timed_out": bool(unresolved)
        or any((o.verdict or {}).get("timed_out") for o in outcomes),
        "warnings": warnings,
        "symbolic_inputs": base.get("symbolic_inputs"),
        "check_stats": merged_stats,
        "repair": None,
        "elapsed_seconds": sum(
            (o.verdict or {}).get("elapsed_seconds") or 0.0
            for o in outcomes),
        "swarm": {
            "verdict": overall,
            "shards": len(outcomes),
            "total_pairs": outcomes[0].shard.total_pairs,
            "unresolved": [o.shard.label() for o in unresolved],
            "shard_job_ids": [o.job_id for o in outcomes],
        },
    }
