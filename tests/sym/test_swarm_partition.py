"""Property-based coverage tests for the swarm partitioner.

The whole soundness argument of swarm mode rests on one structural
fact: the shard selectors tile the canonical pair enumeration exactly —
every ordinal in exactly one shard, no pair dropped, none duplicated —
for *any* group structure, shard count, and size budget. Hypothesis
drives that space; the explicit edge cases pin the empty-kernel and
oversized-group behaviours.
"""
from dataclasses import asdict

import pytest

from repro.smt import SolverStats
from repro.sym.races import CheckStats
from repro.sym.swarm import (
    ShardSelector, merge_check_stats, plan_partitions, split_span,
    validate_partition,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

group_sizes = st.lists(st.integers(min_value=0, max_value=40),
                       min_size=0, max_size=12)


@given(sizes=group_sizes, shards=st.integers(1, 9))
@settings(max_examples=200, deadline=None)
def test_every_pair_in_exactly_one_shard(sizes, shards):
    selectors = plan_partitions(sizes, shards)
    validate_partition(selectors)
    total = sum(sizes)
    for ordinal in range(total):
        owners = [s for s in selectors if s.contains(ordinal)]
        assert len(owners) == 1, \
            f"ordinal {ordinal} owned by {len(owners)} shards"
    for sel in selectors:
        assert not sel.contains(total)
        assert not sel.contains(total + 7)
        assert not sel.contains(-1)


@given(sizes=group_sizes, shards=st.integers(1, 9),
       budget=st.integers(1, 25))
@settings(max_examples=200, deadline=None)
def test_budgeted_split_still_tiles_exactly(sizes, shards, budget):
    """An explicit per-shard budget recursively splits oversized
    groups; the result must still be an exact tiling and the call must
    terminate (hypothesis would hang a non-terminating split)."""
    selectors = plan_partitions(sizes, shards,
                                max_pairs_per_shard=budget)
    validate_partition(selectors)
    covered = sum(s.num_pairs for s in selectors)
    assert covered == sum(sizes)
    assert sum(1 for s in selectors if s.check_aux) == 1


@given(lo=st.integers(0, 10_000), size=st.integers(1, 10_000),
       budget=st.integers(1, 64))
@settings(max_examples=300, deadline=None)
def test_split_span_terminates_and_covers(lo, size, budget):
    chunks = split_span(lo, lo + size, budget)
    assert all(b - a <= budget for a, b in chunks)
    assert all(b > a for a, b in chunks)
    # ascending, gapless cover of [lo, lo+size)
    cursor = lo
    for a, b in chunks:
        assert a == cursor
        cursor = b
    assert cursor == lo + size


@given(sizes=group_sizes, shards=st.integers(1, 9))
@settings(max_examples=100, deadline=None)
def test_selector_round_trips_through_dict(sizes, shards):
    for sel in plan_partitions(sizes, shards):
        assert ShardSelector.from_dict(sel.to_dict()) == sel


# ---------------------------------------------------------------------
# explicit edges
# ---------------------------------------------------------------------

def test_empty_enumeration_yields_single_aux_shard():
    selectors = plan_partitions([], 8)
    assert len(selectors) == 1
    assert selectors[0].check_aux
    assert selectors[0].total_pairs == 0
    validate_partition(selectors)


def test_more_shards_than_pairs_drops_empty_shards():
    selectors = plan_partitions([1, 1], 8)
    validate_partition(selectors)
    assert len(selectors) == 2
    assert all(s.num_pairs == 1 for s in selectors)


def test_one_giant_group_is_halved():
    selectors = plan_partitions([1000], 4)
    validate_partition(selectors)
    assert len(selectors) == 4
    assert max(s.num_pairs for s in selectors) <= 2 * (1000 // 4)


def test_malformed_descriptor_rejected():
    with pytest.raises(ValueError):
        ShardSelector.from_dict({"index": 0})
    with pytest.raises(ValueError):
        ShardSelector.from_dict("s1of4")
    with pytest.raises(ValueError):
        # overlapping ranges
        ShardSelector(index=0, count=1, total_pairs=10,
                      ranges=((0, 5), (3, 8)))
    with pytest.raises(ValueError):
        plan_partitions([3, -1], 2)
    with pytest.raises(ValueError):
        plan_partitions([3], 0)


def test_validate_partition_catches_gap_and_overlap():
    good = plan_partitions([10, 10], 2)
    validate_partition(good)
    gap = [ShardSelector(index=0, count=2, total_pairs=20,
                         ranges=((0, 9),)),
           ShardSelector(index=1, count=2, total_pairs=20,
                         ranges=((10, 20),), check_aux=True)]
    with pytest.raises(ValueError, match="gap"):
        validate_partition(gap)
    overlap = [ShardSelector(index=0, count=2, total_pairs=20,
                             ranges=((0, 11),)),
               ShardSelector(index=1, count=2, total_pairs=20,
                             ranges=((10, 20),), check_aux=True)]
    with pytest.raises(ValueError, match="overlap"):
        validate_partition(overlap)
    with pytest.raises(ValueError, match="aux"):
        validate_partition([ShardSelector(index=0, count=1,
                                          total_pairs=20,
                                          ranges=((0, 20),))])


def test_merge_check_stats_sums_nested_feasibility():
    shards = []
    for ranged, sat in ((5, 1), (3, 2)):
        cs = CheckStats(queries=4)
        cs.feasibility = SolverStats(queries=ranged + sat,
                                     by_range=ranged, by_session=sat)
        shards.append(asdict(cs))
    merged = merge_check_stats(shards + [None])
    assert merged["queries"] == 8
    assert merged["feasibility"]["by_range"] == 8
    assert merged["feasibility"]["by_session"] == 3
    assert merged["feasibility"]["queries"] == 11
    assert merged["solver"] == asdict(SolverStats())
