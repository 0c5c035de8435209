"""One report per distinct race (:class:`repro.sym.pairs.ReportKeys`).

A race report's key is (kind, object, both source sites,
unresolvable); a distinct race is a key plus ``benign``. The checker
reports each distinct race once, skips pairs whose key already has a
harmful report, and lets a key with only a benign report take one more
report, a harmful one. ``max_reports`` caps distinct keys, so the
cap no longer fills with copies of one line pair across flows.
"""
import pytest

from repro.core import LaunchConfig, SESA, check_source
from repro.service.corpus import SUITES, spec_from_kernel
from repro.sym import MAX_REPORTS
from repro.sym.pairs import ReportKeys
from repro.sym.swarm import _replay_report_rule


def _check(suite, name, **overrides):
    kernel = next(k for k in SUITES[suite] if k.name == name)
    spec = spec_from_kernel(kernel, suite=suite)
    config = spec.launch_config()
    for field, value in overrides.items():
        setattr(config, field, value)
    return SESA.from_source(spec.source, spec.kernel_name).check(config)


def _key(race):
    return (race.kind, race.obj_name, race.access1.loc,
            race.access1.loc.col, race.access2.loc, race.access2.loc.col,
            race.unresolvable)


def test_admit_rule():
    keys = ReportKeys()
    key = ("WW", "s", (5, 1), (5, 1), False)
    assert keys.state(key) is None and not keys.has_prefix(key[:-1])
    assert keys.admit(key, benign=True)
    assert keys.has_prefix(key[:-1]) and keys.state(key) is False
    assert not keys.admit(key, benign=True)       # a repeated race
    assert keys.admit(key, benign=False)          # the harmful copy
    assert keys.state(key) is True
    assert not keys.admit(key, benign=False)
    assert not keys.admit(key, benign=True)       # the key is done
    assert len(keys) == 1
    # a harmful first report closes the key to benign copies too
    other = ("RW", "s", (6, 1), (7, 1), True)
    assert keys.admit(other, benign=False)
    assert not keys.admit(other, benign=True)
    assert len(keys) == 2


def test_parboil_bfs_reports_its_color_race():
    """The 16-copy cap used to fill with copies of four line pairs
    before the RW race on ``color`` between lines 12 and 13 came up."""
    report = _check("parboil", "parboil_bfs")
    assert any(r.kind == "RW" and r.obj_name == "color"
               and (r.access1.loc, r.access2.loc) == (12, 13)
               for r in report.races)
    assert len(report.races) == 11
    assert report.check_stats.known_key_skips > 0


def test_reduce4_reports_all_its_distinct_races():
    report = _check("reductions", "reduce4")
    assert len(report.races) == 20
    assert not report.timed_out


def test_builtins_report_each_distinct_race_once():
    for suite, kernels in SUITES.items():
        for kernel in kernels:
            report = _check(suite, kernel.name)
            seen = [(_key(r), r.benign) for r in report.races]
            assert len(seen) == len(set(seen)), kernel.name
            assert len({k for k, _ in seen}) < MAX_REPORTS, kernel.name


BENIGN_THEN_HARMFUL = """
__shared__ int s[64];
__global__ void k() {
  for (int i = 0; i < 2; i++) {
    s[0] = (i == 0) ? 7 : threadIdx.x;
  }
}"""


@pytest.mark.parametrize("static_tier", [True, False])
def test_benign_first_copy_does_not_hide_a_harmful_one(static_tier):
    """Pair order: (7, 7) collides benignly, then (7, tid) and
    (tid, tid) are harmful copies of the same key. The first harmful
    copy is reported, the second is skipped; enumeration decides the
    copy on its own on an enumerable record."""
    report = check_source(BENIGN_THEN_HARMFUL, LaunchConfig(
        block_dim=64, check_oob=False, static_tier=static_tier))
    assert [r.benign for r in report.races] == [True, False]
    assert len({_key(r) for r in report.races}) == 1
    stats = report.check_stats
    assert stats.pairs_considered == 3 and stats.known_key_skips == 1
    if static_tier:
        assert stats.tier == "static" and stats.queries == 0


def test_benign_copies_with_equal_values_are_skipped():
    """Each loop trip writes 7 under its own guard: one instruction,
    three records, six pairs of one key. Only the first is solved."""
    report = check_source("""
__shared__ int s[64];
__global__ void k() {
  for (int i = 0; i < 3; i++) {
    if (threadIdx.x > i) s[0] = 7;
  }
}""", LaunchConfig(block_dim=64, check_oob=False, static_tier=False))
    assert [r.benign for r in report.races] == [True]
    stats = report.check_stats
    assert stats.known_key_skips == stats.pairs_considered - 1
    assert stats.queries <= 2


def test_swarm_merge_replays_the_rule_in_ordinal_order():
    """Two shards each report a key benignly; the second also has the
    harmful copy, and the first the key's harmful report at a later
    ordinal. The merge keeps what one sequential walk would."""
    def race(ordinal, benign, line=5):
        return {"kind": "WW", "object": "s",
                "locs": [[line, 3], [line, 3]], "unresolvable": False,
                "benign": benign, "ordinal": ordinal}
    shard1 = [race(0, True), race(3, False)]
    shard2 = [race(1, True), race(2, False), race(4, True, line=9)]
    kept = _replay_report_rule(shard2 + shard1, MAX_REPORTS)
    assert [(r["ordinal"], r["benign"]) for r in kept] == \
        [(0, True), (2, False), (4, True)]
    # the cap counts distinct keys, and the walk stops once it is full
    kept = _replay_report_rule(shard2 + shard1, 2)
    assert [r["ordinal"] for r in kept] == [0, 2, 4]
    kept = _replay_report_rule(shard2 + shard1, 1)
    assert [r["ordinal"] for r in kept] == [0]
