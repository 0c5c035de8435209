"""StreamChecker: inter-launch races, pruning, caching, reports."""
import dataclasses
import json
import os

import pytest

from repro.kernels.streams import STREAM_CASES, get_stream_case
from repro.service import ResultCache
from repro.streams import (
    Launch, StreamChecker, StreamProgram, SyncOp, check_stream,
    launch_fingerprint,
)
from repro.sym import LaunchConfig

EXPECTED_RACY = {case.name for case in STREAM_CASES
                 if case.expected_racy}


@pytest.mark.parametrize("case", STREAM_CASES,
                         ids=lambda c: c.name)
def test_builtin_suite_verdicts(case):
    """Every seeded missing-sync program is racy with a launch-pair
    witness; every synced variant is safe. The ISSUE acceptance bar."""
    report = check_stream(case.program)
    assert not report.timed_out
    assert bool(report.inter_launch_races) == case.expected_racy, \
        report.summary()
    for race in report.inter_launch_races:
        # a witness names both launches and both sides' coordinates
        assert race.launch1 != race.launch2
        assert race.witness["thread1"] is not None
        assert race.witness["thread2"] is not None
        assert race.buffer in case.program.buffers


def test_report_to_dict_is_json_and_analysisreport_shaped():
    report = check_stream(get_stream_case(
        "pipeline_missing_sync").program)
    data = report.to_dict()
    json.dumps(data)
    assert data["engine"] == "stream"
    assert data["timed_out"] is False
    inter = [r for r in data["races"] if r.get("inter_launch")]
    assert inter and inter[0]["launches"] == [0, 1]
    assert "stream" in data
    assert data["stream"]["hb"]["unordered_pairs"] == [[0, 1]]
    assert report.has_issues


def test_disjoint_footprints_pruned_without_solver():
    case = get_stream_case("disjoint_streams")
    report = check_stream(case.program)
    assert not report.inter_launch_races
    assert report.stats.pruned_pairs >= 1
    assert report.stats.queries == 0


def test_hb_ordered_pairs_skip_pair_checking():
    case = get_stream_case("pipeline_sync")
    report = check_stream(case.program)
    assert report.stats.unordered_pairs == 0
    assert report.stats.pairs_considered == 0


def test_pruning_off_still_safe_on_disjoint():
    case = get_stream_case("disjoint_streams")
    report = check_stream(case.program,
                          config=LaunchConfig(pair_pruning=False))
    assert not report.inter_launch_races
    assert report.stats.queries > 0       # solver had to discharge it


def test_non_incremental_matches_incremental(one_shot_solving):
    case = get_stream_case("pingpong_missing_sync")
    inc = check_stream(case.program)
    with one_shot_solving():
        one = check_stream(case.program)
    assert one.stats.sessions_created == 0 < inc.stats.sessions_created
    key = lambda r: (r.kind, r.buffer, r.launch1, r.launch2,
                     r.loc1, r.loc2)
    assert sorted(map(key, inc.inter_launch_races)) == \
        sorted(map(key, one.inter_launch_races))


def test_summary_mentions_every_launch_and_race():
    report = check_stream(get_stream_case(
        "scatter_gather_missing_sync").program)
    text = report.summary()
    for outcome in report.launches:
        assert outcome.label in text
    assert "INTER-LAUNCH" in text
    assert "RACY" in text


SOURCE = """\
__global__ void produce(int *a) { a[threadIdx.x] = threadIdx.x; }
__global__ void consume(int *a, int *b) {
  b[threadIdx.x] = a[threadIdx.x] + 1;
}
"""


def _pipeline(consume_body_delta=""):
    source = SOURCE if not consume_body_delta else \
        SOURCE.replace("+ 1", consume_body_delta)
    return StreamProgram(
        name="pipe", source=source, buffers={"a": 64, "b": 64},
        steps=[
            Launch("produce", args={"a": "a"}),
            Launch("consume", stream=1, args={"a": "a", "b": "b"}),
        ])


class TestCaching:
    def test_second_run_serves_launches_and_pairs_from_cache(
            self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        first = check_stream(_pipeline(), cache=cache)
        assert first.stats.launch_cache_hits == 0
        second = check_stream(_pipeline(), cache=cache)
        assert second.stats.launch_cache_hits == 2
        assert second.stats.pair_cache_hits == 1
        assert all(o.cached for o in second.launches)
        key = lambda r: (r.kind, r.buffer, r.loc1, r.loc2)
        assert sorted(map(key, second.inter_launch_races)) == \
            sorted(map(key, first.inter_launch_races))

    def test_editing_one_kernel_keeps_other_launch_cached(
            self, tmp_path):
        """The acceptance criterion: one edited kernel → every
        untouched launch replays from cache."""
        cache = ResultCache(str(tmp_path / "cache"))
        check_stream(_pipeline(), cache=cache)
        third = check_stream(_pipeline("+ 2"), cache=cache)
        cached = {o.label: o.cached for o in third.launches}
        assert cached == {"produce": True, "consume": False}
        assert third.stats.launch_cache_hits == 1
        assert third.stats.pair_cache_hits == 0  # pair key changed too

    def test_fingerprint_sensitive_to_config_not_budget(self):
        prog = _pipeline()
        checker = StreamChecker(prog)
        launch = prog.launches()[0]
        base = launch_fingerprint(checker.module, launch,
                                  checker._config_for(launch))
        assert base == launch_fingerprint(
            checker.module, launch, checker._config_for(launch))
        bigger = Launch("produce", block_dim=(128, 1, 1),
                        args={"a": "a"})
        assert base != launch_fingerprint(
            checker.module, bigger, checker._config_for(bigger))


def _race_lines(report):
    return [(r.loc1, r.loc2) for r in report.inter_launch_races]


def _with_source(program, source):
    return dataclasses.replace(program, source=source)


class TestLocationAwareCaching:
    """A cached verdict names source lines, so a launch whose kernel
    moved must miss, and one whose kernel stayed put must still hit."""

    def test_line_shifted_program_misses_and_reports_new_lines(
            self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        program = get_stream_case("pipeline_missing_sync").program
        assert _race_lines(check_stream(program, cache=cache)) == [(3, 7)]
        shifted = check_stream(
            _with_source(program, "// a\n// b\n// c\n" + program.source),
            cache=cache)
        assert shifted.stats.launch_cache_hits == 0
        assert shifted.stats.pair_cache_hits == 0
        assert _race_lines(shifted) == [(6, 10)]

    def test_edit_inside_last_kernel_replays_earlier_launches(
            self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        program = get_stream_case("pipeline_missing_sync").program
        check_stream(program, cache=cache)
        statement = "b[threadIdx.x] = a[threadIdx.x] + 1;"
        edited = program.source.replace(
            statement, "// moved down a line\n    " + statement)
        report = check_stream(_with_source(program, edited), cache=cache)
        assert {o.label: o.cached for o in report.launches} == \
            {"produce": True, "consume": False}
        assert report.stats.pair_cache_hits == 0
        assert _race_lines(report) == [(3, 8)]


def _damage_entry(path, kind):
    if kind == "leftover-tmp":
        os.replace(path, path + ".tmp.123.456")
        return
    if kind == "truncated":
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[:len(blob) // 2])
        return
    value = {"list": [], "string": "x", "verdict-not-object": {"verdict": 3},
             "races-not-list": {"races": 3},
             "race-missing-fields": {"races": [{"kind": "RW"}]}}[kind]
    with open(path, "w") as fh:
        json.dump(value, fh)


@pytest.mark.parametrize("kind", [
    "truncated", "list", "string", "verdict-not-object", "races-not-list",
    "race-missing-fields", "leftover-tmp"])
@pytest.mark.parametrize("entry", ["launch", "pair"])
def test_damaged_entry_is_a_counted_miss(tmp_path, entry, kind):
    cache = ResultCache(str(tmp_path / "cache"))
    program = get_stream_case("pipeline_missing_sync").program
    checker = StreamChecker(program, cache=cache)
    fresh = checker.check()
    launch, other = fresh.launches
    key = launch.fingerprint if entry == "launch" else \
        checker._pair_fingerprint(launch, other)
    _damage_entry(cache._path(key), kind)

    misses = cache.misses
    again = check_stream(program, cache=cache)
    assert cache.misses == misses + 1
    assert again.stats.launch_cache_hits == (1 if entry == "launch" else 2)
    assert again.stats.pair_cache_hits == (1 if entry == "launch" else 0)
    assert _race_lines(again) == _race_lines(fresh) == [(3, 7)]

    # the re-checked entry replaced the damaged one
    replay = check_stream(program, cache=cache)
    assert replay.stats.launch_cache_hits == 2
    assert replay.stats.pair_cache_hits == 1
    assert _race_lines(replay) == [(3, 7)]


def test_atomic_vs_atomic_across_launches_is_not_a_race():
    source = ("__global__ void bump(int *c) "
              "{ atomicAdd(&c[0], 1); }")
    prog = StreamProgram(
        name="atomics", source=source, buffers={"c": 1},
        steps=[Launch("bump", stream=0, args={"c": "c"}),
               Launch("bump", stream=1, args={"c": "c"})])
    report = check_stream(prog)
    assert not report.inter_launch_races


def test_atomic_vs_plain_across_launches_is_a_race():
    source = ("__global__ void bump(int *c) "
              "{ atomicAdd(&c[0], 1); }\n"
              "__global__ void reset(int *c) { c[0] = 0; }")
    prog = StreamProgram(
        name="mixed", source=source, buffers={"c": 1},
        steps=[Launch("bump", stream=0, args={"c": "c"}),
               Launch("reset", stream=1, args={"c": "c"})])
    report = check_stream(prog)
    kinds = {r.kind for r in report.inter_launch_races}
    assert kinds and all("Atomic" in k for k in kinds)


def test_different_buffers_never_race():
    prog = StreamProgram(
        name="split", source=SOURCE, buffers={"a": 64, "x": 64,
                                              "b": 64},
        steps=[Launch("produce", stream=0, args={"a": "a"}),
               Launch("consume", stream=1,
                      args={"a": "x", "b": "b"})])
    report = check_stream(prog)
    assert not report.inter_launch_races
    assert report.stats.pairs_considered == 0 or \
        report.stats.queries == 0


def test_benign_ww_same_value_is_reported_benign():
    source = ("__global__ void mark(int *f) { f[threadIdx.x] = 7; }")
    prog = StreamProgram(
        name="benign", source=source, buffers={"f": 64},
        steps=[Launch("mark", stream=0, args={"f": "f"}),
               Launch("mark", stream=1, args={"f": "f"})])
    report = check_stream(prog)
    assert report.inter_launch_races
    assert all(r.benign for r in report.inter_launch_races)
    assert not report.has_issues


def test_benign_first_copy_does_not_hide_a_harmful_one():
    """Both launches write 7 on the loop's first trip and their own
    scalar on the second: the first pair checked collides benignly, a
    later copy of the same line pair writes different values."""
    source = """
__global__ void fill(int *buf, int v) {
  for (int k = 0; k < 2; k++) {
    buf[threadIdx.x] = (k == 0) ? 7 : v;
  }
}"""
    prog = StreamProgram(
        name="benign_then_harmful", source=source, buffers={"buf": 64},
        steps=[Launch("fill", stream=0, args={"buf": "buf"},
                      scalar_values={"v": 1}),
               Launch("fill", stream=1, args={"buf": "buf"},
                      scalar_values={"v": 2})])
    report = check_stream(prog)
    assert sorted(r.benign for r in report.inter_launch_races) == \
        [False, True]
    assert report.has_issues


def test_cached_launch_pair_replays_under_its_own_launches(tmp_path):
    """Three launches of one kernel on three streams: every launch pair
    has the same content, so two of them are served by the entry the
    first one wrote, and each must still name its own launches."""
    prog = StreamProgram(
        name="three_writers", buffers={"f": 64},
        source="__global__ void mark(int *f) "
               "{ f[threadIdx.x] = threadIdx.x + 1; }",
        steps=[Launch("mark", stream=s, args={"f": "f"})
               for s in range(3)])
    cold = check_stream(prog)
    cached = check_stream(prog, cache=ResultCache(str(tmp_path)))
    assert cached.stats.pair_cache_hits == 2

    def pairs(report):
        return sorted((r.launch1, r.launch2, r.benign)
                      for r in report.inter_launch_races)
    assert pairs(cached) == pairs(cold) == \
        [(0, 1, True), (0, 2, True), (1, 2, True)]


def test_time_budget_zero_reports_timeout_not_crash():
    report = check_stream(_pipeline(),
                          config=LaunchConfig(time_budget_seconds=1e-9))
    assert report.timed_out
    data = report.to_dict()
    assert data["timed_out"] is True
    json.dumps(data)


def test_telemetry_events_emitted(tmp_path):
    from repro.service import Telemetry
    trace = tmp_path / "t.jsonl"
    telemetry = Telemetry(trace_path=str(trace))
    check_stream(_pipeline(), telemetry=telemetry)
    telemetry.close()
    events = [json.loads(line)["event"]
              for line in trace.read_text().splitlines()]
    assert events.count("stream_planned") == 1
    assert events.count("launch_finished") == 2
    assert events.count("stream_merged") == 1
