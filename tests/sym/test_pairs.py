"""The shared pair-discharge steps (:mod:`repro.sym.pairs`).

Both race clients — the intra-launch :class:`RaceChecker` and the
inter-launch :class:`StreamChecker` — classify benign write/write
collisions through the one ``PairDischarge._classify_benign``. Only a
definite UNSAT of the value-disequality query may make a race benign: a
query the solver gives up on (conflict budget or deadline) must leave
the race non-benign and the verdict timed out.
"""
import pytest

from repro.core import LaunchConfig, check_source
from repro.streams import Launch, StreamProgram, check_stream
from repro.sym import pairs
from repro.sym.pairs import PairDischarge

SAME_VALUE_KERNEL = """
__shared__ int s[64];
__global__ void k() { s[0] = 7; }"""

SAME_VALUE_STREAM = StreamProgram(
    name="benign", buffers={"f": 64},
    source="__global__ void mark(int *f) { f[threadIdx.x] = 7; }",
    steps=[Launch("mark", stream=0, args={"f": "f"}),
           Launch("mark", stream=1, args={"f": "f"})])


@pytest.fixture
def unknown_value_query(monkeypatch):
    """Make only the value-disequality queries answer UNKNOWN: the
    shared ``_solve`` gives up on any goal holding a term built by the
    benign check's ``mk_ne``."""
    distinct = set()
    real_ne = pairs.mk_ne
    real_solve = PairDischarge._solve

    def recording_ne(a, b):
        term = real_ne(a, b)
        distinct.add(id(term))
        return term

    def solve(self, goal, preamble):
        if any(id(t) in distinct for t in goal):
            self.stats.queries += 1
            self.timed_out = True
            return None
        return real_solve(self, goal, preamble)

    monkeypatch.setattr(pairs, "mk_ne", recording_ne)
    monkeypatch.setattr(PairDischarge, "_solve", solve)
    return distinct


def _check_kernel():
    # the static tier decides pairs by enumeration, not by _solve
    return check_source(SAME_VALUE_KERNEL, LaunchConfig(
        block_dim=64, check_oob=False, static_tier=False))


def test_same_value_race_is_benign_when_decided():
    report = _check_kernel()
    ww = [r for r in report.races if r.kind == "WW"]
    assert ww and all(r.benign for r in ww)
    assert not report.timed_out
    stream = check_stream(SAME_VALUE_STREAM)
    assert stream.inter_launch_races
    assert all(r.benign for r in stream.inter_launch_races)
    assert not stream.timed_out


def test_unknown_benign_check_leaves_intra_launch_race_non_benign(
        unknown_value_query):
    report = _check_kernel()
    assert unknown_value_query, "the benign check never ran"
    ww = [r for r in report.races if r.kind == "WW"]
    assert ww and not any(r.benign for r in ww)
    assert report.timed_out
    assert report.to_dict()["timed_out"] is True


def test_unknown_benign_check_leaves_inter_launch_race_non_benign(
        unknown_value_query):
    report = check_stream(SAME_VALUE_STREAM)
    assert unknown_value_query, "the benign check never ran"
    assert report.inter_launch_races
    assert not any(r.benign for r in report.inter_launch_races)
    assert report.timed_out
    assert report.to_dict()["timed_out"] is True
