"""Witness validation: every reported race/OOB witness must concretely
satisfy the conditions and addresses it claims to collide — within one
launch and between two launches of a stream program.

This closes the loop end-to-end: parser → executor → checker → witness —
if any layer mis-translates, the concrete re-evaluation fails.
"""
import pytest

from repro.core import SESA, LaunchConfig
from repro.kernels import ALL_KERNELS
from repro.kernels.streams import STREAM_CASES
from repro.smt import evaluate
from repro.smt.subst import EvaluationError
from repro.streams import StreamChecker
from repro.sym.pairs import race_kind


def env_for(witness, which, extra=None):
    coords = witness.thread1 if which == 1 else witness.thread2
    blocks = witness.block1 if which == 1 else witness.block2
    env = {"tid.x": coords[0], "tid.y": coords[1], "tid.z": coords[2],
           "bid.x": blocks[0], "bid.y": blocks[1], "bid.z": blocks[2]}
    if extra:
        env.update(extra)
    return env


def validate_races(report):
    for race in report.races:
        w = race.witness
        inputs = dict(w.inputs)
        try:
            cond1 = evaluate(race.access1.cond, env_for(w, 1, inputs))
            cond2 = evaluate(race.access2.cond, env_for(w, 2, inputs))
            addr1 = evaluate(race.access1.offset, env_for(w, 1, inputs))
            addr2 = evaluate(race.access2.offset, env_for(w, 2, inputs))
        except EvaluationError:
            continue  # havocked/unresolvable parts: nothing to validate
        assert cond1, race.describe()
        assert cond2, race.describe()
        lo1, hi1 = addr1, addr1 + race.access1.size
        lo2, hi2 = addr2, addr2 + race.access2.size
        assert lo1 < hi2 and lo2 < hi1, \
            f"witness addresses disjoint: {race.describe()}"


def validate_oobs(report):
    for oob in report.oobs:
        w = oob.witness
        try:
            cond = evaluate(oob.access.cond, env_for(w, 1, dict(w.inputs)))
            addr = evaluate(oob.access.offset, env_for(w, 1, dict(w.inputs)))
        except EvaluationError:
            continue
        assert cond, oob.describe()
        assert addr + oob.access.size > oob.size_bytes, oob.describe()


@pytest.mark.parametrize("name", [
    "race_example", "reduction_racy", "histogram64", "histo_prescan",
])
def test_race_witnesses_validate(name):
    k = ALL_KERNELS[name]
    grid = tuple(min(g, 2) for g in k.grid_dim)
    block = tuple(min(b, 64) for b in k.block_dim)
    report = SESA.from_source(k.source, k.kernel_name).check(
        k.launch_config(grid_dim=grid, block_dim=block, check_oob=False))
    assert report.races
    validate_races(report)


def test_oob_witness_validates():
    report = SESA.from_source("""
__global__ void k(int *g) {
  g[blockIdx.x * blockDim.x + threadIdx.x + 3] = 1;
}""").check(LaunchConfig(grid_dim=2, block_dim=32,
                         array_sizes={"g": 64}))
    assert report.oobs
    validate_oobs(report)


def test_witness_thread_bounds():
    k = ALL_KERNELS["race_example"]
    report = SESA.from_source(k.source).check(
        k.launch_config(check_oob=False))
    for race in report.races:
        for coords, dims in ((race.witness.thread1, k.block_dim),
                             (race.witness.thread2, k.block_dim)):
            for c, d in zip(coords, dims):
                assert 0 <= c < max(d, 1)


# ---------------------------------------------------------------------------
# inter-launch (stream) witnesses
# ---------------------------------------------------------------------------

def _stream_env(witness, which):
    env = dict(witness["inputs"])
    for prefix, coords in (("tid", witness[f"thread{which}"]),
                           ("bid", witness[f"block{which}"])):
        for axis, value in zip("xyz", coords):
            env[f"{prefix}.{axis}"] = value
    return env


def _collides(race, a1, a2):
    """Whether the witness makes *a1* (launch 1) and *a2* (launch 2)
    collide; None when a term cannot be evaluated (uninterpreted reads,
    summary index variables the witness does not name)."""
    env1 = _stream_env(race.witness, 1)
    env2 = _stream_env(race.witness, 2)
    try:
        cond1 = evaluate(a1.cond, env1)
        cond2 = evaluate(a2.cond, env2)
        addr1 = evaluate(a1.offset, env1)
        addr2 = evaluate(a2.offset, env2)
    except EvaluationError:
        return None
    return bool(cond1 and cond2 and addr1 < addr2 + a2.size
                and addr2 < addr1 + a1.size)


@pytest.mark.parametrize("case", STREAM_CASES, ids=lambda c: c.name)
def test_stream_witnesses_validate(case):
    """Every inter-launch race's per-launch coordinates and inputs make
    some pair of accesses at the reported lines satisfy both guards
    with intersecting byte ranges."""
    checker = StreamChecker(case.program)
    report = checker.check()
    launches = case.program.launches()
    by_buffer = {}
    validated = 0
    for race in report.inter_launch_races:
        for index in (race.launch1, race.launch2):
            if index not in by_buffer:
                _outcome, side = checker._run_launch(
                    index, launches[index], need_accesses=True)
                by_buffer[index] = side.by_buffer
        side1 = [a for a in by_buffer[race.launch1][race.buffer]
                 if a.obj.name == race.param1 and a.loc == race.loc1]
        side2 = [a for a in by_buffer[race.launch2][race.buffer]
                 if a.obj.name == race.param2 and a.loc == race.loc2]
        verdicts = [_collides(race, a1, a2)
                    for a1 in side1 for a2 in side2
                    if race_kind(a1, a2) == race.kind]
        assert verdicts, f"no accesses behind {race.describe()}"
        if True in verdicts:
            validated += 1
            continue
        assert None in verdicts, \
            f"witness does not exhibit the race: {race.describe()}"
    if case.expected_racy:
        assert validated, "no inter-launch witness could be evaluated"
