"""Tier 0 on input-guarded accesses: the guard's UF-free projection.

A guard that compares input or havoc values (uninterpreted
applications) over an offset that reads none is enumerated with its
UF-bearing conjuncts taken as true. No collision under that relaxation
means the real query is UNSAT; a collision sends the pair to the
solver. These tests pin both directions: the projection only ever
answers UNSAT, and the tiered verdict is the solver-only one.
"""
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import SESA
from repro.kernels import ALL_KERNELS
from repro.smt import evaluate
from repro.smt.terms import Op
from repro.static.checker import StaticAdjudicator
from repro.sym import LaunchConfig
from repro.sym.memory import contains_uf

from .test_tier_equivalence import _check_both


@pytest.mark.parametrize("name", ["bitonic_fig1", "bitonic2.0",
                                  "bitonic4.3"])
def test_bitonic_kernels_are_static(name):
    """The bitonic swap guards compare input and havoc values; their
    offsets are UF-free, so every pair is decided without a query."""
    kernel = ALL_KERNELS[name]
    tiered, _mono = _check_both(kernel.source, kernel.kernel_name,
                                kernel.launch_config)
    cs = tiered.check_stats
    assert cs.tier == "static", cs.static_bail_reason
    assert cs.queries == 0
    assert cs.static_pairs_discharged == cs.static_pairs_checked > 0


# ---------------------------------------------------------------------------
# differential: random input-guarded kernels
# ---------------------------------------------------------------------------

GUARDS = ["in[threadIdx.x] < in[threadIdx.x ^ 1]",
          "in[threadIdx.x] > 3u",
          "threadIdx.x < 4 && in[threadIdx.x] != 0u",
          "(threadIdx.x & 1) == 0 && in[threadIdx.x + 1] > in[threadIdx.x]",
          "threadIdx.x > 2"]
OFFSETS = ["threadIdx.x", "threadIdx.x + 1", "threadIdx.x * 2",
           "threadIdx.x ^ 1", "threadIdx.x / 2", "15 - threadIdx.x"]
VALUES = ["0u", "threadIdx.x", "in[threadIdx.x]"]


@st.composite
def guarded_programs(draw):
    stmts = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["store", "store", "load", "sync"]))
        offset = draw(st.sampled_from(OFFSETS))
        if kind == "sync":
            stmts.append("__syncthreads();")
            continue
        guard = draw(st.sampled_from(GUARDS))
        if kind == "store":
            value = draw(st.sampled_from(VALUES))
            stmts.append(f"if ({guard}) s[({offset}) & 15] = {value};")
        else:
            stmts.append(f"if ({guard}) i = s[({offset}) & 15] + i;")
    body = "\n  ".join(stmts)
    return f"""
__shared__ unsigned s[16];
__global__ void k(unsigned *in, unsigned *out) {{
  unsigned i = 0;
  {body}
  out[threadIdx.x] = i;
}}
"""


def _projected(access):
    return contains_uf(access.cond) and not contains_uf(access.offset)


@settings(max_examples=40, deadline=None)
@given(source=guarded_programs())
def test_projection_never_contradicts_engine(source):
    """The tiered verdict is the solver-only one, and every pair the
    projection decides is UNSAT through the checker's own solve step."""
    decided = []
    original = StaticAdjudicator._enumerate

    def recording(self, a1, a2, same_bi):
        verdict = original(self, a1, a2, same_bi)
        if verdict is None and (_projected(a1) or _projected(a2)):
            decided.append((self.checker, a1, a2, same_bi))
        return verdict

    def config():
        return LaunchConfig(block_dim=8)
    with mock.patch.object(StaticAdjudicator, "_enumerate", recording):
        _check_both(source, None, config, max_reports=8)
    for checker, a1, a2, same_bi in decided:
        assert checker._solve_pair(a1, a2, same_bi) is None, \
            (a1.describe(), a2.describe())


# ---------------------------------------------------------------------------
# out-of-bounds
# ---------------------------------------------------------------------------

def _oob_config():
    return LaunchConfig(block_dim=64, array_sizes={"a": 64})


def test_guarded_in_bounds_access_is_decided_by_projection():
    """Only threads below 32 store, at ``2 * tid``: the offset's
    interval alone overruns the 64-element array, the projection's
    ``tid < 32`` conjunct keeps it in bounds."""
    source = """
__global__ void k(unsigned *in, unsigned *a) {
  if (threadIdx.x < 32 && in[threadIdx.x] > 3u) a[threadIdx.x * 2] = 1;
}
"""
    tiered, _mono = _check_both(source, None, _oob_config)
    cs = tiered.check_stats
    assert tiered.oobs == []
    assert cs.tier == "static", cs.static_bail_reason
    assert cs.queries == 0


def _conjuncts(term):
    if term.op == Op.BAND:
        for arg in term.args:
            yield from _conjuncts(arg)
    else:
        yield term


def test_guarded_overrun_is_still_reported():
    """The projection collides (thread 63 overruns when its input is
    large), so the access goes to the solver: the overrun is reported
    with a witness whose offset overruns and whose UF-free guard
    conjuncts hold, and the tier records the uninterpreted guard."""
    source = """
__global__ void k(unsigned *in, unsigned *a) {
  if (threadIdx.x > 60 && in[threadIdx.x] > 3u) a[threadIdx.x + 1] = 1;
}
"""
    tiered, mono = _check_both(source, None, _oob_config)
    cs = tiered.check_stats
    assert cs.tier == "parametric"
    assert cs.static_bail_reason.startswith("uninterpreted")
    assert [(o.obj_name, str(o.witness)) for o in tiered.oobs] == \
        [(o.obj_name, str(o.witness)) for o in mono.oobs]
    [oob] = tiered.oobs
    w = oob.witness
    env = {"tid.x": w.thread1[0], "tid.y": w.thread1[1],
           "tid.z": w.thread1[2], "bid.x": w.block1[0],
           "bid.y": w.block1[1], "bid.z": w.block1[2]}
    assert evaluate(oob.access.offset, env) + oob.access.size > \
        oob.size_bytes
    pure = [c for c in _conjuncts(oob.access.cond) if not contains_uf(c)]
    assert pure and all(evaluate(c, env) for c in pure)
