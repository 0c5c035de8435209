"""Tier equivalence: the static pre-screening tier may never change a
verdict the full engine would produce.

Every built-in suite runs through SESA twice — static tier on (the
default) and off — and the deduplicated verdict sets must be
identical. On top of the fixed corpora, a hypothesis property drives
randomly generated affine kernels through both pipelines: whatever the
tier resolves, the solver-backed engine must agree with, and a
statically resolved kernel must have issued zero solver queries.
"""
import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cli import _phase_breakdown
from repro.core import SESA
from repro.kernels import ALL_KERNELS as ALL_KERNELS_BY_NAME
from repro.service.corpus import SUITES, spec_from_kernel
from repro.sym import Executor, LaunchConfig

ALL_KERNELS = [(suite, kernel) for suite, kernels in sorted(SUITES.items())
               for kernel in kernels]


def _signature(report):
    races = sorted(set(
        (r.kind, r.obj_name, r.access1.loc, r.access2.loc,
         r.benign, r.unresolvable) for r in report.races))
    oobs = sorted(set((o.obj_name, o.access.loc) for o in report.oobs))
    asserts = sorted(set(a.loc for a in report.assertion_failures))
    return (races, oobs, asserts, report.timed_out)


def _check_both(source, kernel_name, config_factory, max_reports=16):
    """One kernel through both pipelines; returns (tiered report,
    single-tier report) after asserting the equivalence contract."""
    tool = SESA.from_source(source, kernel_name)
    tiered = tool.check(config_factory(), max_reports=max_reports)
    mono_config = config_factory()
    mono_config.static_tier = False
    mono = SESA.from_source(source, kernel_name).check(
        mono_config, max_reports=max_reports)
    assert _signature(tiered) == _signature(mono), \
        "static tier changed a verdict"
    cs = tiered.check_stats
    if cs.tier == "static":
        assert cs.queries == 0, "static verdict touched the solver"
        assert cs.static_resolved == 1
        assert cs.static_bail_reason is None
    else:
        # the tier ran (default-on) and escalated: the reason is kept
        assert cs.static_bail_reason is not None
    # the single-tier pipeline never reports tier bookkeeping
    assert mono.check_stats.tier == "parametric"
    assert mono.check_stats.static_resolved == 0
    return tiered, mono


@pytest.mark.parametrize(
    "suite,kernel", ALL_KERNELS,
    ids=[f"{s}/{k.name}" for s, k in ALL_KERNELS])
def test_builtin_suite_equivalence(suite, kernel):
    spec = spec_from_kernel(kernel, suite=suite)
    _check_both(spec.source, spec.kernel_name, spec.launch_config)


def test_static_oob_witness_matches_engine():
    """An overrun the static tier finds by enumeration (the OOB
    discharge hook) carries the report and witness the solver-backed
    engine produces."""
    source = "__global__ void k(int *a) { a[threadIdx.x + 1] = 1; }"

    def config():
        return LaunchConfig(block_dim=64, array_sizes={"a": 64})
    tiered, mono = _check_both(source, None, config)
    assert tiered.check_stats.tier == "static"
    assert [(o.obj_name, str(o.witness)) for o in tiered.oobs] == \
        [(o.obj_name, str(o.witness)) for o in mono.oobs] == \
        [("a", "block (0, 0, 0) thread (63, 0, 0)")]


def test_escalation_records_reason():
    """An atomic kernel escapes the decidable fragment in prescreen —
    cheaply, before any walk — and the reason lands in the stats."""
    source = """
__global__ void k(unsigned *g) {
  atomicAdd(&g[threadIdx.x & 7], 1);
}
"""
    tool = SESA.from_source(source)
    report = tool.check(LaunchConfig(grid_dim=1, block_dim=8))
    cs = report.check_stats
    assert cs.tier == "parametric"
    assert cs.static_resolved == 0
    assert cs.static_bail_reason == "atomic"


def test_disabled_tier_runs_single_pipeline():
    source = """
__global__ void k(int *out) {
  out[threadIdx.x] = threadIdx.x;
}
"""
    config = LaunchConfig(grid_dim=1, block_dim=8, static_tier=False)
    report = SESA.from_source(source).check(config)
    cs = report.check_stats
    assert cs.tier == "parametric"
    assert cs.static_resolved == 0
    assert cs.static_bail_reason is None
    assert cs.static_seconds == 0.0


def test_pair_outside_fragment_falls_back_alone():
    """histo_prescan's record is enumerable, but one pair's domain is
    past the enumeration cap: that pair goes to the solver, the others
    stay enumerated, and the verdict is the solver-only one."""
    kernel = ALL_KERNELS_BY_NAME["histo_prescan"]
    tiered, _mono = _check_both(kernel.source, kernel.kernel_name,
                                kernel.launch_config)
    cs = tiered.check_stats
    assert cs.tier == "parametric"
    assert cs.static_pairs_discharged > 0
    assert cs.queries > 0
    assert "exceeds enumeration cap" in cs.static_bail_reason


@pytest.mark.parametrize("name", ["bitonic_fig1", "matrixMul"])
def test_one_execution_per_check(monkeypatch, name):
    """bitonic_fig1 is decided by enumeration, matrixMul's record
    splits; either way the kernel is executed once."""
    runs = []
    original = Executor.run

    def counting_run(self):
        runs.append(self)
        return original(self)

    monkeypatch.setattr(Executor, "run", counting_run)
    kernel = ALL_KERNELS_BY_NAME[name]
    SESA.from_source(kernel.source, kernel.kernel_name).check(
        kernel.launch_config())
    assert len(runs) == 1


@pytest.mark.parametrize("name", ["fastWalsh", "histo_prescan"])
def test_phases_are_disjoint(name):
    """The static, execute, pair-generation and solve phases never
    add up to more than the whole check, also when enumeration runs
    inside the pair steps."""
    kernel = ALL_KERNELS_BY_NAME[name]
    report = SESA.from_source(kernel.source, kernel.kernel_name).check(
        kernel.launch_config())
    cs = report.check_stats
    phases = (cs.static_seconds, cs.execute_seconds, cs.pairgen_seconds,
              cs.solve_seconds)
    assert cs.static_seconds > 0
    assert all(p >= 0 for p in phases)
    assert sum(phases) <= report.elapsed_seconds
    total = _phase_breakdown(cs)["phases"]["total_seconds"]
    assert total == pytest.approx(sum(phases), abs=1e-5)


#: every store's offset reads the input array (an uninterpreted
#: application), so each pair leaves the fragment
INPUT_OFFSETS = """
__shared__ int s[16];
__global__ void k(int *in, int *out) {
  s[in[threadIdx.x] & 15] = 1;
  s[in[threadIdx.x + 1] & 15] = 2;
  s[in[threadIdx.x + 2] & 15] = 3;
  __syncthreads();
  out[threadIdx.x] = s[in[threadIdx.x] & 15];
}
"""


def test_failed_terms_are_not_evaluated_again(monkeypatch):
    """Pairs whose offsets read the input array (an uninterpreted
    application) all leave the fragment. A term set whose evaluation
    failed once fails every later pair from the adjudicator's cache,
    without being evaluated again."""
    from repro.static import checker as static_checker

    failed = []
    original = static_checker._veval

    def recording_veval(roots, *args):
        try:
            return original(roots, *args)
        except static_checker.StaticUnknown:
            failed.append(tuple(id(t) for t in roots))
            raise

    monkeypatch.setattr(static_checker, "_veval", recording_veval)
    report = SESA.from_source(INPUT_OFFSETS).check(
        LaunchConfig(block_dim=8))
    cs = report.check_stats
    assert cs.static_bail_reason.startswith("uninterpreted")
    assert cs.static_pairs_discharged == 0
    assert failed and len(set(failed)) == len(failed)
    assert len(failed) < cs.static_pairs_checked


# ---------------------------------------------------------------------------
# property: random affine kernels
# ---------------------------------------------------------------------------

AFFINE_IDX = ["threadIdx.x", "threadIdx.x + 1", "threadIdx.x * 2",
              "threadIdx.x * 2 + 1", "15 - threadIdx.x",
              "blockIdx.x * blockDim.x + threadIdx.x",
              "threadIdx.x + 8 * blockIdx.x"]
AFFINE_VAL = ["0", "1", "threadIdx.x", "threadIdx.x + blockIdx.x",
              "threadIdx.x * 3"]


@st.composite
def affine_programs(draw):
    n = draw(st.integers(1, 4))
    stmts = []
    for _ in range(n):
        kind = draw(st.sampled_from(["store", "load", "sync"]))
        if kind == "store":
            idx = draw(st.sampled_from(AFFINE_IDX))
            val = draw(st.sampled_from(AFFINE_VAL))
            stmts.append(f"s[({idx}) & 15] = (int)({val});")
        elif kind == "load":
            idx = draw(st.sampled_from(AFFINE_IDX))
            stmts.append(f"i = s[({idx}) & 15] + i;")
        else:
            stmts.append("__syncthreads();")
    body = "\n  ".join(stmts)
    return f"""
__shared__ int s[16];
__global__ void k(int *out) {{
  int i = 0;
  {body}
  out[blockIdx.x * blockDim.x + threadIdx.x] = i;
}}
"""


@settings(max_examples=30, deadline=None)
@given(source=affine_programs())
def test_affine_property_tier_never_contradicts_engine(source):
    def config():
        return LaunchConfig(grid_dim=2, block_dim=8)
    tiered, _mono = _check_both(source, None, config, max_reports=8)
    # these kernels are squarely inside the decidable fragment: pure
    # affine addressing, concrete guards, no atomics or symbolic scalars
    assert tiered.check_stats.tier == "static", \
        tiered.check_stats.static_bail_reason
