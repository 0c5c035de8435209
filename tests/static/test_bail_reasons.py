"""Static-tier escalation: one test per prescreen bail reason.

Each prescreen condition must (a) escalate the kernel to the
parametric engine and (b) surface its exact reason string as
``static_bail_reason`` in the report JSON — the field batch/daemon
telemetry and the tier dashboards key on.
"""
import json

from repro.core import SESA, LaunchConfig
from repro.smt import mk_bv, mk_bv_var, mk_ult
from repro.sym.swarm import ShardSelector

# a kernel the static tier resolves trivially when nothing bails
EASY = "__global__ void k(int *a) { a[threadIdx.x] = threadIdx.x; }"


def _bail_reason(source=EASY, config=None):
    report = SESA.from_source(source).check(config or LaunchConfig())
    data = report.to_dict()
    stats = data["check_stats"]
    json.dumps(data)  # the reason must survive serialisation
    assert stats["tier"] == "parametric", \
        "expected escalation, static tier resolved it"
    assert stats["static_resolved"] == 0
    return stats["static_bail_reason"]


def test_baseline_easy_kernel_resolves_statically():
    report = SESA.from_source(EASY).check(LaunchConfig())
    stats = report.to_dict()["check_stats"]
    assert stats["tier"] == "static"
    assert stats["static_bail_reason"] is None


def test_swarm_shard_bails():
    shard = ShardSelector(index=0, count=2, total_pairs=2,
                          ranges=((0, 1),), check_aux=True)
    assert _bail_reason(config=LaunchConfig(shard=shard)) == \
        "swarm shard"


def test_user_assumptions_bail():
    tid = mk_bv_var("tid.x", 32)
    config = LaunchConfig(assumptions=[mk_ult(tid, mk_bv(16, 32))])
    assert _bail_reason(config=config) == "user assumptions"


def test_warp_lockstep_bails():
    config = LaunchConfig(warp_lockstep=True, warp_size=32)
    assert _bail_reason(config=config) == "warp lockstep"


def test_time_budget_bails():
    config = LaunchConfig(time_budget_seconds=60.0)
    assert _bail_reason(config=config) == "time budget"


def test_solver_budget_override_on_config_bails():
    config = LaunchConfig(solver_conflict_budget=10)
    assert _bail_reason(config=config) == "solver budget override"


def test_atomic_bails():
    source = "__global__ void k(int *c) { atomicAdd(&c[0], 1); }"
    assert _bail_reason(source=source) == "atomic"


def test_assertion_bails():
    source = ("__global__ void k(int *a) {\n"
              "  assert(threadIdx.x < 64u);\n"
              "  a[threadIdx.x] = 1;\n"
              "}")
    assert _bail_reason(source=source) == "assertion"


def test_divergent_flow_split_bails_during_walk():
    # no prescreen trigger: a barrier inside a divergent arm makes the
    # diamond non-mergeable, so the walker itself has to split
    source = ("__global__ void k(int *a) {\n"
              "  if (threadIdx.x < 4) {\n"
              "    a[threadIdx.x] = 1;\n"
              "    __syncthreads();\n"
              "    a[threadIdx.x] = 2;\n"
              "  }\n"
              "}")
    assert _bail_reason(source=source) == "divergent flow split"
