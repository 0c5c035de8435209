"""Job specs in older wire forms.

Old clients and stored SQLite job rows may still carry
``incremental_solving``. The field is gone, so it is ignored: the spec
validates, the job runs on solver sessions, and it shares its cache key
with the same spec without the field.

The wire form stays flat although a :class:`JobSpec` now carries one
:class:`~repro.sym.LaunchConfig`: old flat dicts with ``static_tier``,
``pair_pruning`` and JSON ``null`` budgets validate and share their
cache key with the equivalent spec built in code.
"""
import pytest

from repro.cli import main
from repro.kernels import ALL_KERNELS
from repro.service import JobSpec, cache_key
from repro.service.corpus import builtin_jobs
from repro.service.runner import execute_job
from repro.sym import LaunchConfig
from repro.sym.config import (
    ACCELERATORS, FINGERPRINT_FIELDS, OFF_WIRE, WIRE_FIELDS,
)


def _spec_dict():
    spec = next(s for s in builtin_jobs("paper")
                if s.meta["kernel"] == "reduction_racy")
    data = spec.to_dict()
    # the static tier would settle the kernel before any session exists
    data["static_tier"] = False
    return data


def test_old_spec_validates_and_shares_the_cache_key():
    new = _spec_dict()
    old = dict(new, incremental_solving=False)
    spec = JobSpec.from_dict(old)
    spec.validate()
    assert cache_key(spec) == cache_key(JobSpec.from_dict(new))


def test_old_spec_runs_on_sessions():
    payload = execute_job(dict(_spec_dict(), incremental_solving=False))
    assert payload["status"] == "done", payload["error"]
    assert payload["verdict"]["races"]
    assert payload["check_stats"]["sessions_created"] >= 1


#: ``reduction_racy`` as a client wrote it before specs carried a
#: config: every launch setting flat, unset caps as ``null``
OLD_FLAT = {
    "job_id": "builtin/paper/reduction_racy", "engine": "sesa",
    "kernel_name": None, "grid_dim": [1, 1, 1], "block_dim": [64, 1, 1],
    "warp_size": 32, "warp_lockstep": False, "check_oob": True,
    "symbolic_inputs": None, "scalar_values": {}, "array_sizes": {},
    "max_loop_splits": None, "max_flows": None, "max_steps": None,
    "time_budget_seconds": None, "pair_pruning": True,
    "static_tier": True, "repair": False, "needs_concrete_graph": False,
    "shard": None, "solver_conflict_budget": None,
    "solver_cache_dir": None, "meta": {},
}


@pytest.mark.parametrize("old, config", [
    ({}, LaunchConfig()),
    ({"static_tier": False}, LaunchConfig(static_tier=False)),
    ({"pair_pruning": False}, LaunchConfig(pair_pruning=False)),
    ({"max_flows": 64, "block_dim": [32]},
     LaunchConfig(max_flows=64, block_dim=32)),
    ({"symbolic_inputs": ["b", "a"], "solver_cache_dir": "/tmp/x"},
     LaunchConfig(symbolic_inputs={"a", "b"})),
])
def test_old_flat_spec_shares_the_cache_key(old, config):
    source = ALL_KERNELS["reduction_racy"].source
    spec = JobSpec.from_dict(dict(OLD_FLAT, source=source, **old))
    spec.validate()
    new = JobSpec(job_id="any", source=source, config=config)
    assert cache_key(spec) == cache_key(new)
    assert JobSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()


#: the wire form as old clients and stored job rows know it
WIRE = {"grid_dim", "block_dim", "warp_size", "warp_lockstep",
        "check_oob", "symbolic_inputs", "scalar_values", "array_sizes",
        "max_loop_splits", "max_flows", "max_steps", "time_budget_seconds",
        "pair_pruning", "static_tier", "shard", "solver_conflict_budget",
        "solver_cache_dir"}


def test_every_config_field_makes_a_keying_decision():
    """Every LaunchConfig field is hashed into both cache keys unless it
    is named off the wire or an accelerator; a new field fails here
    until it is listed on one side."""
    fields = set(LaunchConfig.__dataclass_fields__)
    assert fields == set(FINGERPRINT_FIELDS) | OFF_WIRE | ACCELERATORS
    assert set(WIRE_FIELDS) == fields - OFF_WIRE == WIRE
    assert not ACCELERATORS & OFF_WIRE
    assert set(LaunchConfig().fingerprint()) == set(FINGERPRINT_FIELDS)
    assert set(LaunchConfig().to_dict()) == set(WIRE_FIELDS)


def test_job_spec_has_no_launch_setting_of_its_own():
    assert not set(JobSpec.__dataclass_fields__) \
        & set(LaunchConfig.__dataclass_fields__)


def test_no_incremental_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "examples/kernels/scatter.cu", "--no-incremental"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-incremental" \
        in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "profile", "batch",
                                     "stream"])
@pytest.mark.parametrize("flag", ["--no-static-tier", "--no-pruning",
                                  "--solver-cache"])
def test_retired_flag_is_a_usage_error(command, flag, capsys):
    target = "builtin:race_free_pipeline" if command == "stream" \
        else "examples/kernels/scatter.cu"
    with pytest.raises(SystemExit) as exc:
        main([command, target, flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
