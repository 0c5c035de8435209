"""Job specs written before the one-shot solving path was removed.

Old clients and stored SQLite job rows may still carry
``incremental_solving``. The field is gone, so it is ignored: the spec
validates, the job runs on solver sessions, and it shares its cache key
with the same spec without the field.
"""
import pytest

from repro.cli import main
from repro.service import JobSpec, cache_key
from repro.service.corpus import builtin_jobs
from repro.service.runner import execute_job


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


def test_no_incremental_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "examples/kernels/scatter.cu", "--no-incremental"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-incremental" \
        in capsys.readouterr().err
