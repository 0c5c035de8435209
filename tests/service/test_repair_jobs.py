"""Batch jobs with ``repair=True``: real end-to-end repair through the
scheduler, cache fingerprinting, and telemetry events."""
import json

from repro.service import JobSpec, JobStatus
from repro.service.cache import cache_key
from repro.service.runner import execute_job
from repro.service.scheduler import run_batch
from repro.sym import LaunchConfig

BUGGY = """
__shared__ float sdata[512];
__global__ void reduce(float *idata, float *odata) {
  sdata[threadIdx.x] = idata[threadIdx.x];
  __syncthreads();
  for (unsigned int s = 1; s < blockDim.x; s *= 2) {
    if (threadIdx.x % (2*s) == 0)
      sdata[threadIdx.x] += sdata[threadIdx.x + s];
  }
  __syncthreads();
  odata[threadIdx.x] = sdata[threadIdx.x];
}
"""

CLEAN = """
__global__ void k(float *a) { a[threadIdx.x] = 1.0f; }
"""


def _spec(job_id="reduce", source=BUGGY, check_oob=False, **kw):
    return JobSpec(job_id=job_id, source=source,
                   config=LaunchConfig(block_dim=64, check_oob=check_oob),
                   **kw)


class TestRunner:
    def test_repair_payload_attached(self):
        payload = execute_job(_spec(repair=True).to_dict())
        assert payload["status"] == JobStatus.DONE
        repair = payload["repair"]
        assert repair is not None
        assert repair["converged"] and repair["verified"]
        assert len(repair["edits"]) == 1
        json.dumps(payload)

    def test_no_repair_without_flag(self):
        payload = execute_job(_spec().to_dict())
        assert payload["status"] == JobStatus.DONE
        assert payload["repair"] is None

    def test_clean_kernel_skips_repair(self):
        # nothing to repair: the runner doesn't spin up the engine
        payload = execute_job(_spec(source=CLEAN, repair=True,
                                    check_oob=True).to_dict())
        assert payload["status"] == JobStatus.DONE
        assert payload["repair"] is None


class TestFingerprint:
    def test_repair_flag_changes_cache_key(self):
        plain = _spec()
        repairing = _spec(repair=True)
        assert plain.config_fingerprint() != repairing.config_fingerprint()
        assert cache_key(plain) != cache_key(repairing)

    def test_spec_roundtrips_repair_flag(self):
        spec = _spec(repair=True)
        clone = JobSpec.from_dict(spec.to_dict())
        assert clone.repair is True


class TestScheduler:
    def test_batch_repair_end_to_end(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        batch = run_batch([_spec(repair=True)], max_workers=1,
                          trace_path=trace, isolate=False)
        assert batch.ok
        job = batch.jobs[0]
        assert job.repair is not None
        assert job.repair["verified"] is True
        events = [json.loads(line)["event"]
                  for line in open(trace, encoding="utf-8")]
        assert "repair_started" in events
        assert "repair_finished" in events

    def test_repair_result_served_from_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        kw = dict(max_workers=1, cache_dir=cache_dir, isolate=False,
                  trace_path=str(tmp_path / "t.jsonl"))
        first = run_batch([_spec(repair=True)], **kw)
        assert first.jobs[0].repair is not None
        second = run_batch([_spec(repair=True)], **kw)
        assert second.jobs[0].status == JobStatus.CACHED
        assert second.jobs[0].repair == first.jobs[0].repair
