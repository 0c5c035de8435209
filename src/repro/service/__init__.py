"""Batch analysis service: schedulable, cacheable, fault-isolated jobs.

The paper's headline result is *throughput* — checking the whole CUDA
SDK corpus where the comparator times out. This package is the
orchestration layer that makes corpus-scale runs a first-class
operation:

* :mod:`~repro.service.jobs` — the serialisable job model
  (:class:`JobSpec` in, :class:`JobResult` out);
* :mod:`~repro.service.scheduler` — a parallel, fault-isolating
  scheduler (process-per-job, hard timeouts, bounded retries);
* :mod:`~repro.service.cache` — the one content-keyed store
  (:class:`ResultCache`): job verdicts keyed on (canonical IR with
  source locations, config, engine, checker code digest), and the one
  compile per source those keys and the checks read;
* :mod:`~repro.service.telemetry` — structured JSONL event traces
  plus aggregate summaries;
* :mod:`~repro.service.corpus` — enumeration of the built-in paper
  suites and user-supplied kernel directories;
* :mod:`~repro.service.daemon` — the persistent service: durable
  SQLite job queue, lease-based worker fleet, and HTTP/JSON API
  (`repro serve` / `repro submit`).

Typical use::

    from repro.service import load_corpus, run_batch

    batch = run_batch(load_corpus(["builtin:sdk"]), max_workers=4,
                      cache_dir=".repro-cache")
    for job in batch.jobs:
        print(job.job_id, job.status, job.issue_tags())
"""
from .cache import (
    ResultCache, cache_key, canonical_form, content_key, get_result,
    put_result, trace_hit_rate,
)
from .corpus import (
    SUITES, builtin_jobs, directory_jobs, file_job, load_corpus,
    spec_from_kernel, stream_jobs,
)
from .jobs import (
    JOB_KINDS, JobResult, JobSpec, JobState, JobStatus,
    JobValidationError,
)
from .runner import execute_job, run_attempt, run_job_isolated
from .scheduler import BatchResult, Scheduler, run_batch
from .swarm import (
    SwarmPlanError, plan_shard_specs, run_swarm_batch, run_swarm_check,
    swarm_cache_key,
)
from .telemetry import Telemetry

__all__ = [
    "BatchResult", "JobResult", "JobSpec", "JobState", "JobStatus",
    "JobValidationError", "ResultCache", "SUITES", "Scheduler",
    "Telemetry", "builtin_jobs", "cache_key", "canonical_form",
    "content_key", "directory_jobs", "execute_job", "file_job",
    "get_result", "put_result",
    "load_corpus", "JOB_KINDS", "run_attempt", "run_batch",
    "run_job_isolated",
    "spec_from_kernel", "stream_jobs", "trace_hit_rate",
    "SwarmPlanError", "plan_shard_specs", "run_swarm_batch",
    "run_swarm_check", "swarm_cache_key",
]
