"""Swarm orchestration: run one kernel's race check as shard jobs.

The planner (:func:`plan_shard_specs`) symbolically executes the
kernel **once** on the coordinator side, over the shared compile that
:func:`swarm_cache_key` already made — no SAT solving — to enumerate
the canonical pair groups, partitions them with
:func:`repro.sym.swarm.plan_partitions`, and emits one ordinary
:class:`JobSpec` per shard. Shards run through the existing
process-isolated :class:`~repro.service.scheduler.Scheduler` (or the
daemon queue — see :mod:`repro.service.daemon.api`) exactly like any
other job: the shard descriptor is part of the cache fingerprint, so
the cache/dedup layers work unchanged and a shard verdict can never be
confused with a monolithic one.

The merged verdict is :func:`repro.sym.swarm.merge_shard_outcomes`:
racy if any shard is racy, safe only when every shard completed
cleanly safe, unknown otherwise (with the unresolved shards listed).
"""
from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

from ..sym.swarm import (
    ShardOutcome, ShardSelector, merge_shard_outcomes, plan_partitions,
    validate_partition,
)
from .cache import (
    ResultCache, cache_key, content_key, get_result, put_result,
    shared_module,
)
from .jobs import JobResult, JobSpec, JobStatus
from .runner import execute_job
from .scheduler import BatchResult, Scheduler
from .telemetry import Telemetry


class SwarmPlanError(RuntimeError):
    """The kernel cannot be swarm-planned (non-SESA engine, compile
    failure, ...). Callers fall back to the monolithic path."""


def swarm_cache_key(spec: JobSpec, num_shards: int) -> str:
    """Cache key for the *merged* parent verdict. Derived from the
    monolithic key plus the shard count — merged results never share
    entries with monolithic verdicts (witnesses may differ)."""
    return content_key("swarm", parent=cache_key(spec), swarm=num_shards)


def plan_shard_specs(spec: JobSpec, num_shards: int,
                     max_pairs_per_shard: Optional[int] = None,
                     ) -> Tuple[List[JobSpec], List[ShardSelector], dict]:
    """Split *spec* into shard job specs.

    Returns ``(shard_specs, selectors, plan_info)``. Raises
    :class:`SwarmPlanError` when the kernel cannot be planned.
    """
    if num_shards < 1:
        raise SwarmPlanError("num_shards must be >= 1")
    if spec.engine != "sesa":
        raise SwarmPlanError(
            f"swarm checking supports the sesa engine only "
            f"(got {spec.engine!r})")
    if spec.config.shard is not None:
        raise SwarmPlanError("cannot re-shard an existing shard job")
    if spec.repair:
        raise SwarmPlanError("repair jobs cannot be sharded")
    try:
        from ..core import SESA
        tool = SESA.from_compiled(shared_module(spec.source),
                                  spec.kernel_name)
        groups = tool.plan_check_groups(spec.launch_config())
    except SwarmPlanError:
        raise
    except Exception as exc:
        raise SwarmPlanError(
            f"swarm planning failed for {spec.job_id!r}: "
            f"{type(exc).__name__}: {exc}") from None
    selectors = plan_partitions([size for _key, size in groups],
                                num_shards, max_pairs_per_shard)
    validate_partition(selectors)
    base = spec.to_dict()
    shard_specs = []
    for sel in selectors:
        data = dict(base)
        data["job_id"] = f"{spec.job_id}#{sel.label()}"
        data["shard"] = sel.to_dict()
        data["meta"] = dict(spec.meta,
                            swarm_parent=spec.job_id,
                            swarm_parent_key=cache_key(spec),
                            shard=sel.label())
        shard_specs.append(JobSpec.from_dict(data))
    plan_info = {
        "total_pairs": sum(size for _key, size in groups),
        "groups": len(groups),
        "shards": len(selectors),
        "requested_shards": num_shards,
    }
    return shard_specs, selectors, plan_info


def outcomes_from_results(selectors: Sequence[ShardSelector],
                          results: Sequence[Optional[JobResult]],
                          ) -> List[ShardOutcome]:
    """Pair up planner selectors with scheduler results. A missing or
    failed result still produces an outcome — classified UNKNOWN."""
    outcomes = []
    for sel, result in zip(selectors, results):
        if result is None:
            outcomes.append(ShardOutcome(
                shard=sel, status="lost", error="no result recorded"))
            continue
        outcomes.append(ShardOutcome(
            shard=sel, status=result.status, verdict=result.verdict,
            job_id=result.job_id, error=result.error,
            elapsed_seconds=result.elapsed_seconds))
    return outcomes


def merged_job_result(spec: JobSpec, outcomes: Sequence[ShardOutcome],
                      cache_key_used: Optional[str] = None,
                      elapsed_seconds: float = 0.0) -> JobResult:
    """The parent-level :class:`JobResult` for a merged swarm check.

    The parent is DONE with a merged verdict whenever *any* shard
    produced one (an unresolved shard surfaces as ``timed_out`` +
    warnings — unknown, never safe); it is ERROR only when every
    shard failed outright.
    """
    if not any(o.verdict for o in outcomes):
        failures = "; ".join(
            f"{o.shard.label()}: {o.status}"
            + (f" ({o.error})" if o.error else "")
            for o in outcomes)
        return JobResult.failure(
            f"all {len(outcomes)} shard(s) failed: {failures}",
            job_id=spec.job_id, engine=spec.engine,
            attempts=len(outcomes), elapsed_seconds=elapsed_seconds,
            cache_key=cache_key_used)
    return JobResult(
        job_id=spec.job_id, status=JobStatus.DONE, engine=spec.engine,
        attempts=len(outcomes), elapsed_seconds=elapsed_seconds,
        cache_key=cache_key_used, verdict=merge_shard_outcomes(outcomes))


# ----------------------------------------------------------------------
# batch driving
# ----------------------------------------------------------------------

def run_swarm_batch(specs: Sequence[JobSpec], num_shards: int, *,
                    max_workers: int = 4,
                    timeout_seconds: Optional[float] = None,
                    max_retries: int = 1,
                    cache: Optional[ResultCache] = None,
                    telemetry: Optional[Telemetry] = None,
                    max_pairs_per_shard: Optional[int] = None,
                    ) -> BatchResult:
    """Check every spec swarm-style: plan shards, run them all through
    one scheduler pass, merge per parent. Parents that cannot be
    planned (non-SESA engine, compile failure at plan time) fall back
    to ordinary monolithic jobs in the same scheduler run, so a swarm
    batch always yields one result per submitted spec, in submission
    order — exactly like ``Scheduler.run``.
    """
    telemetry = telemetry or Telemetry()
    start = time.perf_counter()
    hits0 = cache.hits if cache else 0
    misses0 = cache.misses if cache else 0

    # -- plan --------------------------------------------------------
    plans: List[dict] = []          # one entry per submitted spec
    work: List[JobSpec] = []        # shard + fallback specs to run
    for spec in specs:
        parent_key = swarm_cache_key(spec, num_shards) if cache else None
        if parent_key is not None:
            cached = get_result(cache, parent_key, spec.job_id)
            if cached is not None:
                telemetry.emit("cache_hit", job_id=spec.job_id,
                               cache_key=parent_key)
                plans.append({"spec": spec, "cached": cached})
                continue
            telemetry.emit("cache_miss", job_id=spec.job_id,
                           cache_key=parent_key)
        try:
            shard_specs, selectors, info = plan_shard_specs(
                spec, num_shards, max_pairs_per_shard)
        except SwarmPlanError as exc:
            telemetry.emit("swarm_fallback", job_id=spec.job_id,
                           reason=str(exc))
            plans.append({"spec": spec, "fallback": len(work),
                          "parent_key": parent_key})
            work.append(spec)
            continue
        telemetry.emit("swarm_planned", job_id=spec.job_id,
                       shards=info["shards"],
                       total_pairs=info["total_pairs"],
                       groups=info["groups"])
        plans.append({"spec": spec, "selectors": selectors,
                      "first": len(work), "count": len(shard_specs),
                      "parent_key": parent_key, "info": info})
        work.extend(shard_specs)

    # -- run every shard (and fallback) through one scheduler pass ---
    results: List[Optional[JobResult]] = []
    if work:
        sched = Scheduler(max_workers=max_workers,
                          timeout_seconds=timeout_seconds,
                          max_retries=max_retries, cache=cache,
                          telemetry=telemetry, runner=execute_job)
        results = list(sched.run(work).jobs)
        results.extend([None] * (len(work) - len(results)))

    # -- merge per parent --------------------------------------------
    merged_results: List[JobResult] = []
    for plan in plans:
        spec = plan["spec"]
        if "cached" in plan:
            merged_results.append(plan["cached"])
            continue
        if "fallback" in plan:
            result = results[plan["fallback"]]
            merged_results.append(result or JobResult.failure(
                "no result recorded", job_id=spec.job_id,
                engine=spec.engine))
            continue
        window = results[plan["first"]:plan["first"] + plan["count"]]
        outcomes = outcomes_from_results(plan["selectors"], window)
        for outcome in outcomes:
            telemetry.emit(
                "shard_finished", job_id=spec.job_id,
                shard=outcome.shard.label(), status=outcome.status,
                outcome=outcome.classify(),
                pairs=outcome.shard.num_pairs)
        elapsed = sum(o.elapsed_seconds for o in outcomes)
        parent = merged_job_result(spec, outcomes,
                                   cache_key_used=plan["parent_key"],
                                   elapsed_seconds=elapsed)
        telemetry.emit(
            "swarm_merged", job_id=spec.job_id,
            verdict=(parent.verdict or {}).get("swarm", {}).get("verdict"),
            shards=len(outcomes),
            unresolved=(parent.verdict or {}).get(
                "swarm", {}).get("unresolved"),
            status=parent.status)
        if plan["parent_key"] is not None:
            put_result(cache, plan["parent_key"], parent)
        merged_results.append(parent)

    return BatchResult(
        jobs=merged_results,
        elapsed_seconds=time.perf_counter() - start,
        cache_hits=(cache.hits - hits0) if cache else 0,
        cache_misses=(cache.misses - misses0) if cache else 0)


def run_swarm_check(spec: JobSpec, num_shards: int, *,
                    max_workers: Optional[int] = None,
                    timeout_seconds: Optional[float] = None,
                    cache: Optional[ResultCache] = None,
                    telemetry: Optional[Telemetry] = None,
                    max_pairs_per_shard: Optional[int] = None,
                    ) -> JobResult:
    """Swarm-check a single kernel (the ``repro check --swarm N``
    path): plan, run shards in parallel, merge."""
    batch = run_swarm_batch(
        [spec], num_shards,
        max_workers=max_workers if max_workers is not None
        else max(1, num_shards),
        timeout_seconds=timeout_seconds, cache=cache,
        telemetry=telemetry, max_pairs_per_shard=max_pairs_per_shard)
    return batch.jobs[0]
