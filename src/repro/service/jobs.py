"""Job model for the batch analysis service.

A :class:`JobSpec` is a fully serialisable description of one
``(kernel, LaunchConfig, engine)`` analysis — everything a worker
process needs to run the check from scratch. A :class:`JobResult` is
the equally serialisable outcome record: the scheduler guarantees one
result per submitted job, whatever happened to the worker (success,
analysis error, crash, or hard timeout).

Keeping both sides plain-data (dicts of str/int/list) is what lets the
scheduler ship jobs across process boundaries, the cache persist them
as JSON, and the telemetry trace replay them later.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..sym.config import LaunchConfig


class JobStatus:
    """Lifecycle tags for a batch job (plain strings, JSON-friendly)."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"          # analysis completed (races found or not)
    ERROR = "error"        # analysis raised / worker kept crashing
    TIMEOUT = "timeout"    # hard wall-clock kill by the scheduler
    CACHED = "cached"      # verdict served from the result cache

    #: statuses that mean "the batch has a verdict for this job"
    TERMINAL = (DONE, ERROR, TIMEOUT, CACHED)


class JobState:
    """Durable queue states for daemon jobs (:mod:`repro.service.daemon`).

    ``queued → leased → done|failed`` is the happy path; a crashed or
    vanished worker's lease expires and the job goes back to ``queued``
    until the retry budget is spent, after which it is ``dead``.
    """

    QUEUED = "queued"      # waiting for a worker lease
    LEASED = "leased"      # claimed by a worker under a live lease
    WAITING = "waiting"    # swarm parent: blocked on its shard jobs
    DONE = "done"          # verdict recorded (including cache hits)
    FAILED = "failed"      # deterministic analysis/validation failure
    DEAD = "dead"          # retry budget exhausted (crashes, expiries)

    #: states from which the job will never run again
    TERMINAL = (DONE, FAILED, DEAD)
    #: states under which a duplicate submit can piggyback on the job
    SHARABLE = (QUEUED, LEASED, WAITING, DONE)


class JobValidationError(ValueError):
    """A job spec that can never run: bad engine, empty source,
    non-positive dims, malformed value maps. Raised by
    :meth:`JobSpec.validate`; runners normalise it into a structured
    failed result instead of a traceback."""


#: engines a worker knows how to run (also re-exported by the runner)
ENGINE_NAMES = ("sesa", "gkleep", "gklee")

#: kinds of work a job spec can describe: a single-kernel analysis
#: (the default) or a whole multi-launch stream program
JOB_KINDS = ("kernel", "stream")


@dataclass
class JobSpec:
    """One schedulable analysis: a kernel (or stream program) and the
    :class:`~repro.sym.LaunchConfig` to check it under.

    The wire form is flat: :meth:`to_dict` merges the config's wire
    fields (:meth:`LaunchConfig.to_dict`) with the job-level keys, so
    HTTP clients and stored job rows need no nesting.
    """

    job_id: str
    source: str
    kernel_name: Optional[str] = None
    engine: str = "sesa"
    #: every launch setting of the job; a stream job's per-launch
    #: settings come from its program instead
    config: LaunchConfig = field(default_factory=LaunchConfig)
    #: also run the CEGIS barrier-repair loop and attach its outcome
    repair: bool = False
    #: Table III kernels need the synthetic CSR graph attached
    needs_concrete_graph: bool = False
    #: what kind of work this spec describes (see :data:`JOB_KINDS`);
    #: ``stream`` jobs run a whole multi-launch program through
    #: :class:`repro.streams.StreamChecker` instead of one kernel
    kind: str = "kernel"
    #: serialised :meth:`repro.streams.StreamProgram.to_dict`
    #: (source-free: ``source`` holds the multi-kernel ``.cu`` text)
    stream_program: Optional[dict] = None
    #: free-form passthrough (suite/table tags, test fixtures, ...)
    meta: Dict[str, object] = field(default_factory=dict)

    def validate(self) -> None:
        """Reject specs that can never run (:class:`JobValidationError`).

        Catches the malformed-input class of failures *before* a worker
        process is spent on them: unknown engines, empty sources, the
        config's own checks (:meth:`LaunchConfig.validate`), stream
        specs that set a per-launch setting. Anything that passes here
        can still fail analysis, but it fails as a real analysis error,
        not an input error.
        """
        def bad(reason: str) -> None:
            raise JobValidationError(
                f"invalid job spec {self.job_id!r}: {reason}")

        if not self.job_id or not isinstance(self.job_id, str):
            raise JobValidationError(
                "invalid job spec: job_id must be a non-empty string")
        if self.engine not in ENGINE_NAMES:
            bad(f"unknown engine {self.engine!r} "
                f"(expected one of {', '.join(ENGINE_NAMES)})")
        if not isinstance(self.source, str) or not self.source.strip():
            bad("source is empty")
        try:
            self.config.validate()
        except ValueError as exc:
            bad(str(exc))
        if self.kind not in JOB_KINDS:
            bad(f"unknown kind {self.kind!r} "
                f"(expected one of {', '.join(JOB_KINDS)})")
        if self.kind == "stream":
            if self.engine != "sesa":
                bad(f"stream jobs require the sesa engine, "
                    f"not {self.engine!r}")
            if not isinstance(self.stream_program, dict) \
                    or not self.stream_program.get("steps"):
                bad("stream jobs need a stream_program with steps")
            from ..streams.checker import check_base_config
            try:
                check_base_config(self.config)
            except ValueError as exc:
                bad(str(exc))
        elif self.stream_program is not None:
            bad("stream_program is only valid with kind='stream'")

    def launch_config(self) -> LaunchConfig:
        """A fresh copy of :attr:`config` for one check (worker side):
        engines write into the config they are given."""
        config = self.config.copy()
        if self.needs_concrete_graph:
            from ..kernels.lonestar import attach_concrete_graph
            attach_concrete_graph(config)
        return config

    def _job_keys(self) -> dict:
        out = {"engine": self.engine, "kernel_name": self.kernel_name,
               "needs_concrete_graph": self.needs_concrete_graph,
               # a repair run produces strictly more output than a
               # plain check, so the two must not share cache entries
               "repair": self.repair}
        if self.kind != "kernel":
            # a stream job's launch sequence is verdict-determining
            out["kind"] = self.kind
            out["stream_program"] = self.stream_program
        return out

    def config_fingerprint(self) -> dict:
        """The facts that determine the verdict — the cache key hashes
        this dict: :meth:`LaunchConfig.fingerprint` plus the job-level
        keys (no job identity, no accelerator)."""
        out = self.config.fingerprint()
        out.update(self._job_keys())
        return out

    def to_dict(self) -> dict:
        out = self.config.to_dict()
        out.update(self._job_keys(), job_id=self.job_id,
                   source=self.source, meta=dict(self.meta))
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        if not isinstance(data, dict):
            raise JobValidationError(
                f"invalid job spec: expected an object, got "
                f"{type(data).__name__}")
        missing = [k for k in ("job_id", "source") if k not in data]
        if missing:
            raise JobValidationError(
                f"invalid job spec: missing field(s) "
                f"{', '.join(missing)}")
        try:
            return cls(
                job_id=data["job_id"], source=data["source"],
                kernel_name=data.get("kernel_name"),
                engine=data.get("engine", "sesa"),
                config=LaunchConfig.from_dict(data),
                repair=data.get("repair", False),
                needs_concrete_graph=data.get("needs_concrete_graph",
                                              False),
                kind=data.get("kind", "kernel"),
                stream_program=data.get("stream_program"),
                meta=dict(data.get("meta") or {}))
        except (TypeError, ValueError) as exc:
            raise JobValidationError(
                f"invalid job spec {data.get('job_id')!r}: {exc}") \
                from None


@dataclass
class JobResult:
    """The one record of a job's outcome.

    Its wire form (:meth:`to_dict`) is the payload a runner ships back
    from its worker process, the daemon's stored job row and — less
    each reader's own bookkeeping — the result-cache entry
    (:func:`repro.service.cache.put_result`). Every reader
    rebuilds the record with :meth:`from_dict`.
    """

    job_id: str
    status: str
    engine: str = "sesa"
    attempts: int = 1
    elapsed_seconds: float = 0.0
    cached: bool = False
    cache_key: Optional[str] = None
    #: ``AnalysisReport.to_dict()`` of the completed check (DONE/CACHED);
    #: it holds the solver statistics under ``check_stats``
    verdict: Optional[dict] = None
    #: {"symbolic": n, "total": m} input-symbolisation counts
    inputs: Optional[dict] = None
    #: ``RepairResult.to_dict()`` when the job ran with ``repair=True``
    repair: Optional[dict] = None
    error: Optional[str] = None
    #: the error is a malformed job spec, not an analysis failure
    validation_error: bool = False

    @classmethod
    def failure(cls, error: str, status: str = JobStatus.ERROR,
                job_id: str = "", **fields) -> "JobResult":
        """A job that ended without a verdict: an analysis error, a
        crash, a hard timeout, an invalid spec."""
        return cls(job_id=job_id, status=status, error=error, **fields)

    @property
    def check_stats(self) -> Optional[dict]:
        """Solver statistics (``CheckStats`` as a dict) when available:
        a view of ``verdict["check_stats"]``, where they are held."""
        return (self.verdict or {}).get("check_stats")

    @property
    def ok(self) -> bool:
        return self.status in (JobStatus.DONE, JobStatus.CACHED)

    @property
    def definitive(self) -> bool:
        """Completed with a verdict that was not cut short by a budget:
        the only kind of result the cache stores."""
        return self.status == JobStatus.DONE \
            and not (self.verdict or {}).get("timed_out")

    @property
    def has_issues(self) -> bool:
        if not self.verdict:
            return False
        races = [r for r in self.verdict.get("races", ())
                 if not r.get("benign")]
        return bool(races or self.verdict.get("oobs")
                    or self.verdict.get("assertion_failures"))

    def issue_tags(self) -> List[str]:
        """Paper-table style issue labels ("RW", "WW (Benign)", "OOB")."""
        tags: List[str] = []
        for race in (self.verdict or {}).get("races", ()):
            tag = race.get("kind", "?") + \
                (" (Benign)" if race.get("benign") else "")
            if tag not in tags:
                tags.append(tag)
        if (self.verdict or {}).get("oobs"):
            tags.append("OOB")
        return tags

    def to_dict(self) -> dict:
        out = {
            "job_id": self.job_id, "status": self.status,
            "engine": self.engine, "attempts": self.attempts,
            "elapsed_seconds": self.elapsed_seconds,
            "cached": self.cached, "cache_key": self.cache_key,
            "verdict": self.verdict, "check_stats": self.check_stats,
            "inputs": self.inputs, "repair": self.repair,
            "error": self.error,
        }
        if self.validation_error:
            out["validation_error"] = True
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "JobResult":
        """The record of a wire form; a missing key takes its default
        (a cache entry holds no bookkeeping) and a top-level
        ``check_stats`` is ignored, being the view."""
        return cls(
            job_id=data.get("job_id", ""),
            status=data.get("status", JobStatus.ERROR),
            engine=data.get("engine", "sesa"),
            attempts=data.get("attempts", 1),
            elapsed_seconds=data.get("elapsed_seconds", 0.0),
            cached=data.get("cached", False),
            cache_key=data.get("cache_key"),
            verdict=data.get("verdict"),
            inputs=data.get("inputs"),
            repair=data.get("repair"),
            error=data.get("error"),
            validation_error=bool(data.get("validation_error")))
