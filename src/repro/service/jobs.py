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
from typing import Dict, List, Optional, Tuple

Dim3 = Tuple[int, int, int]


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


def _dim3(value) -> Dim3:
    if isinstance(value, int):
        return (value, 1, 1)
    t = tuple(int(v) for v in value)
    while len(t) < 3:
        t += (1,)
    return t  # type: ignore[return-value]


@dataclass
class JobSpec:
    """One schedulable kernel analysis."""

    job_id: str
    source: str
    kernel_name: Optional[str] = None
    engine: str = "sesa"
    grid_dim: Dim3 = (1, 1, 1)
    block_dim: Dim3 = (64, 1, 1)
    warp_size: int = 32
    warp_lockstep: bool = False
    check_oob: bool = True
    symbolic_inputs: Optional[List[str]] = None
    scalar_values: Dict[str, int] = field(default_factory=dict)
    array_sizes: Dict[str, int] = field(default_factory=dict)
    max_loop_splits: Optional[int] = None
    max_flows: Optional[int] = None
    max_steps: Optional[int] = None
    #: soft (in-engine) wall-clock budget; the engine stops gracefully
    time_budget_seconds: Optional[float] = None
    #: pre-solver pruning pipeline (summarization, disjointness buckets,
    #: pair memo); False forces raw enumeration for differential runs
    pair_pruning: bool = True
    #: static pre-screening tier (tier 0); False restores the exact
    #: single-tier pipeline for differential runs
    static_tier: bool = True
    #: also run the CEGIS barrier-repair loop and attach its outcome
    repair: bool = False
    #: Table III kernels need the synthetic CSR graph attached
    needs_concrete_graph: bool = False
    #: swarm shard descriptor (serialised ShardSelector): restrict the
    #: race check to one partition of the candidate-pair space. Part
    #: of the cache fingerprint — a shard verdict must never collide
    #: with the monolithic verdict of the same kernel.
    shard: Optional[dict] = None
    #: per-query SAT conflict budget override (portfolio variants)
    solver_conflict_budget: Optional[int] = None
    #: directory for cross-run solver warm-start artifacts (see
    #: :mod:`repro.smt.persist`). Deliberately NOT part of
    #: :meth:`config_fingerprint`: warm starts are a pure accelerator
    #: and must never influence which cache entry a verdict lands in.
    solver_cache_dir: Optional[str] = None
    #: what kind of work this spec describes (see :data:`JOB_KINDS`);
    #: ``stream`` jobs run a whole multi-launch program through
    #: :class:`repro.streams.StreamChecker` instead of one kernel
    kind: str = "kernel"
    #: serialised :meth:`repro.streams.StreamProgram.to_dict`
    #: (source-free: ``source`` holds the multi-kernel ``.cu`` text)
    stream_program: Optional[dict] = None
    #: free-form passthrough (suite/table tags, test fixtures, ...)
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.grid_dim = _dim3(self.grid_dim)
        self.block_dim = _dim3(self.block_dim)

    def validate(self) -> None:
        """Reject specs that can never run (:class:`JobValidationError`).

        Catches the malformed-input class of failures *before* a worker
        process is spent on them: unknown engines, empty sources,
        degenerate launch geometry, non-integer value maps, negative
        budgets. Anything that passes here can still fail analysis, but
        it fails as a real analysis error, not an input error.
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
        for name, dim in (("grid_dim", self.grid_dim),
                          ("block_dim", self.block_dim)):
            if any(not isinstance(v, int) or v < 1 for v in dim):
                bad(f"{name} {dim!r} must be positive integers")
        if not isinstance(self.warp_size, int) or self.warp_size < 1:
            bad(f"warp_size {self.warp_size!r} must be a positive integer")
        for what, mapping in (("scalar_values", self.scalar_values),
                              ("array_sizes", self.array_sizes)):
            for key, value in mapping.items():
                if not isinstance(key, str) \
                        or not isinstance(value, int) \
                        or isinstance(value, bool):
                    bad(f"{what}[{key!r}] = {value!r} must map a "
                        f"parameter name to an integer")
        for what, value in (("max_loop_splits", self.max_loop_splits),
                            ("max_flows", self.max_flows),
                            ("max_steps", self.max_steps)):
            if value is not None \
                    and (not isinstance(value, int) or value < 1):
                bad(f"{what} {value!r} must be a positive integer")
        if self.time_budget_seconds is not None \
                and (not isinstance(self.time_budget_seconds, (int, float))
                     or self.time_budget_seconds <= 0):
            bad(f"time_budget_seconds {self.time_budget_seconds!r} "
                f"must be positive")
        if self.shard is not None:
            from ..sym.swarm import ShardSelector
            try:
                ShardSelector.from_dict(self.shard)
            except ValueError as exc:
                bad(str(exc))
        if self.solver_conflict_budget is not None \
                and (not isinstance(self.solver_conflict_budget, int)
                     or isinstance(self.solver_conflict_budget, bool)
                     or self.solver_conflict_budget < 0):
            bad(f"solver_conflict_budget "
                f"{self.solver_conflict_budget!r} must be a "
                f"non-negative integer")
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
        elif self.stream_program is not None:
            bad("stream_program is only valid with kind='stream'")

    @property
    def total_threads(self) -> int:
        gx, gy, gz = self.grid_dim
        bx, by, bz = self.block_dim
        return gx * gy * gz * bx * by * bz

    def launch_config(self):
        """Materialise the :class:`repro.sym.LaunchConfig` (worker side)."""
        from ..sym import LaunchConfig
        config = LaunchConfig(
            grid_dim=self.grid_dim, block_dim=self.block_dim,
            warp_size=self.warp_size, warp_lockstep=self.warp_lockstep,
            check_oob=self.check_oob,
            symbolic_inputs=(set(self.symbolic_inputs)
                             if self.symbolic_inputs is not None else None),
            scalar_values=dict(self.scalar_values),
            array_sizes=dict(self.array_sizes),
            time_budget_seconds=self.time_budget_seconds,
            pair_pruning=self.pair_pruning,
            static_tier=self.static_tier,
            shard=(dict(self.shard) if self.shard is not None else None),
            solver_conflict_budget=self.solver_conflict_budget,
            solver_cache_dir=self.solver_cache_dir)
        if self.max_loop_splits is not None:
            config.max_loop_splits = self.max_loop_splits
        if self.max_flows is not None:
            config.max_flows = self.max_flows
        if self.max_steps is not None:
            config.max_steps = self.max_steps
        if self.needs_concrete_graph:
            from ..kernels.lonestar import attach_concrete_graph
            attach_concrete_graph(config)
        return config

    def config_fingerprint(self) -> dict:
        """The configuration facts that determine the verdict — the
        cache key hashes this dict (canonical: sorted keys, no floats
        that vary run-to-run, no job identity)."""
        out = {
            "engine": self.engine,
            "kernel_name": self.kernel_name,
            "grid_dim": list(self.grid_dim),
            "block_dim": list(self.block_dim),
            "warp_size": self.warp_size,
            "warp_lockstep": self.warp_lockstep,
            "check_oob": self.check_oob,
            "symbolic_inputs": (sorted(self.symbolic_inputs)
                                if self.symbolic_inputs is not None
                                else None),
            "scalar_values": dict(sorted(self.scalar_values.items())),
            "array_sizes": dict(sorted(self.array_sizes.items())),
            "max_loop_splits": self.max_loop_splits,
            "max_flows": self.max_flows,
            "max_steps": self.max_steps,
            "needs_concrete_graph": self.needs_concrete_graph,
            # the budgets can turn a verdict into a T.O. verdict, so
            # they are part of the key
            "time_budget_seconds": self.time_budget_seconds,
            # pruning shouldn't change verdicts, but the point of the
            # escape hatch is to verify exactly that — so the two paths
            # must not share cache entries
            "pair_pruning": self.pair_pruning,
            # the tiers must agree on verdicts (the equivalence suite
            # enforces it), but the escape hatch exists to prove that —
            # so the two pipelines must not share cache entries
            "static_tier": self.static_tier,
            # a repair run produces strictly more output than a plain
            # check, so the two must not share cache entries
            "repair": self.repair,
            # a shard's verdict covers one partition only — it must
            # never be served as (or from) the whole kernel's verdict
            "shard": (dict(self.shard)
                      if self.shard is not None else None),
            "solver_conflict_budget": self.solver_conflict_budget,
        }
        if self.kind != "kernel":
            # added conditionally so every pre-existing kernel job keeps
            # its exact cache key; a stream job's launch sequence is
            # verdict-determining, so it must be part of the key
            out["kind"] = self.kind
            out["stream_program"] = self.stream_program
        return out

    def to_dict(self) -> dict:
        out = dict(self.config_fingerprint())
        out.update(job_id=self.job_id, source=self.source,
                   time_budget_seconds=self.time_budget_seconds,
                   solver_cache_dir=self.solver_cache_dir,
                   meta=dict(self.meta))
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
            return cls._from_dict(data)
        except JobValidationError:
            raise
        except (TypeError, ValueError) as exc:
            raise JobValidationError(
                f"invalid job spec {data.get('job_id')!r}: {exc}") \
                from None

    @classmethod
    def _from_dict(cls, data: dict) -> "JobSpec":
        return cls(
            job_id=data["job_id"], source=data["source"],
            kernel_name=data.get("kernel_name"),
            engine=data.get("engine", "sesa"),
            grid_dim=_dim3(data.get("grid_dim", (1, 1, 1))),
            block_dim=_dim3(data.get("block_dim", (64, 1, 1))),
            warp_size=data.get("warp_size", 32),
            warp_lockstep=data.get("warp_lockstep", False),
            check_oob=data.get("check_oob", True),
            symbolic_inputs=data.get("symbolic_inputs"),
            scalar_values=dict(data.get("scalar_values") or {}),
            array_sizes=dict(data.get("array_sizes") or {}),
            max_loop_splits=data.get("max_loop_splits"),
            max_flows=data.get("max_flows"),
            max_steps=data.get("max_steps"),
            time_budget_seconds=data.get("time_budget_seconds"),
            pair_pruning=data.get("pair_pruning", True),
            static_tier=data.get("static_tier", True),
            repair=data.get("repair", False),
            needs_concrete_graph=data.get("needs_concrete_graph", False),
            shard=data.get("shard"),
            solver_conflict_budget=data.get("solver_conflict_budget"),
            solver_cache_dir=data.get("solver_cache_dir"),
            kind=data.get("kind", "kernel"),
            stream_program=data.get("stream_program"),
            meta=dict(data.get("meta") or {}))


@dataclass
class JobResult:
    """The scheduler's per-job outcome record."""

    job_id: str
    status: str
    engine: str = "sesa"
    attempts: int = 1
    elapsed_seconds: float = 0.0
    cached: bool = False
    cache_key: Optional[str] = None
    #: ``AnalysisReport.to_dict()`` of the completed check (DONE/CACHED)
    verdict: Optional[dict] = None
    #: solver statistics (``CheckStats`` as a dict) when available
    check_stats: Optional[dict] = None
    #: {"symbolic": n, "total": m} input-symbolisation counts
    inputs: Optional[dict] = None
    #: ``RepairResult.to_dict()`` when the job ran with ``repair=True``
    repair: Optional[dict] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status in (JobStatus.DONE, JobStatus.CACHED)

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
        return {
            "job_id": self.job_id, "status": self.status,
            "engine": self.engine, "attempts": self.attempts,
            "elapsed_seconds": self.elapsed_seconds,
            "cached": self.cached, "cache_key": self.cache_key,
            "verdict": self.verdict, "check_stats": self.check_stats,
            "inputs": self.inputs, "repair": self.repair,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobResult":
        return cls(
            job_id=data["job_id"], status=data["status"],
            engine=data.get("engine", "sesa"),
            attempts=data.get("attempts", 1),
            elapsed_seconds=data.get("elapsed_seconds", 0.0),
            cached=data.get("cached", False),
            cache_key=data.get("cache_key"),
            verdict=data.get("verdict"),
            check_stats=data.get("check_stats"),
            inputs=data.get("inputs"),
            repair=data.get("repair"),
            error=data.get("error"))
