"""HTTP/JSON API and the one-process daemon supervisor.

Stdlib only: :class:`http.server.ThreadingHTTPServer` dispatches each
request on its own thread; every handler is a thin translation layer
over the :class:`~repro.service.daemon.store.JobStore`, so the API
process holds no job state of its own and can be restarted freely.

Endpoints::

    POST /submit          {"source": ..., config...} | {"suite": name}
                          → {"jobs": [{"job_id", "label", "deduped"}]}
    GET  /status/<id>     queue state, attempts, lease info
    GET  /result/<id>     the JobResult payload (202 until terminal)
    GET  /queue           depth, by-state counts, leases, worker liveness
    GET  /stream          NDJSON telemetry tail (?since=N&follow=SECS)
    GET  /healthz         liveness probe

:class:`Daemon` is the supervisor `repro serve` instantiates: one
store, one shared result cache, N worker daemons, the lease reaper,
the queue sampler, and (optionally) the HTTP server, with one stop()
that drains workers gracefully.
"""
from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional, Tuple

from ... import __version__ as TOOL_VERSION
from ...sym.swarm import ShardSelector
from ..cache import ResultCache, cache_key, get_result, put_result
from ..corpus import SUITES, builtin_jobs
from ..jobs import JobResult, JobSpec, JobState, JobStatus, \
    JobValidationError
from ..runner import Runner, execute_job
from ..swarm import (
    SwarmPlanError, merged_job_result, outcomes_from_results,
    plan_shard_specs, swarm_cache_key,
)
from ..telemetry import Telemetry
from .lease import DEFAULT_LEASE_TTL, Reaper
from .store import JobRow, JobStore
from .worker import DEFAULT_POLL_INTERVAL, QueueSampler, WorkerDaemon


class SwarmMerger:
    """Background loop that finishes ``waiting`` swarm parents.

    A parent job never runs on a worker: it carries the shard plan in
    its spec meta (``meta["swarm"]``) and sits in ``waiting`` until
    every shard job it references is terminal. The merger then builds
    the shard outcomes from the stored results, merges them with the
    same :func:`~repro.service.swarm.merged_job_result` the batch path
    uses, and records the verdict — so HTTP pollers of the parent see
    202 until the merged answer exists, exactly like a plain job.
    """

    def __init__(self, store: JobStore,
                 cache: Optional[ResultCache] = None,
                 telemetry: Optional[Telemetry] = None,
                 interval: float = DEFAULT_POLL_INTERVAL) -> None:
        self.store = store
        self.cache = cache
        self.telemetry = telemetry or Telemetry()
        self.interval = interval
        self.merged = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- one parent ----------------------------------------------------

    @staticmethod
    def _shard_result(row: Optional[JobRow]) -> Optional[JobResult]:
        """The stored outcome of one terminal shard job (``None`` when
        its row is gone). A failed or dead shard's partial result must
        not be read as a clean verdict."""
        if row is None:
            return None
        result = (JobResult.from_dict(row.result) if row.result
                  else JobResult.failure(row.error, status=row.state))
        result.job_id = row.job_id
        result.error = row.error or result.error
        if row.state != JobState.DONE and result.ok:
            result.status = row.state
        return result

    def _try_merge(self, parent: JobRow) -> bool:
        """Merge one waiting parent if its shards are all terminal;
        returns True when the parent reached a terminal state."""
        info = (parent.spec.get("meta") or {}).get("swarm") or {}
        shards = info.get("shards") or []
        if not shards:
            result = JobResult.failure(
                "waiting parent has no shard plan",
                job_id=parent.spec.get("job_id", "?"))
            self.store.finish_waiting(
                parent.job_id, result.to_dict(), state=JobState.FAILED,
                error=result.error)
            return True
        rows = [self.store.get(s["job_id"]) for s in shards]
        if any(row is not None and not row.terminal for row in rows):
            return False
        outcomes = outcomes_from_results(
            [ShardSelector.from_dict(s["selector"]) for s in shards],
            [self._shard_result(row) for row in rows])
        spec = JobSpec.from_dict(parent.spec)
        result = merged_job_result(
            spec, outcomes, cache_key_used=parent.fingerprint,
            elapsed_seconds=sum(o.elapsed_seconds for o in outcomes))
        state = JobState.DONE if result.status == JobStatus.DONE \
            else JobState.FAILED
        wrote = self.store.finish_waiting(
            parent.job_id, result.to_dict(), state=state,
            error=result.error)
        if not wrote:
            return True   # another merger instance won the race
        self.merged += 1
        if self.cache is not None:
            put_result(self.cache, parent.fingerprint, result)
        verdict = result.verdict or {}
        self.telemetry.emit(
            "swarm_merged", job_id=parent.job_id,
            label=spec.job_id,
            verdict=verdict.get("swarm", {}).get("verdict"),
            shards=len(outcomes),
            unresolved=verdict.get("swarm", {}).get("unresolved"),
            state=state)
        return True

    # -- the loop ------------------------------------------------------

    def sweep(self) -> int:
        merged = 0
        for parent in self.store.list_jobs(state=JobState.WAITING,
                                           limit=1000):
            try:
                if self._try_merge(parent):
                    merged += 1
            except Exception as exc:   # keep the loop alive
                self.telemetry.emit("swarm_merge_error",
                                    job_id=parent.job_id,
                                    error=f"{type(exc).__name__}: "
                                          f"{exc}")
        return merged

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sweep()

    def start(self) -> "SwarmMerger":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="swarm-merger")
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.sweep()   # catch parents whose shards finished at drain


class Daemon:
    """Everything `repro serve` runs, as one object (API optional so
    tests and benchmarks can drive the queue in-process)."""

    def __init__(self, db_path: str,
                 cache_dir: Optional[str] = None,
                 trace_path: Optional[str] = None,
                 workers: int = 2,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 poll_interval: float = DEFAULT_POLL_INTERVAL,
                 timeout_seconds: Optional[float] = None,
                 sample_interval: float = 5.0,
                 max_attempts: int = 2,
                 host: str = "127.0.0.1",
                 port: int = 0,
                 runner: Runner = execute_job,
                 isolate: bool = True) -> None:
        self.store = JobStore(db_path, default_max_attempts=max_attempts)
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.telemetry = Telemetry(trace_path, mode="a")
        self.started_at = time.time()
        self.lease_ttl = lease_ttl
        self.host = host
        self.port = port
        self.workers = [
            WorkerDaemon(self.store, worker_id=f"w{i}",
                         cache=self.cache, telemetry=self.telemetry,
                         runner=runner, lease_ttl=lease_ttl,
                         poll_interval=poll_interval,
                         timeout_seconds=timeout_seconds,
                         isolate=isolate)
            for i in range(max(1, workers))]
        self.reaper = Reaper(self.store, lease_ttl,
                             telemetry=self.telemetry)
        self.merger = SwarmMerger(self.store, cache=self.cache,
                                  telemetry=self.telemetry,
                                  interval=poll_interval)
        self.sampler = QueueSampler(self.store, self.telemetry,
                                    self.workers,
                                    interval=sample_interval)
        self.server: Optional[ThreadingHTTPServer] = None
        self._server_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # submission (shared by the API handler and in-process callers)
    # ------------------------------------------------------------------

    def submit_spec(self, spec: JobSpec) -> dict:
        """Validate, fingerprint, and enqueue one spec."""
        spec.validate()
        fingerprint = cache_key(spec)
        job_id, deduped = self.store.submit(spec, fingerprint)
        self.telemetry.emit(
            "job_deduped" if deduped else "job_submitted",
            job_id=job_id, label=spec.job_id, fingerprint=fingerprint)
        return {"job_id": job_id, "label": spec.job_id,
                "deduped": deduped}

    def submit_swarm(self, spec: JobSpec, num_shards: int) -> dict:
        """Server-side shard expansion: enqueue *spec* as shard jobs
        plus one ``waiting`` parent the merger will finish.

        A cached merged verdict short-circuits to a ``done`` parent
        with zero shard work; a kernel that cannot be planned (wrong
        engine, compile failure) falls back to one monolithic job —
        the caller always gets exactly one parent job back.
        """
        spec.validate()
        parent_key = swarm_cache_key(spec, num_shards)
        cached = get_result(self.cache, parent_key, spec.job_id) \
            if self.cache is not None else None
        if cached is not None:
            job_id, deduped = self.store.submit(
                spec, parent_key, state=JobState.DONE,
                result=cached.to_dict())
            self.telemetry.emit("cache_hit", job_id=job_id,
                                cache_key=parent_key)
            return {"job_id": job_id, "label": spec.job_id,
                    "deduped": deduped, "swarm": num_shards,
                    "shards": []}
        try:
            shard_specs, selectors, info = plan_shard_specs(
                spec, num_shards)
        except SwarmPlanError as exc:
            self.telemetry.emit("swarm_fallback", job_id=spec.job_id,
                                reason=str(exc))
            return self.submit_spec(spec)
        shard_jobs = [self.submit_spec(s) for s in shard_specs]
        spec.meta = dict(spec.meta, swarm={
            "num_shards": num_shards,
            "total_pairs": info["total_pairs"],
            "shards": [{"job_id": job["job_id"],
                        "selector": sel.to_dict()}
                       for job, sel in zip(shard_jobs, selectors)],
        })
        job_id, deduped = self.store.submit(spec, parent_key,
                                            state=JobState.WAITING)
        self.telemetry.emit(
            "swarm_planned", job_id=job_id, label=spec.job_id,
            shards=info["shards"], total_pairs=info["total_pairs"],
            groups=info["groups"], deduped=deduped)
        return {"job_id": job_id, "label": spec.job_id,
                "deduped": deduped, "swarm": num_shards,
                "shards": [j["job_id"] for j in shard_jobs]}

    def submit_request(self, body: dict) -> List[dict]:
        """One ``POST /submit`` body → one or more enqueued jobs."""
        if not isinstance(body, dict):
            raise JobValidationError(
                "invalid submit body: expected a JSON object")
        data = dict(body)
        swarm = data.pop("swarm", None)
        if swarm is not None and (isinstance(swarm, bool)
                                  or not isinstance(swarm, int)
                                  or swarm < 1):
            raise JobValidationError(
                "'swarm' must be a positive integer shard count")
        submit = ((lambda spec: self.submit_swarm(spec, swarm))
                  if swarm else self.submit_spec)
        if "suite" in data:
            suite = data["suite"]
            if suite != "streams" and suite not in SUITES:
                raise JobValidationError(
                    f"unknown suite {suite!r} (expected one of "
                    f"{', '.join(sorted(SUITES) + ['streams'])})")
            engine = data.get("engine", "sesa")
            return [submit(spec)
                    for spec in builtin_jobs(suite, engine)]
        if "source" not in data:
            raise JobValidationError(
                "invalid submit body: needs 'source' or 'suite'")
        data.setdefault("job_id", data.get("label") or "adhoc")
        data.pop("label", None)
        return [submit(JobSpec.from_dict(data))]

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------

    def health(self) -> dict:
        """The ``/healthz`` payload: liveness plus enough vitals for a
        probe to tell a healthy daemon from a wedged one — tool version
        (deploy skew), uptime, queue depth, and live worker count."""
        stats = self.store.queue_stats()
        return {
            "ok": True,
            "version": TOOL_VERSION,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "queue_depth": stats["depth"],
            "workers": {
                "total": len(self.workers),
                "alive": sum(1 for w in self.workers if w.alive),
            },
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self, serve_http: bool = True) -> "Daemon":
        # recover leases orphaned by a previous daemon's hard death
        # before any worker claims — jobs come back queued immediately
        # instead of after one TTL
        self.reaper.sweep()
        for worker in self.workers:
            worker.start()
        self.reaper.start()
        self.merger.start()
        self.sampler.start()
        if serve_http:
            handler = _make_handler(self)
            self.server = ThreadingHTTPServer((self.host, self.port),
                                              handler)
            self.server.daemon_threads = True
            self.port = self.server.server_address[1]
            self._server_thread = threading.Thread(
                target=self.server.serve_forever, daemon=True,
                name="daemon-http")
            self._server_thread.start()
        self.telemetry.emit("daemon_started", workers=len(self.workers),
                            lease_ttl=self.lease_ttl,
                            url=self.url if serve_http else None)
        return self

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: stop claiming, finish in-flight jobs,
        then tear the API down."""
        for worker in self.workers:
            worker._stop.set()     # stop new claims on every worker…
        if drain:
            for worker in self.workers:
                worker.stop()      # …then wait for in-flight jobs
        self.sampler.stop()
        self.merger.stop()
        self.reaper.stop()
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            if self._server_thread is not None:
                self._server_thread.join(timeout=5.0)
        self.telemetry.emit(
            "daemon_stopped",
            jobs_done=sum(w.jobs_done for w in self.workers))
        self.telemetry.close()
        self.store.close()

    def wait_idle(self, timeout: float = 60.0,
                  poll: float = 0.05) -> bool:
        """Block until the queue has no runnable work (test helper)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            counts = self.store.counts()
            if not counts.get(JobState.QUEUED) \
                    and not counts.get(JobState.LEASED) \
                    and not counts.get(JobState.WAITING):
                return True
            time.sleep(poll)
        return False


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------

def _make_handler(daemon: Daemon):
    """A request-handler class bound to *daemon* (http.server wants a
    class, not an instance)."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-daemon"

        # quiet: requests go to telemetry, not stderr
        def log_message(self, *args) -> None:
            pass

        # -- helpers ---------------------------------------------------

        def _json(self, code: int, payload: dict) -> None:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _read_body(self) -> dict:
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b""
            if not raw:
                raise JobValidationError("empty request body")
            try:
                return json.loads(raw)
            except ValueError as exc:
                raise JobValidationError(
                    f"request body is not JSON: {exc}") from None

        def _route(self) -> Tuple[str, dict]:
            path, _, query = self.path.partition("?")
            params = {}
            for pair in query.split("&"):
                if "=" in pair:
                    key, value = pair.split("=", 1)
                    params[key] = value
            return path.rstrip("/") or "/", params

        # -- verbs -----------------------------------------------------

        def do_POST(self) -> None:
            path, _params = self._route()
            try:
                if path == "/submit":
                    jobs = daemon.submit_request(self._read_body())
                    self._json(200, {"jobs": jobs})
                else:
                    self._json(404, {"error": f"no such endpoint "
                                              f"{path!r}"})
            except JobValidationError as exc:
                self._json(400, {"error": str(exc)})
            except Exception as exc:   # keep the server alive
                self._json(500, {"error": f"{type(exc).__name__}: "
                                          f"{exc}"})

        def do_GET(self) -> None:
            path, params = self._route()
            try:
                if path.startswith("/status/"):
                    self._job_endpoint(path[len("/status/"):],
                                       want_result=False)
                elif path.startswith("/result/"):
                    self._job_endpoint(path[len("/result/"):],
                                       want_result=True)
                elif path == "/queue":
                    self._queue()
                elif path == "/stream":
                    self._stream(params)
                elif path == "/healthz":
                    self._json(200, daemon.health())
                else:
                    self._json(404, {"error": f"no such endpoint "
                                              f"{path!r}"})
            except (BrokenPipeError, ConnectionResetError):
                pass   # client went away mid-stream
            except Exception as exc:
                self._json(500, {"error": f"{type(exc).__name__}: "
                                          f"{exc}"})

        # -- endpoints -------------------------------------------------

        def _job_endpoint(self, job_id: str, want_result: bool) -> None:
            job = daemon.store.get(job_id)
            if job is None:
                self._json(404, {"error": f"unknown job {job_id!r}"})
                return
            status = job.status_dict()
            status["label"] = job.spec.get("job_id")
            swarm = (job.spec.get("meta") or {}).get("swarm")
            if swarm:
                status["swarm"] = {
                    "num_shards": swarm.get("num_shards"),
                    "shards": [s["job_id"]
                               for s in swarm.get("shards", [])],
                }
            if not want_result:
                self._json(200, status)
            elif not job.terminal:
                # 202: accepted but not done — poll again
                self._json(202, status)
            else:
                status["result"] = job.result
                self._json(200, status)

        def _queue(self) -> None:
            stats = daemon.store.queue_stats()
            stats["workers"] = {
                w.worker_id: dict(w.stats(), alive=w.alive)
                for w in daemon.workers}
            stats["reaper"] = {"reclaimed": daemon.reaper.reclaimed,
                               "dead": daemon.reaper.killed}
            stats["merger"] = {"merged": daemon.merger.merged}
            if daemon.cache is not None:
                stats["cache"] = daemon.cache.stats()
            self._json(200, stats)

        def _stream(self, params: dict) -> None:
            """NDJSON telemetry tail. ``since`` skips the first N
            events; ``follow`` keeps the connection open that many
            seconds, streaming events as they arrive."""
            try:
                since = int(params.get("since", 0))
                follow = float(params.get("follow", 0))
            except ValueError:
                self._json(400, {"error": "since/follow must be "
                                          "numeric"})
                return
            self.send_response(200)
            self.send_header("Content-Type",
                             "application/x-ndjson")
            # length unknown up front: close delimits the stream
            self.send_header("Connection", "close")
            self.end_headers()
            deadline = time.monotonic() + follow
            index = max(0, since)
            while True:
                events = daemon.telemetry.events[index:]
                for event in events:
                    line = json.dumps(dict(event, i=index),
                                      sort_keys=True)
                    self.wfile.write(line.encode("utf-8") + b"\n")
                    index += 1
                self.wfile.flush()
                if time.monotonic() >= deadline:
                    return
                time.sleep(0.05)

    return Handler
