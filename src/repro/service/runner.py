"""Worker-side job execution.

:func:`execute_job` is the default job runner: it takes a *plain dict*
(a serialised :class:`~repro.service.jobs.JobSpec`), compiles the
kernel, runs the selected engine, and returns the wire form of a
:class:`~repro.service.jobs.JobResult`. It never raises — an analysis
failure comes back as an ``error`` result so the scheduler can record
it without losing the batch.

Payload shape (:meth:`JobResult.to_dict`)::

    {"job_id": str, "status": "done"|"error", "engine": str,
     "verdict": {..., "check_stats": {...}|None}|None,
     "check_stats": {...}|None,        # view of verdict["check_stats"]
     "inputs": {...}|None, "repair": {...}|None,
     "elapsed_seconds": float, "error": str|None,
     "attempts": 1, "cached": false, "cache_key": null}

plus ``"validation_error": true`` for a malformed spec or a source
that does not compile.

The function lives at module top level so worker processes can reach
it by import, and so tests can swap in their own runner (crashing,
hanging, flaky) to exercise the scheduler's fault handling. A runner
is pickled by reference into its worker process, so every runner must
be a module-level function. Each worker process also imports the main
script first, so a script that starts jobs must guard its entry point
with ``if __name__ == "__main__":``.
:func:`run_attempt` is the one attempt the batch scheduler and the
daemon worker make at a job, in a fresh process or in-thread.
"""
from __future__ import annotations

import multiprocessing as mp
import os
import site
import time
import traceback
from typing import Callable, Optional, Tuple

from ..frontend import SOURCE_ERRORS
from .cache import shared_module
from .jobs import (
    ENGINE_NAMES, JobResult, JobSpec, JobStatus, JobValidationError,
)

Runner = Callable[[dict], dict]


def _engine_class(name: str):
    from ..core import GKLEE, GKLEEp, SESA
    try:
        return {"sesa": SESA, "gkleep": GKLEEp, "gklee": GKLEE}[name]
    except KeyError:
        raise ValueError(f"unknown engine {name!r} "
                         f"(expected one of {ENGINE_NAMES})") from None


def execute_job(spec_dict: dict) -> dict:
    """Run one analysis job; always returns a result payload dict
    (see the module docstring for its shape)."""
    start = time.perf_counter()
    try:
        spec = JobSpec.from_dict(spec_dict)
        spec.validate()
        if spec.kind == "stream":
            result = _execute_stream_job(spec)
        else:
            result = _execute_kernel_job(spec)
    except JobValidationError as exc:
        # malformed input, not an analysis failure: a clean one-line
        # error (no traceback — there is nothing to debug in the tool)
        # that the daemon records as a non-retryable ``failed`` job and
        # the CLI maps to exit code 2
        result = JobResult.failure(str(exc), validation_error=True)
    except SOURCE_ERRORS as exc:
        result = JobResult.failure(
            f"invalid job spec {spec.job_id!r}: {exc}",
            validation_error=True)
    except Exception:
        result = JobResult.failure(traceback.format_exc(limit=8))
    result.elapsed_seconds = time.perf_counter() - start
    return result.to_dict()


def _execute_kernel_job(spec: JobSpec) -> JobResult:
    """Run one ``kernel`` job (and its repair loop, if asked)."""
    engine_cls = _engine_class(spec.engine)
    tool = engine_cls.from_compiled(shared_module(spec.source),
                                    spec.kernel_name)
    report = tool.check(spec.launch_config())
    if hasattr(tool, "inferred_symbolic_inputs"):      # SESA
        inputs = {"symbolic": len(tool.inferred_symbolic_inputs()),
                  "total": len(tool.taint.verdicts)}
    else:                                              # GKLEE(p)
        n = len(tool.default_symbolic_inputs())
        inputs = {"symbolic": n, "total": n}
    repair = None
    if spec.repair and spec.engine == "sesa" and report.has_races:
        from ..repair import repair_source
        outcome = repair_source(
            spec.source, config=spec.launch_config(),
            kernel_name=spec.kernel_name,
            time_budget_seconds=spec.config.time_budget_seconds)
        repair = outcome.to_dict()
    return JobResult(job_id=spec.job_id, status=JobStatus.DONE,
                     engine=spec.engine, verdict=report.to_dict(),
                     inputs=inputs, repair=repair)


def _execute_stream_job(spec: JobSpec) -> JobResult:
    """Run one ``stream`` job: a whole multi-launch program.

    The per-launch results are cached under ``solver_cache_dir`` (the
    scheduler/daemon share their verdict-cache tree through that field),
    so re-submitting a program with one edited kernel replays every
    untouched launch. Raises into :func:`execute_job`'s handlers on
    failure — a malformed program is a :class:`JobValidationError`-class
    input error, not a crash.
    """
    from ..streams import StreamChecker, StreamProgram, StreamProgramError
    from .cache import ResultCache
    try:
        program = StreamProgram.from_dict(
            dict(spec.stream_program or {}, source=spec.source,
                 name=(spec.stream_program or {}).get("name")
                 or spec.job_id))
        cache = None
        if spec.config.solver_cache_dir:
            try:
                cache = ResultCache(spec.config.solver_cache_dir)
            except OSError:
                pass   # an unusable cache only costs the replay
        report = StreamChecker(program, cache=cache,
                               config=spec.launch_config()).check()
    except StreamProgramError as exc:
        raise JobValidationError(
            f"invalid job spec {spec.job_id!r}: {exc}") from None
    return JobResult(job_id=spec.job_id, status=JobStatus.DONE,
                     engine=spec.engine, verdict=report.to_dict())


# ----------------------------------------------------------------------
# process isolation (shared by the batch scheduler and daemon workers)
# ----------------------------------------------------------------------

#: every job process starts from one fork server: a single-threaded
#: process that imported the checker once. Forking the multi-threaded
#: scheduler or daemon directly could hand a child a lock that another
#: thread held at that moment, and the child would wait on it forever.
_CONTEXT = mp.get_context("forkserver")
_CONTEXT.set_forkserver_preload(["repro.core", "repro.service"])


def _export_package_dir() -> None:
    """Put the directory this package is imported from on
    ``PYTHONPATH``, unless it is already there or is a site directory.
    The fork server is a fresh interpreter that does not apply this
    process's ``sys.path`` (CPython passes it but never uses it), so a
    process that found the package through a ``sys.path`` edit would get
    a server that preloads nothing, and every job child would import
    the checker itself (~0.3 s each)."""
    package_dir = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
             if p]
    known = {os.path.abspath(p) for p in paths}
    known.update(site.getsitepackages(), [site.getusersitepackages()])
    if package_dir not in known:
        os.environ["PYTHONPATH"] = os.pathsep.join([package_dir, *paths])


_export_package_dir()


def _guarded(runner: Runner, spec_dict: dict) -> dict:
    """*runner*'s payload; a runner that raises (its contract says it
    should not) yields an ``error`` payload instead."""
    try:
        return runner(spec_dict)
    except BaseException as exc:
        return JobResult.failure(f"{type(exc).__name__}: {exc}").to_dict()


def _child_entry(conn, runner: Runner, spec_dict: dict) -> None:
    """Worker-process entry: run the job, ship the payload, exit."""
    payload = _guarded(runner, spec_dict)
    try:
        conn.send(payload)
    except Exception:
        pass
    finally:
        conn.close()


def start_child(runner: Runner, spec_dict: dict):
    """Start one worker process running *runner* on *spec_dict*;
    returns ``(connection, process)``. The connection delivers the
    payload, or EOF when the child dies first. Every job process the
    service starts — batch scheduler or daemon worker — comes from
    here, forked by the one fork server."""
    parent_conn, child_conn = _CONTEXT.Pipe(duplex=False)
    proc = _CONTEXT.Process(target=_child_entry,
                            args=(child_conn, runner, spec_dict),
                            daemon=True)
    proc.start()
    child_conn.close()
    return parent_conn, proc


def run_job_isolated(spec_dict: dict,
                     runner: Runner = execute_job,
                     timeout_seconds: Optional[float] = None,
                     ) -> Tuple[str, object]:
    """One job attempt in a fresh process from the fork server.

    Returns ``('ok', payload_dict)``, ``('timeout', None)`` after a
    hard wall-clock kill, or ``('crash', exitcode)`` when the child
    died without delivering a payload.
    """
    parent_conn, proc = start_child(runner, spec_dict)
    payload = None
    readable = False
    try:
        # poll(None) blocks until data or EOF — the no-timeout mode
        readable = parent_conn.poll(timeout_seconds)
        if readable:
            payload = parent_conn.recv()
    except (EOFError, OSError):
        payload = None   # pipe closed without a payload: child died
    finally:
        parent_conn.close()
    if payload is not None:
        proc.join(5.0)
        if proc.is_alive():
            proc.terminate()
            proc.join()
        return "ok", payload
    if readable:
        # EOF before any payload — the child is gone (or going); join
        # *blocking* so we report its exit code, not a stale
        # is_alive() snapshot from the exit window
        proc.join()
        return "crash", proc.exitcode
    # poll timed out with the worker still running
    proc.terminate()
    proc.join()
    return "timeout", None


def run_attempt(spec_dict: dict, runner: Runner = execute_job,
                timeout_seconds: Optional[float] = None,
                isolate: bool = True) -> Tuple[str, JobResult]:
    """One attempt at one job — the single primitive both the batch
    :class:`~repro.service.scheduler.Scheduler` and the daemon
    :class:`~repro.service.daemon.worker.WorkerDaemon` build their
    fault handling on.

    With *isolate* the job runs in a fresh process
    (:func:`run_job_isolated`); without, in this thread — crashes are
    then not contained and hard timeouts degrade to the engine's soft
    budget. Returns ``(outcome, result)``: ``ok`` with the runner's
    result, ``timeout`` with a ``timeout`` failure, or ``crash`` with
    an ``error`` failure naming the exit code. The result carries the
    spec's engine and the attempt's wall time; the caller sets the job
    id, attempt count and cache key.
    """
    start = time.perf_counter()
    if isolate:
        outcome, payload = run_job_isolated(spec_dict, runner,
                                            timeout_seconds)
    else:
        outcome, payload = "ok", _guarded(runner, spec_dict)
    if outcome == "ok":
        result = JobResult.from_dict(payload)
    elif outcome == "timeout":
        result = JobResult.failure(
            f"hard timeout after {timeout_seconds}s",
            status=JobStatus.TIMEOUT)
    else:
        result = JobResult.failure(
            f"worker crashed (exit code {payload})")
    result.engine = spec_dict.get("engine", "sesa")
    result.elapsed_seconds = time.perf_counter() - start
    return outcome, result
