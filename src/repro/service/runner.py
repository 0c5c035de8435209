"""Worker-side job execution.

:func:`execute_job` is the default job runner: it takes a *plain dict*
(a serialised :class:`~repro.service.jobs.JobSpec`), compiles the
kernel, runs the selected engine, and returns a plain-dict payload.
It never raises — an analysis failure comes back as an ``error``
payload so the scheduler can record it without losing the batch.

The function lives at module top level so worker processes can reach
it by import, and so tests can swap in their own runner (crashing,
hanging, flaky) to exercise the scheduler's fault handling.
"""
from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from dataclasses import asdict
from typing import Callable, Optional, Tuple

from .jobs import ENGINE_NAMES, JobSpec, JobStatus, JobValidationError

Runner = Callable[[dict], dict]


def _engine_class(name: str):
    from ..core import GKLEE, GKLEEp, SESA
    try:
        return {"sesa": SESA, "gkleep": GKLEEp, "gklee": GKLEE}[name]
    except KeyError:
        raise ValueError(f"unknown engine {name!r} "
                         f"(expected one of {ENGINE_NAMES})") from None


def execute_job(spec_dict: dict) -> dict:
    """Run one analysis job; always returns a result payload dict.

    Payload shape::

        {"status": "done"|"error", "verdict": {...}|None,
         "check_stats": {...}|None, "elapsed_seconds": float,
         "error": str|None}
    """
    start = time.perf_counter()
    try:
        spec = JobSpec.from_dict(spec_dict)
        spec.validate()
        if spec.kind == "stream":
            return _execute_stream_job(spec, start)
        engine_cls = _engine_class(spec.engine)
        tool = engine_cls.from_source(spec.source, spec.kernel_name)
        report = tool.check(spec.launch_config())
        if hasattr(tool, "inferred_symbolic_inputs"):      # SESA
            inputs = {"symbolic": len(tool.inferred_symbolic_inputs()),
                      "total": len(tool.taint.verdicts)}
        elif hasattr(tool, "default_symbolic_inputs"):     # GKLEE(p)
            n = len(tool.default_symbolic_inputs())
            inputs = {"symbolic": n, "total": n}
        else:
            inputs = None
        repair = None
        if spec.repair and spec.engine == "sesa" and report.has_races:
            from ..repair import repair_source
            outcome = repair_source(
                spec.source, config=spec.launch_config(),
                kernel_name=spec.kernel_name,
                time_budget_seconds=spec.config.time_budget_seconds)
            repair = outcome.to_dict()
        return {
            "status": JobStatus.DONE,
            "verdict": report.to_dict(),
            "check_stats": (asdict(report.check_stats)
                            if report.check_stats is not None else None),
            "inputs": inputs,
            "repair": repair,
            "elapsed_seconds": time.perf_counter() - start,
            "error": None,
        }
    except JobValidationError as exc:
        # malformed input, not an analysis failure: a clean one-line
        # error (no traceback — there is nothing to debug in the tool)
        # that the daemon records as a non-retryable ``failed`` job and
        # the CLI maps to exit code 2
        return {
            "status": JobStatus.ERROR,
            "verdict": None,
            "check_stats": None,
            "inputs": None,
            "repair": None,
            "elapsed_seconds": time.perf_counter() - start,
            "error": str(exc),
            "validation_error": True,
        }
    except Exception:
        return {
            "status": JobStatus.ERROR,
            "verdict": None,
            "check_stats": None,
            "inputs": None,
            "repair": None,
            "elapsed_seconds": time.perf_counter() - start,
            "error": traceback.format_exc(limit=8),
        }


def _execute_stream_job(spec: JobSpec, start: float) -> dict:
    """Run one ``stream`` job: a whole multi-launch program.

    The per-launch results are cached under ``solver_cache_dir`` (the
    scheduler/daemon share their verdict-cache tree through that field),
    so re-submitting a program with one edited kernel replays every
    untouched launch. Raises into :func:`execute_job`'s handlers on
    failure — a malformed program is a :class:`JobValidationError`-class
    input error, not a crash.
    """
    from dataclasses import asdict as dc_asdict

    from ..streams import StreamChecker, StreamProgram, StreamProgramError
    from .cache import ResultCache
    try:
        program = StreamProgram.from_dict(
            dict(spec.stream_program or {}, source=spec.source,
                 name=(spec.stream_program or {}).get("name")
                 or spec.job_id))
        cache_dir = spec.config.solver_cache_dir
        cache = ResultCache(cache_dir) if cache_dir else None
        report = StreamChecker(program, cache=cache,
                               config=spec.launch_config()).check()
    except StreamProgramError as exc:
        raise JobValidationError(
            f"invalid job spec {spec.job_id!r}: {exc}") from None
    return {
        "status": JobStatus.DONE,
        "verdict": report.to_dict(),
        "check_stats": dc_asdict(report.stats),
        "inputs": None,
        "repair": None,
        "elapsed_seconds": time.perf_counter() - start,
        "error": None,
    }


# ----------------------------------------------------------------------
# process isolation (shared by the batch scheduler and daemon workers)
# ----------------------------------------------------------------------

def _child_entry(conn, runner: Runner, spec_dict: dict) -> None:
    """Worker-process entry: run the job, ship the payload, exit."""
    try:
        payload = runner(spec_dict)
    except BaseException as exc:   # runner contract says it shouldn't raise
        payload = {"status": JobStatus.ERROR, "verdict": None,
                   "check_stats": None, "elapsed_seconds": 0.0,
                   "error": f"{type(exc).__name__}: {exc}"}
    try:
        conn.send(payload)
    except Exception:
        pass
    finally:
        conn.close()


def run_job_isolated(spec_dict: dict,
                     runner: Runner = execute_job,
                     timeout_seconds: Optional[float] = None,
                     ) -> Tuple[str, object]:
    """One job attempt in a fresh forked process.

    Returns ``('ok', payload_dict)``, ``('timeout', None)`` after a
    hard wall-clock kill, or ``('crash', exitcode)`` when the child
    died without delivering a payload. Both the batch
    :class:`~repro.service.scheduler.Scheduler` and the daemon
    :class:`~repro.service.daemon.worker.WorkerDaemon` build their
    fault handling on this single primitive.
    """
    parent_conn, child_conn = mp.Pipe(duplex=False)
    proc = mp.Process(target=_child_entry,
                      args=(child_conn, runner, spec_dict),
                      daemon=True)
    proc.start()
    child_conn.close()
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


def run_job_inline(spec_dict: dict,
                   runner: Runner = execute_job) -> Tuple[str, object]:
    """In-thread fallback for environments without ``fork``: crashes
    are not contained and hard timeouts degrade to the engine's soft
    budget, but the (outcome, payload) contract is identical."""
    try:
        return "ok", runner(spec_dict)
    except BaseException as exc:
        return "ok", {"status": JobStatus.ERROR, "verdict": None,
                      "check_stats": None, "elapsed_seconds": 0.0,
                      "error": f"{type(exc).__name__}: {exc}"}
