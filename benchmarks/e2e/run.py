"""End-to-end benchmark of the race checker: time to a correct verdict.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload corpus --seed 1
    python3 benchmarks/e2e/run.py --workload replay --seed 2 --trace
    python3 benchmarks/e2e/run.py --workload streams --seed 3 --quick

Workloads: ``corpus``, ``regular``, ``streams``, ``replay`` (see
README.md). Each pass runs in a fresh interpreter (``child.py``); the run
keeps adding passes until it has ``--passes`` of them and their requests
took ``--seconds`` in total. End-to-end metrics are medians over the
passes; set-up time also counts a few set-up-only interpreters.
``--trace`` adds one traced pass and reports per-layer metrics instead.
Every verdict is checked against a known answer.

Every metric is printed as ``name = value unit``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 only when every verdict
was correct and, with ``--trace``, the coverage gates held.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from tracer import HOMES, REQUEST, SPANS  # noqa: E402

WORKLOADS = ("corpus", "regular", "streams", "replay")
#: every run, builds and all, must end well within three minutes
RUN_LIMIT_S = 170.0
#: the traced pass fails if the root span keeps more than this share
MAX_UNATTRIBUTED = 0.05
#: set-up-only interpreters per run, beside the passes' own set-ups
SETUP_PROBES = 4

#: end-to-end metrics (tracing off) -> unit
END_TO_END = {
    "verdicts_per_s": "verdicts/s",
    "latency_p50_ms": "ms",
    "latency_p75_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (from the traced pass) -> unit. A layer's time is
#: its self time as a share of the traced requests' time, so a layer a
#: workload never enters reads 0 %, not a constant 0 s.
PER_LAYER = {}
for _span in SPANS:
    PER_LAYER[f"{_span}.self_pct"] = "%"
    PER_LAYER[f"{_span}.calls"] = "count"
PER_LAYER.update({
    "static.resolved_frac": "frac",
    "smt.feasibility_calls": "count",
    "smt.feasibility_pct": "%",
    "sym.pairs_considered": "count",
    "sym.queries": "count",
    "sym.pruned_frac": "frac",
    "smt.sat_instances": "count",
    "smt.sat_conflicts": "count",
    "smt.template_hits": "count",
    "streams.pairs_considered": "count",
    "streams.pruned_pairs": "count",
    "streams.queries": "count",
    "service.cache_hit_frac": "frac",
    "service.cold_fill_jobs_per_s": "jobs/s",
    "trace.unattributed_frac": "frac",
    "trace.overhead": "x",
})


class BenchError(RuntimeError):
    """A pass crashed, timed out or printed no result."""


def run_child(workload: str, seed: int, work_dir: str, deadline: float,
              phase: str = "pass", quick: bool = False,
              trace: bool = False) -> dict:
    """Run one pass in a fresh interpreter and return its result."""
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--phase", phase, "--work-dir", work_dir,
           "--spawned-at", repr(spawned_at)]
    cmd += ["--quick"] * quick + ["--trace"] * trace
    # a session of its own, so a timeout also stops the scheduler's
    # worker processes
    proc = subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"the {workload} {phase} interpreter ran past "
                         f"the {RUN_LIMIT_S:.0f} s run limit") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"the {workload} {phase} interpreter exited "
                         f"with code {proc.returncode}")
    out = json.loads(lines[-1])
    out["wall_s"] = time.monotonic() - spawned_at
    return out


def p75(values):
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def input_latencies(p) -> list:
    """One latency per distinct input: the median of its repetitions.

    Inputs of one workload form clusters (a bitonic sort takes 100x a
    vector add), and with equal repetitions a pooled percentile lands on
    a gap between two clusters, where a few slow first repetitions decide
    which side it reads. Per-input medians keep it off that knife edge.
    """
    by_key = {}
    for key, latency in zip(p["keys"], p["latencies"]):
        by_key.setdefault(key, []).append(latency)
    return [statistics.median(v) for v in by_key.values()]


def end_to_end(passes, setups) -> dict:
    def median(fn):
        return statistics.median(fn(p) for p in passes)
    return {
        "verdicts_per_s": median(
            lambda p: p["verdicts"] / sum(p["latencies"])),
        "latency_p50_ms": median(
            lambda p: 1000 * statistics.median(input_latencies(p))),
        "latency_p75_ms": median(lambda p: 1000 * p75(input_latencies(p))),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": median(lambda p: p["peak_rss_mb"]),
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload: str, traced: dict, fill, untraced_vps: float):
    """The per-layer metrics of one traced pass, plus the gate failures."""
    trace = traced["trace"]
    spans = trace["spans"]
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    request_s = spans[REQUEST]["total_s"]
    rows = {name: (spans.get(name, zero), request_s) for name in SPANS}
    if fill is not None:
        # puts happen only on misses: on replay, on the cold fill
        fill_spans = fill["trace"]["spans"]
        rows["service.cache_put"] = (
            fill_spans.get("service.cache_put", zero),
            fill_spans[REQUEST]["total_s"])
    metrics, self_s = {}, {}
    for name, (row, base) in rows.items():
        metrics[f"{name}.self_pct"] = 100 * ratio(row["self_s"], base)
        metrics[f"{name}.calls"] = row["calls"]
        self_s[name] = row["self_s"]
    c = Counter(traced["counters"])
    traced_vps = traced["verdicts"] / sum(traced["latencies"])
    metrics.update({
        "static.resolved_frac": ratio(c["static_resolved"],
                                      c["kernel_verdicts"]),
        "smt.feasibility_calls": trace["feasibility_calls"],
        "smt.feasibility_pct": 100 * ratio(trace["feasibility_s"],
                                           request_s),
        "sym.pairs_considered": c["pairs_considered"],
        "sym.queries": c["queries"],
        # bucketed pairs are dropped before they count as considered
        "sym.pruned_frac": ratio(
            c["bucketed_out"] + c["by_affine"] + c["pair_memo_hits"],
            c["bucketed_out"] + c["pairs_considered"]),
        "smt.sat_instances": c["sat_instances"],
        "smt.sat_conflicts": c["sat_conflicts"],
        "smt.template_hits": c["template_hits"],
        "streams.pairs_considered": c["stream_pairs_considered"],
        "streams.pruned_pairs": c["stream_pruned_pairs"],
        "streams.queries": c["stream_queries"],
        "service.cache_hit_frac": ratio(
            c["cache_hits"], c["cache_hits"] + c["cache_misses"]),
        "service.cold_fill_jobs_per_s": ratio(
            fill["verdicts"], fill["fill_s"]) if fill else 0.0,
        "trace.unattributed_frac": ratio(spans[REQUEST]["self_s"],
                                         request_s),
        "trace.overhead": ratio(untraced_vps, traced_vps),
    })
    gates = []
    if metrics["trace.unattributed_frac"] > MAX_UNATTRIBUTED:
        gates.append(f"trace.unattributed_frac "
                     f"{metrics['trace.unattributed_frac']:.3f} is above "
                     f"{MAX_UNATTRIBUTED}: wrap more entry points")
    for name, homes in HOMES.items():
        if workload in homes and metrics[f"{name}.calls"] == 0:
            gates.append(f"span {name} recorded no call on {workload}: "
                         f"its entry point was renamed or bypassed")
    return metrics, self_s, gates


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--passes", type=int, default=None,
                    help="minimum untraced passes (default 3; 1 with "
                         "--trace or --quick)")
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="keep adding passes until their requests took "
                         "this long in total")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="add a traced pass and report "
                                         "per-layer metrics")
    ap.add_argument("--quick", action="store_true",
                    help="fewer repetitions per pass (smoke test)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no checker sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    min_passes = args.passes or (1 if args.trace or args.quick else 3)

    deadline = time.monotonic() + RUN_LIMIT_S
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    run = dict(workload=args.workload, seed=args.seed, work_dir=work_dir,
               deadline=deadline, quick=args.quick)
    try:
        fill = None
        if args.workload == "replay":
            fill = run_child(phase="fill", trace=bool(args.trace), **run)
        passes, measured = [], 0.0
        while True:
            if len(passes) >= min_passes and (
                    measured >= args.seconds
                    or deadline - time.monotonic()
                    < 2 * passes[-1]["wall_s"]):
                break
            passes.append(run_child(**run))
            measured += sum(passes[-1]["latencies"])
        setups = [p["setup_s"] for p in passes] + [
            run_child(phase="setup", **run)["setup_s"]
            for _ in range(SETUP_PROBES)]
        traced = run_child(trace=True, **run) if args.trace else None
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    every = [p for p in (fill, *passes, traced) if p is not None]
    failures = [f for p in every for f in p["failures"]]
    attempted = sum(p["verdicts"] for p in every)
    first_seen = {}
    for p in every:
        for key, sig in p["signatures"].items():
            if first_seen.setdefault(key, sig) != sig:
                failures.append(f"{key}: verdict differs between passes")
    metrics = end_to_end(passes, setups)
    tag = args.workload
    print(f"{tag}: {len(passes)} passes, "
          f"{sum(len(p['latencies']) for p in passes)} requests, "
          f"{sum(p['wall_s'] for p in every):.1f} s of pass wall clock")
    for name, unit in END_TO_END.items():
        print(f"{tag}  {name} = {metrics[name]:.6g} {unit}")
    print(f"{tag}  failed_frac = {len(failures) / attempted:.6g} frac "
          f"({len(failures)} of {attempted} verdicts)")
    if fill is not None:
        print(f"{tag}  service.cold_fill_s = {fill['fill_s']:.6g} s")
    gates = []
    if traced is not None:
        metrics, self_s, gates = per_layer(
            args.workload, traced, fill, metrics["verdicts_per_s"])
        for name, unit in PER_LAYER.items():
            print(f"{tag}  {name} = {metrics[name]:.6g} {unit}")
        for name, seconds in self_s.items():
            print(f"{tag}  {name}.self_s = {seconds:.6g} s")
    for problem in failures[:20] + gates:
        print(f"{tag}  FAILED: {problem}", file=sys.stderr)
    declared = PER_LAYER if traced is not None else END_TO_END
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0 if not failures and not gates else 1


if __name__ == "__main__":
    sys.exit(main())
