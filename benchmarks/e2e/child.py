"""One pass of the end-to-end benchmark, in a fresh interpreter.

``run.py`` starts this script once per pass, because the simplify memo
and term interning are process-global: a second pass in the same
process would measure warm caches no user start-up has. The last line
of standard output is one JSON object with the pass's measurements.

A ``setup`` pass stops where the first request would start: it only
measures set-up time. A ``fill`` pass (``replay`` only) checks the 55 built-in specs cold into
the run's cache directory and writes their verdict digests to
``cold.json`` beside it; every later ``replay`` pass reads them.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))
#: spans are written here as JSONL (ignored by git)
OUT_DIR = HERE / "out"


def _trace_summary(tracer, workload: str, phase: str) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(str(OUT_DIR / f"trace-{workload}-{phase}.jsonl"))
    calls, seconds = tracer.feasibility()
    return {"spans": tracer.table(), "feasibility_calls": calls,
            "feasibility_s": seconds}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--phase", choices=("pass", "fill", "setup"),
                    default="pass")
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() when the parent started us")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import workloads
    tracer = None
    if args.trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    cache_dir = os.path.join(args.work_dir, "cache")
    cold_path = os.path.join(args.work_dir, "cold.json")

    if args.phase == "fill":
        start = time.perf_counter()
        if tracer is not None:
            cold, failures = tracer.request(workloads.fill_cache, cache_dir)
        else:
            cold, failures = workloads.fill_cache(cache_dir)
        fill_s = time.perf_counter() - start
        with open(cold_path, "w", encoding="utf-8") as fh:
            json.dump(cold, fh)
        out = {"fill_s": fill_s, "verdicts": len(cold),
               "failures": failures,
               "signatures": {"fill": workloads.digest(sorted(cold.items()))}}
        if tracer is not None:
            out["trace"] = _trace_summary(tracer, args.workload, "fill")
        print(json.dumps(out))
        return 0

    if args.workload == "replay":
        with open(cold_path, encoding="utf-8") as fh:
            cold = json.load(fh)
        workload = workloads.Replay(args.seed, args.quick, cache_dir, cold)
    else:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.quick)

    setup_s = None
    keys, latencies, failures, signatures = [], [], [], {}
    verdicts = 0
    for key, thunk in workload.requests():
        if setup_s is None:
            setup_s = time.monotonic() - args.spawned_at
            if args.phase == "setup":
                break
        start = time.perf_counter()
        result = tracer.request(thunk) if tracer is not None else thunk()
        latency = time.perf_counter() - start
        keys.append(key)
        latencies.append(latency)
        signature, n, problems = workload.judge(key, result)
        del result
        verdicts += n
        if latency > workloads.CHECK_BUDGET_S:
            problems = problems or [f"{key}: over the "
                                    f"{workloads.CHECK_BUDGET_S:.0f} s budget"]
        failures.extend(problems)
        if signatures.setdefault(key, signature) != signature:
            failures.append(f"{key}: verdict changed between repetitions")
    out = {
        "setup_s": setup_s,
        "keys": keys,
        "latencies": latencies,
        "verdicts": verdicts,
        "failures": failures,
        "signatures": signatures,
        "counters": dict(workload.counters),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["trace"] = _trace_summary(tracer, args.workload, "pass")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
