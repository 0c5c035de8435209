"""Warm-start bench: re-checking an unchanged corpus from disk artifacts.

A cold run over the paper + reductions suites populates the solver
artifact store (preamble CNF snapshots, retained learnts, query memos,
pair verdicts). A second run *in a fresh process* — the re-run-the-tool
workflow the cache exists for — must then:

* produce byte-identical race/OOB/assertion verdicts,
* replay instead of solving: zero assumption checks against live SAT
  sessions (``by_session == 0``),
* cut the summed check-phase (solve) wall clock by at least
  ``MIN_SPEEDUP``x.

Fresh processes matter: fresh-variable counters are process-global, so
an in-process re-run produces different havoc names and artificially
misses the memo. Each measurement runs in its own interpreter.

Counters and timings land in ``BENCH_warmstart.json``; the recorded
``BENCH_warmstart_baseline.json`` gates the replay counters so a digest
or serialisation regression (which would silently push pairs back into
the solver) fails the bench rather than just slowing it down.
"""
import json
import os
import subprocess
import sys
import tempfile

import pytest

from common import print_table

#: acceptance: warm solve phase at least this much faster than cold
MIN_SPEEDUP = 4.0

#: replay-counter regression slack vs the recorded baseline
COUNTER_SLACK = 0.9

BASELINE_PATH = os.path.join(os.path.dirname(__file__),
                             "BENCH_warmstart_baseline.json")

#: one measurement = one interpreter: check both suites with the
#: artifact store at argv[1], print aggregate counters + verdicts
CHILD = r"""
import json, sys
from repro.core import SESA
from repro.service.corpus import SUITES, spec_from_kernel

agg = {"solve_seconds": 0.0, "by_session": 0,
       "warm_memo_hits": 0, "warm_pair_hits": 0, "warm_starts": 0,
       "queries": 0, "pairs_considered": 0}
verdicts = {}
for suite in ("paper", "reductions"):
    for kernel in SUITES[suite]:
        spec = spec_from_kernel(kernel, suite=suite)
        spec.config.solver_cache_dir = sys.argv[1]
        # warm starts only exist on the solver path: keep the static
        # tier out so every kernel produces solver artifacts
        spec.config.static_tier = False
        tool = SESA.from_source(spec.source, spec.kernel_name)
        report = tool.check(spec.launch_config())
        verdicts[spec.job_id] = [
            sorted((r.kind, r.obj_name, str(r.access1.loc),
                    str(r.access2.loc), r.benign, r.unresolvable)
                   for r in report.races),
            sorted((o.obj_name, str(o.access.loc)) for o in report.oobs),
            sorted(str(a.loc) for a in report.assertion_failures),
            report.timed_out,
        ]
        cs = report.check_stats
        agg["solve_seconds"] += cs.solve_seconds
        agg["by_session"] += cs.solver.by_session
        agg["warm_memo_hits"] += cs.warm_memo_hits
        agg["warm_pair_hits"] += cs.warm_pair_hits
        agg["warm_starts"] += cs.warm_starts
        agg["queries"] += cs.queries
        agg["pairs_considered"] += cs.pairs_considered
agg["solve_seconds"] = round(agg["solve_seconds"], 6)
print(json.dumps({"agg": agg, "verdicts": verdicts}))
"""


def _child_run(cache_dir):
    src_dir = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "src")
    env = dict(os.environ,
               PYTHONPATH=src_dir + os.pathsep + os.path.dirname(
                   os.path.abspath(__file__)))
    proc = subprocess.run([sys.executable, "-c", CHILD, cache_dir],
                          capture_output=True, text=True, env=env,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_warmstart(benchmark):
    with tempfile.TemporaryDirectory(prefix="repro-warmstart-") as cache:
        cold = _child_run(cache)
        warm = benchmark.pedantic(lambda: _child_run(cache),
                                  rounds=1, iterations=1)

    # contract first: warm start may never change a verdict
    assert warm["verdicts"] == cold["verdicts"], \
        "warm start changed a verdict!"

    ca, wa = cold["agg"], warm["agg"]
    speedup = ca["solve_seconds"] / max(wa["solve_seconds"], 1e-9)
    replays = wa["warm_memo_hits"] + wa["warm_pair_hits"]

    cols = ["solve_seconds", "queries", "by_session",
            "warm_memo_hits", "warm_pair_hits", "pairs_considered"]
    print_table(
        f"Warm start: re-check of an unchanged corpus "
        f"({speedup:.1f}x solve speedup, verdicts identical)",
        ["run"] + cols,
        [[name] + [run[c] for c in cols]
         for name, run in (("cold", ca), ("warm", wa))])

    payload = {"cold": ca, "warm": wa,
               "speedup": round(speedup, 2),
               "warm_replays": replays}
    out_path = os.environ.get("BENCH_OUT", os.path.join(
        os.path.dirname(__file__), "BENCH_warmstart.json"))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"wrote {out_path}")

    # the warm run replays, it does not solve
    assert wa["by_session"] == 0, \
        f"warm run still solved {wa['by_session']} session queries"
    assert speedup >= MIN_SPEEDUP, (
        f"warm re-check speedup {speedup:.2f}x below the "
        f"{MIN_SPEEDUP}x acceptance gate")

    # counter gate vs the recorded baseline: digests going stale would
    # silently push pairs back into the solver
    with open(BASELINE_PATH, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    floor = baseline["warm_replays"] * COUNTER_SLACK
    assert replays >= floor, (
        f"warm replays regressed: {replays} < "
        f"{baseline['warm_replays']} * {COUNTER_SLACK}")
