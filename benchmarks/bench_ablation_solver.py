"""Solver-session dispatch counters and the SAT-core query ceiling.

Every race query simplifies and bit-blasts its preamble (bounds +
distinct-thread + barrier-interval context) once per session, then
discharges each candidate pair against that live SAT instance under
assumption literals, with learned clauses retained and a normalized
query memo in front.

This bench runs the paper + reductions suites through SESA and gates
the total SAT-core work (assumption checks on the live instances): it
may not exceed the recorded baseline in ``BENCH_solver_baseline.json``
by more than ``SLACK`` (guards against cache keys silently breaking and
pushing queries back into the SAT core).

The dispatch table and counters land in ``BENCH_solver.json`` (CI
uploads it as an artifact).
"""
import json
import os
import time

from common import print_table
from repro.core import SESA
from repro.service.corpus import SUITES, spec_from_kernel

SUITE_NAMES = ("paper", "reductions")

#: regression gate: SAT-core queries (assumption checks) may not
#: exceed baseline * SLACK
BASELINE_PATH = os.path.join(os.path.dirname(__file__),
                             "BENCH_solver_baseline.json")
SLACK = 1.25


def run_suites():
    agg = {"queries": 0, "by_memo": 0, "by_affine": 0,
           "by_simplifier": 0, "by_interval": 0, "by_range": 0,
           "by_session": 0, "sat_instances": 0,
           "preamble_reuse": 0, "sessions_created": 0, "sat_conflicts": 0,
           "learned_clauses": 0}
    start = time.perf_counter()
    for suite in SUITE_NAMES:
        for kernel in SUITES[suite]:
            spec = spec_from_kernel(kernel, suite=suite)
            # this bench measures the solver stack: keep the static
            # tier out so every kernel actually reaches the solver
            spec.config.static_tier = False
            tool = SESA.from_source(spec.source, spec.kernel_name)
            cs = tool.check(spec.launch_config()).check_stats
            if cs is None:
                continue
            agg["queries"] += cs.queries
            agg["by_memo"] += cs.by_memo
            agg["by_affine"] += cs.by_affine
            agg["preamble_reuse"] += cs.preamble_reuse
            agg["sessions_created"] += cs.sessions_created
            agg["by_simplifier"] += cs.solver.by_simplifier
            agg["by_interval"] += cs.solver.by_interval
            agg["by_range"] += cs.solver.by_range
            agg["by_session"] += cs.solver.by_session
            agg["sat_instances"] += cs.solver.sat_instances
            agg["sat_conflicts"] += cs.solver.sat_conflicts
            agg["learned_clauses"] += cs.solver.learned_clauses
    agg["ms"] = (time.perf_counter() - start) * 1e3
    return agg


def test_sat_core_ceiling(benchmark):
    agg = benchmark.pedantic(run_suites, rounds=1, iterations=1)

    cols = ["queries", "by_memo", "by_affine", "by_simplifier",
            "by_interval", "by_range", "by_session",
            "preamble_reuse", "sat_conflicts"]
    print_table("Solver-session dispatch (paper + reductions)",
                cols + ["ms"],
                [[agg[c] for c in cols] + [f"{agg['ms']:.0f}"]])

    actual = agg["by_session"]
    payload = {"suites": list(SUITE_NAMES), "dispatch": agg,
               "sat_core_queries": actual}
    out_path = os.environ.get("BENCH_OUT", os.path.join(
        os.path.dirname(__file__), "BENCH_solver.json"))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"wrote {out_path}")

    with open(BASELINE_PATH, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    budget = baseline["incremental_sat_core_queries"] * SLACK
    assert actual <= budget, (
        f"SAT-core queries regressed: {actual} > "
        f"{baseline['incremental_sat_core_queries']} * {SLACK}")
