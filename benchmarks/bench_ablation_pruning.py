"""Ablation — pre-solver pruning pipeline on the race-check phase.

The pruning pipeline attacks candidate pairs before the solver sees
them: record-time summarization collapses affine access runs into a
single summarized access with a symbolic index, disjointness bucketing
partitions each barrier interval's accesses into provably
non-overlapping address buckets (interval byte footprints + affine
residue separation) so pairs are only generated within a bucket, and a
canonical pair memo keyed on interned (offset, cond, kind, size,
value) classes discharges isomorphic pairs once. The raw path
(``pair_pruning=False``) enumerates and solves every pair, as the
checker did before the pipeline existed.

This bench runs the paper + reductions suites through SESA both ways
and asserts the contract:

* every kernel's deduplicated verdict set (races/OOBs/assertions,
  incl. benign flags) is identical across the two modes —
  summarization may merge duplicate reports of the same race but may
  never add or drop a verdict;
* the pruned path issues at least 30% fewer solver queries than the
  raw path on the reductions suite (the unrolled-loop family the
  pipeline targets);
* the pruned path's total query count does not regress above the
  recorded baseline in ``BENCH_pruning_baseline.json`` (guards
  against bucket or memo keys silently breaking and pushing pairs
  back into the solver).

The per-mode counters land in ``BENCH_pruning.json`` (CI uploads it
as an artifact).
"""
import json
import os
import time

import pytest

from common import print_table
from repro.core import SESA
from repro.service.corpus import SUITES, spec_from_kernel

SUITE_NAMES = ("paper", "reductions")

#: the unrolled-loop family the acceptance gate is measured on
GATED_SUITE = "reductions"
GATE = 0.30

#: regression gate: pruned-mode solver queries may not exceed
#: baseline * SLACK
BASELINE_PATH = os.path.join(os.path.dirname(__file__),
                             "BENCH_pruning_baseline.json")
SLACK = 1.25

RESULTS = {}


def _signature(report):
    # deduplicated sets: summarization merges same-instruction duplicate
    # reports, so multiplicity may differ — the verdict set may not
    races = sorted(set(
        (r.kind, r.obj_name, r.access1.loc, r.access2.loc,
         r.benign, r.unresolvable) for r in report.races))
    oobs = sorted(set((o.obj_name, o.access.loc) for o in report.oobs))
    asserts = sorted(set(a.loc for a in report.assertion_failures))
    return (races, oobs, asserts, report.timed_out)


def run_suites(pruning):
    agg = {"queries": 0, "pairs_considered": 0, "by_affine": 0,
           "dedup_skipped": 0, "summarized_accesses": 0,
           "bucketed_out": 0, "pair_memo_hits": 0, "oob_pruned": 0,
           "execute_s": 0.0, "pairgen_s": 0.0, "solve_s": 0.0}
    per_suite_queries = {}
    verdicts = {}
    start = time.perf_counter()
    for suite in SUITE_NAMES:
        per_suite_queries[suite] = 0
        for kernel in SUITES[suite]:
            spec = spec_from_kernel(kernel, suite=suite)
            spec.config.pair_pruning = pruning
            # this ablation measures solver-path pruning counters: keep
            # the static tier out so every kernel reaches the solver
            spec.config.static_tier = False
            tool = SESA.from_source(spec.source, spec.kernel_name)
            report = tool.check(spec.launch_config())
            verdicts[spec.job_id] = _signature(report)
            cs = report.check_stats
            if cs is None:
                continue
            per_suite_queries[suite] += cs.queries
            agg["queries"] += cs.queries
            agg["pairs_considered"] += cs.pairs_considered
            agg["by_affine"] += cs.by_affine
            agg["dedup_skipped"] += cs.dedup_skipped
            agg["summarized_accesses"] += cs.summarized_accesses
            agg["bucketed_out"] += cs.bucketed_out
            agg["pair_memo_hits"] += cs.pair_memo_hits
            agg["oob_pruned"] += cs.oob_pruned
            agg["execute_s"] += cs.execute_seconds
            agg["pairgen_s"] += cs.pairgen_seconds
            agg["solve_s"] += cs.solve_seconds
    agg["ms"] = (time.perf_counter() - start) * 1e3
    agg["suite_queries"] = per_suite_queries
    return agg, verdicts


@pytest.mark.parametrize("mode", ["raw", "pruned"])
def test_mode(benchmark, mode):
    def run():
        return run_suites(pruning=(mode == "pruned"))
    agg, verdicts = benchmark.pedantic(run, rounds=1, iterations=1)
    RESULTS[mode] = (agg, verdicts)


def test_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if len(RESULTS) < 2:
        pytest.skip("run the full module for the report")
    raw, pruned = RESULTS["raw"][0], RESULTS["pruned"][0]

    # the contract: a pure performance layer — verdicts are identical
    assert RESULTS["pruned"][1] == RESULTS["raw"][1], \
        "pair pruning changed a verdict!"

    cols = ["queries", "pairs_considered", "summarized_accesses",
            "bucketed_out", "pair_memo_hits", "oob_pruned"]
    rows = [[mode] + [RESULTS[mode][0][c] for c in cols]
            + [f"{RESULTS[mode][0]['ms']:.0f}"]
            for mode in ("raw", "pruned")]
    print_table(
        "Ablation: pre-solver pair pruning "
        "(verdicts identical across modes)",
        ["mode"] + cols + ["ms"], rows)

    payload = {
        "suites": list(SUITE_NAMES),
        "raw": raw,
        "pruned": pruned,
        "query_reduction": {
            suite: {
                "raw": raw["suite_queries"][suite],
                "pruned": pruned["suite_queries"][suite],
            } for suite in SUITE_NAMES},
    }
    out_path = os.environ.get("BENCH_OUT", os.path.join(
        os.path.dirname(__file__), "BENCH_pruning.json"))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"wrote {out_path}")

    # the acceptance gate: >= 30% fewer solver queries on the
    # unrolled-loop reductions suite
    raw_q = raw["suite_queries"][GATED_SUITE]
    pruned_q = pruned["suite_queries"][GATED_SUITE]
    assert pruned_q <= (1.0 - GATE) * raw_q, (
        f"pruning saved only {raw_q - pruned_q} of {raw_q} queries on "
        f"{GATED_SUITE} (< {GATE:.0%})")

    # regression gate against the recorded baseline
    with open(BASELINE_PATH, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    budget = baseline["pruned_queries"] * SLACK
    assert pruned["queries"] <= budget, (
        f"pruned-mode solver queries regressed: {pruned['queries']} > "
        f"{baseline['pruned_queries']} * {SLACK}")
