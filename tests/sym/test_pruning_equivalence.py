"""Differential check: pair pruning must not change verdicts.

The pre-solver pruning pipeline (record-time summarization,
disjointness-bucketed pair generation, canonical pair memoization, the
interval OOB fast path) is a pure performance layer: for every kernel
the *set* of races, OOBs and assertion failures — kinds, objects,
source lines and benign flags — must be identical to raw enumeration.

Signatures are deduplicated sets, not lists: summarization legitimately
merges N same-instruction pairs into one reported race, so the on/off
runs may differ in duplicate *report multiplicity* but never in which
(kind, object, line-pair, benign) verdicts exist. The default report
cap counts distinct races and is above every kernel's count here, so
neither mode truncates reports.
"""
import pytest

from repro.core import SESA
from repro.service.corpus import SUITES, spec_from_kernel

# a fast cross-section of the three suites the acceptance criteria
# name: racy, clean, benign-WW, OOB, loop-unrolled and divergence-heavy
# kernels (each < ~1 s per mode)
FAST_KERNELS = [
    ("paper", "race_example"),
    ("paper", "reduction_racy"),
    ("paper", "bitonic_fig1"),
    ("reductions", "reduce0"),
    ("reductions", "reduce3"),
    ("reductions", "reduce4"),
    ("divergent", "stream_compaction"),
    ("divergent", "wordsearch"),
]


def _kernel(suite, name):
    for k in SUITES[suite]:
        if k.name == name:
            return k
    raise KeyError(f"{suite}/{name}")


def _run(suite, name, pruning):
    spec = spec_from_kernel(_kernel(suite, name), suite=suite)
    config = spec.launch_config()
    config.pair_pruning = pruning
    # pruning is a solver-path feature; keep the static tier out so the
    # raw/pruned comparison actually exercises the pair pruner
    config.static_tier = False
    tool = SESA.from_source(spec.source, spec.kernel_name)
    return tool.check(config)


def _signature(report):
    races = sorted(set(
        (r.kind, r.obj_name, r.access1.loc, r.access2.loc,
         r.benign, r.unresolvable) for r in report.races))
    oobs = sorted(set((o.obj_name, o.access.loc) for o in report.oobs))
    asserts = sorted(set(a.loc for a in report.assertion_failures))
    return (races, oobs, asserts, report.timed_out)


@pytest.mark.parametrize("suite,name", FAST_KERNELS,
                         ids=[f"{s}/{n}" for s, n in FAST_KERNELS])
def test_identical_verdicts(suite, name):
    raw = _run(suite, name, pruning=False)
    pruned = _run(suite, name, pruning=True)
    assert _signature(pruned) == _signature(raw)


def test_pruning_actually_engages():
    # the loop-unrolled reductions kernels must exercise the pipeline:
    # fewer solver queries, with the prune counters accounting for it
    raw = _run("reductions", "reduce3", pruning=False)
    pruned = _run("reductions", "reduce3", pruning=True)
    cs_raw, cs = raw.check_stats, pruned.check_stats
    assert cs is not None and cs_raw is not None
    assert cs.queries < cs_raw.queries
    assert cs.oob_pruned > 0
    assert cs.bucketed_out + cs.pair_memo_hits + \
        cs.summarized_accesses + cs.oob_pruned > 0


def test_summarization_engages_on_suite_kernel():
    # wordsearch records an unrolled affine sweep per flow — the
    # record-time summarizer must collapse it
    report = _run("divergent", "wordsearch", pruning=True)
    cs = report.check_stats
    assert cs is not None
    assert cs.summarized_accesses > 0


def test_raw_mode_keeps_counters_zero():
    report = _run("reductions", "reduce3", pruning=False)
    cs = report.check_stats
    assert cs is not None
    assert cs.summarized_accesses == 0
    assert cs.bucketed_out == 0
    assert cs.pair_memo_hits == 0
    assert cs.oob_pruned == 0


def test_phase_timings_populated():
    report = _run("reductions", "reduce3", pruning=True)
    cs = report.check_stats
    assert cs is not None
    assert cs.execute_seconds > 0
    assert cs.solve_seconds > 0
    assert cs.pairgen_seconds >= 0
    # and they ride along into the JSON report
    payload = report.to_dict()["check_stats"]
    for field in ("execute_seconds", "pairgen_seconds", "solve_seconds",
                  "dedup_skipped", "summarized_accesses", "bucketed_out",
                  "pair_memo_hits", "oob_pruned"):
        assert field in payload


def test_witnesses_remain_valid_models():
    for pruning in (False, True):
        report = _run("paper", "race_example", pruning=pruning)
        assert report.races
        for race in report.races:
            assert race.witness is not None
