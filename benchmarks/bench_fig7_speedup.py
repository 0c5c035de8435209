"""Figure 7 — SESA's speedup over GKLEEp on the Table II kernels.

The paper plots T=16 and T=256 bars (1-3 orders of magnitude). We plot
T=16 and T=32; timed-out comparator runs give lower bounds (``>Nx``).
Each finished run is timed as the median of ``SPEEDUP_ROUNDS`` runs.
"""
import pytest

from common import median_run, print_table, run_gkleep, run_sesa, speedup
from repro.kernels import ALL_KERNELS

KERNELS = ["bitonic2.0", "wordsearch", "bitonic4.3", "mergeSort4.3",
           "stream_compaction", "n_stream_compaction", "blelloch",
           "brentkung"]
THREADS = [16, 32]
RESULTS = {}


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("name", KERNELS)
def test_speedup_pair(benchmark, name, threads):
    kernel = ALL_KERNELS[name]

    def pair():
        g = median_run(lambda: run_gkleep(kernel, block=(threads, 1, 1),
                                          check_oob=False))
        s = median_run(lambda: run_sesa(kernel, block=(threads, 1, 1),
                                        check_oob=False))
        return g, s

    g, s = benchmark.pedantic(pair, rounds=1, iterations=1)
    RESULTS[(name, threads)] = (g, s)


def test_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    wins = 0
    for name in KERNELS:
        row = [name]
        for threads in THREADS:
            pair = RESULTS.get((name, threads))
            if pair is None:
                pytest.skip("run the full module for the report")
            g, s = pair
            row.append(speedup(g, s))
            if g.timed_out or g.seconds > s.seconds:
                wins += 1
        rows.append(row)
    print_table("Figure 7: SESA speedup over GKLEEp (Table II kernels)",
                ["Kernel"] + [f"T={t}" for t in THREADS], rows)
    assert wins >= len(KERNELS), \
        f"SESA should win on most kernel/size points, won {wins}"
