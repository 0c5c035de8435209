"""Figure 6 — SESA's speedup over GKLEEp on LonestarGPU.

The paper's bars: ~1x with concrete inputs for most BFS variants (both
engines explore the same few flows), and 1-3 orders of magnitude with
symbolic inputs (GKLEEp times out; e.g. >3,000x on bfs_ls). Here the
timed-out comparator contributes a *lower bound* (printed as ``>Nx``).
Each finished run is timed as the median of ``SPEEDUP_ROUNDS`` runs.
"""
import pytest

from common import median_run, print_table, run_gkleep, run_sesa, speedup
from repro.kernels import ALL_KERNELS

KERNELS = ["bfs_ls", "bfs_atomic", "bfs_worklistw", "bfs_worklista",
           "BoundingBox", "sssp_ls", "sssp_worklistn"]
RESULTS = {}


def _dims(name):
    return dict(grid=(2, 1, 1), block=(32, 1, 1))


@pytest.mark.parametrize("mode", ["conc", "sym"])
@pytest.mark.parametrize("name", KERNELS)
def test_speedup_pair(benchmark, name, mode):
    kernel = ALL_KERNELS[name]
    conc = mode == "conc"

    def pair():
        g = median_run(lambda: run_gkleep(kernel, concrete_inputs=conc,
                                          **_dims(name)))
        s = median_run(lambda: run_sesa(kernel, concrete_inputs=conc,
                                        **_dims(name)))
        return g, s

    g, s = benchmark.pedantic(pair, rounds=1, iterations=1)
    RESULTS[(name, mode)] = (g, s)


def test_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    sym_speedups = []
    for name in KERNELS:
        row = [name]
        for mode in ("conc", "sym"):
            pair = RESULTS.get((name, mode))
            if pair is None:
                pytest.skip("run the full module for the report")
            g, s = pair
            row.append(speedup(g, s))
            if mode == "sym":
                sym_speedups.append(g.seconds / max(s.seconds, 1e-9))
        rows.append(row)
    print_table("Figure 6: SESA speedup over GKLEEp (LonestarGPU)",
                ["Kernel", "concrete inputs", "symbolic inputs"], rows)
    # the figure's shape: symbolic-input speedups are substantial for at
    # least the bfs_ls-style rows
    assert max(sym_speedups) > 2.0, sym_speedups
