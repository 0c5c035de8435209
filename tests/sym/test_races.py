"""Race checker unit tests: pair selection, warp semantics, OOB, benign."""
import pytest

from repro.core import GKLEEp, SESA, LaunchConfig, check_source


def check(source, *, block=64, grid=1, warp=32, lockstep=False, oob=False,
          kernel=None, **kw):
    cfg = LaunchConfig(grid_dim=grid, block_dim=block, warp_size=warp,
                       warp_lockstep=lockstep, check_oob=oob, **kw)
    return check_source(source, cfg, kernel_name=kernel)


class TestSharedMemoryRaces:
    def test_adjacent_write_read(self):
        report = check("""
__shared__ int s[64];
__global__ void k() {
  s[threadIdx.x] = s[(threadIdx.x + 1) % blockDim.x];
}""")
        assert report.has_races
        kinds = {r.kind for r in report.races}
        assert kinds & {"RW", "WR"}

    def test_disjoint_writes_clean(self):
        report = check("""
__shared__ int s[64];
__global__ void k() { s[threadIdx.x] = 1; }""")
        assert not report.races

    def test_strided_disjoint_clean(self):
        report = check("""
__shared__ int s[128];
__global__ void k() {
  s[threadIdx.x * 2] = 1;
  s[threadIdx.x * 2 + 1] = 2;
}""")
        assert not report.races

    def test_all_threads_same_cell_ww(self):
        report = check("""
__shared__ int s[64];
__global__ void k() { s[0] = threadIdx.x; }""")
        ww = [r for r in report.races if r.kind == "WW"]
        assert ww and not ww[0].benign  # different values: not benign

    def test_same_cell_same_value_benign(self):
        report = check("""
__shared__ int s[64];
__global__ void k() { s[0] = 7; }""")
        ww = [r for r in report.races if r.kind == "WW"]
        assert ww and ww[0].benign

    def test_barrier_separates_intervals(self):
        report = check("""
__shared__ int s[64];
__global__ void k() {
  s[threadIdx.x] = 1;
  __syncthreads();
  int x = s[(threadIdx.x + 1) % blockDim.x];
  s[threadIdx.x] = x;
}""")
        # read of neighbour's cell is ordered by the barrier w.r.t. the
        # first write; but within BI2 the read races the second write
        assert report.has_races
        for race in report.races:
            assert race.access1.bi_index == race.access2.bi_index

    def test_missing_barrier_is_racy(self):
        report = check("""
__shared__ int s[64];
__global__ void k() {
  s[threadIdx.x] = 1;
  int x = s[(threadIdx.x + 1) % blockDim.x];
  s[threadIdx.x] = x;
}""")
        assert report.has_races


class TestGlobalMemoryRaces:
    def test_inter_block_race(self):
        # every block writes cell 0 of global memory
        report = check("""
__global__ void k(int *g) { if (threadIdx.x == 0) { g[0] = blockIdx.x; } }
""", grid=4)
        assert report.has_races

    def test_per_thread_global_clean(self):
        report = check("""
__global__ void k(int *g) {
  g[blockIdx.x * blockDim.x + threadIdx.x] = 1;
}""", grid=4)
        assert not report.races

    def test_barrier_does_not_order_across_blocks(self):
        # the barrier orders the two accesses within a block, but thread
        # pairs in *different* blocks still race
        report = check("""
__global__ void k(int *g) {
  g[threadIdx.x] = 1;
  __syncthreads();
  g[threadIdx.x] = 2;
}""", grid=2)
        assert report.has_races
        assert any(r.access1.bi_index != r.access2.bi_index
                   or r.access1.bi_index == r.access2.bi_index
                   for r in report.races)

    def test_single_block_barrier_orders(self):
        report = check("""
__global__ void k(int *g) {
  g[threadIdx.x] = 1;
  __syncthreads();
  g[threadIdx.x] = 2;
}""", grid=1)
        assert not report.has_races


class TestAtomics:
    def test_atomic_vs_atomic_clean(self):
        report = check("""
__global__ void k(unsigned *c) { atomicAdd(&c[0], 1); }""")
        assert not report.races

    def test_atomic_vs_plain_read_races(self):
        report = check("""
__global__ void k(unsigned *c, unsigned *out) {
  if (threadIdx.x == 0) { out[0] = c[0]; }
  else { atomicAdd(&c[0], 1); }
}""")
        assert report.has_races

    def test_atomic_vs_plain_write_races(self):
        report = check("""
__global__ void k(unsigned *c) {
  if (threadIdx.x == 0) { c[0] = 5; }
  else { atomicAdd(&c[0], 1); }
}""")
        assert report.has_races


class TestWarpSemantics:
    DIVERGED = """
__shared__ int s[64];
__global__ void k() {
  if (threadIdx.x % 2 == 0) { int x = s[threadIdx.x]; x = x + 1; }
  else { s[threadIdx.x >> 2] = 1; }
}"""

    LOCKSTEP = """
__shared__ int s[64];
__global__ void k() {
  s[threadIdx.x] = 1;
  int x = s[(threadIdx.x + 2) % 32];
  s[threadIdx.x] = x;
}"""

    def test_divergent_intra_warp_race_found_at_warp32(self):
        """§II: the divergent-branch race manifests 'no matter whether
        t1 and t2 are within a warp or not' — even under lock-step."""
        report = check(self.DIVERGED, block=32, warp=32, lockstep=True)
        assert report.has_races

    def test_lockstep_intra_warp_ordered_at_warp32(self):
        """Within one warp, straight-line accesses execute in lock-step:
        no race for a single 32-thread warp."""
        report = check(self.LOCKSTEP, block=32, warp=32, lockstep=True)
        assert not report.has_races

    def test_lockstep_races_at_warp1(self):
        """With warp size 1 (the compiler's legal view, §II), the same
        kernel races — programmers relying on warp-synchronism get hurt."""
        report = check(self.LOCKSTEP, block=32, warp=1, lockstep=True)
        assert report.has_races

    def test_lockstep_races_under_default_view(self):
        """The default (no lock-step assumption, 'warp size may be 1')
        reports the warp-synchronous pattern as racy."""
        report = check(self.LOCKSTEP, block=32, warp=32)
        assert report.has_races

    def test_simultaneous_simd_write_races_even_in_warp(self):
        report = check("""
__shared__ int s[64];
__global__ void k() { s[threadIdx.x / 2] = threadIdx.x; }
""", block=32, warp=32, lockstep=True)
        assert report.has_races


class TestOutOfBounds:
    def test_overflow_caught(self):
        report = check("""
__global__ void k(int *g) {
  g[blockIdx.x * blockDim.x + threadIdx.x + 1] = 1;
}""", oob=True, array_sizes={"g": 64})
        assert report.has_oob
        oob = report.oobs[0]
        # only the very last thread runs off the end
        assert oob.witness.thread1[0] == 63

    def test_exact_fit_clean(self):
        report = check("""
__global__ void k(int *g) { g[threadIdx.x] = 1; }
""", oob=True, array_sizes={"g": 64})
        assert not report.oobs

    def test_guard_prevents_oob(self):
        report = check("""
__global__ void k(int *g, int n) {
  unsigned i = threadIdx.x;
  if (i < 32u) { g[i] = 1; }
}""", oob=True, array_sizes={"g": 32})
        assert not report.oobs

    def test_shared_oob(self):
        report = check("""
__shared__ int s[32];
__global__ void k() { s[threadIdx.x] = 1; }
""", oob=True)  # 64 threads, 32 slots
        assert report.has_oob

    @pytest.mark.parametrize("static_tier", [True, False])
    def test_access_wider_than_object_at_offset_zero(self, static_tier):
        # a 4-byte store into a 2-byte object overruns it even at
        # offset 0, so both tiers must report the lone thread
        report = check("""
__global__ void k(int *out) {
  __shared__ char s[2];
  int *p = (int *)s;
  p[threadIdx.x] = 1;
}""", block=1, oob=True, static_tier=static_tier)
        assert report.check_stats.tier == \
            ("static" if static_tier else "parametric")
        assert len(report.oobs) == 1
        assert report.oobs[0].witness.thread1 == (0, 0, 0)


class TestWitnesses:
    def test_witness_satisfies_race(self):
        report = check("""
__shared__ int s[64];
__global__ void k() {
  s[threadIdx.x] = s[(threadIdx.x + 1) % blockDim.x];
}""")
        race = report.races[0]
        w = race.witness
        assert w.thread1 != w.thread2
        assert 0 <= w.thread1[0] < 64 and 0 <= w.thread2[0] < 64

    def test_input_values_in_witness(self):
        report = check("""
__global__ void k(int *data, int *out) {
  out[data[threadIdx.x] & 31] = threadIdx.x;
}""", oob=False)
        assert report.has_races
