"""Corpus loader: built-in suites and user directories."""
import pytest

from repro.kernels import ALL_KERNELS
from repro.service import SUITES, builtin_jobs, load_corpus
from repro.service.jobs import JobSpec
from repro.service.runner import execute_job
from repro.sym import LaunchConfig

ONE_INPUT = """
__global__ void fill(int *out) {
    out[threadIdx.x] = 0;
}
"""


class TestBuiltin:
    def test_full_corpus_covers_every_kernel(self):
        specs = builtin_jobs()
        assert len(specs) == len(ALL_KERNELS)
        names = {s.meta["kernel"] for s in specs}
        assert names == set(ALL_KERNELS)

    def test_single_suite(self):
        specs = builtin_jobs("sdk")
        assert len(specs) == len(SUITES["sdk"])
        assert all(s.job_id.startswith("builtin/sdk/") for s in specs)

    def test_unknown_suite_raises(self):
        with pytest.raises(ValueError, match="unknown suite"):
            builtin_jobs("nope")

    def test_table3_specs_carry_the_concrete_graph(self):
        specs = builtin_jobs("lonestar")
        assert all(s.needs_concrete_graph for s in specs)
        # and the graph materialises into the launch config
        config = specs[0].launch_config()
        assert config.array_values  # CSR arrays attached

    def test_specs_roundtrip_through_dicts(self):
        for spec in builtin_jobs("paper"):
            from repro.service import JobSpec
            clone = JobSpec.from_dict(spec.to_dict())
            assert clone.config_fingerprint() == spec.config_fingerprint()
            assert clone.source == spec.source


class TestDirectories:
    def test_directory_enumeration_sorted_recursive(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "b.cu").write_text("__global__ void b() {}")
        (tmp_path / "a.cu").write_text("__global__ void a() {}")
        (tmp_path / "sub" / "c.cu").write_text("__global__ void c() {}")
        (tmp_path / "notes.txt").write_text("not a kernel")
        specs = load_corpus([str(tmp_path)])
        assert [s.job_id for s in specs] == ["a.cu", "b.cu", "sub/c.cu"]

    def test_single_file_target(self, tmp_path):
        f = tmp_path / "k.cu"
        f.write_text("__global__ void k(float *a) "
                     "{ a[threadIdx.x] = 1.0f; }")
        specs = load_corpus([str(f)], block_dim=(32, 1, 1))
        assert len(specs) == 1
        assert specs[0].config.block_dim == (32, 1, 1)

    def test_missing_target_raises(self):
        with pytest.raises(FileNotFoundError):
            load_corpus(["/no/such/corpus"])

    def test_default_is_builtin(self):
        assert len(load_corpus([])) == len(ALL_KERNELS)


class TestRunnerOnBuiltins:
    def test_execute_job_produces_expected_verdict(self):
        # the §II race example must reproduce its paper verdict through
        # the full job-dict round trip
        spec = next(s for s in builtin_jobs("paper")
                    if s.meta["kernel"] == "race_example")
        payload = execute_job(spec.to_dict())
        assert payload["status"] == "done"
        kinds = {r["kind"] for r in payload["verdict"]["races"]}
        assert "RW" in kinds
        assert payload["inputs"]["symbolic"] == 0

    @pytest.mark.parametrize("engine,symbolic", [
        ("sesa", 0), ("gkleep", 1), ("gklee", 1)])
    def test_every_engine_reports_its_inputs(self, engine, symbolic):
        # a one-input kernel: SESA's taint pass proves the input never
        # flows into an address; both comparators symbolise it
        spec = JobSpec(job_id=f"one-input-{engine}", engine=engine,
                       source=ONE_INPUT, kernel_name="fill",
                       config=LaunchConfig(grid_dim=1, block_dim=2))
        payload = execute_job(spec.to_dict())
        assert payload["status"] == "done", payload.get("error")
        assert payload["inputs"] == {"symbolic": symbolic, "total": 1}

    def test_execute_job_never_raises(self):
        payload = execute_job({"job_id": "bad", "source": "((("})
        assert payload["status"] == "error"
        assert payload["error"]

    def test_unknown_engine_is_an_error_payload(self):
        payload = execute_job({"job_id": "x", "source": "",
                               "engine": "z4"})
        assert payload["status"] == "error"
        assert "unknown engine" in payload["error"]
