"""CLI tests (python -m repro ...)."""
import json

import pytest

from repro.cli import main

RACY = """
__shared__ int v[64];
__global__ void race() {
  v[threadIdx.x] = v[(threadIdx.x + 1) % blockDim.x];
}
"""

CLEAN = """
__global__ void k(float *a) { a[threadIdx.x] = 1.0f; }
"""

SCATTER = """
__global__ void scatter(int *idx, float *out) {
  out[idx[threadIdx.x] & 63] = (float)threadIdx.x;
}
"""


@pytest.fixture
def racy_file(tmp_path):
    f = tmp_path / "racy.cu"
    f.write_text(RACY)
    return str(f)


@pytest.fixture
def clean_file(tmp_path):
    f = tmp_path / "clean.cu"
    f.write_text(CLEAN)
    return str(f)


class TestCheck:
    def test_racy_kernel_exit_code(self, racy_file, capsys):
        code = main(["check", racy_file, "--block", "64", "--no-oob"])
        assert code == 1
        out = capsys.readouterr().out
        assert "RACE" in out

    def test_clean_kernel_exit_code(self, clean_file, capsys):
        code = main(["check", clean_file, "--block", "64"])
        assert code == 0
        assert "no races found" in capsys.readouterr().out

    def test_json_output(self, racy_file, capsys):
        code = main(["check", racy_file, "--block", "64", "--no-oob",
                     "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernel"] == "race"
        assert payload["races"]
        assert payload["flows"] == 1
        assert payload["resolvable"] == "Y"

    def test_text_report_shows_warnings(self, racy_file, capsys):
        # a zero wall-clock budget leaves a warning on the execution
        # record; the text report must show it, as --json does
        main(["check", racy_file, "--block", "64", "--no-oob",
              "--time-budget", "0"])
        warnings = [line for line in capsys.readouterr().out.splitlines()
                    if line.strip().startswith("WARNING:")]
        assert len(warnings) == 1
        assert "wall-clock budget" in warnings[0]

    def test_engine_selection(self, racy_file, capsys):
        code = main(["check", racy_file, "--block", "8", "--no-oob",
                     "--engine", "gkleep", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "gkleep"
        assert code == 1

    def test_grid_and_scalar_options(self, tmp_path, capsys):
        f = tmp_path / "g.cu"
        f.write_text("""
__global__ void k(int *a, int n) {
  unsigned i = blockIdx.x * blockDim.x + threadIdx.x;
  if ((int)i < n) { a[i] = 1; }
}
""")
        code = main(["check", str(f), "--grid", "4", "--block", "32",
                     "--set", "n=128", "--array-size", "a=128"])
        assert code == 0

    def test_forced_symbolic(self, tmp_path, capsys):
        f = tmp_path / "s.cu"
        f.write_text(SCATTER)
        code = main(["check", str(f), "--block", "64", "--no-oob",
                     "--symbolic", "idx"])
        assert code == 1  # symbolic idx values can collide


class TestTaint:
    def test_advisory_output(self, tmp_path, capsys):
        f = tmp_path / "s.cu"
        f.write_text(SCATTER)
        code = main(["taint", str(f)])
        assert code == 0
        out = capsys.readouterr().out
        assert "SYMBOLIC" in out and "idx" in out


class TestIr:
    def test_ir_dump(self, racy_file, capsys):
        code = main(["ir", racy_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "kernel void @race" in out
        assert "getelptr" in out


class TestTests:
    def test_vectors_cover_flows(self, tmp_path, capsys):
        f = tmp_path / "t.cu"
        f.write_text("""
__shared__ int s[64];
__global__ void k() {
  for (unsigned i = 0; i < threadIdx.x; i++) { s[i] = 1; }
}
""")
        code = main(["tests", str(f), "--block", "4"])
        assert code == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("test[")]
        assert len(lines) >= 2  # distinct trip counts → distinct vectors


class TestFileErrors:
    def test_missing_file_exits_2_with_clean_message(self, capsys):
        for sub in (["check"], ["taint"], ["ir"], ["tests"]):
            with pytest.raises(SystemExit) as exc:
                main(sub + ["/no/such/kernel.cu"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "cannot read" in err
            assert "Traceback" not in err

    def test_directory_as_file_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", str(tmp_path)])
        assert exc.value.code == 2
        assert "cannot read" in capsys.readouterr().err


class TestTaintJson:
    def test_json_advisory(self, tmp_path, capsys):
        f = tmp_path / "s.cu"
        f.write_text(SCATTER)
        code = main(["taint", str(f), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernel"] == "scatter"
        assert payload["symbolic"] == ["idx"]
        assert payload["verdicts"]["idx"]["is_pointer"]
        assert payload["verdicts"]["idx"]["flows_into_address"]
        assert payload["total_inputs"] == len(payload["verdicts"])


class TestTestsJson:
    def test_json_vectors(self, tmp_path, capsys):
        f = tmp_path / "t.cu"
        f.write_text("""
__shared__ int s[64];
__global__ void k() {
  for (unsigned i = 0; i < threadIdx.x; i++) { s[i] = 1; }
}
""")
        code = main(["tests", str(f), "--block", "4", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernel"] == "k"
        assert len(payload["vectors"]) >= 2
        assert all(isinstance(v, dict) for v in payload["vectors"])


BUGGY_REDUCTION = """
__shared__ float sdata[512];
__global__ void reduce(float *idata, float *odata) {
  sdata[threadIdx.x] = idata[threadIdx.x];
  __syncthreads();
  for (unsigned int s = 1; s < blockDim.x; s *= 2) {
    if (threadIdx.x % (2*s) == 0)
      sdata[threadIdx.x] += sdata[threadIdx.x + s];
  }
  __syncthreads();
  odata[threadIdx.x] = sdata[threadIdx.x];
}
"""

TRUE_RACE = """
__global__ void clash(int *v) {
  v[0] = threadIdx.x;
}
"""


@pytest.fixture
def buggy_file(tmp_path):
    f = tmp_path / "reduce.cu"
    f.write_text(BUGGY_REDUCTION)
    return str(f)


class TestRepair:
    def test_repair_synthesizes_verified_fix(self, buggy_file, capsys):
        code = main(["repair", buggy_file, "--block", "64", "--no-oob"])
        assert code == 0
        out = capsys.readouterr().out
        assert "verified race-free" in out
        assert "+    __syncthreads();" in out

    def test_diff_only_output(self, buggy_file, capsys):
        code = main(["repair", buggy_file, "--block", "64", "--no-oob",
                     "--diff"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("--- a/reduce.cu")
        assert "+    __syncthreads();" in out

    def test_json_output(self, buggy_file, capsys):
        code = main(["repair", buggy_file, "--block", "64", "--no-oob",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] and payload["verified"]
        assert payload["minimal"]
        assert [e["line"] for e in payload["edits"]] == [8]
        assert payload["preamble_reuse"] > 0

    def test_unrepairable_kernel_exits_1(self, tmp_path, capsys):
        f = tmp_path / "clash.cu"
        f.write_text(TRUE_RACE)
        code = main(["repair", str(f), "--block", "32", "--no-oob",
                     "--max-iterations", "3"])
        assert code == 1
        assert "FAILED to converge" in capsys.readouterr().out

    def test_clean_kernel_exits_0(self, clean_file, capsys):
        code = main(["repair", clean_file, "--block", "64"])
        assert code == 0
        assert "already race-free" in capsys.readouterr().out


class TestExitCodeAudit:
    """0 = clean, 1 = defects found (or repair failed), 2 = bad input —
    uniformly across subcommands."""

    @pytest.mark.parametrize("argv,expected", [
        (["check", "{clean}", "--block", "64"], 0),
        (["check", "{racy}", "--block", "64", "--no-oob"], 1),
        (["repair", "{buggy}", "--block", "64", "--no-oob"], 0),
        (["taint", "{racy}"], 0),
        (["ir", "{racy}"], 0),
        (["tests", "{clean}", "--block", "4"], 0),
        (["check", "{bad}"], 2),
        (["repair", "{bad}"], 2),
        (["taint", "{bad}"], 2),
        (["ir", "{bad}"], 2),
        (["tests", "{bad}"], 2),
        (["check", "{racy}", "--kernel", "nosuch"], 2),
        (["repair", "{racy}", "--kernel", "nosuch"], 2),
        (["check", "{racy}", "--set", "oops"], 2),
        (["check", "{racy}", "--set", "n=abc"], 2),
    ])
    def test_exit_codes(self, tmp_path, capsys, argv, expected):
        files = {}
        for tag, source in (("clean", CLEAN), ("racy", RACY),
                            ("buggy", BUGGY_REDUCTION),
                            ("bad", "__global__ void f( {")):
            f = tmp_path / f"{tag}.cu"
            f.write_text(source)
            files[tag] = str(f)
        argv = [a.format(**files) for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == expected
        err = capsys.readouterr().err
        if expected == 2:
            assert err.startswith("repro:")
            assert "Traceback" not in err
