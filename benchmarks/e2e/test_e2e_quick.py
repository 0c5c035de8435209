"""Smoke test of the end-to-end benchmark: one ``--quick --trace`` run
per workload.

Not part of tier-1 (whose testpaths is ``tests``); run it with::

    python3 -m pytest benchmarks/e2e/test_e2e_quick.py -q

Each run must exit 0, which means every verdict matched its known
answer, the root span kept at most 5% of the traced request time, and
every span recorded a call on the workloads it is meant to move.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
#: "<workload>  <metric> = <value> <unit>"
METRIC_LINE = re.compile(r"^(\w+) +(\S+) = (\S+) (\S+)")


@pytest.mark.parametrize("workload",
                         [w["name"] for w in DECLARED["workloads"]])
def test_quick_traced_run(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--quick", "--trace"],
        cwd=ROOT, capture_output=True, text=True, timeout=175)
    assert proc.returncode == 0, proc.stderr
    printed = {}
    for line in proc.stdout.splitlines():
        match = METRIC_LINE.match(line)
        if match and match.group(1) == workload:
            printed[match.group(2)] = (float(match.group(3)),
                                       match.group(4))
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert metric["name"] in printed, metric["name"]
        assert printed[metric["name"]][1] == metric["unit"], metric["name"]
    assert printed["failed_frac"][0] == 0
    assert printed["trace.unattributed_frac"][0] <= 0.05

    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == \
        {m["name"] for m in DECLARED["per_layer"]}
