"""One short round of the pointwise and kernel_mc benchmarks, timed and
traced, and one traced round of high_degree and quadrature.

The benchmark's result is the last stdout line of bmop_bench/run.py; it
must be strict JSON, report a correct run and carry exactly the metrics
that BENCHMARK.json declares.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
MODES = [(0, "end_to_end"), (1, "per_layer")]


def _reject_constant(name):
    raise ValueError(f"non-finite metric {name} in the result line")


def _check_round(workload, trace, section):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bmop_bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True, proc.stderr
    assert set(result["metrics"]) == {m["name"] for m in DECLARED[section]}


@pytest.mark.parametrize("trace,section", MODES)
def test_pointwise_round(trace, section):
    _check_round("pointwise", trace, section)


@pytest.mark.parametrize("trace,section", MODES)
def test_kernel_mc_round(trace, section):
    _check_round("kernel_mc", trace, section)


@pytest.mark.parametrize("workload", ["high_degree", "quadrature"])
def test_traced_round(workload):
    _check_round(workload, 1, "per_layer")
