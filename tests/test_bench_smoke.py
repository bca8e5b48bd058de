"""One short round of the pointwise benchmark, timed and traced.

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


def _reject_constant(name):
    raise ValueError(f"non-finite metric {name} in the result line")


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_pointwise_round(trace, section):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bmop_bench" / "run.py"), "--workload", "pointwise",
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True, proc.stderr
    assert set(result["metrics"]) == {m["name"] for m in DECLARED[section]}
