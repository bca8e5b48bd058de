"""Steadiness check: run each workload once per seed and report the spread.

    python3 bmop_bench/steady.py --seeds 1000 1001 1002 1003 1004 1005 1006 1007 1008 1009
    python3 bmop_bench/steady.py --workloads quadrature --seeds 7 8 9 10 11

For every end-to-end metric of BENCHMARK.json it prints the median over the
runs and the distance between the first and third quartiles as a share of
the median (statistics.quantiles with n=4), next to the metric's bound and
a third of it.  It also checks that every run was correct and that the
share of failed operations is the same in every run of a workload.  Raw
results go to bmop_bench/results/ (ignored by git).  Runs last
BENCHMARK.json's run_seconds.  Exits 1 if a spread reaches its bound, a run
was wrong, or the failed shares differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    args = ap.parse_args()

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    bad = False
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            r = run_once(spec, workload, seed)
            runs.append(r)
            print(f"{workload} seed {seed}: wall {r['wall_s']:.1f}s correct {r['correct']} "
                  f"attempted {r['attempted']} failed {r['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()),
                  flush=True)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        (out_dir / f"steady_{workload}_{stamp}.json").write_text(
            json.dumps({"seeds": args.seeds, "seconds": spec["run_seconds"], "runs": runs},
                       indent=1))

        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        if len(shares) != 1 or not all(r["correct"] for r in runs):
            bad = True
            print(f"  {workload}: failed shares {sorted(map(str, shares))}, "
                  f"correct {[r['correct'] for r in runs]}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = ("ok" if spread < m["bound"] / 3 else
                       "wide" if spread < m["bound"] else "OVER")
            if verdict == "OVER":
                bad = True
            print(f"  {workload:12s} {m['name']:16s} median {med:10.4g} {m['unit']:3s} "
                  f"spread {spread:6.3f}  bound {m['bound']:.2f} (third {m['bound'] / 3:.3f}) "
                  f"{verdict}")
        print(f"  {workload}: mean run wall {statistics.mean(r['wall_s'] for r in runs):.1f}s, "
              f"failed share {next(iter(shares))}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
