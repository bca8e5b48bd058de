"""Alternate parent and change runs of the benchmark and write a BENCH_*.json
trajectory file.

    python3 scripts/bench_trajectory.py --parent HEAD~1 --change HEAD \
        --pairs 3 --seed 1001 --out BENCH_label.json

--parent and --change each name a git revision, exported with git archive
so that the runs see only committed files, or "worktree" for this checkout
as it is, uncommitted changes included.  For every workload of
BENCHMARK.json (or those given with --workloads) it runs
bmop_bench/run.py --trace 0 on the parent and on the change with the same
seed, --pairs times on seeds seed, seed+1, ..., alternating which side
runs first; each run lasts BENCHMARK.json's run_seconds.  The file records
the machine, both sides, the seeds, and per workload and side the runs'
end-to-end metrics with their median and spread (the distance between the
first and third quartiles as a share of the median, as
bmop_bench/steady.py reports it), plus the change/parent ratio of the
medians, and each side's src_lines (the line count of its src/bmop/*.py,
as wc -l gives it).  After the benchmark runs it runs
tests/test_acceptance.py once per side, with PYTHONPATH=<side>/src, and
records the number of tests passed and each test's call time in seconds
(pytest --durations=0) as acceptance: {passed, call_s}.  Exits 1 if a run
was not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKTREE = "worktree"


def checkout(side: str, workdir: Path) -> tuple[Path, str]:
    """A directory with the side's files, and a description of the side."""
    commit = subprocess.run(["git", "rev-parse", "HEAD" if side == WORKTREE else side],
                            cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()
    if side == WORKTREE:
        return ROOT, f"working tree on {commit}"
    dest = workdir / commit
    dest.mkdir()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest, commit


def src_lines(tree: Path) -> int:
    return sum(f.read_bytes().count(b"\n") for f in (tree / "src" / "bmop").glob("*.py"))


def machine() -> dict:
    import mpmath
    import numpy
    import scipy
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"cores": cores, "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(tree / "bmop_bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=1200)
    if proc.returncode != 0:
        sys.exit(f"{tree}: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def acceptance(tree: Path) -> dict:
    """The acceptance file's passed count and per-test call seconds on one side."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=0",
           "tests/test_acceptance.py"]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                         timeout=1200).stdout
    passed = re.search(r"(\d+) passed", out)
    call_s = {test.split("::")[-1]: float(sec)
              for sec, test in re.findall(r"^([\d.]+)s call\s+(\S+)", out, re.M)}
    return {"passed": int(passed.group(1)) if passed else 0, "call_s": call_s}


def summary(runs: list[dict], names: list[str]) -> dict:
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {"median": median, "spread": (q3 - q1) / median, "runs": values}
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for a quartile spread")

    metrics = [m["name"] for m in spec["end_to_end"]]
    seeds = list(range(args.seed, args.seed + args.pairs))
    with tempfile.TemporaryDirectory() as workdir:
        (parent, parent_id), (change, change_id) = (
            checkout(side, Path(workdir)) for side in (args.parent, args.change))
        report = {"machine": machine(), "parent": parent_id, "change": change_id,
                  "src_lines": {"parent": src_lines(parent), "change": src_lines(change)},
                  "seeds": seeds, "seconds": spec["run_seconds"], "workloads": {}}
        correct = True
        for workload in args.workloads:
            runs = {"parent": [], "change": []}
            for k, seed in enumerate(seeds):
                order = (("parent", parent), ("change", change))
                for side, tree in order[::-1] if k % 2 else order:
                    r = run_once(tree, workload, seed, spec["run_seconds"])
                    correct &= r["correct"]
                    runs[side].append(r)
                    print(f"{workload} {side} seed {seed}: round_s "
                          f"{r['metrics']['round_s']['value']:.3g} correct {r['correct']}",
                          file=sys.stderr)
            entry = {side: {"failed": [r["failed"] for r in rs],
                            "attempted": [r["attempted"] for r in rs],
                            "metrics": summary(rs, metrics)} for side, rs in runs.items()}
            entry["ratio"] = {m: entry["change"]["metrics"][m]["median"]
                              / entry["parent"]["metrics"][m]["median"] for m in metrics}
            report["workloads"][workload] = entry
        report["acceptance"] = {"parent": acceptance(parent), "change": acceptance(change)}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
