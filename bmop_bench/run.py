"""Run one benchmark workload against the bmop in this checkout's src/.

    python3 bmop_bench/run.py --workload pointwise --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's operation list in one process, one
operation after another, until --seconds have passed, checks every output,
and prints one JSON line last: correct, attempted, failed and the metrics
(end-to-end with --trace 0, per-layer with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

WORKLOAD_NAMES = ("pointwise", "high_degree", "quadrature", "kernel_mc")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T_IMPORTED


_T_IMPORTED = time.perf_counter()


def cap_blas_threads() -> None:
    """Limit native thread pools to the cores this process may use; must
    run before numpy is imported."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, cores))
        except ValueError:
            current = cores
        os.environ[var] = str(max(1, min(current, cores)))


def load_bmop(root: Path, import_timer=None):
    """Import bmop from root/src only; refuse any other copy."""
    src = (root / "src").resolve()
    if not (src / "bmop" / "__init__.py").is_file():
        sys.exit(f"bmop_bench: no bmop package under {src}")
    sys.path.insert(0, str(src))
    bmop = import_timer.import_bmop() if import_timer else __import__("bmop")
    origin = Path(bmop.__file__).resolve()
    if src not in origin.parents:
        sys.exit(f"bmop_bench: refusing bmop imported from {origin}, expected {src}")
    return bmop


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_blas_threads()
    root = Path(__file__).resolve().parent.parent

    # the speed meter (speed.py) imports mpmath, which bmop imports first
    # thing anyway, and samples the machine from here on; the set-up before
    # it is counted in wall seconds, the rest in reference seconds, and the
    # meter's own preparation not at all
    import speed
    early_s = process_age()
    meter = speed.SpeedMeter()
    meter.start()
    try:
        mark = meter.mark()
        import tracing
        tracer = tracing.Tracer(meter.clock) if args.trace else None
        bmop = load_bmop(root, tracer.imports if tracer else None)

        import warnings
        warnings.simplefilter("ignore", bmop.PrecisionLossWarning)
        warnings.simplefilter("ignore", bmop.errors.BinUnderflowWarning)

        import checks
        import workloads
        build_round = workloads.WORKLOADS[args.workload]
        rng = random.Random(f"bmop_bench/{args.workload}/{args.seed}")
        ops = build_round(rng)
        setup_s = early_s + meter.since(mark)[1]

        if tracer:
            tracer.install()
        correct = True
        attempted = failed = 0
        reported = set()
        round_walls = []        # reference seconds
        raw_walls = []          # wall seconds
        class_times = {c: [] for c in workloads.CLASSES}
        start = time.perf_counter()
        while True:
            per_class = dict.fromkeys(workloads.CLASSES, 0.0)
            raw = 0.0
            if tracer:
                tracer.begin_round()
            for group in ops:
                # step the classes' instances of one operation in turn until
                # each has checked its outputs or raised
                live = [(op, op.fn()) for op in group]
                attempted += len(live)
                while live:
                    still = []
                    for op, steps in live:
                        mark = meter.mark()
                        try:
                            next(steps)
                            still.append((op, steps))
                        except StopIteration:
                            pass
                        except checks.CheckFailed as exc:
                            correct = False
                            print(f"WRONG {op.cls}/{op.name}: {exc}", file=sys.stderr)
                        except Exception as exc:  # a library error fails the operation, not the run
                            failed += 1
                            if op.name not in reported:
                                reported.add(op.name)
                                print(f"FAILED {op.cls}/{op.name}: {type(exc).__name__}: {exc}",
                                      file=sys.stderr)
                        wall, ref = meter.since(mark)
                        per_class[op.cls] += ref
                        raw += wall
                    live = still
            raw_walls.append(raw)
            round_walls.append(sum(per_class.values()))
            for c in workloads.CLASSES:
                class_times[c].append(per_class[c])
            if tracer:
                tracer.end_round(round_walls[-1])
            if time.perf_counter() - start >= args.seconds:
                break
            ops = build_round(rng)
    finally:
        meter.stop()

    if tracer:
        tracer.uninstall()
        tracer.samples = meter.samples
        metrics, absent = tracer.metrics()
        if absent:
            print("absent per-layer metrics: " + " ".join(absent))
    else:
        # medians over every round, the first included, so the metrics mean
        # the same whether one round fits in --seconds or several; the first
        # round's one-time costs are also reported on their own
        med = statistics.median
        metrics = {
            "round_s": {"value": med(round_walls), "unit": "s"},
            "first_round_s": {"value": round_walls[0], "unit": "s"},
            "int_order_s": {"value": med(class_times["int"]), "unit": "s"},
            "half_order_s": {"value": med(class_times["half"]), "unit": "s"},
            "generic_order_s": {"value": med(class_times["generic"]), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    print(f"rounds {len(round_walls)}, reference s: "
          + " ".join(f"{w:.3f}" for w in round_walls)
          + "; wall s: " + " ".join(f"{w:.3f}" for w in raw_walls)
          + f"; median slowness {statistics.median(meter.samples):.3f}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
