"""Command-line front end: evaluation, verification suites, kernel curves,
and Monte-Carlo sampling, with CSV/JSON output suitable for scripting.

Exit codes: 0 success, 1 verification failure, 2 usage or parameter error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import mopoly, precision, rmt, verify
from .errors import (BmopError, CapExceeded, DimensionError, DomainError,
                     NonConvergence, PoleError, SymmetryViolation)
from .specfun import Params

_FLOAT_FMT = "{:.17g}"


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--preset", choices=sorted(verify.PRESETS),
                     help="named parameter set; explicit flags override fields")
    sub.add_argument("--mu", type=float, help="first-kind order shift (> -1)")
    sub.add_argument("--nu", type=float, help="second-kind order shift (> 0)")
    sub.add_argument("--a", type=float, help="first-kind scale (0 < a < b)")
    sub.add_argument("--b", type=float, help="second-kind scale (b > a)")


def _params_from(args: argparse.Namespace) -> Params:
    base = verify.PRESETS[args.preset] if args.preset else verify.PRESETS["S0"]
    mu = base.mu if args.mu is None else args.mu
    nu = base.nu if args.nu is None else args.nu
    a = base.a if args.a is None else args.a
    b = base.b if args.b is None else args.b
    return Params(mu=mu, nu=nu, a=a, b=b)


def _write_out(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_table(header_lines: list, rows: list) -> str:
    out = [f"# {line}" for line in header_lines]
    for row in rows:
        out.append(",".join(_FLOAT_FMT.format(v) for v in row))
    return "\n".join(out) + "\n"


def cmd_eval(args: argparse.Namespace) -> int:
    p = _params_from(args)
    prec = precision.from_env()
    kind = args.kind
    n = args.n
    if n < 0:
        raise DomainError("n must be >= 0")
    if kind in ("A1", "A2", "B1", "B2") and n < 1:
        raise DomainError(f"kind {kind} requires n >= 1")

    def value_at(x: float) -> float:
        if kind == "Q":
            return mopoly.q_eval(p, n, x, prec)
        if kind == "P":
            return mopoly.p_eval(p, n, x, prec)
        pair = mopoly.a_polys(p, n) if kind[0] == "A" else mopoly.b_polys(p, n)
        return pair.eval_first(x) if kind[1] == "1" else pair.eval_second(x)

    rows = [(x, value_at(x)) for x in args.x]
    header = [f"kind={kind} n={n} mu={p.mu!r} nu={p.nu!r} a={p.a!r} b={p.b!r}",
              "x,value"]
    _write_out(_csv_table(header, rows), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    options = {k: v for k, v in (("N", args.N), ("n_max", args.n_max)) if v is not None}
    reports = verify.run_suite(args.suite, _params_from(args), **options)
    report = reports[0] if len(reports) == 1 else verify.SuiteReport("all", [
        verify.CheckResult(f"{r.suite}.{c.name}", c.max_error, c.tolerance)
        for r in reports for c in r.checks])
    _write_out(json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n", args.out)
    return 0 if report.passed else 1


def cmd_kernel(args: argparse.Namespace) -> int:
    spec = rmt.KernelSpec(kappa=args.kappa, nu_total=args.nu_total,
                          alpha=args.alpha, beta=args.beta, n=args.n)
    if args.x_min <= 0 or args.x_max <= args.x_min:
        raise DomainError("need 0 < x-min < x-max")
    if args.x_count < 2:
        raise DomainError("x-count must be >= 2")
    step = (args.x_max - args.x_min) / (args.x_count - 1)
    xs = [args.x_min + i * step for i in range(args.x_count)]
    rows = rmt.kernel_density_curve(spec, xs)
    header = [f"kernel diagonal: n={spec.n} kappa={spec.kappa} "
              f"nu_total={spec.nu_total!r} alpha={spec.alpha!r} beta={spec.beta!r}",
              "x,k_n"]
    _write_out(_csv_table(header, rows), args.out)
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    model = rmt.CoupledModel(n=args.n, M=args.M, tau=args.tau, seed=args.seed)
    batch = rmt.sample_coupled(model, args.num_samples)
    batch.to_csv(args.out_prefix + ".csv")
    batch.to_binary(args.out_prefix + ".bin")
    spec = model.kernel_spec
    mean_sum = float(batch.values.sum(axis=1).mean())
    summary = {
        "schema": "bmop/1",
        "n": model.n,
        "m": model.M,
        "tau": model.tau,
        "seed": model.seed,
        "num_samples": batch.num_samples,
        "mean_sum": mean_sum,
        "predicted_trace_mean": rmt.mean_trace_identity(spec),
    }
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    with open(args.out_prefix + ".json", "w") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmop",
        description="Mixed-type multiple orthogonal polynomials for scaled "
                    "modified Bessel weights: evaluation, verification, "
                    "correlation kernels, and Monte-Carlo sampling.")
    subs = parser.add_subparsers(dest="command", required=True)

    ev = subs.add_parser("eval", help="evaluate a linear form or polynomial")
    _add_param_flags(ev)
    ev.add_argument("--kind", required=True,
                    choices=["Q", "P", "A1", "A2", "B1", "B2"])
    ev.add_argument("--n", type=int, required=True, help="degree index")
    ev.add_argument("--x", type=float, nargs="+", required=True,
                    help="evaluation points (> 0)")
    ev.add_argument("--out", help="output CSV path (default stdout)")
    ev.set_defaults(func=cmd_eval)

    vf = subs.add_parser("verify", help="run a verification suite", description=(
        "Each option goes to the selected suites that take it; one that none takes exits 2."))
    _add_param_flags(vf)
    vf.add_argument("--suite", default="all",
                    choices=sorted(verify.SUITES) + ["all"])
    vf.add_argument("--N", type=int, help="biorthogonality matrix size (suite biorth)")
    vf.add_argument("--n-max", dest="n_max", type=int,
                    help="index cap of suites recurrence and derivative")
    vf.add_argument("--out", help="output JSON path (default stdout)")
    vf.set_defaults(func=cmd_verify)

    kn = subs.add_parser("kernel", help="dump the kernel diagonal K_n(x,x)")
    kn.add_argument("--n", type=int, required=True, help="kernel size")
    kn.add_argument("--kappa", type=int, default=0)
    kn.add_argument("--nu-total", dest="nu_total", type=float, required=True)
    kn.add_argument("--alpha", type=float, required=True)
    kn.add_argument("--beta", type=float, required=True)
    kn.add_argument("--x-min", dest="x_min", type=float, default=0.01)
    kn.add_argument("--x-max", dest="x_max", type=float, required=True)
    kn.add_argument("--x-count", dest="x_count", type=int, default=101)
    kn.add_argument("--out", help="output CSV path (default stdout)")
    kn.set_defaults(func=cmd_kernel)

    sm = subs.add_parser("sample", help="draw coupled-product samples")
    sm.add_argument("--n", type=int, required=True, help="matrix size")
    sm.add_argument("--M", type=int, required=True, help="inner dimension")
    sm.add_argument("--tau", type=float, required=True, help="coupling in (0,1)")
    sm.add_argument("--seed", type=int, default=0)
    sm.add_argument("--num-samples", dest="num_samples", type=int, required=True)
    sm.add_argument("--out-prefix", dest="out_prefix", required=True,
                    help="prefix for .csv/.bin/.json outputs")
    sm.set_defaults(func=cmd_sample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, DimensionError, PoleError, CapExceeded) as exc:
        print(f"bmop: parameter error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergence, SymmetryViolation, OverflowError, ZeroDivisionError,
            ValueError) as exc:
        print(f"bmop: numerical failure: {exc}", file=sys.stderr)
        return 3
    except BmopError as exc:
        print(f"bmop: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
