"""Self-test of the benchmark's output checks.

    python3 bmop_bench/selftest.py

Each check gets real library output, which it must accept, and then the
same output with one value moved just past the check's tolerance, which it
must reject.  The Monte Carlo checks must also reject samples drawn under a
wrong convention.  Prints one line per case and exits 1 if any case goes
the wrong way.
"""

from __future__ import annotations

import math
import sys
import warnings
from pathlib import Path

import run

JUST_PAST = 1.01
NAN = float("nan")


class SelfTest:
    def __init__(self):
        self.bad = 0

    def case(self, label: str, fn, *args, reject: bool) -> None:
        import checks
        try:
            fn(*args)
            ok, got = not reject, "accepted"
        except checks.CheckFailed as exc:
            ok, got = reject, f"rejected ({exc})"
        self.bad += not ok
        print(f"[{'ok' if ok else 'BAD'}] {label}: {got}")

    def accept(self, label, fn, *args):
        self.case(label, fn, *args, reject=False)

    def reject(self, label, fn, *args):
        self.case(label, fn, *args, reject=True)


def _replace(rows, i, j, value):
    rows = [list(r) for r in rows]
    rows[i][j] = value
    return rows


def main() -> int:
    run.cap_blas_threads()
    bmop = run.load_bmop(Path(__file__).resolve().parent.parent)
    warnings.simplefilter("ignore", bmop.PrecisionLossWarning)
    warnings.simplefilter("ignore", bmop.errors.BinUnderflowWarning)

    import numpy as np
    from bmop import asymptotics as asy
    from bmop import lommel, mopoly, quad, recurrence, rmt
    from bmop.specfun import Params, bessel_i, bessel_k, omega, rho

    import checks as ck
    import workloads as wl

    t = SelfTest()
    p = Params(0.5, 1.5, 1.0, 2.0)       # preset S0: every route is cheap here
    xs = (0.3, 1.5, 6.0)

    # route agreement: move the smallest-|value| point's second route
    for kind, tol, rows in (
            ("Q", ck.TOL_Q_ROUTES,
             [(mopoly.q_eval(p, 4, x), mopoly.q_eval(p, 4, x, wl.EXT300),
               mopoly.q_eval_determinant(p, 4, x), mopoly.q_eval_series(p, 4, x)) for x in xs]),
            ("P", ck.TOL_P_ROUTES,
             [(mopoly.p_eval(p, 4, x), mopoly.p_eval(p, 4, x, wl.EXT300),
               mopoly.p_eval_determinant(p, 4, x)) for x in xs])):
        t.accept(f"{kind} routes", ck.routes_agree, kind, rows, tol)
        scale = max(abs(v) for r in rows for v in r)
        i = min(range(len(rows)), key=lambda k: abs(rows[k][0]))
        t.reject(f"{kind} routes, one value moved", ck.routes_agree, kind,
                 _replace(rows, i, 1, rows[i][1] + JUST_PAST * tol * scale), tol)
        # the builtin max() keeps an earlier value when a later one is nan
        t.reject(f"{kind} routes, nan in the last row", ck.routes_agree, kind,
                 _replace(rows, len(rows) - 1, 2, NAN), tol)

    errs = [f(p, 4, x, wl.EXT300) for x in xs
            for f in (recurrence.q_residual, recurrence.p_residual)]
    t.accept("recurrence residuals", ck.at_most, "residual", errs, ck.TOL_RESIDUAL)
    t.reject("recurrence residuals, one moved", ck.at_most, "residual",
             errs[:-1] + [JUST_PAST * ck.TOL_RESIDUAL], ck.TOL_RESIDUAL)
    t.reject("recurrence residuals, nan after the first", ck.at_most, "residual",
             errs[:1] + [NAN] + errs[2:], ck.TOL_RESIDUAL)

    def relative_cases(label, pairs, tol):
        t.accept(label, ck.relative_agree, label, pairs, tol)
        v, r = pairs[-1]
        moved = pairs[:-1] + [(r * (1.0 + JUST_PAST * tol) + (v - r), r)]
        t.reject(label + ", one moved", ck.relative_agree, label, moved, tol)

    relative_cases("Lommel shift",
                   [(lommel.rho_shift_eval(p, m, x), rho(p.nu + m, p.b, x, wl.EXT300).value())
                    for m in (2, 5, 8) for x in xs]
                   + [(lommel.omega_shift_eval(p, 5, x),
                       omega(p.mu + 5, p.a, x, wl.EXT300).value()) for x in xs],
                   ck.TOL_LOMMEL)
    relative_cases("P near 0", [(mopoly.p_eval(p, n, 1e-10, wl.EXT300), asy.p_at_zero(p, n))
                                for n in (2, 6)], ck.TOL_P_AT_ZERO)
    relative_cases("moment_quad", [(quad.moment_quad(p, i, j), quad.moment_closed(p, i, j).value())
                                   for i, j in ((0, 1), (2, 3))], ck.TOL_MOMENT_QUAD)

    rows = [(z, bessel_i(p.nu, z).value(), bessel_k(p.nu + 1, z).value(),
             bessel_i(p.nu + 1, z).value(), bessel_k(p.nu, z).value()) for z in (0.2, 3.0, 30.0)]
    t.accept("Wronskian", ck.wronskian, "Wronskian", rows)
    z, iv, k1, i1, kv = rows[1]
    t.reject("Wronskian, one moved", ck.wronskian, "Wronskian",
             rows[:1] + [(z * (1.0 + JUST_PAST * ck.TOL_WRONSKIAN), iv, k1, i1, kv)] + rows[2:])

    # limit sequences: Mehler-Heine on S0 at n = 20, 40, 80
    scale = wl._sup(lambda x: asy.mehler_heine_limit(p, x), wl._MH_GRID)
    lim = asy.mehler_heine_limit(p, 1.0)
    errs = ck.limit_errors([[asy.mehler_heine_scaled_p(p, n, 1.0)] for n in (20, 40, 80)],
                           [lim], scale)
    t.accept("Mehler-Heine sequence", ck.limit_sequence, "MH", errs, ck.TOL_MEHLER_HEINE)
    t.reject("Mehler-Heine, final moved", ck.limit_sequence, "MH",
             [max(e, JUST_PAST * ck.TOL_MEHLER_HEINE) for e in errs], ck.TOL_MEHLER_HEINE)
    t.reject("Mehler-Heine, not decreasing", ck.limit_sequence, "MH",
             errs[:2] + [errs[1] * (1.0 + 1e-12)], ck.TOL_MEHLER_HEINE)
    t.reject("Mehler-Heine, nan mid-sequence", ck.limit_sequence, "MH",
             [errs[0], NAN, errs[2]], ck.TOL_MEHLER_HEINE)
    t.reject("limit errors, nan at a later point", ck.limit_errors,
             [[lim, lim, NAN]], [lim, lim, lim], scale)

    # quadrature session on S0
    rep = quad.biorth_matrix(p, wl._QN, wl._QCFG, wl._QBITS)
    for label, matrix, tol in (("biorth quadrature", rep.matrix, ck.TOL_BIORTH_QUAD),
                               ("biorth moments", quad.biorth_matrix_moments(p, wl._QN).matrix,
                                ck.TOL_BIORTH_MOMENTS)):
        t.accept(label, ck.identity_matrix, label, matrix, tol)
        moved = np.array(matrix, dtype=float)
        moved[0, 1] = JUST_PAST * tol
        t.reject(label + ", one moved", ck.identity_matrix, label, moved, tol)
        moved = np.array(matrix, dtype=float)
        moved[1, 2] = NAN
        t.reject(label + ", nan off the first entry", ck.identity_matrix, label, moved, tol)

    profile = mopoly.sign_change_profile(p, wl._SIGN_N, grid_points=wl._SIGN_POINTS)
    t.accept("sign changes", ck.sign_profile, "sign", profile)
    t.reject("sign changes, one count moved", ck.sign_profile, "sign",
             profile[:-1] + [profile[-1] + 1])

    spec = rmt.KernelSpec(0, 1.5, 1.0, 2.0, wl._QN)
    partials = rmt.kernel_trace_partials(spec, wl._QCFG, wl._QBITS)
    t.accept("kernel trace", ck.traces, "trace", partials)
    t.reject("kernel trace, one moved", ck.traces, "trace",
             partials[:-1] + [partials[-1] + JUST_PAST * ck.TOL_TRACE])
    relative_cases("kernel first moment", [(rmt.kernel_first_moment(spec, wl._QCFG, wl._QBITS),
                                            rmt.mean_trace_identity(spec))], ck.TOL_FIRST_MOMENT)
    proj, moments = wl.projection_and_integral_identity(spec, (0.5, 2.0, 6.0))
    relative_cases("kernel projection", proj, ck.TOL_PROJECTION)
    relative_cases("recurrence integral identity", moments, ck.TOL_INTEGRAL_IDENTITY)

    # kernel curve against kernel_eval, and non-negativity
    grid = list(np.geomspace(0.02, 60.0, 24))
    vals = [d for _, d in rmt.kernel_density_curve(spec, grid)]
    pairs = [(vals[i], rmt.kernel_eval(spec, grid[i], grid[i])) for i in (2, 10, 18)]
    cscale = max(abs(v) for v in vals)
    t.accept("kernel curve", ck.curve, "curve", vals, pairs)
    c, k = pairs[1]
    t.reject("kernel curve, kernel_eval moved", ck.curve, "curve", vals,
             [pairs[0], (c, c + JUST_PAST * ck.TOL_CURVE * cscale + (k - c)), pairs[2]])
    t.reject("kernel curve, one value negative", ck.curve, "curve",
             vals[:-1] + [-JUST_PAST * ck.TOL_CURVE * cscale], pairs)
    t.reject("kernel curve, nan mid-curve", ck.curve, "curve",
             vals[:12] + [NAN] + vals[13:], pairs)
    t.reject("kernel curve, kernel_eval nan", ck.curve, "curve", vals,
             pairs[:2] + [(pairs[2][0], NAN)])

    # Monte Carlo: the workload's sample size
    model = rmt.CoupledModel(2, 4, 0.5, 20261019)
    batch = rmt.sample_coupled(model, wl._MC_SAMPLES)
    t.accept("Monte Carlo mean and density", wl.mc_check, model, batch)
    sums = batch.values.sum(axis=1)
    se = sums.std(ddof=1) / math.sqrt(len(sums))
    pred = rmt.mean_trace_identity(model.kernel_spec)
    t.reject("Monte Carlo mean, moved past z = 6", ck.mc_mean, "mean",
             sums - (sums.mean() - pred) + JUST_PAST * ck.MC_Z_MAX * se, pred)
    t.reject("Monte Carlo density, p just below threshold", ck.mc_density, "density",
             ck.MC_P_MIN / JUST_PAST)
    # unit variance per real and imaginary part doubles every entry's
    # standard deviation, so X1 X2 doubles and its squared singular values
    # grow four-fold: the same draw scaled is exactly that sample
    wrong = rmt.SampleBatch(4.0 * batch.values, model.n, model.M, model.tau, model.seed)
    t.reject("Monte Carlo, unit variance per part", wl.mc_check, model, wrong)
    for tau_drawn, why in ((math.sqrt(model.tau), "sqrt(tau) as coupling"),
                           (1.0 - 0.5 * model.tau, "tau mapped to 1 - tau/2")):
        drawn = rmt.sample_coupled(rmt.CoupledModel(2, 4, tau_drawn, model.seed),
                                   wl._MC_SAMPLES)
        t.reject(f"Monte Carlo, wrong tau mapping ({why})", wl.mc_check, model,
                 rmt.SampleBatch(drawn.values, model.n, model.M, model.tau, model.seed))

    print(f"{'PASS' if not t.bad else 'FAIL'}: {t.bad} case(s) went the wrong way")
    return 1 if t.bad else 0


if __name__ == "__main__":
    sys.exit(main())
