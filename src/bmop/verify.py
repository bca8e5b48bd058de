"""Verification suites shared by the CLI and the test harness.

Each suite runs a list of named checks with pinned tolerances and returns a
structured report; a check compares two independent computational routes so
a pass certifies agreement, not self-consistency of a single code path.
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass, field

import mpmath
import numpy as np
from mpmath import mp

from . import asymptotics as asy
from . import lommel, mellin, mopoly, quad, recurrence, rmt
from .errors import DomainError
from .precision import PrecisionConfig
from .specfun import Params, omega, rho

PRESETS = {
    "S0": Params(mu=0.5, nu=1.5, a=1.0, b=2.0),
    "S1": Params(mu=0.0, nu=1.0, a=0.8, b=1.6),
}

_EXT = PrecisionConfig(mode="extended", mantissa_bits=300)


@dataclass
class CheckResult:
    name: str
    max_error: float
    tolerance: float
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = bool(self.max_error <= self.tolerance)


@dataclass
class SuiteReport:
    suite: str
    checks: list
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "schema": "bmop/1",
            "suite": self.suite,
            "checks": [
                {"name": c.name, "max_error": c.max_error,
                 "tolerance": c.tolerance, "pass": c.passed}
                for c in self.checks
            ],
            "pass": self.passed,
        }


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / max(abs(ref), 1e-300)


def suite_bessel(p: Params) -> SuiteReport:
    """Double-precision weights against extended-precision references, plus
    the Wronskian-type identity I_v(z)K_{v+1}(z) + I_{v+1}(z)K_v(z) = 1/z."""
    xs = np.geomspace(1e-3, 50.0, 12)
    errs_w = []
    for x in xs:
        for shift in (0.0, 1.0):
            errs_w += [_rel(omega(p.mu + shift, p.a, float(x)).value(),
                          omega(p.mu + shift, p.a, float(x), _EXT).value()),
                     _rel(rho(p.nu + shift, p.b, float(x)).value(),
                          rho(p.nu + shift, p.b, float(x), _EXT).value())]
    from .specfun import bessel_i, bessel_k
    errs_i = []
    for z in (0.1, 1.0, 7.0, 40.0):
        lhs = (bessel_i(p.nu, z).value() * bessel_k(p.nu + 1, z).value()
               + bessel_i(p.nu + 1, z).value() * bessel_k(p.nu, z).value())
        errs_i.append(_rel(lhs, 1.0 / z))
    return SuiteReport("bessel", [
        CheckResult("weights_vs_extended", _worst(errs_w), 1e-12),
        CheckResult("wronskian_identity", _worst(errs_i), 1e-12),
    ])


def suite_lommel(p: Params, m_max: int = 12) -> SuiteReport:
    """Shift identities for both weight families, plus the sign pattern
    distinguishing the scale a from the scale -b."""
    errs = []
    for m in range(m_max + 1):
        for x in np.geomspace(0.1, 20.0, 9):
            errs += [_rel(lommel.omega_shift_eval(p, m, float(x)),
                          omega(p.mu + m, p.a, float(x), _EXT).value()),
                     _rel(lommel.rho_shift_eval(p, m, float(x)),
                          rho(p.nu + m, p.b, float(x), _EXT).value())]
    # the odd-m reconstructions of the second kind flip the sign of the s
    # polynomial contribution relative to the first kind
    sign_errs = []
    for m in (1, 3, 5):
        pair = lommel.shift_pair(p.nu, m)
        lead = pair.s_poly[0]
        expected = (-1.0) ** (m + 1) * abs(lead)
        sign_errs.append(abs(lead - expected))
    return SuiteReport("lommel", [
        CheckResult("shift_reconstruction", _worst(errs), 1e-9),
        CheckResult("sign_pattern", _worst(sign_errs), 0.0),
    ])


def suite_biorth(p: Params, N: int = 6) -> SuiteReport:
    """Moment oracle plus both biorthogonality routes."""
    worst_m = _worst(_rel(quad.moment_quad(p, i, j), quad.moment_closed(p, i, j).value())
                     for i in range(9) for j in range(9))
    rep_q = quad.biorth_matrix(p, N)
    rep_m = quad.biorth_matrix_moments(p, N)
    worst_lin = _worst(abs(val) / scale for val, scale in
                       (quad.q_rho_moment(p, n, j) for n in range(1, 7) for j in range(n)))
    return SuiteReport("biorth", [
        CheckResult("moment_oracle", worst_m, 1e-10),
        CheckResult("quadrature_identity",
                    _worst((rep_q.max_offdiag_abs, rep_q.max_diag_dev)), 1e-8),
        CheckResult("moments_identity",
                    _worst((rep_m.max_offdiag_abs, rep_m.max_diag_dev)), 1e-10),
        CheckResult("orthogonality_linearity", worst_lin, 1e-12),
    ])


def suite_recurrence(p: Params, n_max: int = 12) -> SuiteReport:
    """Functional residuals, coefficient duality, and the integral identity
    behind the recurrence coefficients."""
    xs = np.geomspace(0.05, 50.0, 20)
    errs_q, errs_p = [], []
    for n in range(n_max + 1):
        for x in xs:
            errs_q.append(recurrence.q_residual(p, n, float(x), _EXT))
            errs_p.append(recurrence.p_residual(p, n, float(x), _EXT))
    duality = []
    for n in range(n_max + 1):
        bc = recurrence.p_recurrence_coeffs(p, n)
        # b_{j,n} = a_{-j, n+j}; negative shifted index means coefficient 0
        for j in range(2, -3, -1):
            m = n + j
            ref = recurrence.q_recurrence_coeffs(p, m).at(-j) if m >= 0 else 0.0
            duality.append(abs(bc.at(j) - ref))
    worst_i = _integral_identity_error(p)
    return SuiteReport("recurrence", [
        CheckResult("q_residual", _worst(errs_q), 1e-9),
        CheckResult("p_residual", _worst(errs_p), 1e-9),
        CheckResult("coefficient_duality", _worst(duality), 0.0),
        CheckResult("integral_identity", worst_i, 1e-6),
    ])


def _integral_identity_error(p: Params, n_cap: int = 6) -> float:
    """max relative error of a_{i,n} = integral of x Q_n P_{n+i}."""
    rule = quad.ProductRule(p, n_cap + 2, 200, quad.QuadConfig(abs_tol=1e-16))
    errs = []
    for n in range(n_cap + 1):
        c = recurrence.q_recurrence_coeffs(p, n)
        for i in range(2, -3, -1):
            m, ref = n + i, c.at(i)
            if m < 0 or ref == 0.0:
                continue
            errs.append(_rel(float(rule.integral(n, m, 1)), ref))
    return _worst(errs)


def suite_derivative(p: Params, n_max: int = 8) -> SuiteReport:
    """Finite-difference checks of the derivative identities: the weight
    level d/dx shifts down one order with factor a (resp. -b), and the same
    pattern lifts to Q_n and P_n with a shifted first parameter."""
    h = 1e-6  # central-difference step
    errs_w = []
    for x in (0.3, 1.0, 4.0):
        dw = (omega(p.mu + 1, p.a, x + h, _EXT).value()
              - omega(p.mu + 1, p.a, x - h, _EXT).value()) / (2 * h)
        errs_w.append(_rel(dw, p.a * omega(p.mu, p.a, x, _EXT).value()))
        dr = (rho(p.nu + 1, p.b, x + h, _EXT).value()
              - rho(p.nu + 1, p.b, x - h, _EXT).value()) / (2 * h)
        errs_w.append(_rel(dr, -p.b * rho(p.nu, p.b, x, _EXT).value()))
    # differentiating the explicit sum term by term shows the derivative
    # conserves mu+nu: d/dx Q_n with (mu+1, nu) lands on the (mu, nu+1)
    # family times a, and d/dx P_n with (mu, nu+1) on (mu+1, nu) times -a
    p_up_mu = Params(p.mu + 1.0, p.nu, p.a, p.b)
    p_up_nu = Params(p.mu, p.nu + 1.0, p.a, p.b)
    errs_f = []
    for n in range(n_max + 1):
        for x in (0.3, 1.0, 4.0):
            dq = (mopoly.q_eval(p_up_mu, n, x + h, _EXT)
                  - mopoly.q_eval(p_up_mu, n, x - h, _EXT)) / (2 * h)
            errs_f.append(_rel(dq, p.a * mopoly.q_eval(p_up_nu, n, x, _EXT)))
            dp = (mopoly.p_eval(p_up_nu, n, x + h, _EXT)
                  - mopoly.p_eval(p_up_nu, n, x - h, _EXT)) / (2 * h)
            errs_f.append(_rel(dp, -p.a * mopoly.p_eval(p_up_mu, n, x, _EXT)))
    return SuiteReport("derivative", [
        CheckResult("weight_derivative", _worst(errs_w), 1e-6),
        CheckResult("form_derivative", _worst(errs_f), 1e-6),
    ])


def suite_limits(p: Params) -> SuiteReport:
    """The four limiting forms as convergence sequences, the value at the
    origin, and the Mehler-Heine limit.

    Errors are measured against the sup of the limit curve on the x-grid,
    not pointwise, since the limits are uniform statements and pointwise
    relative error diverges at zeros of the Laguerre factor.
    """
    mu, nu = p.mu, p.nu
    checks = []

    # small a, b = k sqrt(a)
    k, n = 1.0, 3
    xs = (0.5, 1.0, 2.0)
    lims = [asy.q_limit_small_a(k, mu, nu, n, x) for x in xs]
    scale = _worst(abs(v) for v in lims)
    errs = []
    for a in (1e-2, 1e-3, 1e-4):
        pa = Params(mu, nu, a, k * math.sqrt(a))
        errs.append(_worst(abs(mopoly.q_eval(pa, n, x / a, _EXT) - l) / scale
                           for x, l in zip(xs, lims)))
    checks.append(CheckResult("small_a_monotone", _monotone_excess(errs), 0.0))
    checks.append(CheckResult("small_a_final", errs[-1], 1e-2))

    # large a, b = a + c; Q_n(x^2) ~ e^(2ax) leaves double range at
    # a = 200, x = 2, so the scaled values are formed in mp
    c, n = 1.0, 2
    lims = [asy.q_limit_large_a(c, mu, nu, n, x) for x in xs]
    scale = _worst(abs(v) for v in lims)
    errs = []
    bits = _EXT.mantissa_bits
    for a in (50.0, 100.0, 200.0):
        f = mopoly._q_family(Params(mu, nu, a, a + c))
        with mp.workprec(bits):
            vals = [float(2 * mpmath.sqrt(mp.pi * a) * mpmath.exp(-2 * a * mp.mpf(x))
                          * mopoly._expansion_mp(f, n, x * x, bits)[0]) for x in xs]
        errs.append(_worst(abs(v - l) / scale for v, l in zip(vals, lims)))
    checks.append(CheckResult("large_a_monotone", _monotone_excess(errs), 0.0))
    checks.append(CheckResult("large_a_final", errs[-1], 1e-2))

    # large b, b - a = c; x capped at 1.5 so e^(2bx) stays finite at b = 200
    bx = (0.5, 1.0, 1.5)
    for n in (1, 3):
        errs = []
        for b in (50.0, 100.0, 200.0):
            pb = Params(mu, nu, b - c, b)
            lims = [asy.p_limit_large_b(c, pb, n, x) for x in bx]
            scale = _worst(abs(v) for v in lims)
            vals = [math.sqrt(4.0 * b / math.pi) * math.exp(2.0 * b * x)
                    * mopoly.p_eval(pb, n, x * x, _EXT) for x in bx]
            errs.append(_worst(abs(v - l) / scale for v, l in zip(vals, lims)))
        checks.append(CheckResult(f"large_b_monotone_n{n}",
                                  _monotone_excess(errs), 0.0))
        checks.append(CheckResult(f"large_b_final_n{n}", errs[-1], 1e-2))

    # value at the origin
    worst = _worst(_rel(mopoly.p_eval(p, n, 1e-10, _EXT), asy.p_at_zero(p, n))
                   for n in range(9))
    checks.append(CheckResult("p_at_zero", worst, 1e-6))

    # Mehler-Heine; x = 5 sits near a zero of the Meijer-G curve, so error
    # is measured against the sup of the curve over the grid
    mh_xs = (0.1, 0.5, 1.0, 2.0, 5.0)
    lims = [asy.mehler_heine_limit(p, x) for x in mh_xs]
    scale = _worst(abs(v) for v in lims)
    errs = []
    for n in (20, 40, 80):
        errs.append(_worst(abs(asy.mehler_heine_scaled_p(p, n, x) - l) / scale
                           for x, l in zip(mh_xs, lims)))
    checks.append(CheckResult("mehler_heine_monotone", _monotone_excess(errs), 0.0))
    checks.append(CheckResult("mehler_heine_final", errs[-1], 2e-2))
    return SuiteReport("limits", checks)


def _worst(values) -> float:
    """Largest value; a nan anywhere makes the result nan, so it fails."""
    return float(np.max(list(values)))


def _monotone_excess(errs) -> float:
    """0 when the sequence strictly decreases, else the worst increase."""
    return _worst([0.0] + [errs[i + 1] - errs[i] for i in range(len(errs) - 1)])


def suite_mellin(p: Params) -> SuiteReport:
    """Contour layer against its independent oracles."""
    from scipy import special as sp

    worst_c = _worst(_rel(mellin.mb_integrate(
        lambda t: np.exp(sp.loggamma(t) - t * math.log(x)),
        decay_rate=math.pi / 2, poly_power=2.0), math.exp(-x))
        for x in (0.5, 1.0, 2.0, 5.0))
    worst_r = _worst(_rel(mellin.rho_mellin(nu, p.b, x), rho(nu, p.b, x, _EXT).value())
                     for nu in (0.3, 0.5, p.nu, 1.5, 2.7) for x in (0.05, 0.3, 1.0, 3.0, 8.0))
    worst_p = _worst(_rel(mellin.p_mellin_eval(p, n, x), mopoly.p_eval(p, n, x, _EXT))
                     for n in range(11) for x in (0.1, 1.0, 4.0))
    worst_g = _worst(_rel(mellin.meijer_g203(mu, nu, x), mellin.meijer_g203_series(mu, nu, x))
                     for mu, nu in ((0.5, 1.5), (0.0, 0.7), (1.2, 2.3))
                     for x in (0.01, 0.5, 2.0, 10.0))
    return SuiteReport("mellin", [
        CheckResult("cahen_mellin", worst_c, 1e-10),
        CheckResult("rho_mellin", worst_r, 1e-9),
        CheckResult("p_mellin", worst_p, 1e-8),
        CheckResult("meijer_residue", worst_g, 1e-8),
    ])


def suite_kernel(p: Params) -> SuiteReport:
    """Trace, projection, and first-moment identities of the kernel.

    The kernel carries its own integer-constrained parameterization, so the
    checks run on a fixed representative spec rather than on the preset.
    One product rule for K_6 serves every size: the traces of K_1 .. K_6
    and the first moments of K_2, K_3 are prefix sums of its diagonal
    integrals, and the projections of K_1 .. K_4 read its leading block.
    """
    spec = rmt.KernelSpec(0, 2.0, 0.5, 1.5, 6)
    rule = quad.ProductRule(spec.params, spec.n - 1)
    with mp.workprec(rule.bits):
        traces = itertools.accumulate(rule.integral(k, k) for k in range(spec.n))
        worst_t = _worst(float(abs(t - m)) for m, t in enumerate(traces, 1))
        moments = [rule.integral(k, k, 1) for k in range(3)]
        worst_m = _worst(_rel(float(mpmath.fsum(moments[:n])),
                              rmt.mean_trace_identity(rmt.KernelSpec(0, 2.0, 0.5, 1.5, n)))
                         for n in (2, 3))
    worst_proj = _projection_error(rule, 4)
    return SuiteReport("kernel", [
        CheckResult("trace", worst_t, 1e-8),
        CheckResult("projection", worst_proj, 1e-6),
        CheckResult("first_moment", worst_m, 1e-6),
    ])


def _projection_error(rule: quad.ProductRule, n: int) -> float:
    """max relative error of the reproducing identity
    integral K_m(x,t) K_m(t,y) dt = K_m(x,y) on a 3x3 grid, for each kernel
    size m <= n, from the leading m x m block of one cross-product matrix
    on `rule`.
    """
    p = rule.params
    pts = (0.5, 2.0, 6.0)
    # B[k][l] = integral P_k(t) Q_l(t) dt, the transposed biorthogonality
    # matrix; the projected kernel is sum_{k,l} Q_k(x) B[k][l] P_l(y)
    B = [[float(rule.integral(l, k)) for l in range(n)] for k in range(n)]
    errs = []
    for x in pts:
        qx = [mopoly.q_eval(p, k, x, _EXT) for k in range(n)]
        for y in pts:
            py = [mopoly.p_eval(p, l, y, _EXT) for l in range(n)]
            for m in range(1, n + 1):
                direct = math.fsum(qx[k] * py[k] for k in range(m))
                proj = math.fsum(qx[k] * B[k][l] * py[l]
                                 for k in range(m) for l in range(m))
                errs.append(_rel(proj, direct))
    return _worst(errs)


SUITES = {
    "bessel": suite_bessel,
    "lommel": suite_lommel,
    "biorth": suite_biorth,
    "recurrence": suite_recurrence,
    "derivative": suite_derivative,
    "limits": suite_limits,
    "mellin": suite_mellin,
    "kernel": suite_kernel,
}


def run_suite(name: str, p: Params | None = None, **options) -> list:
    """Run one suite (or 'all'); returns a list of SuiteReport.  Each option
    goes to the selected suites naming it; one that none names raises DomainError."""
    if p is None:
        p = PRESETS["S0"]
    if name != "all" and name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from "
                          f"{sorted(SUITES)} or 'all'")
    suites = list(SUITES.values()) if name == "all" else [SUITES[name]]
    takes = [inspect.signature(fn).parameters for fn in suites]
    unused = set(options).difference(*takes)
    if unused:
        raise DomainError(f"suite {name!r} takes no option {', '.join(sorted(unused))}")
    return [fn(p, **{k: v for k, v in options.items() if k in names})
            for fn, names in zip(suites, takes)]
