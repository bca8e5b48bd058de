"""Vertical-line Mellin-Barnes integration and the integral representations
built on it: the second-kind weight, the dual forms P_n, and the Meijer
G^{2,0}_{0,3} factor from the Mehler-Heine limit.

Every integral runs along the one contour t = 1+is.  Its integrands decay
like e^(-r|s|) with r = pi for two uncompensated gamma factors and r = pi/2
when a gamma in the denominator eats half the decay, so the truncation
height where the tail falls below 1e-10 follows from a Stirling bound
solved once per call; the line is then covered by 24 Gauss nodes per unit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

from .errors import DomainError, NonConvergence, SymmetryViolation
from .quad import gauss_panels
from .specfun import Params

_T_CAP = 400.0
_EPS = float(np.finfo(float).eps)
_C = 1.0  # the contour Re t
_NODES_PER_UNIT = 24
_TOLERANCE = 1e-10


def truncation_height(tolerance: float, decay_rate: float, poly_power: float) -> float:
    """Smallest T with e^(-rate*T) * T^q below tolerance (with margin).

    Fixed-point iteration on T = (q log T - log tol + margin)/rate; the map
    is a contraction for T > q/rate.
    """
    target = -math.log(tolerance) + 5.0
    t = max(target / decay_rate, 2.0)
    for _ in range(50):
        t_new = (target + poly_power * math.log(t)) / decay_rate
        if abs(t_new - t) < 1e-9 * t:
            return t_new
        t = t_new
    raise NonConvergence("truncation height iteration did not settle")


def mb_integrate(integrand, decay_rate: float = math.pi, poly_power: float = 2.0) -> float:
    """(1/2*pi) * integral of integrand(1+is) ds over the truncated line;
    the integrand is vectorized, one value per contour node.

    The full complex sum is formed and the imaginary part used as a
    conjugate-symmetry diagnostic: a real-valued original function must
    produce a real integral, so a large imaginary residual flags a broken
    integrand rather than being silently dropped.
    """
    T = truncation_height(_TOLERANCE, decay_rate, poly_power)
    if T > _T_CAP:
        raise NonConvergence(f"truncation height {T:.1f} exceeds cap {_T_CAP}")

    n_panels = max(2, int(math.ceil(2.0 * T)))
    ss, ws = gauss_panels(np.linspace(-T, T, n_panels + 1), _NODES_PER_UNIT)

    ts = _C + 1j * ss
    vals = np.asarray(integrand(ts), dtype=complex)
    if vals.shape != ts.shape:
        raise DomainError(f"integrand gave shape {vals.shape} for {ts.size} contour nodes")
    if not np.all(np.isfinite(vals.view(float))):
        raise NonConvergence("integrand produced non-finite values on the contour")

    total = complex(np.dot(ws, vals)) / (2.0 * math.pi)
    # rounding floor of a cancelling N-term sum: N eps sum|w f| (Higham,
    # Accuracy and Stability of Numerical Algorithms, sec. 4.2)
    mass = float(np.dot(np.abs(ws), np.abs(vals))) / (2.0 * math.pi)
    floor = max(1e-10 * max(abs(total), _TOLERANCE), ts.size * _EPS * mass)
    if abs(total.imag) > floor:
        raise SymmetryViolation(
            f"imaginary residual {total.imag:.3e} vs floor {floor:.3e}")
    return total.real


def _two_gamma_factor(ts: np.ndarray, nu: float, logarg: float) -> np.ndarray:
    """Gamma(t) Gamma(t+nu) arg^(-t) for complex t, in log space."""
    return np.exp(sp.loggamma(ts) + sp.loggamma(ts + nu) - ts * logarg)


def rho_mellin(nu: float, b: float, x: float) -> float:
    """Second-kind weight from its Mellin-Barnes representation.

    Independent of the Bessel route in specfun; the two serve as mutual
    cross-checks.
    """
    if x <= 0:
        raise DomainError("rho_mellin requires x > 0")
    if nu <= 0:
        raise DomainError("rho_mellin requires nu > 0")
    logarg = math.log(b * b * x)

    def f(ts):
        return _two_gamma_factor(np.asarray(ts), nu, logarg)

    q = 2.0 * _C + nu - 1.0
    half = mb_integrate(f, decay_rate=math.pi, poly_power=q)
    return 0.5 * b ** (-nu) * half


def _hyp2f1_terminating_complex(n: int, nu: float, denom: float, z: float,
                                ts: np.ndarray) -> np.ndarray:
    """2F1(-n, t+nu; denom; z) for an array of complex t, by the finite sum."""
    out = np.ones_like(ts, dtype=complex)
    term = np.ones_like(ts, dtype=complex)
    for j in range(n):
        term = term * ((-n + j) * (ts + nu + j) * z / ((j + 1.0) * (denom + j)))
        out = out + term
    return out


def p_mellin_eval(p: Params, n: int, x: float) -> float:
    """P_n from its Mellin-Barnes representation.

    A fully independent route to the dual function: no weight expansions,
    no Bessel evaluations, only the contour integral with a terminating
    2F1 factor in t.
    """
    if x <= 0:
        raise DomainError("p_mellin_eval requires x > 0")
    if n < 0:
        raise DomainError("n must be >= 0")
    if n > 40:
        raise DomainError("n > 40 exceeds the contour decay budget")
    base = p.mu + p.nu + 1.0
    z = 1.0 - (p.a / p.b) ** 2
    logarg = math.log(p.b * p.b * x)

    def f(ts):
        ts = np.asarray(ts)
        hyp = _hyp2f1_terminating_complex(n, p.nu, base, z, ts)
        return hyp * _two_gamma_factor(ts, p.nu, logarg)

    q = n + 2.0 * _C + p.nu - 1.0
    integral = mb_integrate(f, decay_rate=math.pi, poly_power=q)
    sign = -1.0 if n % 2 else 1.0
    pref = (p.gap ** base
            / (p.a ** p.mu * p.b ** (2 * p.nu) * math.gamma(base) * math.factorial(n)))
    return sign * pref * integral


def meijer_g203(mu: float, nu: float, x: float) -> float:
    """G^{2,0}_{0,3}(-; 0, nu, -mu | x): the Mehler-Heine limit factor.

    The denominator gamma cancels half the contour decay, leaving e^(-pi
    |s|/2), so truncation heights are roughly twice those of rho_mellin.
    """
    if x <= 0:
        raise DomainError("meijer_g203 requires x > 0")
    if nu <= 0:
        raise DomainError("meijer_g203 requires nu > 0")
    logx = math.log(x)

    def f(ts):
        ts = np.asarray(ts)
        return np.exp(sp.loggamma(ts) + sp.loggamma(ts + nu)
                      - sp.loggamma(1.0 + mu - ts) - ts * logx)

    q = 2.0 * _C + nu + mu + 2.0
    return mb_integrate(f, decay_rate=math.pi / 2.0, poly_power=q)


def meijer_g203_series(mu: float, nu: float, x: float) -> float:
    """Residue-series oracle for meijer_g203, valid for non-integer nu.

    Sums the residues of the left poles of Gamma(t) and Gamma(t+nu); for
    integer nu the two pole ladders collide and the series degenerates,
    so integer orders are rejected here and served by the contour route.
    Each ladder stops once a term falls below 1e-12 of the sum (500 terms
    at most).
    """
    if x <= 0:
        raise DomainError("meijer_g203_series requires x > 0")
    if nu <= 0 or nu == math.floor(nu):
        raise DomainError("residue series requires non-integer nu > 0")

    def gamma_signed(v: float) -> float:
        return float(sp.gammasgn(v)) * math.exp(float(sp.gammaln(v)))

    total = 0.0
    # poles of Gamma(t) at t = -k
    term_scale = 1.0
    for k in range(500):
        t1 = term_scale * gamma_signed(nu - k) / gamma_signed(1.0 + mu + k)
        total += t1
        term_scale *= -x / (k + 1.0)
        if k > 3 and abs(t1) < 1e-12 * abs(total):
            break
    # poles of Gamma(t+nu) at t = -nu-k
    tail = 0.0
    term_scale = 1.0
    for k in range(500):
        t2 = term_scale * gamma_signed(-nu - k) / gamma_signed(1.0 + mu + nu + k)
        tail += t2
        term_scale *= -x / (k + 1.0)
        if k > 3 and abs(t2) < 1e-12 * max(abs(tail), abs(total)):
            break
    return total + x ** nu * tail
