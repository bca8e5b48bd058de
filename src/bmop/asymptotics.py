"""Limiting forms of the linear forms Q_n and their duals P_n: the small-a
hypergeometric limit, the two large-parameter Laguerre limits, the value at
the origin, and the Mehler-Heine Meijer-G limit.

Each limit comes with the exact scaling under which the check harness
compares finite-parameter evaluations against the limiting expression.
"""

from __future__ import annotations

import math

from mpmath import mp

from . import mopoly
from .errors import DomainError
from .mellin import meijer_g203
from .precision import bits_for
from .specfun import Params, hyp_terminating, log_gamma, pochhammer


def laguerre_monic(n: int, alpha: float, x: float) -> float:
    """Monic generalized Laguerre polynomial
    (-1)^n sum_j C(n,j) [Gamma(alpha+1+n)/Gamma(alpha+1+j)] (-x)^j."""
    if n < 0:
        raise DomainError("n must be >= 0")
    if not alpha > -1:
        raise DomainError("alpha must be > -1")
    sign = -1.0 if n % 2 else 1.0
    terms = []
    for j in range(n + 1):
        gr = math.exp(float(log_gamma(alpha + 1.0 + n).log_magnitude
                            - log_gamma(alpha + 1.0 + j).log_magnitude))
        terms.append(math.comb(n, j) * gr * (-x) ** j)
    return sign * math.fsum(terms)


def q_limit_small_a(k: float, mu: float, nu: float, n: int, x: float) -> float:
    """Limit of Q_n(x/a) as a -> 0 with b/sqrt(a) -> k:
    (-1)^n [(mu+nu+1)_n / Gamma(mu+1)] 1F2(-n; mu+nu+1, mu+1; k^2 x) x^mu."""
    if x <= 0:
        raise DomainError("x must be > 0")
    if k <= 0:
        raise DomainError("k must be > 0")
    sign = -1.0 if n % 2 else 1.0
    hyp = hyp_terminating([-float(n)], [mu + nu + 1.0, mu + 1.0], k * k * x)
    return sign * pochhammer(mu + nu + 1.0, n) / math.gamma(mu + 1.0) * hyp * x ** mu


def q_limit_large_a(c: float, mu: float, nu: float, n: int, x: float) -> float:
    """Limit of (2 sqrt(pi a)/e^(2ax)) Q_n(x^2) as a -> infinity with
    b - a = c: x^(mu-1/2) L_n^(mu+nu)(2cx)."""
    if x <= 0:
        raise DomainError("x must be > 0")
    if c <= 0:
        raise DomainError("c must be > 0")
    return x ** (mu - 0.5) * laguerre_monic(n, mu + nu, 2.0 * c * x)


def p_limit_large_b(c: float, p: Params, n: int, x: float) -> float:
    """Limit of sqrt(4b/pi) e^(2bx) P_n(x^2) as b -> infinity with b - a = c.

    The displayed right side keeps the finite a and b in its prefactor, so
    the comparison is done at the same finite parameter pair rather than
    against any b -> infinity constant.
    """
    if x <= 0:
        raise DomainError("x must be > 0")
    if c <= 0:
        raise DomainError("c must be > 0")
    base = p.mu + p.nu + 1.0
    log_pref = (math.log(2.0) + base * math.log(p.gap)
                - p.mu * math.log(p.a) - p.nu * math.log(p.b)
                - float(log_gamma(base + n).log_magnitude) - math.lgamma(n + 1.0))
    return math.exp(log_pref) * x ** (p.nu - 0.5) * laguerre_monic(n, p.mu + p.nu, 2.0 * c * x)


def p_at_zero(p: Params, n: int) -> float:
    """lim_{x->0} P_n(x):
    (-1)^n [(b^2-a^2)^(mu+nu+1) Gamma(nu) / (a^mu b^(2nu) Gamma(mu+nu+1) n!)]
    2F1(-n, nu; mu+nu+1; 1 - a^2/b^2)."""
    if n < 0:
        raise DomainError("n must be >= 0")
    base = p.mu + p.nu + 1.0
    z = 1.0 - (p.a / p.b) ** 2
    hyp = hyp_terminating([-float(n), p.nu], [base], z)
    sign = -1.0 if n % 2 else 1.0
    log_pref = (base * math.log(p.gap) + math.lgamma(p.nu)
                - p.mu * math.log(p.a) - 2.0 * p.nu * math.log(p.b)
                - math.lgamma(base) - math.lgamma(n + 1.0))
    return sign * math.exp(log_pref) * hyp


def mehler_heine_scaled_p(p: Params, n: int, x: float) -> float:
    """(-1)^n n! (n+1)^nu P_n(x / ((n+1)(b^2-a^2))): the left side of the
    Mehler-Heine limit at finite n.

    The dual form at tiny argument is an alternating gamma-sized sum, so it
    is formed at `bits_for(n)` and scaled as an mpf: P_n itself falls below
    double range near n = 200.
    """
    if n < 0 or x <= 0:
        raise DomainError("need n >= 0 and x > 0")
    bits = bits_for(n)
    val, _ = mopoly._expansion_mp(mopoly._p_family(p), n, x / ((n + 1.0) * p.gap), bits)
    with mp.workprec(bits):
        return float((-1) ** n * mp.factorial(n) * mp.mpf(n + 1) ** p.nu * val)


def mehler_heine_limit(p: Params, x: float) -> float:
    """Right side of the Mehler-Heine limit:
    [(b^2-a^2)^(mu+1)/a^mu] G^{2,0}_{0,3}(-; 0, nu, -mu | x)."""
    pref = p.gap ** (p.mu + 1.0) / p.a ** p.mu
    return pref * meijer_g203(p.mu, p.nu, x)
