"""Shift identities expressing higher-order weights in the two lowest ones.

The order-(base+m) weight of either family is a polynomial combination of
the order-base and order-(base+1) weights; the two polynomials r_m and s_m
are Lommel-polynomial relatives generated here from their explicit binomial
sums, which keeps the construction in finite exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
from mpmath import mp

from .errors import DomainError
from .mopoly import _horner
from .precision import DOUBLE, PrecisionConfig, bits_for
from .specfun import Params, omega, omega_ladder_mp, pochhammer, rho, rho_ladder_mp


@dataclass(frozen=True)
class ShiftPair:
    """Monomial coefficients of r_{m,base} and s_{m,base}.

    Empty coefficient lists encode the zero polynomial.  For m >= 1,
    r has zero constant term (its sum starts at x^1).
    """

    r_poly: tuple
    s_poly: tuple
    m: int
    order_base: float

    def r_at(self, x: float) -> float:
        return _horner(self.r_poly, x)

    def s_at(self, x: float) -> float:
        return _horner(self.s_poly, x)


def shift_pair(order_base: float, m: int) -> ShiftPair:
    """Coefficients of the degree-m shift polynomials for a given base order."""
    if m < 0:
        raise DomainError("shift order m must be >= 0")
    if m == 0:
        return ShiftPair((1.0,), (), 0, order_base)

    # r_{m}(x) = (-1)^m sum_j C(m-j-2, j) (base+j+2)_{m-2j-2} x^(j+1)
    r = [0.0] * (max((m - 2) // 2, -1) + 2) if m >= 2 else []
    if m >= 2:
        sign = (-1.0) ** m
        for j in range(0, (m - 2) // 2 + 1):
            r[j + 1] = sign * math.comb(m - j - 2, j) * pochhammer(order_base + j + 2, m - 2 * j - 2)

    # s_{m}(x) = (-1)^(m+1) sum_j C(m-j-1, j) (base+j+1)_{m-2j-1} x^j
    s = [0.0] * ((m - 1) // 2 + 1)
    sign = (-1.0) ** (m + 1)
    for j in range(0, (m - 1) // 2 + 1):
        s[j] = sign * math.comb(m - j - 1, j) * pochhammer(order_base + j + 1, m - 2 * j - 1)

    return ShiftPair(tuple(r), tuple(s), m, order_base)


def _shift_eval_mp(m: int, base_order: float, scale: float,
                   ladder_mp, x: float, bits: int) -> float:
    """Exact-coefficient reconstruction at working precision `bits`.

    The pair is rebuilt from the mpf order: the double coefficients carry
    rounding that the cancelling sum would amplify past any precision.
    """
    with mp.workprec(bits):
        base = mp.mpf(base_order)
        pair = shift_pair(base, m)
        sc = mp.mpf(scale)
        xm = mp.mpf(x)
        arg = sc * sc * xm
        w0, w1 = ladder_mp(base, abs(scale), xm, 1, bits)
        r = mpmath.fsum(c * arg ** k for k, c in enumerate(pair.r_poly))
        s = mpmath.fsum(c * arg ** k for k, c in enumerate(pair.s_poly))
        return float(sc ** (-pair.m) * r * w0 + sc ** (1 - pair.m) * s * w1)


def _shift_combine(pair: ShiftPair, base_order: float, scale: float,
                   w0: float, w1: float, ladder_mp, x: float) -> float:
    """Combine the two-term reconstruction, escalating to multiprecision when
    the terms cancel.

    The reconstruction of the order-(base+m) weight from the two lowest
    orders cancels by a factor that grows like Gamma(base+m)^2 / (scale^2
    x)^m near the origin, so a fixed double pass cannot hold a uniform
    tolerance; the double pass here is a cancellation probe and the final
    digits come from an escalated pass when needed.
    """
    arg = scale * scale * x
    t0 = scale ** (-pair.m) * pair.r_at(arg) * w0
    t1 = scale ** (1 - pair.m) * pair.s_at(arg) * w1
    total = t0 + t1
    biggest = max(abs(t0), abs(t1))
    if biggest == 0.0:
        return total
    ratio = biggest / max(abs(total), biggest * 1e-300)
    if ratio < 1e3:
        return total
    return _shift_eval_mp(pair.m, base_order, scale, ladder_mp, x, bits_for(pair.m, ratio))


def omega_shift_eval(p: Params, m: int, x: float,
                     precision: PrecisionConfig = DOUBLE) -> float:
    """First-kind weight of order mu+m rebuilt from orders mu and mu+1."""
    if x <= 0:
        raise DomainError("omega_shift_eval requires x > 0")
    pair = shift_pair(p.mu, m)
    a = p.a
    w0 = omega(p.mu, a, x, precision).value()
    w1 = omega(p.mu + 1, a, x, precision).value()
    return _shift_combine(pair, p.mu, a, w0, w1, omega_ladder_mp, x)


def rho_shift_eval(p: Params, m: int, x: float,
                   precision: PrecisionConfig = DOUBLE) -> float:
    """Second-kind weight of order nu+m rebuilt from orders nu and nu+1.

    Same shift polynomials as the first-kind identity but with scale -b;
    the sign alternation in m is the structural difference between the
    two families.
    """
    if x <= 0:
        raise DomainError("rho_shift_eval requires x > 0")
    pair = shift_pair(p.nu, m)
    b = p.b
    r0 = rho(p.nu, b, x, precision).value()
    r1 = rho(p.nu + 1, b, x, precision).value()
    return _shift_combine(pair, p.nu, -b, r0, r1, rho_ladder_mp, x)
