"""Shift identities expressing higher-order weights in the two lowest ones.

The order-(base+m) weight of either family is a polynomial combination of
the order-base and order-(base+1) weights; the two polynomials r_m and s_m
are Lommel-polynomial relatives generated here from their explicit binomial
sums, which keeps the construction in finite exact arithmetic.  The
combination cancels near the origin and goes through mopoly's escalation
rule, as Q_n and P_n do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp

from .errors import DomainError
from .mopoly import _double_probe, _evaluate, _horner, _p_family, _q_family
from .precision import LogValue
from .specfun import Params, pochhammer


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


def _shift_eval(label: str, f, m: int, x: float) -> float:
    """The family's weight of order order+m rebuilt from orders order and
    order+1, with the signed scale kappa * scale.

    The reconstruction cancels by a factor that grows like
    Gamma(order+m)^2 / (scale^2 x)^m near the origin, so a fixed double
    pass cannot hold a uniform tolerance: the double probe is kept up to a
    ratio of 1e3.  The escalated pass rebuilds the pair from the mpf order:
    the double coefficients carry rounding that the sum would amplify.
    """
    if x <= 0:
        raise DomainError(f"{label} requires x > 0")
    pair = shift_pair(f.order, m)
    scale = LogValue.from_float(f.kappa * f.scale)
    arg = f.scale * f.scale * x
    probe = _double_probe([scale.powi(k - m) * LogValue.from_float(poly(arg))
                           * f.weight(f.order + k, f.scale, x)
                           for k, poly in enumerate((pair.r_at, pair.s_at))])

    def run(bits):
        with mp.workprec(bits):
            order = mp.mpf(f.order)
            pair = shift_pair(order, m)
            sc = f.kappa * mp.mpf(f.scale)
            xm = mp.mpf(x)
            arg = sc * sc * xm
            w0, w1 = f.ladder_mp(order, f.scale, xm, 1, bits)
            t0 = sc ** (-m) * _horner(pair.r_poly, arg) * w0
            t1 = sc ** (1 - m) * _horner(pair.s_poly, arg) * w1
            return t0 + t1, max(abs(t0), abs(t1))

    return _evaluate(label, m, x, probe, run, 1e3, stacklevel=3)


def omega_shift_eval(p: Params, m: int, x: float) -> float:
    """First-kind weight of order mu+m rebuilt from orders mu and mu+1."""
    return _shift_eval("omega_shift_eval", _q_family(p), m, x)


def rho_shift_eval(p: Params, m: int, x: float) -> float:
    """Second-kind weight of order nu+m rebuilt from orders nu and nu+1.

    Same shift polynomials as the first-kind identity but with scale -b;
    the sign alternation in m is the structural difference between the
    two families.
    """
    return _shift_eval("rho_shift_eval", _p_family(p), m, x)
