"""Shift identities expressing higher-order weights in the two lowest ones.

The order-(base+m) weight of either family is a polynomial combination of
the order-base and order-(base+1) weights; the two polynomials r_m and s_m
are Lommel-polynomial relatives generated here from their explicit binomial
sums, which keeps the construction in finite exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp

from .errors import DomainError
from .mopoly import _horner, _p_family, _q_family
from .precision import MAX_BITS, bits_for
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
    pass cannot hold a uniform tolerance; the double pass here is a
    cancellation probe and the final digits come from an escalated pass
    when needed.
    """
    if x <= 0:
        raise DomainError(f"{label} requires x > 0")
    pair = shift_pair(f.order, m)
    scale = f.kappa * f.scale
    w0, w1 = (f.weight(f.order + k, f.scale, x).value() for k in (0, 1))
    arg = scale * scale * x
    t0 = scale ** (-m) * pair.r_at(arg) * w0
    t1 = scale ** (1 - m) * pair.s_at(arg) * w1
    total = t0 + t1
    biggest = max(abs(t0), abs(t1))
    if biggest == 0.0:
        return total
    ratio = biggest / max(abs(total), biggest * 1e-300)
    if ratio < 1e3:
        return total
    return _shift_eval_mp(f, m, x, bits_for(m, ratio))


def _shift_eval_mp(f, m: int, x: float, bits: int) -> float:
    """Exact-coefficient reconstruction in mpf, starting at `bits`.

    The pair is rebuilt from the mpf order: the double coefficients carry
    rounding that the cancelling sum would amplify past any precision.  The
    double probe's ratio saturates near 1/eps, so each pass measures the
    cancellation again and is repeated at bits_for(m, ratio) bits while
    that asks for more; a total that is zero or cancels beyond a double's
    range doubles the bits, up to bits_for's cap.
    """
    while True:
        with mp.workprec(bits):
            order = mp.mpf(f.order)
            pair = shift_pair(order, m)
            sc = f.kappa * mp.mpf(f.scale)
            xm = mp.mpf(x)
            arg = sc * sc * xm
            w0, w1 = f.ladder_mp(order, f.scale, xm, 1, bits)
            t0 = sc ** (-m) * _horner(pair.r_poly, arg) * w0
            t1 = sc ** (1 - m) * _horner(pair.s_poly, arg) * w1
            total = t0 + t1
            ratio = float(max(abs(t0), abs(t1)) / abs(total)) if total else math.inf
        need = bits_for(m, ratio) if math.isfinite(ratio) else min(2 * bits, MAX_BITS)
        if need <= bits:
            return float(total)
        bits = need


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
