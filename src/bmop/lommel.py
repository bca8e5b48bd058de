"""Two-term reconstructions in the two lowest orders of a weight family.

The order-(base+m) weight is sc^-m r_m(sc^2 x) w_base + sc^(1-m) s_m(sc^2 x)
w_{base+1} with sc = kappa * scale, where r_m and s_m are Lommel-polynomial
relatives generated from their explicit binomial sums.  So is a linear
form sum_j c_j w_{base+j}: Q_n = A_{n,1} omega_mu + A_{n,2} omega_{mu+1},
and P_n likewise with B.  One builder forms the terms
c_j sc^(2i+k-j) (r_j, s_j)[i] x^i w_{base+k} for any coefficient vector, in
LogValue for the double probe and in mpf for the extended pass and the
pairs' coefficients; a shift takes the unit vector e_m, a pair the
expansion's coefficients.
The terms cancel near the origin, for small scales and inside each pair
coefficient's sum over j, so one evaluator sums them term by term through
mopoly's escalation rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from mpmath import mp

from .errors import DomainError
from .mopoly import (_ESCALATION_RATIO, _coeff_logs, _coeffs_mp, _double_probe, _evaluate,
                     _Family, _p_family, _q_family)
from .precision import LogValue, bits_for
from .specfun import Params, pochhammer


def _horner(coeffs, x):
    out = 0.0
    for c in reversed(coeffs):
        out = out * x + c
    return out


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


def _terms(f: _Family, coeffs, order, lift: Callable, x, w):
    """(k, i, c_j sc^(k-j) w_k (r_j, s_j)[i] (sc^2 x)^i) for each (j, c_j) in coeffs:
    c_j w_{order+j}'s share of the x^i w_{order+k} term.  `lift` carries a number
    into the terms' arithmetic (LogValue.from_float or mp.mpf), which x and w are in."""
    sc = lift(f.kappa * f.scale)
    y = sc * sc * x
    for j, c in coeffs:
        pair = shift_pair(order, j)
        for k, poly in enumerate((pair.r_poly, pair.s_poly)):
            lead = c * sc ** (k - j) * w[k]
            for i, coeff in enumerate(poly):
                if coeff:
                    yield k, i, lead * y ** i * lift(coeff)


def _two_term_eval(label: str, f: _Family, n: int, x: float, coeff_logs: list,
                   coeffs_mp: Callable, limit: float, stacklevel: int) -> float:
    """sum_j c_j w_{order+j}(x) term by term: a double probe over the
    (j, c_j) pairs of coeff_logs, kept up to a ratio of `limit`, else
    _evaluate's extended passes over coeffs_mp() with the shift polynomials
    of the mpf order, as double ones carry rounding the sum would amplify."""
    if x <= 0:
        raise DomainError(f"{label} requires x > 0")
    w = [f.weight(f.order + k, f.scale, x) for k in (0, 1)]
    probe = _double_probe([t for _, _, t in _terms(f, coeff_logs, f.order, LogValue.from_float,
                                                   LogValue.from_float(x), w)])

    def run(bits):
        with mp.workprec(bits):
            order, xm = mp.mpf(f.order), mp.mpf(x)
            w = f.ladder_mp(order, f.scale, xm, 1, bits)
            terms = [t for _, _, t in _terms(f, coeffs_mp(), order, mp.mpf, xm, w)]
            return mp.fsum(terms), max(abs(t) for t in terms)

    return _evaluate(label, n, x, probe, run, limit, stacklevel + 1)


def _shift_eval(label: str, f: _Family, m: int, x: float) -> float:
    """The weight of order order+m rebuilt from orders order and order+1.
    It cancels like Gamma(order+m)^2 / (scale^2 x)^m near the origin, so a
    fixed double pass cannot hold a uniform tolerance: the double probe is
    kept up to a ratio of 1e3."""
    return _two_term_eval(label, f, m, x, [(m, LogValue(0.0, 1))], lambda: [(m, mp.mpf(1))], 1e3,
                          stacklevel=3)


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


@dataclass(frozen=True)
class PolyPair:
    """Monomial coefficients of the two polynomials multiplying the base
    weights; kind "A" pairs with the first-kind family, "B" with the second."""
    first: tuple
    second: tuple
    kind: str
    n: int
    params: Params

    def eval_first(self, x: float) -> float:
        return _horner(self.first, x)

    def eval_second(self, x: float) -> float:
        return _horner(self.second, x)

    def reconstruct(self, x: float) -> float:
        """The linear form rebuilt from the two base weights: the pair's
        terms before they are collected, summed with the expansions'
        escalation limit, so a pair that cancels escalates as a shift does."""
        f = (_q_family if self.kind == "A" else _p_family)(self.params)
        return _two_term_eval("reconstruct", f, self.n, x, list(enumerate(_coeff_logs(f, self.n))),
                              lambda: enumerate(_coeffs_mp(f, self.n)), _ESCALATION_RATIO,
                              stacklevel=2)


def _poly_pair(f: _Family, n: int) -> PolyPair:
    """The pair multiplying w_order and w_{order+1}: each coefficient is its
    sum over j of mpf terms, rounded once, since these sums cancel."""
    if n < 1:
        raise DomainError("polynomial pairs require n >= 1")
    cols = ([[] for _ in range(n // 2 + 1)], [[] for _ in range((n + 1) // 2)])
    with mp.workprec(bits_for(n)):
        for k, i, t in _terms(f, enumerate(_coeffs_mp(f, n)), mp.mpf(f.order), mp.mpf, 1, (1, 1)):
            cols[k][i].append(t)
        first, second = (tuple(float(mp.fsum(terms)) for terms in col) for col in cols)
    return PolyPair(first, second, "A" if f.kappa > 0 else "B", n, f.params)


def a_polys(p: Params, n: int) -> PolyPair:
    """Polynomial pair (A_{n,1}, A_{n,2}) multiplying the first-kind weights."""
    return _poly_pair(_q_family(p), n)


def b_polys(p: Params, n: int) -> PolyPair:
    """Polynomial pair (B_{n,1}, B_{n,2}) multiplying the second-kind weights.

    Both members carry the same global sign, unlike the A pair.
    """
    return _poly_pair(_p_family(p), n)
