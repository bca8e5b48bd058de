"""Linear forms Q_n (first-kind side) and P_n (second-kind side), their
polynomial pairs, and several independent evaluation routes used to
cross-validate each other:

* basis expansions over shifted weights (q_eval / p_eval),
* determinant representations (q_eval_determinant / p_eval_determinant),
* a double-series route for Q_n (q_eval_series),
* polynomial-pair reconstruction (a_polys / b_polys).

The two families are dual: swapping (mu, a, I) for (nu, b, K) and
multiplying by c_n turns each explicit formula for Q_n into the one for
P_n.  A private _Family record holds what differs: the weight order and
scale, kappa (+1 for I, -1 for K), whether c_n leads, the double weight and
the order ladder.  Each route (coefficients, expansion, determinant,
polynomial pair, weight table) has one implementation over the record, and
the q_/p_, a_/b_ names are thin entry points to it.

Alternating sums cancel near the zeros of the forms: _evaluate is the one
double-then-extended rule, for the expansions, the Q series and lommel's
shifts.  Every bit count this module chooses comes from precision.bits_for.

At high degree the two oracles' inner loops are most of the cost, and an
operation on mpf objects costs several times the arithmetic it does, so
neither loop uses them.  The determinant's elimination works on the raw
mpf tuples with mpmath.libmp calls, with the same pivots and the same
rounding as mpf arithmetic, so its value is unchanged to the bit.  The Q
series' extended pass sums in fixed point, on Python ints scaled by 2^wp,
as specfun's Bessel series do: a term is one multiply and one divide of
ints, and the truncations cost guard bits, not rounding to the working
precision.  The expansion coefficients carry a rising product along j, so
they take no Gamma value per coefficient.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import mpmath
import numpy as np
from mpmath import mp
from mpmath.libmp import (fone, from_man_exp, fzero, mpf_abs, mpf_cmp, mpf_mul, mpf_neg,
                          mpf_rdiv_int, mpf_sub, round_nearest, to_fixed)

from .errors import (BmopError, CapExceeded, DomainError, DoubleOverflow, NonConvergence,
                     PrecisionLossWarning)
from .precision import DOUBLE, MAX_BITS, LogValue, PrecisionConfig, bits_for
from . import specfun
from .specfun import Params, log_gamma, omega, pochhammer, rho

# a double term carries a few 1e-15 of rounding, which cancellation scales
# by the ratio: 1e5 keeps the loss below the routes' 1e-9 agreement
_ESCALATION_RATIO = 1e5
_ESCALATION_DEGREE = 30
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)
_DOUBLE_MIN = sys.float_info.min


# ---------------------------------------------------------------------------
# the two families

@dataclass(frozen=True)
class _Family:
    """What separates Q_n from P_n.  Q_n: (mu, a, +1, 1, omega); P_n:
    (nu, b, -1, c_n, rho).  kappa is +1 for I and -1 for K; c_lead says
    whether c_n multiplies the coefficients."""
    params: Params
    order: float
    scale: float
    kappa: int
    c_lead: bool
    weight: Callable        # double weight, as a LogValue
    ladder_mp: Callable     # orders order..order+jmax at one point, as mpfs


def _q_family(p: Params) -> _Family:
    return _Family(p, p.mu, p.a, 1, False, omega, specfun.omega_ladder_mp)


def _p_family(p: Params) -> _Family:
    return _Family(p, p.nu, p.b, -1, True, rho, specfun.rho_ladder_mp)


# ---------------------------------------------------------------------------
# coefficient expansions

@dataclass(frozen=True)
class Expansion:
    """Q_n = sum_j coeffs[j] omega(mu+j, a, .), or P_n = sum_j coeffs[j] rho(nu+j, b, .)."""
    params: Params
    n: int
    coeffs: tuple


@dataclass(frozen=True)
class NormalizationC:
    n: int
    value: LogValue


def _log_pref(p: Params) -> float:
    """log of 2 (b^2-a^2)^(mu+nu+1) / (a^mu b^nu), the n-free part of c_n."""
    return (math.log(2.0) + (p.mu + p.nu + 1.0) * math.log(p.gap)
            - p.mu * math.log(p.a) - p.nu * math.log(p.b))


def _log_top(f: _Family, n: int) -> LogValue:
    """The lead times Gamma(base+n): Gamma(base+n) for Q_n, and for P_n
    c_n Gamma(base+n) = 2 gap^base/(a^mu b^nu n!) formed directly."""
    if f.c_lead:
        return LogValue(_log_pref(f.params) - log_gamma(n + 1.0).log_magnitude, 1)
    return log_gamma(f.params.mu + f.params.nu + 1.0 + n)


def _coeff_logs(f: _Family, n: int) -> list[LogValue]:
    """lead (-1)^n C(n,j) Gamma(base+n)/Gamma(base+j) (-gap/scale)^j for j = 0..n,
    with base = mu + nu + 1."""
    if n < 0:
        raise DomainError("n must be >= 0")
    base = f.params.mu + f.params.nu + 1.0
    top = _log_top(f, n)
    ratio = LogValue.from_float(-f.params.gap / f.scale)
    return [(top / log_gamma(base + j)).scaled(float(math.comb(n, j)) * (-1.0) ** n)
            * ratio.powi(j) for j in range(n + 1)]


def _coeffs_mp(f: _Family, n: int) -> list:
    """The same coefficients as mpfs at the working precision, formed as
    top ratio^j C(n,j) / (base)_j with the rising product carried along j:
    Gamma(base+j) = Gamma(base) (base)_j, so top is (base)_n for Q_n and
    c_n Gamma(base+n) / Gamma(base) for P_n, and no Gamma value depends on j."""
    p = f.params
    base = mp.mpf(p.mu) + mp.mpf(p.nu) + 1
    gap = mp.mpf(p.b) ** 2 - mp.mpf(p.a) ** 2
    rising = [mp.mpf(1)]
    for j in range(n):
        rising.append(rising[-1] * (base + j))
    if f.c_lead:
        top = 2 * gap ** base / (mp.mpf(p.a) ** p.mu * mp.mpf(p.b) ** p.nu * mpmath.factorial(n)
                                 * mpmath.gamma(base))
    else:
        top = rising[n]
    ratio = -gap / f.scale
    out = []
    power = (-1) ** n * top
    for j, r in enumerate(rising):
        out.append(power * math.comb(n, j) / r)
        power *= ratio
    return out


def q_coeffs(p: Params, n: int) -> Expansion:
    """Coefficients of Q_n over the shifted first-kind weights."""
    return Expansion(p, n, tuple(c.value() for c in _coeff_logs(_q_family(p), n)))


def p_coeffs(p: Params, n: int) -> Expansion:
    """Coefficients of P_n over the shifted second-kind weights."""
    return Expansion(p, n, tuple(c.value() for c in _coeff_logs(_p_family(p), n)))


def normalization_c(p: Params, n: int) -> NormalizationC:
    """c_n = 2 (b^2-a^2)^(mu+nu+1) / (a^mu b^nu Gamma(mu+nu+1+n) n!)."""
    lg = (_log_pref(p) - log_gamma(p.mu + p.nu + 1.0 + n).log_magnitude
          - log_gamma(n + 1.0).log_magnitude)
    return NormalizationC(n, LogValue(lg, 1))


# ---------------------------------------------------------------------------
# direct evaluation with automatic precision escalation

def _to_double(label: str, value, n: int, x: float) -> float:
    """An extended result as a float; DoubleOverflow when it rounds to inf,
    or to 0.0 from a nonzero value."""
    out = float(value)
    if math.isinf(out) or (out == 0.0 and value != 0):
        where = "beyond" if out else "below"
        raise DoubleOverflow(f"{label}: |value| {mpmath.nstr(abs(value), 5)} at n={n}, "
                             f"x={x} is {where} double range")
    return out


def _double_probe(terms: list) -> tuple:
    """(sum, largest |term| / |sum|, in_range) of LogValue terms, summed
    relative to the largest.  in_range says the sum is a normal double, or
    has cancelled: a sum that rounds to 0.0 or a subnormal has no digits
    left to measure, but when the largest term's rounding, 2^-53 of it, is
    still a normal double, the terms cancelled and did not underflow."""
    terms = [t for t in terms if t.sign != 0]
    top = max((t.log_magnitude for t in terms), default=-math.inf)
    if top > _LOG_DOUBLE_MAX:
        return math.inf, math.inf, False
    rel = math.fsum(t.sign * math.exp(t.log_magnitude - top) for t in terms)
    total = rel * math.exp(top)
    in_range = abs(total) < math.inf and (
        abs(total) >= _DOUBLE_MIN or math.ldexp(math.exp(top), -53) >= _DOUBLE_MIN)
    return total, 1.0 / abs(rel) if rel else math.inf, in_range


def _evaluate(label: str, n: int, x: float, probe, run: Callable, limit: float,
              stacklevel: int) -> float:
    """A cancelling sum as a double.  `probe` is the int bits asked for (one
    pass), or the double pass's (value, ratio, in_range), kept when n <= 30,
    in_range and ratio <= `limit`.  Otherwise a PrecisionLossWarning names
    the cause and run(bits) -> (mpf value, largest |term|) goes at
    bits_for(n, ratio), then again while its own ratio asks for more bits
    (a probe's saturates near 1/eps; a zero value doubles them)."""
    if isinstance(probe, int):
        return _to_double(label, run(probe)[0], n, x)
    total, ratio, in_range = probe
    if n > _ESCALATION_DEGREE:
        cause = f"degree above {_ESCALATION_DEGREE}"
    elif not in_range:
        cause = "value outside double range"
    elif ratio == math.inf:
        # terms whose rounding is a normal double summed to 0.0: they
        # cancelled, and the probe cannot tell by how much
        cause = "cancellation to 0.0 in double, the value perhaps below double range"
    elif not ratio <= limit:
        cause = f"cancellation ratio {ratio:.2e}"
    else:
        return total
    warnings.warn(f"{label}: {cause} at n={n}; escalating to extended precision",
                  PrecisionLossWarning, stacklevel=stacklevel + 1)
    bits = bits_for(n, ratio)
    while True:
        value, biggest = run(bits)
        ratio = float(biggest / abs(value)) if value else math.inf
        need = bits_for(n, ratio) if math.isfinite(ratio) else min(2 * bits, MAX_BITS)
        if need <= bits:
            return _to_double(label, value, n, x)
        bits = need


def _expansion_mp(f: _Family, n: int, x: float, bits: int) -> tuple:
    """(sum_j c_j w_{order+j}(x), largest |term|) as mpfs: one order ladder at `bits`."""
    with mp.workprec(bits):
        coeffs = _coeffs_mp(f, n)
        ladder = f.ladder_mp(f.order, f.scale, x, n, bits)
        return mp.fdot(coeffs, ladder), max(abs(c * w) for c, w in zip(coeffs, ladder))


def _expansion_eval(label: str, f: _Family, n: int, x: float,
                    precision: PrecisionConfig) -> float:
    """sum_j c_j w_{order+j}(x): a double pass over the coefficient logs, or
    one order ladder in extended precision when that is asked for or the
    double pass escalates."""
    if x <= 0:
        raise DomainError(f"{label} requires x > 0")
    if n < 0:
        raise DomainError("n must be >= 0")
    if precision.extended:
        probe = precision.mantissa_bits
    else:
        probe = _double_probe([c * f.weight(f.order + j, f.scale, x)
                               for j, c in enumerate(_coeff_logs(f, n))]
                              if n <= _ESCALATION_DEGREE else [])
    return _evaluate(label, n, x, probe, lambda bits: _expansion_mp(f, n, x, bits),
                     _ESCALATION_RATIO, stacklevel=3)


def q_eval(p: Params, n: int, x: float, precision: PrecisionConfig = DOUBLE) -> float:
    """Q_n(x) from the basis expansion over shifted first-kind weights."""
    return _expansion_eval("q_eval", _q_family(p), n, x, precision)


def p_eval(p: Params, n: int, x: float, precision: PrecisionConfig = DOUBLE) -> float:
    """P_n(x) from the basis expansion over shifted second-kind weights."""
    return _expansion_eval("p_eval", _p_family(p), n, x, precision)


# ---------------------------------------------------------------------------
# determinant oracles

def _det_full_pivot(rows):
    """Determinant by Gaussian elimination with full pivoting, at mp.prec.

    The pivot is the first strict maximum of |a_ij| in row-major order.
    Every step works on the raw mpf tuples with mpmath.libmp, rounding to
    nearest at mp.prec as mpf arithmetic does, so the value is the one the
    same steps on mpf objects give; a step costs a libmp call instead of
    mpf object dispatch."""
    prec = mp.prec
    a = [[mp.convert(v)._mpf_ for v in r] for r in rows]
    m = len(a)
    det = fone
    for k in range(m):
        piv_i, piv_j, piv = k, k, mpf_abs(a[k][k])
        for i in range(k, m):
            row = a[i]
            for j in range(k, m):
                v = mpf_abs(row[j])
                if mpf_cmp(v, piv) > 0:
                    piv_i, piv_j, piv = i, j, v
        if piv == fzero:
            return mp.mpf(0)
        if piv_i != k:
            a[k], a[piv_i] = a[piv_i], a[k]
            det = mpf_neg(det)
        if piv_j != k:
            for row in a[k:]:
                row[k], row[piv_j] = row[piv_j], row[k]
            det = mpf_neg(det)
        top = a[k]
        det = mpf_mul(det, top[k], prec, round_nearest)
        inv = mpf_rdiv_int(1, top[k], prec, round_nearest)
        # column k is eliminated and never read again
        for row in a[k + 1:]:
            f = mpf_mul(row[k], inv, prec, round_nearest)
            for j in range(k + 1, m):
                row[j] = mpf_sub(row[j], mpf_mul(f, top[j], prec, round_nearest),
                                 prec, round_nearest)
    return mp.make_mpf(det)


def _det_eval(label: str, f: _Family, n: int, x: float, precision: PrecisionConfig) -> float:
    """The form from its (n+1)x(n+1) determinant: n rows of Gamma ratios
    Gamma(base+i+j)/Gamma(base+i) over one row (gap/scale)^j w_{order+j}(x),
    divided by prod_{k<n} k! and multiplied by c_n for P_n.

    Each Gamma row, divided by its leading entry to tame the dynamic range,
    is the rising product (base+i)_j; elimination runs in extended precision.
    """
    cap = 30 if precision.extended else 10
    if n > cap:
        raise CapExceeded(f"determinant oracle capped at n={cap}")
    if x <= 0:
        raise DomainError("x must be > 0")
    bits = max(precision.mantissa_bits if precision.extended else 0, bits_for(n))
    p = f.params
    with mp.workprec(bits):
        order = mp.mpf(f.order)
        base = mp.mpf(p.mu) + p.nu + 1
        scale = mp.mpf(p.gap) / f.scale
        rows = [[mp.mpf(1)] for _ in range(n)]
        for i, row in enumerate(rows):
            for k in range(n):
                row.append(row[-1] * (base + i + k))
        weights = f.ladder_mp(order, f.scale, x, n, bits)
        rows.append([scale ** j * w for j, w in enumerate(weights)])
        det = _det_full_pivot(rows)
        # row scaling cancels Gamma(base+k) in the stated normalizer,
        # leaving prod k!
        for k in range(n):
            det /= mpmath.factorial(k)
        if f.c_lead:
            det *= normalization_c(p, n).value.mpf(bits)
        return _to_double(label, det, n, x)


def q_eval_determinant(p: Params, n: int, x: float,
                       precision: PrecisionConfig = DOUBLE) -> float:
    """Q_n(x) from its (n+1)x(n+1) determinant representation."""
    return _det_eval("q_eval_determinant", _q_family(p), n, x, precision)


def p_eval_determinant(p: Params, n: int, x: float,
                       precision: PrecisionConfig = DOUBLE) -> float:
    """P_n(x) from its determinant representation: Q_n's with the
    second-kind weights and scale gap/b, times c_n."""
    return _det_eval("p_eval_determinant", _p_family(p), n, x, precision)


# ---------------------------------------------------------------------------
# double-series route for Q_n

def _q_series_double(p: Params, n: int, x: float):
    """Yield (outer term, its bound) of the double series in double: the
    k-th outer factor times the inner alternating sum over j, and times the
    sum of the inner terms' magnitudes.  Gamma(mu+1) Gamma(mu+nu+1) sits in
    q_eval_series's log prefactor, so the terms carry no Gamma function and
    leave double range only as I_mu does."""
    a2x = p.a * p.a * x
    z = p.gap * x
    mu = p.mu
    base = mu + p.nu + 1
    outer = 1.0
    k = 0
    while True:
        t = s = s_abs = 1.0
        for j in range(n):
            t = t * (j - n) * z / ((j + 1) * (mu + j + k + 1) * (base + j))
            s += t
            s_abs += abs(t)
        yield outer * s, outer * s_abs
        outer = outer * a2x / ((k + 1) * (mu + k + 1))
        k += 1


def _q_series_fixed(p: Params, n: int, x: float, wp: int):
    """The same terms in fixed point, as ints scaled by 2^wp.  The inner
    ratio splits into (j-n) z / ((j+1)(base+j)), formed once per j, over
    mu+j+k+1, so an inner term is one multiply and one divide of ints."""
    one = 1 << wp
    with mp.workprec(wp):
        mu = mp.mpf(p.mu)
        a2x, z, m, base = (to_fixed(v._mpf_, wp) for v in (
            mp.mpf(p.a) * p.a * x, mp.mpf(p.gap) * x, mu, mu + p.nu + 1))
    ratios = [((j - n) * z << wp) // ((j + 1) * (base + j * one)) for j in range(n)]
    outer = one
    k = 0
    while True:
        t = s = s_abs = one
        d = m + (k + 1) * one  # mu + j + k + 1 at j = 0
        for c in ratios:
            t = t * c // d
            d += one
            s += t
            s_abs += abs(t)
        yield outer * s >> wp, outer * s_abs >> wp
        outer = outer * a2x // ((k + 1) * (m + (k + 1) * one))
        k += 1


def _q_series_run(terms, peak: float, small: Callable) -> tuple:
    """(sum, largest bound) of the outer terms, in their own arithmetic.
    The sum stops past the largest term, which sits near k = peak, once
    small(bound, sum, largest bound) holds for three terms in a row; a
    double sum also stops once it leaves double range."""
    acc = max_term = 0
    small_streak = 0
    for k, (term, bound) in enumerate(terms):
        acc += term
        if not -math.inf < acc < math.inf:
            break
        if bound > max_term:
            max_term = bound
        if k > peak and small(bound, acc, max_term):
            small_streak += 1
            if small_streak >= 3:
                break
        else:
            small_streak = 0
        if k >= 10000:
            raise NonConvergence("q_eval_series: no convergence after 10000 outer terms")
    return acc, max_term


def q_eval_series(p: Params, n: int, x: float, precision: PrecisionConfig = DOUBLE) -> float:
    """Q_n(x) from the explicit double series (independent of the Bessel
    backend; only gamma values enter).  The double probe sums in double,
    the extended pass in fixed point."""
    if x <= 0:
        raise DomainError("x must be > 0")
    base = p.mu + p.nu + 1.0
    pref_log = (p.mu * math.log(p.a * x) + log_gamma(base + n).log_magnitude
                - math.lgamma(p.mu + 1.0) - math.lgamma(base))
    pref_sign = (-1) ** n
    # the outer sum is (a sqrt x)^-mu I_mu(2 a sqrt x) term by term, whose
    # largest term sits near k = a sqrt x
    peak = p.a * math.sqrt(x)

    def run(bits):
        # a truncated int division errs by under 2^-wp of the largest term:
        # 30 guard bits cover 2^20 of them with 10 to spare, and
        # -log2(mu + 1) more keep the smallest denominator, mu + 1, as
        # precise relative to itself as in mpf
        wp = bits + 30 + max(0, math.ceil(-math.log2(p.mu + 1.0)))
        acc, max_term = _q_series_run(
            _q_series_fixed(p, n, x, wp), peak,
            lambda bound, acc, top: bound << bits < max(abs(acc), top >> 53))
        with mp.workprec(bits):
            pref = mpmath.exp(mp.mpf(pref_log))
            acc, max_term = (mp.make_mpf(from_man_exp(v, -wp)) for v in (acc, max_term))
            return pref_sign * pref * acc, pref * max_term

    if precision.extended:
        probe = precision.mantissa_bits
    else:
        acc, max_term = _q_series_run(
            _q_series_double(p, n, x), peak,
            lambda bound, acc, top: bound < 1e-17 * max(abs(acc), top * 1e-16))
        ratio = math.inf if acc == 0 else max_term / abs(acc)
        # false for a nan or inf sum; max(., 1) also keeps exp(pref_log) finite
        in_range = pref_log + math.log(max(abs(acc), 1.0)) < _LOG_DOUBLE_MAX
        out = pref_sign * math.exp(pref_log) * acc if in_range else math.inf
        # a nonzero sum that rounds to 0.0 or a subnormal is below double range
        probe = (out, ratio, in_range and (abs(out) >= _DOUBLE_MIN or acc == 0))
    return _evaluate("q_eval_series", n, x, probe, run, _ESCALATION_RATIO, stacklevel=2)


# ---------------------------------------------------------------------------
# polynomial pairs

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
        """Rebuild the linear form from the pair and the two base weights, in
        double: the coefficients are doubles, so extended weights could not
        help.  A PrecisionLossWarning says so when a term exceeds the value
        by more than the expansions' escalation ratio."""
        f = (_q_family if self.kind == "A" else _p_family)(self.params)
        w0, w1 = (f.weight(f.order + k, f.scale, x).value() for k in (0, 1))
        t0, t1 = self.eval_first(x) * w0, self.eval_second(x) * w1
        value = t0 + t1
        if max(abs(t0), abs(t1)) > _ESCALATION_RATIO * abs(value):
            warnings.warn(f"reconstruct: the pair's terms cancel by more than "
                          f"{_ESCALATION_RATIO:.0e} at n={self.n}, x={x}; the pair route is "
                          f"double-only", PrecisionLossWarning, stacklevel=2)
        return value


def _horner(coeffs, x):
    out = 0.0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _poly_pair(f: _Family, n: int) -> PolyPair:
    """The pair multiplying w_order and w_{order+1}: the coefficients' shift
    polynomials evaluated at scale^2 x, with q = kappa gap/scale^2.  Both
    members carry (-1)^n, the second also -kappa."""
    if n < 1:
        raise DomainError("polynomial pairs require n >= 1")
    p = f.params
    base = p.mu + p.nu + 1.0
    q = f.kappa * p.gap / (f.scale * f.scale)
    top = _log_top(f, n)
    sign = (-1.0) ** n

    def coeff(i: int, shift: int) -> float:
        # the x^i coefficient inherits scale^(2i + shift) from evaluating the
        # shift polynomial at scale^2 x
        terms = []
        for j in range(2 * i + shift, n + 1):
            t = (top / log_gamma(base + j)).value()
            t *= math.comb(n, j) * math.comb(j - i - 1, i - 1 + shift) * q ** j
            t *= pochhammer(f.order + i + 1.0, j - 2 * i - shift)
            terms.append(t)
        return f.scale ** (2 * i + shift) * math.fsum(terms)

    first = [sign * (top / log_gamma(base)).value()]
    first += [sign * coeff(i, 0) for i in range(1, n // 2 + 1)]
    second = [-f.kappa * sign * coeff(i, 1) for i in range((n - 1) // 2 + 1)]
    return PolyPair(tuple(first), tuple(second), "A" if f.kappa > 0 else "B", n, p)


def a_polys(p: Params, n: int) -> PolyPair:
    """Polynomial pair (A_{n,1}, A_{n,2}) multiplying the first-kind weights."""
    return _poly_pair(_q_family(p), n)


def b_polys(p: Params, n: int) -> PolyPair:
    """Polynomial pair (B_{n,1}, B_{n,2}) multiplying the second-kind weights.

    Both members carry the same global sign, unlike the A pair.
    """
    return _poly_pair(_p_family(p), n)


# ---------------------------------------------------------------------------
# grid evaluation and sign-change counting

class WeightGrid:
    """Extended-precision tables of shifted weights on a fixed grid.

    Shared by quadrature, sign counting and kernel evaluation so the costly
    Bessel calls happen once per (grid, order) pair.  Each family's table
    is built on its first use, so a caller that reads only Q_n never pays
    for the second-kind table.
    """

    def __init__(self, p: Params, jmax: int, xs, bits: int):
        self.params = p
        self.jmax = jmax
        # mpf abscissas pass through exactly; quadrature against huge
        # cancelling integrands needs the nodes beyond double accuracy
        self.xs = np.array([float(x) for x in xs])
        self.bits = bits
        with mp.workprec(bits + 20):
            self._xs_mp = [mp.mpf(x) for x in xs]
        self._ladders = {}

    def _values_mp(self, f: _Family, n: int) -> list:
        """The family's form at every node: one exact dot product of the
        coefficients with the node's order ladder, as _expansion_mp forms it."""
        if n > self.jmax:
            raise CapExceeded("grid built for smaller jmax")
        if f.kappa not in self._ladders:
            self._ladders[f.kappa] = [f.ladder_mp(f.order, f.scale, x, self.jmax, self.bits)
                                      for x in self._xs_mp]
        with mp.workprec(self.bits):
            coeffs = _coeffs_mp(f, n)
            return [mp.fdot(coeffs, ladder) for ladder in self._ladders[f.kappa]]

    def q_values_mp(self, n: int) -> list:
        return self._values_mp(_q_family(self.params), n)

    def p_values_mp(self, n: int) -> list:
        return self._values_mp(_p_family(self.params), n)

    def q_values(self, n: int) -> np.ndarray:
        return np.array([float(v) for v in self.q_values_mp(n)])

    def p_values(self, n: int) -> np.ndarray:
        return np.array([float(v) for v in self.p_values_mp(n)])


def sign_change_window(p: Params, n: int) -> tuple[float, float]:
    """Scan window [x_lo, x_hi] covering all oscillations of Q_n.

    In the Laguerre regime the largest zero of Q_n sits near
    ((2n + mu + nu + 1)/(b - a))^2; a 30% margin covers finite-parameter
    corrections.
    """
    x_hi = 1.3 * ((2.0 * n + p.mu + p.nu + 1.0) / (p.b - p.a)) ** 2
    x_hi = max(x_hi, 10.0)
    return x_hi * 1e-7, x_hi


def sign_change_profile(p: Params, n_max: int, grid_points: int = 3072) -> list:
    """Sign-change counts of Q_0..Q_{n_max} from one shared weight table.

    The scan window of the largest index covers every smaller one, and the
    weight table already holds all intermediate orders, so the whole profile
    costs one grid instead of n_max of them.
    """
    xs = np.geomspace(*sign_change_window(p, n_max), grid_points)
    grid = WeightGrid(p, n_max, xs, bits=bits_for(n_max))
    return [_count_on_grid(grid.q_values_mp(n)) for n in range(n_max + 1)]


def count_sign_changes(p: Params, n: int, grid_points: int = 2048) -> int:
    """Number of sign changes of Q_n on (0, inf)."""
    xs = np.geomspace(*sign_change_window(p, n), grid_points)
    return _count_on_grid(WeightGrid(p, n, xs, bits=bits_for(n)).q_values_mp(n))


def _count_on_grid(vals) -> int:
    """Sign flips between neighbouring mpf values of a form on its scan grid,
    which keep their signs below double range.

    A touching zero makes no flip and is not counted.  A grid value of
    exactly zero would hide whether the form crosses there, so it is
    reported as an error.
    """
    signs = [(v > 0) - (v < 0) for v in vals]
    if 0 in signs:
        raise BmopError("degenerate zero hit exactly on the scan grid")
    return sum(s != t for s, t in zip(signs, signs[1:]))
