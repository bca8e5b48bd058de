"""Linear forms Q_n (first-kind side) and P_n (second-kind side) and
several independent evaluation routes used to cross-validate each other:

* basis expansions over shifted weights (q_eval / p_eval),
* determinant representations (q_eval_determinant / p_eval_determinant),
* a double-series route for Q_n (q_eval_series),
* the two-term route, pairs built from the shift polynomials, in lommel.

The two families are dual: swapping (mu, a, I) for (nu, b, K) and
multiplying by c_n turns each explicit formula for Q_n into the one for
P_n.  A private _Family record holds what differs: the weight order and
scale, kappa (+1 for I, -1 for K), whether c_n leads, the double weight and
the order ladder.  Each route (coefficients, expansion, determinant, weight
table) has one implementation over the record, and the q_/p_ names are
thin entry points to it.  The extended routes take their constants, the
gap b^2 - a^2, c_n and the series prefactor, in mpf, not from a double.

Alternating sums cancel near the zeros of the forms: _evaluate is the one
double-then-extended rule, for the expansions, the Q series and lommel's
two-term sums.  Every bit count this module chooses comes from
precision.bits_for.

At high degree the two oracles' inner loops are most of the cost, and an
operation on mpf objects costs several times the arithmetic it does, so
neither loop uses them.  The determinant's rows are Python ints over one
exponent per row, which keep mp.prec + 32 bits of the row's smallest entry:
the Gamma rows are built so, and the weight row is converted once.
Its full-pivot elimination updates an entry with one multiply, one shift
and one subtract of ints, and rounds the determinant once, so its value is
at least as accurate as the same steps rounded at mp.prec, not equal to
them bit for bit.  The Q series' extended pass sums in fixed point, on
Python ints scaled by 2^wp, as specfun's Bessel series do: a term is one
multiply and one divide of ints, and the truncations cost guard bits, not
rounding to the working precision.  The expansion coefficients carry a
rising product along j, so they take no Gamma value per coefficient.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath
import numpy as np
from mpmath import mp
from mpmath.libmp import from_man_exp, round_nearest, to_fixed

from .errors import (BmopError, CapExceeded, DomainError, DoubleOverflow, NonConvergence,
                     PrecisionLossWarning)
from .precision import DOUBLE, MAX_BITS, LogValue, PrecisionConfig, bits_for
from . import specfun
from .specfun import Params, log_gamma, omega, rho

# a double term carries a few 1e-15 of rounding, which cancellation scales
# by the ratio: 1e5 keeps the loss below the routes' 1e-9 agreement
_ESCALATION_RATIO = 1e5
_ESCALATION_DEGREE = 30
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)
_DOUBLE_MIN = sys.float_info.min
# guard bits the determinant's rows keep below mp.prec
_GUARD = 32


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


def _coeff_logs(f: _Family, n: int) -> list[LogValue]:
    """lead (-1)^n C(n,j) Gamma(base+n)/Gamma(base+j) (-gap/scale)^j for j = 0..n,
    with base = mu + nu + 1."""
    if n < 0:
        raise DomainError("n must be >= 0")
    base = f.params.mu + f.params.nu + 1.0
    # the lead times Gamma(base+n); for P_n, c_n Gamma(base+n) is
    # 2 gap^base/(a^mu b^nu n!)
    top = (LogValue(_log_pref(f.params) - log_gamma(n + 1.0).log_magnitude, 1) if f.c_lead
           else log_gamma(base + n))
    ratio = LogValue.from_float(-f.params.gap / f.scale)
    return [(top / log_gamma(base + j)).scaled(float(math.comb(n, j)) * (-1.0) ** n)
            * ratio ** j for j in range(n + 1)]


def _lead_mp(f: _Family, n: int, gap):
    """The lead at the working precision: 1 for Q_n, and for P_n
    c_n = 2 gap^base / (a^mu b^nu Gamma(base+n) n!) with base = mu + nu + 1."""
    if not f.c_lead:
        return mp.mpf(1)
    p = f.params
    base = mp.mpf(p.mu) + p.nu + 1
    return 2 * gap ** base / (mp.mpf(p.a) ** p.mu * mp.mpf(p.b) ** p.nu
                                     * mpmath.factorial(n) * mpmath.gamma(base + n))


def _coeffs_mp(f: _Family, n: int) -> list:
    """The same coefficients as mpfs at the working precision, formed as
    lead (base)_n ratio^j C(n,j) / (base)_j with the rising product carried
    along j: Gamma(base+n)/Gamma(base+j) = (base)_n / (base)_j, so no Gamma
    value depends on j."""
    p = f.params
    base = mp.mpf(p.mu) + p.nu + 1
    rising = [mp.mpf(1)]
    for j in range(n):
        rising.append(rising[-1] * (base + j))
    gap = p.gap_mp()
    ratio = -gap / f.scale
    out = []
    power = (-1) ** n * _lead_mp(f, n, gap) * rising[n]
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
    """(sum, sum |term| / |sum|, in_range) of LogValue terms, summed
    relative to the largest.  Each term carries its own rounding, so the
    loss scales with the terms' summed magnitude; a sum within 2^-53 of it
    has no digits left (two terms cancel to 0.0, more leave debris) and its
    ratio is inf.  in_range says the sum is a normal double, or has
    cancelled: a 0.0 or subnormal sum whose largest term's rounding is a
    normal double did not underflow."""
    terms = [t for t in terms if t.sign != 0]
    top = max((t.log_magnitude for t in terms), default=-math.inf)
    if top > _LOG_DOUBLE_MAX:
        return math.inf, math.inf, False
    rels = [t.sign * math.exp(t.log_magnitude - top) for t in terms]
    rel, mass = math.fsum(rels), math.fsum(map(abs, rels))
    total = rel * math.exp(top)
    in_range = abs(total) < math.inf and (
        abs(total) >= _DOUBLE_MIN or math.ldexp(math.exp(top), -53) >= _DOUBLE_MIN)
    return total, mass / abs(rel) if abs(rel) > math.ldexp(mass, -53) else math.inf, in_range


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
        # terms whose rounding is a normal double summed to within it: they
        # cancelled, and the probe cannot tell by how much
        cause = "cancellation below double rounding, the value perhaps below double range"
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

def _fixed_row(values) -> tuple:
    """A row of reals as (ints, exponent), the entries m_j 2^exponent: the
    smallest nonzero entry keeps mp.prec + _GUARD bits, so every entry keeps
    at least that many and the row's ints are wide by its dynamic range."""
    raw = [mp.convert(v)._mpf_ for v in values]
    tops = [e + bc for _, man, e, bc in raw if man]
    if not tops:
        return [0] * len(raw), 0
    exp = min(tops) - mp.prec - _GUARD
    return [to_fixed(v, -exp) for v in raw], exp


def _gamma_rows(p: Params, n: int) -> list:
    """The determinant's n rising-product rows (base+i)_j, j = 0..n, with
    base = mu + nu + 1 taken exactly from the doubles, as fixed-point ints:
    their smallest entries, 1 and base, keep mp.prec + _GUARD bits."""
    base = Fraction(p.mu) + Fraction(p.nu) + 1
    num, den = base.numerator, base.denominator
    frac = mp.prec + _GUARD + max(0, den.bit_length() - num.bit_length() + 1)
    b = (num << frac) // den
    rows = []
    for i in range(n):
        row = [1 << frac]
        for k in range(n):
            row.append((row[-1] * (b + ((i + k) << frac))) >> frac)
        rows.append((row, -frac))
    return rows


def _pivot(a: list, exps: list, k: int) -> tuple:
    """(i, j) of the first strict maximum of |m_ij| 2^exps[i] over i, j >= k
    in row-major order; (k, k) if every such entry is zero."""
    best_i, best_j, best, best_e = k, k, 0, 0
    for i in range(k, len(a)):
        # max keeps the first of equal magnitudes, and no earlier entry
        # equals it
        top = max(a[i][k:], key=abs)
        v, d = abs(top), exps[i] - best_e
        if v and (not best or (v << d > best if d >= 0 else v > best << -d)):
            best_i, best_j, best, best_e = i, a[i].index(top, k), v, exps[i]
    return best_i, best_j


def _det_full_pivot(rows: list):
    """Determinant of rows given as (ints, exponent), by Gaussian elimination
    with full pivoting, rounded once to mp.prec.

    The pivot is _pivot's, the first strict maximum of |a_ij| in row-major
    order.  A row's exponent is common to its entries and cancels in the
    update m_ij -= m_ik m_kj / m_kk, so a step is m_ij -= (f m_kj) >> s
    with f = m_ik 2^s / m_kk on ints, and 2^s above every |m_kj| keeps each
    step's error below two units of row i.  The determinant accumulates
    exactly as an int over one exponent."""
    a = [list(m) for m, _ in rows]
    exps = [e for _, e in rows]
    det, exp = 1, 0
    for k in range(len(a)):
        i, j = _pivot(a, exps, k)
        if not a[i][j]:
            return mp.mpf(0)
        if i != k:
            a[k], a[i], exps[k], exps[i], det = a[i], a[k], exps[i], exps[k], -det
        if j != k:
            for row in a[k:]:
                row[k], row[j] = row[j], row[k]
            det = -det
        top = a[k]
        piv = top[k]
        det *= piv
        exp += exps[k]
        # column k is eliminated and never read again
        tail = top[k + 1:]
        s = max((abs(v) for v in tail), default=0).bit_length()
        for row in a[k + 1:]:
            if row[k]:
                f = (row[k] << s) // piv
                row[k + 1:] = [v - ((f * t) >> s) for v, t in zip(row[k + 1:], tail)]
    return mp.make_mpf(from_man_exp(det, exp, mp.prec, round_nearest))


def _det_rows(f: _Family, n: int, x: float) -> list:
    """The (n+1)x(n+1) matrix of _det_eval at mp.prec, as _det_full_pivot's rows."""
    p = f.params
    scale = p.gap_mp() / f.scale
    weights = f.ladder_mp(mp.mpf(f.order), f.scale, x, n, mp.prec)
    return _gamma_rows(p, n) + [_fixed_row([scale ** j * w for j, w in enumerate(weights)])]


def _det_eval(label: str, f: _Family, n: int, x: float, precision: PrecisionConfig) -> float:
    """The form from its (n+1)x(n+1) determinant: n rows of Gamma ratios
    Gamma(base+i+j)/Gamma(base+i) over one row (gap/scale)^j w_{order+j}(x),
    divided by prod_{k<n} k! and multiplied by the lead, c_n for P_n.

    Each Gamma row, divided by its leading entry to tame the dynamic range,
    is the rising product (base+i)_j, built in fixed point; the elimination
    runs on ints with mp.prec + _GUARD bits per row.
    """
    cap = 30 if precision.extended else 10
    if n > cap:
        raise CapExceeded(f"determinant oracle capped at n={cap}")
    if x <= 0:
        raise DomainError("x must be > 0")
    bits = max(precision.mantissa_bits if precision.extended else 0, bits_for(n))
    with mp.workprec(bits):
        # row scaling cancels Gamma(base+k) in the stated normalizer,
        # leaving prod k!
        det = (_det_full_pivot(_det_rows(f, n, x))
               / math.prod(math.factorial(k) for k in range(n)))
        return _to_double(label, det * _lead_mp(f, n, f.params.gap_mp()), n, x)


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
            mp.mpf(p.a) * p.a * x, p.gap_mp() * x, mu, mu + p.nu + 1))
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
            # exp(pref_log) in mpf: (a x)^mu (base)_n / Gamma(mu + 1)
            mu = mp.mpf(p.mu)
            pref = (mp.mpf(p.a) * x) ** mu * mpmath.rf(mu + p.nu + 1, n) / mpmath.gamma(mu + 1)
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
