"""Linear forms Q_n (first-kind side) and P_n (second-kind side), their
polynomial pairs, and several independent evaluation routes used to
cross-validate each other:

* basis expansions over shifted weights (q_eval / p_eval),
* determinant representations (q_eval_determinant / p_eval_determinant),
* a double-series route for Q_n (q_eval_series),
* polynomial-pair reconstruction (a_polys / b_polys).

Alternating coefficient sums cancel near the zeros of the forms: a double
pass escalates to extended precision when its max-term/result ratio exceeds
1e5, when the value leaves double range, or for n > 30.  Every bit count
this module chooses comes from precision.bits_for.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property

import mpmath
import numpy as np
from mpmath import mp

from .errors import (BmopError, CapExceeded, DomainError, DoubleOverflow, NonConvergence,
                     PrecisionLossWarning)
from .precision import DOUBLE, LogValue, PrecisionConfig, bits_for, logsum
from . import specfun
from .specfun import Params, log_gamma, log_gamma_ratio, omega, pochhammer, rho

# a double term carries a few 1e-15 of rounding, which cancellation scales
# by the ratio: 1e5 keeps the loss below the routes' 1e-9 agreement
_ESCALATION_RATIO = 1e5
_ESCALATION_DEGREE = 30
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)


# ---------------------------------------------------------------------------
# coefficient expansions

@dataclass(frozen=True)
class OmegaExpansion:
    """Q_n = sum_j coeffs[j] * omega(mu+j, a, .)"""
    params: Params
    n: int
    coeffs: tuple


@dataclass(frozen=True)
class RhoExpansion:
    """P_n = sum_j coeffs[j] * rho(nu+j, b, .)"""
    params: Params
    n: int
    coeffs: tuple


@dataclass(frozen=True)
class NormalizationC:
    n: int
    value: LogValue


def _q_coeff_logs(p: Params, n: int) -> list[LogValue]:
    base = p.mu + p.nu + 1.0
    ratio = -p.gap / p.a  # (a^2 - b^2)/a, negative
    out = []
    for j in range(n + 1):
        c = log_gamma_ratio(base + n, base + j)
        c = c.scaled(float(math.comb(n, j)) * (-1.0) ** n)
        c = c * LogValue.from_float(ratio).powi(j)
        out.append(c)
    return out


def q_coeffs(p: Params, n: int) -> OmegaExpansion:
    """Coefficients of Q_n over the shifted first-kind weights."""
    if n < 0:
        raise DomainError("n must be >= 0")
    return OmegaExpansion(p, n, tuple(c.value() for c in _q_coeff_logs(p, n)))


def _p_coeff_logs(p: Params, n: int) -> list[LogValue]:
    base = p.mu + p.nu + 1.0
    pref = LogValue(
        math.log(2.0) + base * math.log(p.gap)
        - p.mu * math.log(p.a) - p.nu * math.log(p.b)
        - log_gamma(n + 1.0).log_magnitude,
        (-1) ** n,
    )
    ratio = -p.gap / p.b
    out = []
    for j in range(n + 1):
        d = pref.scaled(float(math.comb(n, j)))
        d = d * LogValue.from_float(ratio).powi(j)
        d = d / log_gamma(base + j)
        out.append(d)
    return out


def p_coeffs(p: Params, n: int) -> RhoExpansion:
    """Coefficients of P_n over the shifted second-kind weights."""
    if n < 0:
        raise DomainError("n must be >= 0")
    return RhoExpansion(p, n, tuple(d.value() for d in _p_coeff_logs(p, n)))


def normalization_c(p: Params, n: int) -> NormalizationC:
    """c_n = 2 (b^2-a^2)^(mu+nu+1) / (a^mu b^nu Gamma(mu+nu+1+n) n!)."""
    base = p.mu + p.nu + 1.0
    lg = (math.log(2.0) + base * math.log(p.gap)
          - p.mu * math.log(p.a) - p.nu * math.log(p.b)
          - log_gamma(base + n).log_magnitude - log_gamma(n + 1.0).log_magnitude)
    return NormalizationC(n, LogValue(lg, 1))


# mpmath coefficient generators (shared by the escalated paths)

def _q_coeffs_mp(p: Params, n: int):
    base = mp.mpf(p.mu) + mp.mpf(p.nu) + 1
    ratio = (mp.mpf(p.a) ** 2 - mp.mpf(p.b) ** 2) / p.a
    g_top = mpmath.gamma(base + n)
    return [(-1) ** n * mp.mpf(math.comb(n, j)) * g_top / mpmath.gamma(base + j) * ratio ** j
            for j in range(n + 1)]


def _p_coeffs_mp(p: Params, n: int):
    base = mp.mpf(p.mu) + mp.mpf(p.nu) + 1
    gap = mp.mpf(p.b) ** 2 - mp.mpf(p.a) ** 2
    pref = ((-1) ** n * 2 * gap ** base
            / (mp.mpf(p.a) ** p.mu * mp.mpf(p.b) ** p.nu * mpmath.factorial(n)))
    ratio = -gap / p.b
    return [pref * mp.mpf(math.comb(n, j)) * ratio ** j / mpmath.gamma(base + j)
            for j in range(n + 1)]


# ---------------------------------------------------------------------------
# direct evaluation with automatic precision escalation

def _escalation(label: str, n: int, ratio: float, in_range: bool, stacklevel: int):
    """Bits for the extended pass after a double pass, or None to keep it; warns with the cause."""
    if n > _ESCALATION_DEGREE:
        cause = f"degree above {_ESCALATION_DEGREE}"
    elif not in_range:
        cause = "value outside double range"
    elif not ratio <= _ESCALATION_RATIO:
        cause = f"cancellation ratio {ratio:.2e}"
    else:
        return None
    warnings.warn(f"{label}: {cause} at n={n}; escalating to extended precision",
                  PrecisionLossWarning, stacklevel=stacklevel + 1)
    return bits_for(n, ratio)


def _expansion_eval(label: str, p: Params, n: int, x: float, precision: PrecisionConfig,
                    coeff_logs, weight, coeffs_mp, ladder_mp, order, scale) -> float:
    """sum_j c_j w_{order+j}(x) for either family: a double pass over the
    coefficient logs, or one order ladder in extended precision when that is
    asked for, n > 30, the value leaves double range or the terms cancel."""
    if x <= 0:
        raise DomainError(f"{label} requires x > 0")
    if n < 0:
        raise DomainError("n must be >= 0")
    if precision.extended:
        bits = precision.mantissa_bits
    else:
        terms = ([c * weight(order + j, scale, x) for j, c in enumerate(coeff_logs(p, n))]
                 if n <= _ESCALATION_DEGREE else [])
        top = max((t.log_magnitude for t in terms if t.sign != 0), default=-math.inf)
        if top > _LOG_DOUBLE_MAX:  # a term beyond double range
            total = ratio = math.inf
        else:
            total = logsum(terms)
            ratio = math.inf if total == 0.0 else math.exp(top) / abs(total)
        bits = _escalation(label, n, ratio, total != 0.0 and math.isfinite(total), stacklevel=3)
        if bits is None:
            return total
    with mp.workprec(bits):
        value = mp.fdot(coeffs_mp(p, n), ladder_mp(order, scale, x, n, bits))
    out = float(value)
    if math.isinf(out):
        raise DoubleOverflow(f"{label}: |value| {mpmath.nstr(abs(value), 5)} at n={n}, "
                             f"x={x} is beyond double range")
    return out


def q_eval(p: Params, n: int, x: float, precision: PrecisionConfig = DOUBLE) -> float:
    """Q_n(x) from the basis expansion over shifted first-kind weights."""
    return _expansion_eval("q_eval", p, n, x, precision, _q_coeff_logs, omega,
                           _q_coeffs_mp, specfun.omega_ladder_mp, p.mu, p.a)


def p_eval(p: Params, n: int, x: float, precision: PrecisionConfig = DOUBLE) -> float:
    """P_n(x) from the basis expansion over shifted second-kind weights."""
    return _expansion_eval("p_eval", p, n, x, precision, _p_coeff_logs, rho,
                           _p_coeffs_mp, specfun.rho_ladder_mp, p.nu, p.b)


# ---------------------------------------------------------------------------
# determinant oracles

def _det_full_pivot(rows):
    """Determinant by Gaussian elimination with full pivoting (mpmath)."""
    a = [list(r) for r in rows]
    m = len(a)
    det = mp.mpf(1)
    for k in range(m):
        piv_i, piv_j, piv = k, k, abs(a[k][k])
        for i in range(k, m):
            for j in range(k, m):
                if abs(a[i][j]) > piv:
                    piv_i, piv_j, piv = i, j, abs(a[i][j])
        if piv == 0:
            return mp.mpf(0)
        if piv_i != k:
            a[k], a[piv_i] = a[piv_i], a[k]
            det = -det
        if piv_j != k:
            for row in a:
                row[k], row[piv_j] = row[piv_j], row[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, m):
            f = a[i][k] * inv
            for j in range(k, m):
                a[i][j] -= f * a[k][j]
    return det


def _det_bits(precision: PrecisionConfig, n: int, x: float) -> int:
    cap = 30 if precision.extended else 10
    if n > cap:
        raise CapExceeded(f"determinant oracle capped at n={cap}")
    if x <= 0:
        raise DomainError("x must be > 0")
    return max(precision.mantissa_bits if precision.extended else 0, bits_for(n))


def q_eval_determinant(p: Params, n: int, x: float,
                       precision: PrecisionConfig = DOUBLE) -> float:
    """Q_n(x) from its (n+1)x(n+1) determinant representation.

    Gamma rows are pre-scaled by their leading entry to tame the dynamic
    range; elimination runs in extended precision regardless of mode.
    """
    bits = _det_bits(precision, n, x)
    with mp.workprec(bits):
        mu = mp.mpf(p.mu)
        base = mu + p.nu + 1
        scale = mp.mpf(p.gap) / p.a
        rows = []
        for i in range(n):
            g0 = mpmath.gamma(base + i)
            rows.append([mpmath.gamma(base + i + j) / g0 for j in range(n + 1)])
        weights = specfun.omega_ladder_mp(mu, p.a, x, n, bits)
        rows.append([scale ** j * w for j, w in enumerate(weights)])
        det = _det_full_pivot(rows)
        # row scaling cancels Gamma(base+k) in the stated normalizer,
        # leaving prod k!
        for k in range(n):
            det /= mpmath.factorial(k)
        return float(det)


def p_eval_determinant(p: Params, n: int, x: float,
                       precision: PrecisionConfig = DOUBLE) -> float:
    """P_n(x) from its determinant representation (last column of weights)."""
    bits = _det_bits(precision, n, x)
    cn = normalization_c(p, n).value
    with mp.workprec(bits):
        nu = mp.mpf(p.nu)
        base = nu + p.mu + 1
        scale = mp.mpf(p.gap) / p.b
        weights = specfun.rho_ladder_mp(nu, p.b, x, n, bits)
        rows = []
        for i in range(n + 1):
            g0 = mpmath.gamma(base + i)
            row = [mpmath.gamma(base + i + j) / g0 for j in range(n)]
            row.append(scale ** i * weights[i] / g0)
            rows.append(row)
        det = _det_full_pivot(rows)
        for k in range(n):
            det /= mpmath.factorial(k)
        # row scaling removed Gamma(base+i) for every row incl. the weight
        # column; the normalizer only cancels the first n of them
        det *= mpmath.gamma(base + n)
        return float(det * cn.mpf(bits))


# ---------------------------------------------------------------------------
# double-series route for Q_n

def _q_series_terms(p: Params, n: int, x, one):
    """Yield (outer_factor, inner_sum, inner_abs_sum); arithmetic type set by `one`."""
    a2x = one * p.a * p.a * x
    z = one * p.gap * x
    mu = one * p.mu
    base = mu + p.nu + 1
    k = 0
    outer = one
    while True:
        # inner alternating sum over j at fixed k
        t = one / (_gamma_like(one, mu + k + 1) * _gamma_like(one, base))
        s = t
        s_abs = abs(t)
        for j in range(n):
            t = t * (j - n) * z / ((j + 1) * (mu + j + k + 1) * (base + j))
            s += t
            s_abs += abs(t)
        yield outer, s, s_abs
        outer = outer * a2x / (k + 1)
        k += 1


def _gamma_like(one, v):
    if isinstance(one, float):
        # 1/inf -> 0 cleanly terminates the k-recursion once factorials
        # leave double range
        return math.gamma(v) if v < 170 else math.inf
    return mpmath.gamma(v)


def _q_series_run(p: Params, n: int, x: float, one, rel_tol: float):
    acc = one * 0
    max_term = one * 0
    a2x = p.a * p.a * x
    small_streak = 0
    for k, (outer, s, s_abs) in enumerate(_q_series_terms(p, n, x, one)):
        acc += outer * s
        bound = outer * s_abs
        if bound > max_term:
            max_term = bound
        if k > a2x and bound < rel_tol * max(abs(acc), max_term * 1e-16):
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
    backend; only gamma values enter)."""
    if x <= 0:
        raise DomainError("x must be > 0")
    base = p.mu + p.nu + 1.0
    pref_log = (p.mu * math.log(p.a * x) + log_gamma(base + n).log_magnitude)
    pref_sign = (-1) ** n

    if precision.extended:
        bits = precision.mantissa_bits
    else:
        acc, max_term = _q_series_run(p, n, x, 1.0, 1e-17)
        ratio = math.inf if acc == 0 else max_term / abs(acc)
        bits = _escalation("q_eval_series", n, ratio, math.isfinite(acc), stacklevel=2)
        if bits is None:
            return pref_sign * math.exp(pref_log) * acc
    with mp.workprec(bits):
        acc, _ = _q_series_run(p, n, x, mp.mpf(1), float(10 ** (-mp.dps)))
        return float(pref_sign * mpmath.exp(mp.mpf(pref_log)) * acc)


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

    def reconstruct(self, x: float, precision: PrecisionConfig = DOUBLE) -> float:
        """Rebuild the linear form from the pair and the two base weights."""
        p = self.params
        if self.kind == "A":
            w0 = omega(p.mu, p.a, x, precision).value()
            w1 = omega(p.mu + 1, p.a, x, precision).value()
        else:
            w0 = rho(p.nu, p.b, x, precision).value()
            w1 = rho(p.nu + 1, p.b, x, precision).value()
        return self.eval_first(x) * w0 + self.eval_second(x) * w1


def _horner(coeffs, x):
    out = 0.0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def a_polys(p: Params, n: int) -> PolyPair:
    """Polynomial pair (A_{n,1}, A_{n,2}) multiplying the first-kind weights."""
    if n < 1:
        raise DomainError("a_polys requires n >= 1")
    base = p.mu + p.nu + 1.0
    q = p.gap / (p.a * p.a)
    g_top = log_gamma(base + n)
    sign1 = (-1.0) ** n
    sign2 = (-1.0) ** (n + 1)

    first = []
    for i in range(n // 2 + 1):
        if i == 0:
            s = (g_top / log_gamma(base)).value()
        else:
            terms = []
            for j in range(2 * i, n + 1):
                t = (g_top / log_gamma(base + j)).value()
                t *= math.comb(n, j) * math.comb(j - i - 1, i - 1) * q ** j
                t *= pochhammer(p.mu + i + 1.0, j - 2 * i)
                terms.append(t)
            s = (p.a ** (2 * i)) * math.fsum(terms)
        first.append(sign1 * s)

    second = []
    for i in range((n - 1) // 2 + 1):
        terms = []
        for j in range(2 * i + 1, n + 1):
            t = (g_top / log_gamma(base + j)).value()
            t *= math.comb(n, j) * math.comb(j - i - 1, i) * q ** j
            t *= pochhammer(p.mu + i + 1.0, j - 2 * i - 1)
            terms.append(t)
        # the x^i coefficient inherits a^(2i) from evaluating the shift
        # polynomial at a^2 x
        second.append(sign2 * p.a ** (2 * i + 1) * math.fsum(terms))

    return PolyPair(tuple(first), tuple(second), "A", n, p)


def b_polys(p: Params, n: int) -> PolyPair:
    """Polynomial pair (B_{n,1}, B_{n,2}) multiplying the second-kind weights.

    Both members carry the same global sign, unlike the A pair.
    """
    if n < 1:
        raise DomainError("b_polys requires n >= 1")
    base = p.mu + p.nu + 1.0
    q = -(p.gap / (p.b * p.b))  # (a^2 - b^2)/b^2, negative
    pref = normalization_c(p, n).value * log_gamma(base + n)  # 2 gap^(mu+nu+1)/(a^mu b^nu n!)
    sign = (-1.0) ** n

    first = []
    for i in range(n // 2 + 1):
        if i == 0:
            s = 1.0 / math.exp(log_gamma(base).log_magnitude)
        else:
            terms = []
            for j in range(2 * i, n + 1):
                t = math.comb(n, j) * math.comb(j - i - 1, i - 1) * q ** j
                t *= pochhammer(p.nu + i + 1.0, j - 2 * i)
                t /= math.exp(log_gamma(base + j).log_magnitude)
                terms.append(t)
            s = (p.b ** (2 * i)) * math.fsum(terms)
        first.append(sign * pref.value() * s)

    second = []
    for i in range((n - 1) // 2 + 1):
        terms = []
        for j in range(2 * i + 1, n + 1):
            t = math.comb(n, j) * math.comb(j - i - 1, i) * q ** j
            t *= pochhammer(p.nu + i + 1.0, j - 2 * i - 1)
            t /= math.exp(log_gamma(base + j).log_magnitude)
            terms.append(t)
        second.append(sign * pref.value() * p.b ** (2 * i + 1) * math.fsum(terms))

    return PolyPair(tuple(first), tuple(second), "B", n, p)


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

    # one order ladder per node, columns transposed to tab[j][k]

    @cached_property
    def omega_tab(self) -> list:
        """omega_tab[j][k] = omega_{mu+j,a}(xs[k]) for j <= jmax."""
        p = self.params
        return list(zip(*(specfun.omega_ladder_mp(p.mu, p.a, x, self.jmax, self.bits)
                          for x in self._xs_mp)))

    @cached_property
    def rho_tab(self) -> list:
        """rho_tab[j][k] = rho_{nu+j,b}(xs[k]) for j <= jmax."""
        p = self.params
        return list(zip(*(specfun.rho_ladder_mp(p.nu, p.b, x, self.jmax, self.bits)
                          for x in self._xs_mp)))

    def _values_mp(self, n: int, coeffs_mp, family: str) -> list:
        if n > self.jmax:
            raise CapExceeded("grid built for smaller jmax")
        tab = getattr(self, family)
        with mp.workprec(self.bits):
            coeffs = coeffs_mp(self.params, n)
            return [mpmath.fsum(coeffs[j] * tab[j][k] for j in range(n + 1))
                    for k in range(len(self.xs))]

    def q_values_mp(self, n: int) -> list:
        return self._values_mp(n, _q_coeffs_mp, "omega_tab")

    def p_values_mp(self, n: int) -> list:
        return self._values_mp(n, _p_coeffs_mp, "rho_tab")

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


def sign_change_profile(p: Params, n_max: int, grid_points: int = 3072,
                        bisect_steps: int = 8) -> list:
    """Sign-change counts of Q_0..Q_{n_max} from one shared weight table.

    The scan window of the largest index covers every smaller one, and the
    weight table already holds all intermediate orders, so the whole profile
    costs one grid instead of n_max of them.
    """
    xs = np.geomspace(*sign_change_window(p, n_max), grid_points)
    grid = WeightGrid(p, n_max, xs, bits=bits_for(n_max))
    return [count_sign_changes(p, n, grid_points, bisect_steps,
                               _grid=(xs, grid.q_values(n)))
            for n in range(n_max + 1)]


def count_sign_changes(p: Params, n: int, grid_points: int = 2048,
                       bisect_steps: int = 12, _grid=None) -> int:
    """Number of sign changes of Q_n on (0, inf).

    Scans a log-spaced grid, then bisects every bracketed root to confirm a
    genuine crossing.  A grid value of exactly zero would indicate a
    degenerate touching zero and is reported as an error.
    """
    if _grid is None:
        xs = np.geomspace(*sign_change_window(p, n), grid_points)
        _grid = xs, WeightGrid(p, n, xs, bits=bits_for(n)).q_values(n)
    xs, vals = _grid
    if np.any(vals == 0.0):
        raise BmopError("degenerate zero hit exactly on the scan grid")
    flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    ext = PrecisionConfig(mode="extended", mantissa_bits=bits_for(n))
    count = 0
    for idx in flips:
        lo, hi = xs[idx], xs[idx + 1]
        f_lo = vals[idx]
        for _ in range(bisect_steps):
            mid = math.sqrt(lo * hi)
            f_mid = q_eval(p, n, mid, precision=ext)
            if f_mid == 0.0:
                raise BmopError(f"degenerate zero of Q_{n} at x={mid}")
            if (f_lo > 0) != (f_mid > 0):
                hi = mid
            else:
                lo, f_lo = mid, f_mid
        count += 1
    return count
