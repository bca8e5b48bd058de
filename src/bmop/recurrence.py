"""Five-term recurrence relations for the linear forms Q_n and their duals
P_n: closed-form coefficients, forward recursion, and residual diagnostics.

Neither family consists of polynomials, but both satisfy banded recurrences
in the degree index with fully explicit coefficients.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import DomainError, PrecisionLossWarning
from .precision import DOUBLE, PrecisionConfig
from .mopoly import q_eval, p_eval
from .specfun import Params


@dataclass(frozen=True)
class RecurrenceCoeffs:
    """Coefficients of x f_n = a2 f_{n+2} + a1 f_{n+1} + a0 f_n
    + am1 f_{n-1} + am2 f_{n-2}."""

    n: int
    a2: float
    a1: float
    a0: float
    am1: float
    am2: float

    def at(self, i: int) -> float:
        """The coefficient of f_{n+i}, for i = -2..2."""
        if not -2 <= i <= 2:
            raise DomainError(f"the recurrence has no shift {i}")
        return (self.am2, self.am1, self.a0, self.a1, self.a2)[i + 2]


def q_recurrence_coeffs(p: Params, n: int) -> RecurrenceCoeffs:
    """Closed-form coefficients of the Q recurrence at index n.

    The down-shift coefficient carries the factor 2(mu+nu+2n); the
    functional residual pins this at machine precision whereas the
    n-independent variant fails immediately.
    """
    if n < 0:
        raise DomainError("recurrence index must be >= 0")
    g = p.gap
    ga = (p.a / g) ** 2
    gb = (p.b / g) ** 2
    mu, nu = p.mu, p.nu
    s = mu + nu
    a2 = ga
    a1 = 2.0 * (s + 2 * n + 2) * ga + (mu + n + 1) / g
    a0 = ((6.0 * n * n + 6.0 * (s + 1) * n + (s + 1) * (s + 2)) * ga
          + (3.0 * n * n + (4 * mu + 2 * nu + 3) * n + (mu + 1) * (s + 1)) / g)
    am1 = n * (s + n) * (2.0 * (s + 2 * n) * gb - (nu + n) / g)
    am2 = (n - 1.0) * n * (s + n - 1) * (s + n) * gb
    return RecurrenceCoeffs(n, a2, a1, a0, am1, am2)


def p_recurrence_coeffs(p: Params, n: int) -> RecurrenceCoeffs:
    """Dual coefficients b_{i,n} = a_{-i,n+i}; negative shifted indices give
    zero through the initial conditions."""
    if n < 0:
        raise DomainError("recurrence index must be >= 0")

    def a(i: int, m: int) -> float:
        return q_recurrence_coeffs(p, m).at(i) if m >= 0 else 0.0

    return RecurrenceCoeffs(
        n,
        a2=a(-2, n + 2),
        a1=a(-1, n + 1),
        a0=a(0, n),
        am1=a(1, n - 1),
        am2=a(2, n - 2),
    )


_GROWTH_LIMIT = 1e10


def _forward(evaluate, coeffs, name: str, p: Params, n_max: int, x: float,
             precision: PrecisionConfig) -> list:
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    if x <= 0:
        raise DomainError(f"{name} requires x > 0")
    vals = [evaluate(p, 0, x, precision)]
    if n_max >= 1:
        vals.append(evaluate(p, 1, x, precision))
    growth = 1.0
    warned = False
    for n in range(n_max - 1):
        c = coeffs(p, n)
        rhs_terms = [x * vals[n]] + [-c.at(i) * vals[n + i] for i in range(1, -3, -1)
                                     if n + i >= 0]
        nxt = math.fsum(rhs_terms) / c.at(2)
        scale = max(abs(t) for t in rhs_terms)
        if abs(nxt) > 0:
            growth *= max(1.0, scale * (1.0 / c.at(2)) / abs(nxt))
        if growth > _GROWTH_LIMIT and not warned:
            warnings.warn(f"forward recurrence growth factor {growth:.2e} at n={n + 2}",
                          PrecisionLossWarning)
            warned = True
        vals.append(nxt)
    return vals[:n_max + 1]


def q_forward(p: Params, n_max: int, x: float,
              precision: PrecisionConfig = DOUBLE) -> list:
    """Q_0(x)..Q_{n_max}(x) by forward recursion.

    Fast but of unproven stability; a running growth factor is tracked and
    a PrecisionLossWarning is issued once it crosses 1e10, at which point
    roughly ten digits may be gone.
    """
    return _forward(q_eval, q_recurrence_coeffs, "q_forward", p, n_max, x, precision)


def p_forward(p: Params, n_max: int, x: float,
              precision: PrecisionConfig = DOUBLE) -> list:
    """P_0(x)..P_{n_max}(x) by forward recursion with the dual coefficients."""
    return _forward(p_eval, p_recurrence_coeffs, "p_forward", p, n_max, x, precision)


def _residual(evaluate, coeffs, p: Params, n: int, x: float,
              precision: PrecisionConfig) -> float:
    c = coeffs(p, n)
    vals = {k: (evaluate(p, k, x, precision) if k >= 0 else 0.0)
            for k in range(n - 2, n + 3)}
    terms = [c.at(i) * vals[n + i] for i in range(2, -3, -1)]
    lhs = x * vals[n]
    scale = max(abs(lhs), max(abs(t) for t in terms))
    return abs(lhs - math.fsum(terms)) / scale


def q_residual(p: Params, n: int, x: float,
               precision: PrecisionConfig = DOUBLE) -> float:
    """|x Q_n - sum of recurrence terms| relative to the largest term,
    everything by direct evaluation."""
    return _residual(q_eval, q_recurrence_coeffs, p, n, x, precision)


def p_residual(p: Params, n: int, x: float,
               precision: PrecisionConfig = DOUBLE) -> float:
    """Dual residual with the b coefficients."""
    return _residual(p_eval, p_recurrence_coeffs, p, n, x, precision)
