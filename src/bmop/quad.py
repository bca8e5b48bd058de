"""Half-line quadrature tuned to exp(-rate*sqrt(x)) decay, the closed-form
cross moment of the two weight families, and biorthogonality matrices.

The substitution x = u^2 turns the sqrt-exponential decay into a plain
exponential and regularizes the integrable x^mu singularity at the origin,
so composite Gauss-Legendre panels in u converge spectrally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import mpmath
import numpy as np
from mpmath import mp
from scipy import special as sp

from .errors import DomainError, NonConvergence
from .precision import LogValue
from .specfun import Params, log_gamma
from . import mopoly


_REL_TOL = 1e-10  # integrate_half_line's panel-refinement agreement


@dataclass(frozen=True)
class QuadConfig:
    abs_tol: float = 1e-14
    panel_order: int = 40
    max_doublings: int = 30

    def __post_init__(self):
        if self.panel_order < 4:
            raise DomainError("panel_order must be >= 4")


@dataclass
class BiorthReport:
    size: int
    matrix: np.ndarray
    max_offdiag_abs: float = field(init=False)
    max_diag_dev: float = field(init=False)

    def __post_init__(self):
        m = self.matrix
        if not np.all(np.isfinite(m)):
            raise NonConvergence("biorthogonality matrix has non-finite entries")
        off = m - np.diag(np.diag(m))
        self.max_offdiag_abs = float(np.max(np.abs(off))) if self.size > 1 else 0.0
        self.max_diag_dev = float(np.max(np.abs(np.diag(m) - 1.0)))


@lru_cache(maxsize=64)
def _gauss_rule(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _graded_edges(u_max, n_panels: int, levels: int):
    """Uniform panel edges with the first panel refined geometrically.

    Integer-order second-kind weights carry x^k log x terms at the origin;
    a geometrically graded mesh restores exponential convergence there at
    the cost of `levels` extra panels.
    """
    first = u_max / n_panels
    edges = [first * 2.0 ** (-k) for k in range(levels, 0, -1)]
    return [u_max * 0.0] + edges + [u_max * k / n_panels for k in range(1, n_panels + 1)]


def gauss_panels(edges, order: int):
    """Composite Gauss-Legendre nodes/weights over the panels between
    consecutive edges, in double precision."""
    nodes, weights = _gauss_rule(order)
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    us = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    ws = (half[:, None] * weights[None, :]).ravel()
    return us, ws


def panel_nodes(u_max: float, n_panels: int, order: int):
    """Gauss-Legendre nodes/weights on [0, u_max], graded toward 0 by 25 levels."""
    return gauss_panels(_graded_edges(float(u_max), n_panels, 25), order)


def _legendre_pd(n: int, x):
    """Legendre P_n(x) and its derivative by the three-term recurrence."""
    p0, p1 = mp.mpf(1), x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, n * (x * p1 - p0) / (x * x - 1)


@lru_cache(maxsize=16)
def _gauss_rule_mp(order: int, bits: int):
    """Gauss-Legendre rule with nodes Newton-refined to the given precision.

    Double-precision nodes are not enough when the integrand's absolute mass
    dwarfs the value of the integral; node jitter at 1e-16 then shows up as
    an irreducible error floor.
    """
    nodes0, _ = _gauss_rule(order)
    nodes, weights = [], []
    with mp.workprec(bits + 40):
        for x0 in nodes0:
            x = mp.mpf(float(x0))
            for _ in range(4):
                pn, dpn = _legendre_pd(order, x)
                x -= pn / dpn
            _, dpn = _legendre_pd(order, x)
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dpn * dpn))
    return tuple(nodes), tuple(weights)


def panel_nodes_mp(u_max: float, n_panels: int, order: int, bits: int):
    """Gauss-Legendre nodes/weights on [0, u_max], graded toward 0 by 30
    levels, as mpf lists."""
    nodes, weights = _gauss_rule_mp(order, bits)
    with mp.workprec(bits + 40):
        edges = [mp.mpf(e) for e in _graded_edges(mp.mpf(u_max), n_panels, 30)]
        us, ws = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid, half = (lo + hi) / 2, (hi - lo) / 2
            for x, w in zip(nodes, weights):
                us.append(mid + half * x)
                ws.append(half * w)
    return us, ws


def integrate_half_line(f, decay_rate: float) -> float:
    """Integral of f over (0, inf) for integrands bounded by
    C x^p exp(-decay_rate sqrt(x)); f is vectorized, one value per node.

    Substitutes x = u^2, integrates 2 u f(u^2) on [0, U] by panel-wise Gauss
    and doubles U until the analytic tail bound drops below abs_tol.  A
    panel-refinement stability check guards the resolved part.
    """
    if decay_rate <= 0:
        raise DomainError("decay_rate must be positive")
    cfg = QuadConfig()
    u_max = max(8.0 / decay_rate, 2.0)
    tail_ok = False
    for _ in range(cfg.max_doublings):
        fx = abs(float(f(u_max * u_max)))
        # |f| beyond U^2 modelled as f(U^2) * exp(-rate (u - U)) in u
        tail = 2.0 * fx * (u_max / decay_rate + 1.0 / decay_rate ** 2)
        if tail < cfg.abs_tol:
            tail_ok = True
            break
        u_max *= 2.0
    if not tail_ok:
        raise NonConvergence("tail bound not reached within max_doublings")

    n_panels = max(8, int(math.ceil(u_max)))
    prev = None
    for _ in range(cfg.max_doublings):
        us, ws = panel_nodes(u_max, n_panels, cfg.panel_order)
        vals = np.asarray(f(us * us), dtype=float)
        if vals.shape != us.shape:
            raise DomainError(f"integrand gave shape {vals.shape} for {us.size} nodes")
        result = float(np.dot(ws, 2.0 * us * vals))
        if prev is not None and abs(result - prev) <= _REL_TOL * max(abs(result),
                                                                     cfg.abs_tol / _REL_TOL):
            return result
        prev = result
        n_panels *= 2
    raise NonConvergence("panel refinement did not stabilize within max_doublings")


def moment_closed(p: Params, i: int, j: int) -> LogValue:
    """Closed form of the cross moment of the two weight families:
    a^(mu+i) b^(nu+j) Gamma(mu+nu+1+i+j) / (2 (b^2-a^2)^(mu+nu+1+i+j))."""
    if i < 0 or j < 0:
        raise DomainError("moment orders must be >= 0")
    s = p.mu + p.nu + 1.0 + i + j
    lg = ((p.mu + i) * math.log(p.a) + (p.nu + j) * math.log(p.b)
          + log_gamma(s).log_magnitude - math.log(2.0) - s * math.log(p.gap))
    return LogValue(lg, 1)


def moment_quad(p: Params, i: int, j: int) -> float:
    """Cross moment of the shifted weights by direct quadrature.

    The integrand is positive with no cancellation, so plain double
    precision through the scaled scipy Bessel routines is enough.
    """
    if i < 0 or j < 0:
        raise DomainError("moment orders must be >= 0")

    def f(x):
        x = np.asarray(x, dtype=float)
        zi = 2.0 * p.a * np.sqrt(x)
        zk = 2.0 * p.b * np.sqrt(x)
        return (sp.ive(p.mu + i, zi) * sp.kve(p.nu + j, zk)
                * np.exp(zi - zk) * x ** (0.5 * (p.mu + p.nu + i + j)))

    return integrate_half_line(f, 2.0 * (p.b - p.a))


def _moment_mp(p: Params, i: int, j: int):
    s = mp.mpf(p.mu) + p.nu + 1 + i + j
    gap = mp.mpf(p.b) ** 2 - mp.mpf(p.a) ** 2
    return (mp.mpf(p.a) ** (p.mu + i) * mp.mpf(p.b) ** (p.nu + j)
            * mpmath.gamma(s) / (2 * gap ** s))


def biorth_matrix_moments(p: Params, N: int) -> BiorthReport:
    """Quadrature-free biorthogonality matrix via the closed-form moments,
    evaluated at 199 bits (finite gamma sums, no truncation)."""
    with mp.workprec(199):
        moments = [[_moment_mp(p, i, j) for j in range(N)] for i in range(N)]
        qc = [mopoly._coeffs_mp(mopoly._q_family(p), n) for n in range(N)]
        pc = [mopoly._coeffs_mp(mopoly._p_family(p), m) for m in range(N)]
        out = np.empty((N, N))
        for n in range(N):
            for m in range(N):
                acc = mpmath.fsum(qc[n][i] * pc[m][j] * moments[i][j]
                                  for i in range(n + 1) for j in range(m + 1))
                out[n, m] = float(acc)
    return BiorthReport(N, out)


def _log_product_tail(p: Params, n: int, u: float) -> float:
    """log of a crude bound on |Q_n * P_n| tail mass beyond x = u^2."""
    # Q_n grows like x^((2(mu+n)-1)/4) e^{2a sqrt x} times its leading
    # coefficient; P_n decays like e^{-2b sqrt x}
    lead_q = n * math.log(p.gap / p.a) if n else 0.0
    lead_p = mopoly.normalization_c(p, n).value.log_magnitude + \
        log_gamma(p.mu + p.nu + 1.0).log_magnitude
    x = u * u
    log_env = (lead_q + lead_p + 0.5 * (p.mu + p.nu + 2 * n) * math.log(max(x, 1.0))
               - 2.0 * (p.b - p.a) * u)
    rate = 2.0 * (p.b - p.a)
    return log_env + math.log(2.0 * (u / rate + 1.0 / rate ** 2))


class ProductRule:
    """Graded Gauss rule for the weighted inner products
    integral of x^k Q_n(x) P_m(x) over (0, inf) with n, m <= jmax.

    The rule covers the oscillation window of Q_jmax and extends by 1.5x
    until the tail bound of Q_jmax P_jmax drops below cfg.abs_tol; all
    such products share the decay rate 2(b-a) in sqrt(x), so one node set
    serves every pair.  The nodes are mpf (x = u^2 with Gauss-Legendre in u).
    The weight tables at the nodes, and each Q_n and P_m formed from them,
    are built on first use and kept while the rule lives.
    """

    def __init__(self, p: Params, jmax: int, bits: int = 200,
                 cfg: QuadConfig = QuadConfig()):
        rate = 2.0 * (p.b - p.a)
        _, x_hi = mopoly.sign_change_window(p, jmax)
        u_max = max(8.0 / rate, 2.0) * (1.0 + (p.mu + p.nu + (jmax + 1)) / 4.0)
        u_max = max(u_max, math.sqrt(x_hi))
        for _ in range(cfg.max_doublings):
            if _log_product_tail(p, jmax, u_max) < math.log(cfg.abs_tol) - 5.0:
                break
            u_max *= 1.5
        else:
            raise NonConvergence("product tail bound not reached within max_doublings")
        self.params = p
        self.bits = bits
        us, ws = panel_nodes_mp(u_max, max(16, int(math.ceil(u_max))), cfg.panel_order, bits)
        with mp.workprec(bits):
            self.xs = [u * u for u in us]
            # weights w 2u x^power, by power
            self._weights = {0: [w * 2 * u for w, u in zip(ws, us)]}
        self._grid = mopoly.WeightGrid(p, jmax, self.xs, bits=bits)
        self._q, self._p = {}, {}

    def integral(self, n: int, m: int, power: int = 0):
        """integral of x^power Q_n P_m: the sum of Q_n P_m w 2u x^power over
        the nodes, as an mpf at `bits`.

        The integrands' absolute mass can exceed 1e10 where the integral
        vanishes, so the products and the sum stay in multiprecision.
        """
        if n not in self._q:
            self._q[n] = self._grid.q_values_mp(n)
        if m not in self._p:
            self._p[m] = self._grid.p_values_mp(m)
        with mp.workprec(self.bits):
            if power not in self._weights:
                self._weights[power] = [w * x ** power
                                        for w, x in zip(self._weights[0], self.xs)]
            ws = self._weights[power]
            return mpmath.fsum(f * g * w for f, g, w in zip(self._q[n], self._p[m], ws))


def biorth_matrix(p: Params, N: int, cfg: QuadConfig = QuadConfig(),
                  bits: int = 200) -> BiorthReport:
    """Biorthogonality matrix by direct quadrature of Q_n * P_m.

    The weight tables at the nodes are built in extended precision because
    the basis expansions cancel catastrophically for larger n.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    rule = ProductRule(p, N - 1, bits, cfg)
    out = np.array([[float(rule.integral(n, m)) for m in range(N)] for n in range(N)])
    return BiorthReport(N, out)


def q_rho_moment(p: Params, n: int, j: int) -> tuple[float, float]:
    """Integral of Q_n against the (nu+j)-shifted second-kind weight via the
    closed-form moments (vanishes for j < n), and the largest |term| of that
    sum, for relative-vanishing checks."""
    with mp.workprec(200):
        qc = mopoly._coeffs_mp(mopoly._q_family(p), n)
        terms = [qc[i] * _moment_mp(p, i, j) for i in range(n + 1)]
        return float(mpmath.fsum(terms)), float(max(abs(t) for t in terms))
