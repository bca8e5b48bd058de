"""Output checks used by every workload.

Each check takes library output and raises CheckFailed when the output is
wrong.  Checks compare independent routes or test properties the method
must have; none compares against a stored copy of earlier output.  The
tolerances are the ones pinned by the acceptance tests wherever the same
quantity is checked there.
"""

from __future__ import annotations

import math

# tolerances pinned in tests/test_acceptance.py and bmop.verify
TOL_Q_ROUTES = 1e-9          # criterion 3, Q routes relative to max |Q|
TOL_P_ROUTES = 1e-8          # criterion 3, P routes relative to max |P|
TOL_RESIDUAL = 1e-9          # criterion 4, recurrence residuals
TOL_INTEGRAL_IDENTITY = 1e-6  # criterion 4, a_{i,n} = int x Q_n P_{n+i}
TOL_LOMMEL = 1e-9            # suite_lommel shift reconstruction
TOL_WRONSKIAN = 1e-12        # suite_bessel Wronskian identity
TOL_P_AT_ZERO = 1e-6         # suite_limits p_at_zero
TOL_LIMIT_FINAL = 1e-2       # suite_limits small-a, large-a, large-b finals
TOL_MEHLER_HEINE = 2e-2      # suite_limits Mehler-Heine final
TOL_BIORTH_QUAD = 1e-8       # criterion 1, quadrature route
TOL_BIORTH_MOMENTS = 1e-10   # criterion 1, moment route
TOL_MOMENT_QUAD = 1e-10      # criterion 2, moment oracle
TOL_TRACE = 1e-8             # criterion 9, trace of K_m = m
TOL_PROJECTION = 1e-6        # criterion 9, reproducing identity
TOL_FIRST_MOMENT = 1e-6      # criterion 9, first moment vs recurrence sum

# not pinned elsewhere: the diagonal kernel curve against kernel_eval is a
# P-side agreement, so it takes the P-route tolerance, and the same margin
# below zero counts as rounding rather than a negative density
TOL_CURVE = TOL_P_ROUTES

# Monte Carlo thresholds: two-sided z beyond 6 has probability 2e-9 and a
# chi-square p-value below 1e-9 has probability 1e-9 under a correct model,
# so ten thousand runs of a few tests each stay clear of false alarms
MC_Z_MAX = 6.0
MC_P_MIN = 1e-9


class CheckFailed(Exception):
    """Library output failed a correctness check."""


def _fail(what: str, err: float, tol: float) -> None:
    raise CheckFailed(f"{what}: error {err:.3e} exceeds {tol:.1e}")


def rel(x: float, ref: float) -> float:
    return abs(x - ref) / max(abs(ref), 1e-300)


def finite_max(what: str, values) -> float:
    """max() that fails on a nan or an infinity anywhere in values; the
    builtin keeps an earlier element whenever a later one is nan."""
    values = list(values)
    for v in values:
        if not math.isfinite(v):
            raise CheckFailed(f"{what}: non-finite value {v}")
    return max(values)


def routes_agree(what: str, rows, tol: float) -> float:
    """rows holds one tuple of route values per point; every pair of routes
    must agree to tol relative to the largest |value| over the point set."""
    scale = finite_max(what, (abs(v) for row in rows for v in row))
    if not scale > 0:
        raise CheckFailed(f"{what}: degenerate scale {scale}")
    err = max(abs(r[i] - r[j]) / scale
              for r in rows for i in range(len(r)) for j in range(i + 1, len(r)))
    if not err <= tol:
        _fail(what, err, tol)
    return err


def at_most(what: str, errors, tol: float) -> float:
    err = finite_max(what, errors)
    if not err <= tol:
        _fail(what, err, tol)
    return err


def relative_agree(what: str, pairs, tol: float) -> float:
    """Each (value, reference) pair agrees to tol relative to the reference."""
    return at_most(what, [rel(v, r) for v, r in pairs], tol)


def wronskian(what: str, rows) -> float:
    """rows of (z, I_v, K_{v+1}, I_{v+1}, K_v): I_v K_{v+1} + I_{v+1} K_v = 1/z."""
    return at_most(what, [rel(iv * k1 + i1 * kv, 1.0 / z) for z, iv, k1, i1, kv in rows],
                   TOL_WRONSKIAN)


def limit_sequence(what: str, errs, final_tol: float) -> float:
    """Errors of a limit sequence must strictly decrease and end within
    final_tol (the monotone-excess test of suite_limits)."""
    finite_max(what, errs)
    excess = max([0.0] + [errs[i + 1] - errs[i] for i in range(len(errs) - 1)])
    if excess > 0.0:
        raise CheckFailed(f"{what}: errors {errs} do not decrease")
    if not errs[-1] <= final_tol:
        _fail(what, errs[-1], final_tol)
    return errs[-1]


def limit_errors(values_by_step, limits, scale: float) -> list:
    """Per-step sup error over the point set, relative to scale."""
    return [finite_max("limit error", (abs(v - l) for v, l in zip(vals, limits))) / scale
            for vals in values_by_step]


def identity_matrix(what: str, matrix, tol: float) -> float:
    n = len(matrix)
    err = finite_max(what, (abs(float(matrix[i][j]) - (1.0 if i == j else 0.0))
                            for i in range(n) for j in range(n)))
    if not err <= tol:
        _fail(what, err, tol)
    return err


def traces(what: str, partials) -> float:
    """Trace of K_m equals m for m = 1..n."""
    return at_most(what, [abs(t - (m + 1)) for m, t in enumerate(partials)], TOL_TRACE)


def sign_profile(what: str, profile) -> None:
    """Q_n has exactly n sign changes on (0, inf)."""
    if list(profile) != list(range(len(profile))):
        raise CheckFailed(f"{what}: sign-change profile {list(profile)}")


def curve(what: str, curve_vals, kernel_vals) -> float:
    """Diagonal kernel curve agrees with kernel_eval at the sampled points
    and is non-negative, both relative to the largest curve value."""
    scale = finite_max(what, (abs(v) for v in curve_vals))
    if not scale > 0:
        raise CheckFailed(f"{what}: degenerate curve scale {scale}")
    low = -min(curve_vals) / scale
    if low > TOL_CURVE:
        _fail(what + " non-negative", low, TOL_CURVE)
    err = finite_max(what, (abs(c - k) / scale for c, k in kernel_vals))
    if not err <= TOL_CURVE:
        _fail(what, err, TOL_CURVE)
    return err


def mc_mean(what: str, sums, predicted: float) -> float:
    """Mean of the per-sample eigenvalue sums against the closed-form trace
    identity, as a z-score."""
    n = len(sums)
    mean = math.fsum(sums) / n
    var = math.fsum((s - mean) ** 2 for s in sums) / (n - 1)
    z = (mean - predicted) / math.sqrt(var / n)
    if not abs(z) <= MC_Z_MAX:
        _fail(what + " z-score", abs(z), MC_Z_MAX)
    return z


def mc_density(what: str, p_value: float) -> float:
    if not p_value >= MC_P_MIN:
        raise CheckFailed(f"{what}: chi-square p-value {p_value:.3e} below {MC_P_MIN:.0e}")
    return p_value
