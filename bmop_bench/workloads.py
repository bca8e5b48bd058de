"""The four workloads: per-round input draws and the fixed operation list.

Every round draws fresh inputs from the run's random stream, one parameter
set per Bessel order class, and builds the same list of operations.  Each
operation is a generator that yields after each step of library calls and
checks the outputs at its end; it raises checks.CheckFailed on wrong output
and lets library errors propagate.  The runner steps the int, half and
generic instances of one operation in turn, so a class's time is spread
over the whole operation and machine drift hits every class alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import mpmath
from mpmath import mp

from bmop import asymptotics as asy
from bmop import lommel, mellin, mopoly, quad, recurrence, rmt
from bmop.precision import DOUBLE, PrecisionConfig
from bmop.specfun import Params, bessel_i, bessel_k, omega, rho

import checks as ck

CLASSES = ("int", "half", "generic")


def ext(bits: int) -> PrecisionConfig:
    return PrecisionConfig(mode="extended", mantissa_bits=bits)


EXT300 = ext(300)


@dataclass
class Op:
    cls: str
    name: str
    fn: Callable[[], Iterator[None]]


# ---------------------------------------------------------------------------
# input draws

def _generic_order(rng, base: float) -> float:
    """base + [0.2, 0.4] or base + [0.6, 0.8]: at least 0.1 from every
    multiple of 1/2, since mpmath's K for orders near an integer costs up to
    twice as much and would make the round cost uneven."""
    return base + rng.choice((0.2, 0.6)) + rng.uniform(0.0, 0.2)


def class_orders(rng, cls: str) -> tuple:
    if cls == "int":
        return 0.0, 1.0
    if cls == "half":
        return 0.5, 1.5
    return _generic_order(rng, 0.0), _generic_order(rng, 1.0)


def draw_params(rng, cls: str) -> Params:
    """(mu, nu) of the class with a in [0.88, 0.92] and b within 2% of 2a,
    between the presets S0 and S1; the band is narrow because the cost of
    integer-order K grows with its argument 2 b sqrt(x)."""
    mu, nu = class_orders(rng, cls)
    a = rng.uniform(0.88, 0.92)
    return Params(mu, nu, a, a * rng.uniform(1.96, 2.04))


def strata(rng, lo: float, hi: float, k: int) -> list:
    """k log-uniform points, one in each of k equal log-strata of [lo, hi],
    so every round covers the range alike and its cost stays level."""
    step = math.log(hi / lo) / k
    return [lo * math.exp(step * (i + rng.random())) for i in range(k)]


def jitter(rng, centers, rel: float) -> list:
    """Each center moved by a factor drawn from [1 - rel, 1 + rel].

    mpmath's integer-order K changes algorithm at fixed arguments (at 300
    bits near z = 11, 31 and 122, with costs of 40 ms, 150 ms, 600 ms and
    1 ms), so points where that K is evaluated stay in bands that keep
    every z = 2 b sqrt(x) on one side of those edges and round costs level.
    """
    return [c * rng.uniform(1.0 - rel, 1.0 + rel) for c in centers]


def interleave(per_class: dict) -> list:
    """per_class maps class -> list of Op of equal length, None where a class
    leaves an operation out; returns one list per operation of its Ops, one
    per class, which the runner steps in turn."""
    lists = [per_class[c] for c in CLASSES]
    return [[op for op in group if op is not None] for group in zip(*lists)]


# fixed Mellin-Barnes inputs: the contour's conjugate-symmetry diagnostic is
# relative to |P_n|, so drawn points trip it now and then; these pass
_MELLIN_PARAMS = {
    "int": Params(0.0, 1.0, 0.8, 1.6),      # preset S1
    "half": Params(0.5, 1.5, 1.0, 2.0),     # preset S0
    "generic": Params(0.3, 1.3, 0.9, 1.7),
}
_MELLIN_POINTS = ((3, 0.5), (3, 2.0), (8, 0.5), (8, 5.0))
# p_mellin_eval raises SymmetryViolation here on every call: the imaginary
# residual 5.2e-18 is tested against |P_10| = 5.2e-10 only
MELLIN_FAULT = (_MELLIN_PARAMS["half"], 10, 7.960262559627996)


# ---------------------------------------------------------------------------
# pointwise: n <= 12 routes at ~300 bits, no quadrature

_PW_DEGREES = (4, 10)
# Q needs only I, which costs alike in every class, so Q takes more points
# and degrees: the half and generic classes then time more than a few
# hundredths of a second per round
_PW_Q_DEGREES = (4, 7, 10)


def _pointwise_ops(rng, cls: str) -> list:
    p = draw_params(rng, cls)
    xs = jitter(rng, (0.15, 0.6, 2.4), 0.1)
    q_xs = jitter(rng, (0.12, 0.2, 0.35, 0.6, 1.0, 1.6, 2.4), 0.05)
    res_xs = jitter(rng, (0.3, 2.0), 0.1)
    shift_xs = jitter(rng, (0.3, 2.0), 0.1)
    zs = jitter(rng, (0.3, 3.0, 20.0), 0.1)
    zero_x = 1e-10 * rng.uniform(0.5, 2.0)
    tag = f"{cls} {p}"

    def q_routes():
        for n in _PW_Q_DEGREES:
            rows = []
            for x in q_xs:
                rows.append((mopoly.q_eval(p, n, x), mopoly.q_eval(p, n, x, EXT300),
                             mopoly.q_eval_determinant(p, n, x), mopoly.q_eval_series(p, n, x)))
                yield
            ck.routes_agree(f"Q_{n} routes {tag}", rows, ck.TOL_Q_ROUTES)

    def p_routes():
        for n in _PW_DEGREES:
            rows = []
            for x in xs:
                rows.append((mopoly.p_eval(p, n, x), mopoly.p_eval(p, n, x, EXT300),
                             mopoly.p_eval_determinant(p, n, x)))
                yield
            ck.routes_agree(f"P_{n} routes {tag}", rows, ck.TOL_P_ROUTES)

    def p_mellin():
        pm = _MELLIN_PARAMS[cls]
        for n in (3, 8):
            rows = []
            for m, x in _MELLIN_POINTS:
                if m == n:
                    rows.append((mellin.p_mellin_eval(pm, n, x), mopoly.p_eval(pm, n, x)))
                    yield
            ck.routes_agree(f"P_{n} Mellin-Barnes {cls} {pm}", rows, ck.TOL_P_ROUTES)

    def residuals():
        n = 4
        errs = []
        for x in res_xs:
            for f in (recurrence.q_residual, recurrence.p_residual):
                errs.append(f(p, n, x, EXT300))
                yield
        ck.at_most(f"recurrence residual n={n} {tag}", errs, ck.TOL_RESIDUAL)

    def shifts():
        pairs = []
        for x in shift_xs:
            for m in (2, 5, 8):
                # the first-kind shift is left out for generic mu: its
                # coefficients are rounded to double before the escalated
                # pass, which then misses 1e-9 near 0 (see CHANGES.md)
                if cls != "generic":
                    pairs.append((lommel.omega_shift_eval(p, m, x),
                                  omega(p.mu + m, p.a, x, EXT300).value()))
                pairs.append((lommel.rho_shift_eval(p, m, x),
                              rho(p.nu + m, p.b, x, EXT300).value()))
                yield
        ck.relative_agree(f"Lommel shift {tag}", pairs, ck.TOL_LOMMEL)

    def wronskian():
        v = p.nu
        rows = []
        for z in zs:
            for prec in (DOUBLE, EXT300):
                rows.append((z,) + tuple(f(o, z, prec).value()
                                         for f, o in ((bessel_i, v), (bessel_k, v + 1),
                                                      (bessel_i, v + 1), (bessel_k, v))))
                yield
        ck.wronskian(f"Wronskian order {v:.6g}", rows)

    def near_zero():
        pairs = []
        for n in (2, 6):
            pairs.append((mopoly.p_eval(p, n, zero_x, EXT300), asy.p_at_zero(p, n)))
            yield
        ck.relative_agree(f"P_n({zero_x:.3g}) vs p_at_zero {tag}", pairs, ck.TOL_P_AT_ZERO)

    ops = [Op(cls, f.__name__, f) for f in
           (q_routes, p_routes, p_mellin, residuals, shifts, wronskian, near_zero)]
    return ops + [Op(cls, "p_mellin_fault", _mellin_fault) if cls == "half" else None]


def _mellin_fault():
    p, n, x = MELLIN_FAULT
    got = mellin.p_mellin_eval(p, n, x)
    yield
    ck.routes_agree(f"P_{n}({x}) Mellin-Barnes {p}", [(got, mopoly.p_eval(p, n, x))],
                    ck.TOL_P_ROUTES)


def pointwise_round(rng) -> list:
    return interleave({c: _pointwise_ops(rng, c) for c in CLASSES})


# ---------------------------------------------------------------------------
# high_degree: degree 20-80 at 400-1100 bits

_MH_GRID = (0.1, 0.5, 1.0, 2.0, 5.0)
_MH_DEGREES = (20, 40, 80)
# the acceptance grids; as there, each limit error is measured against the
# sup of the limit curve on its grid, since the limits are uniform statements
_SMALL_A_GRID = _LARGE_A_GRID = (0.5, 1.0, 2.0)
_LARGE_B_GRID = (0.5, 1.0, 1.5)
_HD_BITS = 400


def _sup(f, grid) -> float:
    return ck.finite_max("limit scale", (abs(f(x)) for x in grid))


def _high_degree_ops(rng, cls: str) -> list:
    p = draw_params(rng, cls)
    mh_x = rng.uniform(0.9, 1.1)
    k_small = rng.uniform(0.98, 1.02)
    c_large = rng.uniform(0.98, 1.02)
    small_xs = jitter(rng, (0.6, 1.0, 1.7), 0.05)
    # the scaled large-parameter forms multiply e^(-2ax) by Q_n(x^2) ~ e^(2ax)
    # in double, so x stays below 709 / (2 * 200)
    large_xs = jitter(rng, (0.55, 0.9, 1.4), 0.04)
    x25 = rng.uniform(0.8, 1.25)
    x34 = rng.uniform(0.8, 1.25)
    # Q only needs I, cheap in every class, so it takes two more points
    q25_xs = [x25] + jitter(rng, (0.4, 2.5), 0.1)
    q34_xs = [x34] + jitter(rng, (0.4, 2.5), 0.1)
    tag = f"{cls} {p}"
    mu, nu = p.mu, p.nu

    def mehler_heine():
        scale = _sup(lambda x: asy.mehler_heine_limit(p, x), _MH_GRID)
        lim = asy.mehler_heine_limit(p, mh_x)
        vals = []
        for n in _MH_DEGREES:
            vals.append([asy.mehler_heine_scaled_p(p, n, mh_x)])
            yield
        ck.limit_sequence(f"Mehler-Heine {tag} x={mh_x}",
                          ck.limit_errors(vals, [lim], scale), ck.TOL_MEHLER_HEINE)

    def limits():
        def small(x):
            return asy.q_limit_small_a(k_small, mu, nu, 3, x)
        vals = []
        for a in (1e-2, 1e-3, 1e-4):
            vals.append([mopoly.q_eval(Params(mu, nu, a, k_small * math.sqrt(a)), 3, x / a,
                                       EXT300) for x in small_xs])
            yield
        ck.limit_sequence(f"small-a limit {cls} k={k_small}",
                          ck.limit_errors(vals, [small(x) for x in small_xs],
                                          _sup(small, _SMALL_A_GRID)), ck.TOL_LIMIT_FINAL)

        def large_a(x):
            return asy.q_limit_large_a(c_large, mu, nu, 2, x)
        vals = []
        for a in (50.0, 100.0, 200.0):
            vals.append([2.0 * math.sqrt(math.pi * a) * math.exp(-2.0 * a * x)
                         * mopoly.q_eval(Params(mu, nu, a, a + c_large), 2, x * x, EXT300)
                         for x in large_xs])
            yield
        ck.limit_sequence(f"large-a limit {cls} c={c_large}",
                          ck.limit_errors(vals, [large_a(x) for x in large_xs],
                                          _sup(large_a, _LARGE_A_GRID)), ck.TOL_LIMIT_FINAL)

        # n = 1 only: at n = 3 the final error reaches the pinned 1e-2 on
        # some drawn points (see CHANGES.md)
        errs = []
        for b in (50.0, 100.0, 200.0):
            pb = Params(mu, nu, b - c_large, b)

            def large_b(x):
                return asy.p_limit_large_b(c_large, pb, 1, x)
            vals = [math.sqrt(4.0 * b / math.pi) * math.exp(2.0 * b * x)
                    * mopoly.p_eval(pb, 1, x * x, EXT300) for x in large_xs]
            errs += ck.limit_errors([vals], [large_b(x) for x in large_xs],
                                    _sup(large_b, _LARGE_B_GRID))
            yield
        ck.limit_sequence(f"large-b limit n=1 {cls} c={c_large}", errs, ck.TOL_LIMIT_FINAL)

    def expansions_n25():
        n, prec = 25, ext(_HD_BITS)
        rows = []
        for x in q25_xs:
            rows.append((mopoly.q_eval(p, n, x, prec), mopoly.q_eval_determinant(p, n, x, prec),
                         mopoly.q_eval_series(p, n, x, prec)))
            yield
        ck.routes_agree(f"Q_{n} extended routes {tag}", rows, ck.TOL_Q_ROUTES)
        row = (mopoly.p_eval(p, n, x25, prec), mopoly.p_eval_determinant(p, n, x25, prec))
        yield
        ck.routes_agree(f"P_{n} extended routes {tag}", [row], ck.TOL_P_ROUTES)

    def escalations():
        n = 34
        rows = []
        for x in q34_xs:
            rows.append((mopoly.q_eval(p, n, x), mopoly.q_eval_series(p, n, x)))
            yield
        ck.routes_agree(f"Q_{n} escalated routes {tag}", rows, ck.TOL_Q_ROUTES)
        row = (mopoly.p_eval(p, n, x34), mopoly.p_eval(p, n, x34, ext(_HD_BITS)))
        yield
        ck.routes_agree(f"P_{n} escalated vs {_HD_BITS} bits {tag}", [row], ck.TOL_P_ROUTES)

    # Mehler-Heine is left out for generic orders: with nu + j formed in
    # double, P_n at n = 80 comes out wrong (see CHANGES.md), and n = 40
    # alone does not reach the pinned 2e-2
    return ([Op(cls, "mehler_heine", mehler_heine) if cls != "generic" else None]
            + [Op(cls, f.__name__, f) for f in (limits, expansions_n25, escalations)])


def high_degree_round(rng) -> list:
    return interleave({c: _high_degree_ops(rng, c) for c in CLASSES})


# ---------------------------------------------------------------------------
# quadrature: one verification session per class

_QCFG = quad.QuadConfig(panel_order=14, abs_tol=1e-11)
_QBITS = 96
_QN = 3             # biorthogonality size and kernel size
_SIGN_N = 4
_SIGN_POINTS = 256


def _session_nodes(p: Params, jmax: int):
    """Graded product-rule nodes for integrands up to Q_jmax P_jmax: the
    oscillation window of the largest index, then 40/(b-a) in u, where the
    e^(-2(b-a)u) decay of every such product is far below 1e-20."""
    _, x_hi = mopoly.sign_change_window(p, jmax)
    u_max = max(math.sqrt(x_hi), 40.0 / (p.b - p.a))
    return quad.panel_nodes_mp(u_max, max(16, math.ceil(u_max)), _QCFG.panel_order, _QBITS)


def projection_and_integral_identity(spec: rmt.KernelSpec, pts) -> tuple:
    """The reproducing identity int K(x,t) K(t,y) dt = K(x,y) at the points
    and the recurrence identity a_{i,n} = int x Q_n P_{n+i} dx for n < size,
    from one weight table, as one verification session computes them."""
    p, size = spec.params, spec.n
    jmax = size + 1
    us, ws = _session_nodes(p, jmax)
    with mp.workprec(_QBITS):
        grid = mopoly.WeightGrid(p, jmax, [u * u for u in us], bits=_QBITS)
        qv = [grid.q_values_mp(k) for k in range(jmax + 1)]
        pv = [grid.p_values_mp(k) for k in range(jmax + 1)]
        w2u = [w * 2 * u for w, u in zip(ws, us)]
        w2ux = [w * u * u for w, u in zip(w2u, us)]
        cross = [[float(mpmath.fsum(r * q * w for r, q, w in zip(pv[k], qv[l], w2u)))
                  for l in range(size)] for k in range(size)]
        moments = {}
        for n in range(size):
            c = recurrence.q_recurrence_coeffs(p, n)
            for i, ref in ((2, c.a2), (1, c.a1), (0, c.a0), (-1, c.am1), (-2, c.am2)):
                if n + i >= 0 and ref != 0.0:
                    val = mpmath.fsum(q * r * w for q, r, w in zip(qv[n], pv[n + i], w2ux))
                    moments[(n, i)] = (float(val), ref)
    proj = []
    for x in pts:
        qx = [mopoly.q_eval(p, k, x, EXT300) for k in range(size)]
        for y in pts:
            py = [mopoly.p_eval(p, k, y, EXT300) for k in range(size)]
            direct = math.fsum(qx[k] * py[k] for k in range(size))
            via = math.fsum(qx[k] * cross[k][l] * py[l]
                            for k in range(size) for l in range(size))
            proj.append((via, direct))
    return proj, list(moments.values())


def _quadrature_ops(rng, cls: str) -> list:
    p = draw_params(rng, cls)
    spec = rmt.KernelSpec(0, p.nu, p.a, p.b, _QN)
    pts = jitter(rng, (0.5, 2.0, 5.0), 0.1)
    moment_pairs = [(0, 1), (2, 3)]
    tag = f"{cls} {p}"

    # small operations, so the per-class sums sample the machine alike
    def biorth_quadrature():
        rep = quad.biorth_matrix(p, _QN, _QCFG, _QBITS)
        yield
        ck.identity_matrix(f"biorth quadrature {tag}", rep.matrix, ck.TOL_BIORTH_QUAD)

    def moments():
        rep = quad.biorth_matrix_moments(p, _QN)
        yield
        ck.identity_matrix(f"biorth moments {tag}", rep.matrix, ck.TOL_BIORTH_MOMENTS)
        pairs = []
        for i, j in moment_pairs:
            pairs.append((quad.moment_quad(p, i, j), quad.moment_closed(p, i, j).value()))
            yield
        ck.relative_agree(f"moment_quad {tag}", pairs, ck.TOL_MOMENT_QUAD)

    def sign_changes():
        profile = mopoly.sign_change_profile(p, _SIGN_N, grid_points=_SIGN_POINTS)
        yield
        ck.sign_profile(f"sign changes {tag}", profile)

    def kernel_trace():
        partials = rmt.kernel_trace_partials(spec, _QCFG, _QBITS)
        yield
        ck.traces(f"kernel trace {spec}", partials)

    def kernel_first_moment():
        pair = (rmt.kernel_first_moment(spec, _QCFG, _QBITS), rmt.mean_trace_identity(spec))
        yield
        ck.relative_agree(f"kernel first moment {spec}", [pair], ck.TOL_FIRST_MOMENT)

    def projection_identities():
        proj, moments = projection_and_integral_identity(spec, pts)
        yield
        ck.relative_agree(f"kernel projection {spec}", proj, ck.TOL_PROJECTION)
        ck.relative_agree(f"recurrence integral identity {spec}", moments,
                          ck.TOL_INTEGRAL_IDENTITY)

    return [Op(cls, f.__name__, f) for f in (biorth_quadrature, moments, sign_changes,
                                              kernel_trace, kernel_first_moment,
                                              projection_identities)]


def quadrature_round(rng) -> list:
    return interleave({c: _quadrature_ops(rng, c) for c in CLASSES})


# ---------------------------------------------------------------------------
# kernel_mc: coupled-product sampling, density tables and the kernel curve

_MC_MODELS = ((2, 4), (3, 5))   # (n, M): nu = M - n is an integer
_MC_SAMPLES = 20000
_MC_BINS = 16
_CURVE_N = 3
_CURVE_POINTS = 360
_CURVE_WINDOW = 90      # the curve is tabulated window by window


def _curve_nu_total(rng, cls: str) -> float:
    if cls == "int":
        return 2.0
    if cls == "half":
        return 2.5
    return _generic_order(rng, 2.0)


def mc_check(model: rmt.CoupledModel, batch) -> None:
    spec = model.kernel_spec
    ck.mc_mean(f"Monte Carlo mean {model}", batch.values.sum(axis=1),
               rmt.mean_trace_identity(spec))
    ck.mc_density(f"Monte Carlo density {model}",
                  rmt.density_compare(batch, spec, bins=_MC_BINS).p_value)


def _kernel_mc_ops(rng, cls: str) -> list:
    alpha = rng.uniform(0.48, 0.52)
    spec = rmt.KernelSpec(0, _curve_nu_total(rng, cls), alpha,
                          alpha + rng.uniform(0.98, 1.02), _CURVE_N)
    _, x_hi = mopoly.sign_change_window(spec.params, _CURVE_N)
    grid = sorted(strata(rng, 0.02, x_hi, _CURVE_POINTS))
    picks = [grid[i] for i in (30, 150, 270)]
    # the density tables' cost follows beta = (1 + tau) / (2 tau), so tau
    # stays within 0.03 of 0.5
    models = [rmt.CoupledModel(n, M, rng.uniform(0.47, 0.53), rng.getrandbits(63))
              for n, M in _MC_MODELS]

    def curve():
        vals = []
        for lo in range(0, len(grid), _CURVE_WINDOW):
            vals += [d for _, d in rmt.kernel_density_curve(spec, grid[lo:lo + _CURVE_WINDOW])]
            yield
        at = dict(zip(grid, vals))
        pairs = []
        for x in picks:
            pairs.append((at[x], rmt.kernel_eval(spec, x, x)))
            yield
        ck.curve(f"kernel curve {spec}", vals, pairs)

    def monte_carlo():
        for model in models:
            mc_check(model, rmt.sample_coupled(model, _MC_SAMPLES))
            yield

    # the coupled model has integer nu = M - n, so sampling is int-class work
    return [Op(cls, "curve", curve),
            Op(cls, "monte_carlo", monte_carlo) if cls == "int" else None]


def kernel_mc_round(rng) -> list:
    # one group: the Monte Carlo steps run between the classes' curve
    # windows, so the short half and generic curves spread over the round
    return [[op for group in interleave({c: _kernel_mc_ops(rng, c) for c in CLASSES})
             for op in group]]


WORKLOADS = {
    "pointwise": pointwise_round,
    "high_degree": high_degree_round,
    "quadrature": quadrature_round,
    "kernel_mc": kernel_mc_round,
}
