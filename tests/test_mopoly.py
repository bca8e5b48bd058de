import math
import random
import warnings
from fractions import Fraction

import mpmath
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from bmop import lommel, mopoly, specfun
from bmop.errors import BmopError, DomainError, DoubleOverflow, PrecisionLossWarning
from bmop.precision import DOUBLE, PrecisionConfig
from bmop.specfun import Params, omega, rho

EXT = PrecisionConfig(mode="extended", mantissa_bits=300)
P0 = Params(mu=0.5, nu=1.5, a=1.0, b=2.0)
P1 = Params(mu=0.0, nu=1.0, a=0.8, b=1.6)
# generic orders, integer orders, a small scale a and b/a = 1.01
OFF_PRESETS = {"generic": Params(0.3, 1.3, 0.9, 1.8), "integer": Params(2.0, 3.0, 0.5, 1.7),
               "small_a": Params(-0.6, 0.4, 1e-3, 0.05), "near_b": Params(0.5, 1.5, 1.0, 1.01)}
# (expansion, determinant, polynomial pair, weight) of each family
FAMILIES = {"Q": (mopoly.q_eval, mopoly.q_eval_determinant, lommel.a_polys,
                  lambda p, j, x: omega(p.mu + j, p.a, x, EXT).value()),
            "P": (mopoly.p_eval, mopoly.p_eval_determinant, lommel.b_polys,
                  lambda p, j, x: rho(p.nu + j, p.b, x, EXT).value())}


class TestExpansions:
    def test_q0_is_weight(self):
        for x in (0.3, 1.0, 5.0):
            assert mopoly.q_eval(P0, 0, x) == pytest.approx(
                omega(P0.mu, P0.a, x).value(), rel=1e-13)

    def test_q1_hand_expansion(self):
        # (mu=0, nu=1, a=1, b=2): Q_1(1) = -2 I_0(2) + 3 I_1(2)
        p = Params(mu=0.0, nu=1.0, a=1.0, b=2.0)
        ref = -2.0 * sp.iv(0, 2.0) + 3.0 * sp.iv(1, 2.0)
        assert mopoly.q_eval(p, 1, 1.0) == pytest.approx(ref, rel=1e-12)

    def test_p0_prefactor(self):
        base = P0.mu + P0.nu + 1.0
        pref = (2.0 * P0.gap ** base
                / (P0.a ** P0.mu * P0.b ** P0.nu * math.gamma(base)))
        for x in (0.3, 2.0):
            assert mopoly.p_eval(P0, 0, x) == pytest.approx(
                pref * rho(P0.nu, P0.b, x).value(), rel=1e-12)

    def test_coeff_counts(self):
        qc = mopoly.q_coeffs(P0, 4)
        pc = mopoly.p_coeffs(P0, 4)
        assert len(qc.coeffs) == 5
        assert len(pc.coeffs) == 5

    def test_normalization(self):
        base = P0.mu + P0.nu + 1.0
        c2 = mopoly.normalization_c(P0, 2).value.value()
        ref = 2.0 * P0.gap ** base / (
            P0.a ** P0.mu * P0.b ** P0.nu * math.gamma(base + 2) * 2.0)
        assert c2 == pytest.approx(ref, rel=1e-13)


class TestOracles:
    @pytest.mark.parametrize("p", [P0, P1], ids=["S0", "S1"])
    @pytest.mark.parametrize("n", [0, 1, 3, 6])
    def test_q_routes_agree(self, p, n):
        for x in (0.2, 1.0, 4.0):
            direct = mopoly.q_eval(p, n, x)
            det = mopoly.q_eval_determinant(p, n, x)
            ser = mopoly.q_eval_series(p, n, x)
            scale = max(abs(direct), abs(mopoly.q_eval(p, n, 1.0)))
            assert abs(direct - det) <= 1e-10 * scale
            assert abs(direct - ser) <= 1e-10 * scale

    @pytest.mark.parametrize("p", [P0, P1], ids=["S0", "S1"])
    @pytest.mark.parametrize("n", [0, 1, 3, 6])
    def test_p_routes_agree(self, p, n):
        for x in (0.2, 1.0, 4.0):
            direct = mopoly.p_eval(p, n, x)
            det = mopoly.p_eval_determinant(p, n, x)
            scale = max(abs(direct), abs(mopoly.p_eval(p, n, 1.0)))
            assert abs(direct - det) <= 1e-10 * scale

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("p", OFF_PRESETS.values(), ids=OFF_PRESETS)
    def test_determinant_agrees_off_presets(self, family, p):
        expansion, determinant, _, _ = FAMILIES[family]
        for n in range(8):
            for x in (0.2, 1.0, 4.0):
                direct = expansion(p, n, x)
                scale = max(abs(direct), abs(expansion(p, n, 1.0)))
                assert abs(direct - determinant(p, n, x)) <= 1e-10 * scale


def _det_on_mpfs(rows):
    """The same elimination on mpf objects: full pivoting, first strict
    maximum in row-major order, every step rounded at mp.prec."""
    a = [[mp.mpf(v) for v in r] for r in rows]
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


def _det(rows):
    """The kernel on rows of numbers."""
    return mopoly._det_full_pivot([mopoly._fixed_row(r) for r in rows])


def _mpf_rows(rows):
    """Kernel rows (ints, exponent) as mpfs, rounded at mp.prec."""
    return [[mpmath.ldexp(m, e) for m in ms] for ms, e in rows]


def _exact_det(rows) -> Fraction:
    a = [[Fraction(v) for v in r] for r in rows]
    det = Fraction(1)
    for k in range(len(a)):
        i = next((i for i in range(k, len(a)) if a[i][k]), None)
        if i is None:
            return Fraction(0)
        if i != k:
            a[k], a[i], det = a[i], a[k], -det
        det *= a[k][k]
        for row in a[k + 1:]:
            f = row[k] / a[k][k]
            row[k:] = [v - f * t for v, t in zip(row[k:], a[k][k:])]
    return det


class TestDetFullPivot:
    def test_row_and_column_swaps_keep_the_sign(self):
        # the largest entry, 10, sits in the last row and column, so the
        # first step swaps both; one swap alone flips the sign
        with mp.workprec(100):
            got = _det([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
            assert abs(got + 3) < 1e-28
        assert _det([[0, 1], [1, 0]]) == -1
        assert _det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1

    def test_exactly_singular_returns_zero(self):
        # every step is exact in binary: the second row eliminates to zeros
        got = _det([[8, 4, 2], [4, 2, 1], [1, 1, 1]])
        assert isinstance(got, mpmath.mpf) and got == 0
        assert _det([[0, 0], [0, 0]]) == 0

    def test_ties_take_the_first_maximum_in_row_major_order(self, monkeypatch):
        # entries of equal magnitude at 8 bits, where each pivot choice
        # rounds differently.  Every pivot is the first strict maximum of the
        # rows as they stand, read exactly; the sign is the exact
        # determinant's where that is nonzero, and the value lies within a rounding at 8 bits of it
        # plus 2^-(8+28) of Hadamard's bound (the mpf elimination at 8 bits
        # had left -1.9 for an exact 0)
        pivot = mopoly._pivot
        choices = []

        def recorded(a, exps, k):
            values = [[Fraction(m) * Fraction(2) ** e for m in row] for row, e in zip(a, exps)]
            first = (k, k)
            for i in range(k, len(a)):
                for j in range(k, len(a)):
                    if abs(values[i][j]) > abs(values[first[0]][first[1]]):
                        first = (i, j)
            got = pivot(a, exps, k)
            choices.append((got, first))
            return got

        monkeypatch.setattr(mopoly, "_pivot", recorded)
        rng = random.Random(19)
        mats = [[[rng.choice((-3, -1, 1, 3)) for _ in range(5)] for _ in range(5)]
                for _ in range(40)]
        mats.append([[3, -3, 1], [-3, 1, 3], [1, 3, -3]])
        for rows in mats:
            with mp.workprec(8):
                got = _det(rows)
            exact = _exact_det(rows)
            hadamard = math.prod(math.hypot(*row) for row in rows)
            if exact:
                assert mpmath.sign(got) == mpmath.sign(exact.numerator)
            with mp.workprec(200):
                assert (abs(got - exact.numerator)
                        <= 2.0 ** -8 * abs(exact.numerator) + 2.0 ** -36 * hadamard)
        assert choices and all(got == first for got, first in choices)

    def test_well_conditioned_matches_mpmath(self):
        rng = random.Random(6)
        with mp.workprec(200):
            rows = [[mp.mpf(rng.uniform(-1, 1)) + (6 if i == j else 0) for j in range(6)]
                    for i in range(6)]
            got, ref = _det(rows), mpmath.det(mpmath.matrix(rows))
            assert abs(got - ref) <= mpmath.mpf(2) ** -190 * abs(ref)


def _stored_sum(pair, p, x, weight):
    """The pair summed from its stored monomial coefficients in doubles, and
    the sum of the monomials' magnitudes, which bounds that sum's rounding."""
    w = [weight(p, k, x) for k in (0, 1)]
    value = pair.eval_first(x) * w[0] + pair.eval_second(x) * w[1]
    size = sum(abs(c * x ** i * w[k])
               for k, coeffs in enumerate((pair.first, pair.second)) for i, c in enumerate(coeffs))
    return value, size


class TestPolyPairs:
    def test_a1_constants(self):
        # A_{1,1} = -(mu+nu+1), A_{1,2} = (b^2-a^2)/a
        pair = lommel.a_polys(P0, 1)
        assert pair.first == (pytest.approx(-(P0.mu + P0.nu + 1.0)),)
        assert pair.second == (pytest.approx(P0.gap / P0.a),)

    @pytest.mark.parametrize("p", [P0, P1], ids=["S0", "S1"])
    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_a_reconstructs_q(self, p, n):
        # reconstruct sums the pair's terms before they are collected, so the
        # stored coefficients are checked by summing them as well
        pair = lommel.a_polys(p, n)
        for x in (0.3, 1.5, 6.0):
            ref = mopoly.q_eval(p, n, x, EXT)
            assert pair.reconstruct(x) == pytest.approx(ref, rel=1e-10)
            assert _stored_sum(pair, p, x, FAMILIES["Q"][3])[0] == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("p", [P0, P1], ids=["S0", "S1"])
    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_b_reconstructs_p(self, p, n):
        pair = lommel.b_polys(p, n)
        for x in (0.3, 1.5, 6.0):
            ref = mopoly.p_eval(p, n, x, EXT)
            assert pair.reconstruct(x) == pytest.approx(ref, rel=1e-10)
            assert _stored_sum(pair, p, x, FAMILIES["P"][3])[0] == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("p", OFF_PRESETS.values(), ids=OFF_PRESETS)
    def test_pair_reconstructs_off_presets(self, family, p):
        # the pair's two terms cancel by up to 1e18 at a = 1e-3 and n = 7,
        # beyond what a double combination keeps, so the bound is relative to
        # the terms; the error stays below 1e-14 of them on every set
        expansion, _, polys, weight = FAMILIES[family]
        for n in range(1, 8):
            pair = polys(p, n)
            for x in (0.3, 1.5, 6.0):
                ref = expansion(p, n, x, EXT)
                stored = _stored_sum(pair, p, x, weight)[0]
                terms = (abs(pair.eval_first(x) * weight(p, 0, x))
                         + abs(pair.eval_second(x) * weight(p, 1, x)))
                assert abs(pair.reconstruct(x) - ref) <= 1e-13 * terms
                assert abs(stored - ref) <= 1e-13 * terms

    def test_reconstruct_warns_when_its_terms_cancel(self):
        # at a = 1e-3 and n = 7 the terms exceed the value by 1e14 and more,
        # which left a double sum of the pair 8.9e1 off; the pair escalates
        # as the shifts do and says so
        p = OFF_PRESETS["small_a"]
        with pytest.warns(PrecisionLossWarning, match="reconstruct: .* escalating"):
            got = lommel.a_polys(p, 7).reconstruct(1.5)
        assert got == pytest.approx(mopoly.q_eval(p, 7, 1.5, EXT), rel=1e-9, abs=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", PrecisionLossWarning)
            for p in (P0, P1):
                for n in range(1, 7):
                    for polys in (lommel.a_polys, lommel.b_polys):
                        for x in (0.3, 1.5, 6.0):
                            polys(p, n).reconstruct(x)

    def test_degrees(self):
        pair = lommel.a_polys(P0, 5)
        assert len(pair.first) == 5 // 2 + 1
        assert len(pair.second) == (5 - 1) // 2 + 1

    def test_n0_rejected(self):
        with pytest.raises(DomainError):
            lommel.a_polys(P0, 0)
        with pytest.raises(DomainError):
            lommel.b_polys(P0, 0)


class TestSignChanges:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
    def test_counts_small(self, n):
        assert mopoly.count_sign_changes(P0, n) == n

    def test_profile_matches(self):
        assert mopoly.sign_change_profile(P1, 5) == [0, 1, 2, 3, 4, 5]

    def test_signs_read_below_double_range(self):
        # Q_3 at the window's left end is 1.4e-434, 0.0 as a double; the
        # signs come from the mpf values, and only an exact zero raises
        assert mopoly.sign_change_profile(Params(100, 1, 1, 2), 3, grid_points=512) == [0, 1, 2, 3]
        with pytest.raises(BmopError, match="degenerate zero"):
            mopoly._count_on_grid([mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(-1)])

    def test_counting_needs_no_second_kind_table(self, monkeypatch):
        # Q_n reads only the first-kind weights, so the K table stays unbuilt
        def fail(*args, **kwargs):
            raise AssertionError("second-kind Bessel function evaluated")

        monkeypatch.setattr(specfun, "besselk_mp", fail)
        assert mopoly.sign_change_profile(P1, 4, grid_points=256) == [0, 1, 2, 3, 4]
        assert mopoly.count_sign_changes(P1, 3, grid_points=256) == 3


def test_extended_p_takes_one_k_pair(monkeypatch):
    # the rho ladder takes its base pair from one besselk_mp call; every
    # other order comes from the recurrence, and no order class reaches
    # mpmath's own K
    calls = []
    besselk_mp = specfun.besselk_mp

    def counted(*args, **kwargs):
        calls.append(args[0])
        return besselk_mp(*args, **kwargs)

    def fail(*args, **kwargs):
        raise AssertionError("mpmath.besselk called")

    monkeypatch.setattr(specfun, "besselk_mp", counted)
    monkeypatch.setattr(mpmath, "besselk", fail)
    assert math.isfinite(mopoly.p_eval(P1, 12, 0.7, EXT))
    assert calls == [P1.nu]
    for p in (P1, P0, Params(0.3, 1.3, 0.9, 1.8)):
        assert math.isfinite(mopoly.p_eval(p, 5, 0.7, EXT))
        assert specfun.bessel_k(p.nu, 1.3, EXT).value() > 0


def test_extended_q_takes_one_i_pair(monkeypatch):
    # the omega ladder takes its top pair from one besseli_mp call; every
    # lower order comes from the recurrence, and nothing reaches mpmath's I
    calls = []
    besseli_mp = specfun.besseli_mp

    def counted(*args, **kwargs):
        calls.append(args[0])
        return besseli_mp(*args, **kwargs)

    def fail(*args, **kwargs):
        raise AssertionError("mpmath.besseli called")

    monkeypatch.setattr(specfun, "besseli_mp", counted)
    monkeypatch.setattr(mpmath, "besseli", fail)
    assert math.isfinite(mopoly.q_eval(P1, 12, 0.7, EXT))
    assert calls == [P1.mu + 12]
    for p in (P1, P0, Params(0.3, 1.3, 0.9, 1.8)):
        assert math.isfinite(mopoly.q_eval(p, 5, 0.7, EXT))
        assert specfun.bessel_i(p.mu, 1.3, EXT).value() > 0


@settings(max_examples=20, deadline=None, derandomize=True)
@given(mu=st.floats(-1.0, 0.0, exclude_min=True, exclude_max=True),
       nu=st.integers(1, 7).map(float),
       b=st.floats(2.0, 30.0),
       ratio=st.floats(1.001, 1.1))
def test_extended_q_matches_series_off_the_presets(mu, nu, b, ratio):
    # extended Q_n, from the ladder's top I pair, against the double series,
    # which needs no Bessel function; the scale and the 1e-9 bound are
    # criterion 3's
    p = Params(mu, nu, b / ratio, b)
    xs = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionLossWarning)
        for n in range(11):
            rows = [(mopoly.q_eval(p, n, x, EXT), mopoly.q_eval_series(p, n, x)) for x in xs]
            scale = max(abs(direct) for direct, _ in rows)
            for direct, series in rows:
                assert abs(direct - series) <= 1e-9 * scale


@pytest.mark.parametrize("p", [Params(-0.5, 2.0, 0.9, 1.8), Params(-0.3, 1.0, 0.5, 1.7),
                               Params(2.0, 3.0, 0.5, 1.7), Params(0.3, 1.3, 0.9, 1.8)],
                         ids=["mu_neg_nu2", "mu_neg_nu1", "integer", "generic"])
def test_extended_q_matches_series_at_high_degree(p):
    # the benchmark's high degrees: n = 25 at 400 bits, and n = 34, where
    # both double routes escalate; the bound is criterion 3's
    e400 = PrecisionConfig(mode="extended", mantissa_bits=400)
    xs = (0.4, 1.0, 2.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionLossWarning)
        for n, precision in ((25, e400), (34, DOUBLE)):
            rows = [(mopoly.q_eval(p, n, x, precision), mopoly.q_eval_series(p, n, x, precision))
                    for x in xs]
            scale = max(abs(direct) for direct, _ in rows)
            for direct, series in rows:
                assert abs(direct - series) <= 1e-9 * scale


def _order(lo, hi):
    # an order in (lo, hi]; integer orders are drawn as often as generic ones
    return st.one_of(st.integers(math.floor(lo) + 1, math.floor(hi)).map(float),
                     st.floats(lo, hi, exclude_min=True))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mu=_order(-1.0, 3.0), nu=_order(0.0, 6.0), a=st.floats(0.05, 5.0),
       ratio=st.floats(1.0, 3.0, exclude_min=True), n=st.integers(1, 10),
       log_x=st.floats(math.log(1e-2), math.log(20.0)))
def test_extended_routes_round_to_the_expansions(mu, nu, a, ratio, n, log_x):
    # at 300 bits the series and both determinants round to the extended
    # expansion's double, or all raise DoubleOverflow; the gap b^2 - a^2,
    # c_n and the series prefactor had entered from doubles and left them
    # up to 5e-14 apart.  Both polynomial pairs rebuild the expansions
    # within 1e-9, and their stored coefficients, summed in doubles, within
    # a rounding of their monomials.
    p = Params(mu, nu, a, a * ratio)
    x = math.exp(log_x)
    for (direct, _, polys, weight), routes in zip(
            FAMILIES.values(),
            ((mopoly.q_eval_series, mopoly.q_eval_determinant), (mopoly.p_eval_determinant,))):
        try:
            ref = direct(p, n, x, EXT)
        except DoubleOverflow:
            for route in routes:
                with pytest.raises(DoubleOverflow):
                    route(p, n, x, EXT)
            continue
        for route in routes:
            assert abs(route(p, n, x, EXT) - ref) <= math.ulp(ref)
        pair = polys(p, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrecisionLossWarning)
            assert pair.reconstruct(x) == pytest.approx(ref, rel=1e-9, abs=0)
        stored, size = _stored_sum(pair, p, x, weight)
        assert abs(stored - ref) <= 1e-13 * size


def _det_sets(rng):
    """One draw each of integer orders, mu in (-1, 0), b/a -> 1+ and a = 200."""
    mu, nu, r = rng.uniform(-1, 3), rng.uniform(0, 6), rng.uniform(1, 3)
    a = rng.uniform(0.05, 5)
    return [Params(float(rng.randint(0, 3)), float(rng.randint(1, 6)), a, a * r),
            Params(-rng.random(), nu, a, a * r),
            Params(mu, nu, a, a * (1 + 10 ** -rng.uniform(2, 12))),
            Params(mu, nu, 200.0, 200.0 * r)]


@pytest.mark.parametrize("n", range(1, 31))
def test_determinant_kernel_as_accurate_as_mpf_elimination(n):
    # on _det_eval's own matrices at 141-1100 bits, the int kernel's error
    # against mpmath.det at 2 bits + 300 is at most 4 times that of the mpf
    # elimination at the same bits, or 4 units of 2^-bits, the size of the
    # final rounding.  mpmath.det reads a row far below the matrix's norm as
    # singular (a weight row of 1e-669 under rows of 1, or Gamma rows under
    # a weight row of 2^1089), so the reference scales each row's largest
    # entry to [1/2, 1) and multiplies the scales back.
    rng = random.Random(n)
    for k, p in enumerate(_det_sets(rng)):
        family = (mopoly._q_family, mopoly._p_family)[(n + k) % 2]
        bits = rng.randint(141, 1100)
        with mp.workprec(bits):
            x = math.exp(rng.uniform(math.log(1e-2), math.log(20)))
            rows = mopoly._det_rows(family(p), n, x)
            got = mopoly._det_full_pivot(rows)
            on_mpfs = _det_on_mpfs(_mpf_rows(rows))
        with mp.workprec(2 * bits + 300):
            tops = [max(map(abs, m)).bit_length() for m, _ in rows]
            ref = mpmath.ldexp(mpmath.det(_mpf_rows([(m, -t) for (m, _), t in zip(rows, tops)])),
                               sum(e + t for (_, e), t in zip(rows, tops)))
            err, err_mpfs = (abs(v - ref) / abs(ref) * 2 ** bits for v in (got, on_mpfs))
        assert err <= 4 * max(err_mpfs, 1), (p, bits)


HIGH_DEGREE_SETS = {"S0": P0, "S1": P1, "generic": OFF_PRESETS["generic"],
                    "negative_mu": Params(-0.7, 2.2, 0.6, 1.5),
                    "near_b": Params(0.5, 1.5, 1.0, 1.05)}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("p", HIGH_DEGREE_SETS.values(), ids=HIGH_DEGREE_SETS)
@pytest.mark.parametrize("n", [20, 25, 30])
def test_determinants_round_to_the_expansions_at_high_degree(family, p, n):
    # the degrees the benchmark's high_degree workload reaches, at 400 bits:
    # the determinant rounds within one ulp of the extended expansion
    expansion, determinant, _, _ = FAMILIES[family]
    prec = PrecisionConfig(mode="extended", mantissa_bits=400)
    for x in (0.2, 1.0, 4.0, 12.0):
        try:
            ref = expansion(p, n, x, prec)
        except DoubleOverflow:
            with pytest.raises(DoubleOverflow):
                determinant(p, n, x, prec)
            continue
        assert abs(determinant(p, n, x, prec) - ref) <= math.ulp(ref)


def test_double_gap_keeps_its_digits_as_b_approaches_a():
    # the property test's shrunk failure: at b = a (1 + 2^-52), b*b - a*a
    # kept no correct digit and left the B pair's double route 31% off
    p = Params(0.0, 1.0, 0.0546875, 0.0546875 * (1 + 2 ** -52))
    exact = Fraction(p.b) ** 2 - Fraction(p.a) ** 2
    assert abs(Fraction(p.gap) - exact) <= exact * 2 ** -52
    assert lommel.b_polys(p, 1).reconstruct(1.0) == pytest.approx(
        mopoly.p_eval(p, 1, 1.0, EXT), rel=1e-9, abs=0)


def test_double_route_escalates_near_a_zero():
    # the terms cancel by 1.9e8 here, which leaves the double pass 4e-7 off
    x = 7.960262559627996
    with pytest.warns(PrecisionLossWarning, match="cancellation ratio"):
        got = mopoly.p_eval(P0, 10, x)
    assert got == pytest.approx(mopoly.p_eval(P0, 10, x, EXT), rel=1e-8)


def test_overflow_beyond_double_range_raises():
    # Q_2(4) at a = 200 is 2.2e346: finite in mpf, beyond a double in both
    # modes (the double pass escalates); P_2(4) there is below double range
    big_a = Params(0.5, 1.5, 200, 201)
    with pytest.raises(DoubleOverflow):
        mopoly.q_eval(big_a, 2, 4.0, EXT)
    with pytest.warns(PrecisionLossWarning, match="double range"), \
            pytest.raises(DoubleOverflow):
        mopoly.q_eval(big_a, 2, 4.0)
    with pytest.raises(DoubleOverflow, match="below double range"):
        mopoly.p_eval(big_a, 2, 4.0, EXT)


@pytest.mark.parametrize("precision", [DOUBLE, EXT], ids=["double", "extended"])
def test_determinants_outside_double_range_raise(precision):
    # the same point: the determinants had rounded Q_2 to -inf and P_2 to -0.0
    big_a = Params(0.5, 1.5, 200, 201)
    with pytest.raises(DoubleOverflow, match="q_eval_determinant: .* beyond double range"):
        mopoly.q_eval_determinant(big_a, 2, 4.0, precision)
    with pytest.raises(DoubleOverflow, match="p_eval_determinant: .* below double range"):
        mopoly.p_eval_determinant(big_a, 2, 4.0, precision)


MU3 = Params(3.0, 1.5, 1.0, 2.0)


# Q_1(1e-120) at mu = 3 is 9.2e-361: nonzero in mpf, 0.0 as a double.  On
# S0 the shifts omega_{mu+12}(1e-30), omega_{mu+5}(1e-200) and
# rho_{nu+3}(1e6) are 5.8e-385, 3.5e-1103 and 4.2e-1726, and
# omega_{mu+3}(3e5) is 2.6e483; their double probes had read 0.0 or
# overflowed in math.exp
@pytest.mark.parametrize("route,p,n,x,where", [
    (mopoly.q_eval, MU3, 1, 1e-120, "below"),
    (mopoly.q_eval_series, MU3, 1, 1e-120, "below"),
    (lommel.omega_shift_eval, P0, 12, 1e-30, "below"),
    (lommel.omega_shift_eval, P0, 5, 1e-200, "below"),
    (lommel.rho_shift_eval, P0, 3, 1e6, "below"),
    (lommel.omega_shift_eval, P0, 3, 3e5, "beyond"),
], ids=["q_eval", "q_eval_series", "omega_shift_m12", "omega_shift_m5", "rho_shift_m3",
        "omega_shift_beyond"])
def test_underflow_below_double_range_raises(route, p, n, x, where):
    if route in (mopoly.q_eval, mopoly.q_eval_series):
        with pytest.raises(DoubleOverflow, match="below double range"):
            route(p, n, x, EXT)
    with pytest.warns(PrecisionLossWarning, match="double range"), \
            pytest.raises(DoubleOverflow, match=f"{route.__name__}: .* {where} double range"):
        route(p, n, x)


def test_escalation_names_its_cause():
    # an underflow is a range escalation too; past degree 30 there is no
    # double pass to measure
    with pytest.warns(PrecisionLossWarning, match="double range"), \
            pytest.raises(DoubleOverflow):
        mopoly.p_eval(Params(0.5, 1.5, 200, 201), 2, 4.0)
    with pytest.warns(PrecisionLossWarning, match="degree above 30"):
        assert mopoly.q_eval(P0, 31, 2.0) == pytest.approx(mopoly.q_eval(P0, 31, 2.0, EXT))
    with pytest.warns(PrecisionLossWarning, match="q_eval_series: degree above 30"):
        mopoly.q_eval_series(P0, 31, 2.0)
    # the shifts escalate through the same rule and say so
    with pytest.warns(PrecisionLossWarning,
                      match="omega_shift_eval: cancellation ratio .* at n=12; escalating"):
        lommel.omega_shift_eval(Params(-0.6, 0.4, 1e-3, 0.05), 12, 1.0)


def test_series_stops_past_its_peak():
    # the terms peak near k = a sqrt(x) = 28; (a^2 x)^k / k! alone peaks at
    # k = a^2 x = 800 and leaves double range on the way
    p = Params(0.5, 1.5, 20, 21)
    assert mopoly.q_eval_series(p, 2, 2.0) == pytest.approx(mopoly.q_eval(p, 2, 2.0), rel=1e-9)


def test_series_past_1024_bits():
    # the stopping tolerance had been the float 10^-dps, which is 0.0 past
    # about 1030 bits, so no term was small enough and the sum raised
    # NonConvergence after 10000 outer terms
    for bits in (1100, 2000):
        got = mopoly.q_eval_series(P0, 3, 1.0, PrecisionConfig(mode="extended", mantissa_bits=bits))
        assert got == pytest.approx(mopoly.q_eval(P0, 3, 1.0, EXT), rel=1e-14)


def test_series_beyond_double_range_raises():
    # Q_2(4) at a = 200 is 2.2e346: the double sum overflows and escalates,
    # and the extended value does not fit a double
    big_a = Params(0.5, 1.5, 200, 201)
    with pytest.raises(DoubleOverflow):
        mopoly.q_eval_series(big_a, 2, 4.0, EXT)
    with pytest.warns(PrecisionLossWarning, match="double range"), \
            pytest.raises(DoubleOverflow):
        mopoly.q_eval_series(big_a, 2, 4.0)


def test_series_double_pass_keeps_a_large_a_in_range():
    # (a^2 x)^k / k! alone, with a^2 x = 9e4, leaves double range before the
    # terms peak near k = a sqrt(x) = 300; Q_2(1) = -4.08e256 fits a double
    p = Params(0.5, 1.5, 300, 301)
    with warnings.catch_warnings():
        warnings.simplefilter("error", PrecisionLossWarning)
        got = mopoly.q_eval_series(p, 2, 1.0)
    assert got == pytest.approx(mopoly.q_eval(p, 2, 1.0, EXT), rel=1e-10)


@pytest.mark.parametrize("p", [Params(0.5, 171.2, 1, 2), Params(100, 100, 1, 2)],
                         ids=["large_nu", "large_mu_nu"])
def test_series_double_pass_beyond_gamma_range(p):
    # Gamma(mu + nu + 1) leaves double range past 171; the double terms
    # must not carry it, or they all round to 0 and the sum never stops
    assert mopoly.q_eval_series(p, 2, 1.0) == pytest.approx(mopoly.q_eval(p, 2, 1.0), rel=1e-12)


@pytest.mark.parametrize("p,n,x", [(Params(200, 1, 1, 2), 2, 4.0), (Params(300, 1, 1, 2), 3, 25.0)],
                         ids=["mu200", "mu300"])
def test_double_weights_beyond_scipy_range(p, n, x):
    # I_mu(2 a sqrt(x)) is below scipy's ive range at these orders; a two-term
    # series in its place left Q_n 1.9e-4 and 3.3e-3 off without a warning
    assert mopoly.q_eval(p, n, x) == pytest.approx(mopoly.q_eval(p, n, x, EXT), rel=1e-12, abs=0)
