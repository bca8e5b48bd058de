import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from bmop import lommel
from bmop.errors import DomainError, DoubleOverflow, PrecisionLossWarning
from bmop.precision import PrecisionConfig
from bmop.specfun import Params, omega, omega_mp, rho, rho_mp

EXT = PrecisionConfig(mode="extended", mantissa_bits=300)
P0 = Params(mu=0.5, nu=1.5, a=1.0, b=2.0)
P1 = Params(mu=0.0, nu=1.0, a=0.8, b=1.6)
DEEP = {"S0": P0, "S1": P1, "generic": Params(0.3, 1.3, 0.9, 1.8),
        "small_a": Params(-0.6, 0.4, 1e-3, 0.05)}


class TestShiftPair:
    def test_m0(self):
        pair = lommel.shift_pair(0.7, 0)
        assert pair.r_poly == (1.0,)
        assert pair.s_poly == ()

    def test_m1(self):
        pair = lommel.shift_pair(0.7, 1)
        assert pair.r_poly == ()
        assert pair.s_poly == (1.0,)

    def test_m2_matches_three_term(self):
        # m = 2 reduces to the three-term recurrence: r(x) = x, s(x) = -(mu+1)
        mu = 0.7
        pair = lommel.shift_pair(mu, 2)
        assert pair.r_at(3.5) == pytest.approx(3.5)
        assert pair.s_at(3.5) == pytest.approx(-(mu + 1.0))

    def test_negative_m_rejected(self):
        with pytest.raises(DomainError):
            lommel.shift_pair(0.5, -1)


class TestReconstruction:
    @pytest.mark.parametrize("p", [P0, P1], ids=["S0", "S1"])
    def test_omega_shift(self, p):
        for m in range(13):
            for x in np.geomspace(0.1, 20.0, 7):
                got = lommel.omega_shift_eval(p, m, float(x))
                ref = omega(p.mu + m, p.a, float(x), EXT).value()
                assert got == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("p", [P0, P1], ids=["S0", "S1"])
    def test_rho_shift(self, p):
        for m in range(13):
            for x in np.geomspace(0.1, 20.0, 7):
                got = lommel.rho_shift_eval(p, m, float(x))
                ref = rho(p.nu + m, p.b, float(x), EXT).value()
                assert got == pytest.approx(ref, rel=1e-9)

    def test_omega_shift_generic_order(self):
        # the escalated pass needs the shift coefficients of the exact
        # order; their double rounding flipped the sign of this value
        p = Params(0.8242870455230628, 1.3484270188289895,
                   0.8965012353875921, 1.8306566970239424)
        ref = float(omega_mp(mp.mpf(p.mu) + 8, p.a, 0.15, 300))
        assert lommel.omega_shift_eval(p, 8, 0.15) == pytest.approx(ref, rel=1e-9, abs=0)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_sign_parity(self, m):
        # the second-kind identity uses scale -b, not +b; the naive +b
        # combination must fail whenever the two scale powers differ in sign
        p = P0
        x = 1.0
        pair = lommel.shift_pair(p.nu, m)
        w0 = rho(p.nu, p.b, x, EXT).value()
        w1 = rho(p.nu + 1, p.b, x, EXT).value()
        arg = p.b * p.b * x
        correct = ((-p.b) ** (-m) * pair.r_at(arg) * w0
                   + (-p.b) ** (1 - m) * pair.s_at(arg) * w1)
        naive = (p.b ** (-m) * pair.r_at(arg) * w0
                 + p.b ** (1 - m) * pair.s_at(arg) * w1)
        ref = rho(p.nu + m, p.b, x, EXT).value()
        assert correct == pytest.approx(ref, rel=1e-9)
        assert abs(naive - ref) > 1e-3 * abs(ref)

    @pytest.mark.parametrize("p", DEEP.values(), ids=DEEP)
    def test_omega_shift_deep_cancellation(self, p):
        # past m = 12 and below x = 0.1 the two terms cancel beyond 1/eps,
        # where the double probe's ratio saturates; only the mpf pass can
        # measure how many bits the value needs
        for m in range(12, 25):
            for x in (0.1, 0.02):
                ref = float(omega_mp(mp.mpf(p.mu) + m, p.a, x, 600))
                assert lommel.omega_shift_eval(p, m, x) == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("p", DEEP.values(), ids=DEEP)
    def test_rho_shift_deep_orders(self, p):
        # the second-kind identity shares the escalation code
        for m in range(12, 25):
            for x in (0.1, 0.02):
                ref = float(rho_mp(mp.mpf(p.nu) + m, p.b, x, 600))
                assert lommel.rho_shift_eval(p, m, x) == pytest.approx(ref, rel=1e-12, abs=0)

    def test_omega_shift_small_scale(self):
        # at a = 1e-3 the terms cancel like a^(-2m), far beyond 1/eps even
        # at m <= 12 and x = 20
        p = DEEP["small_a"]
        for m in range(13):
            for x in np.geomspace(0.1, 20.0, 7):
                ref = float(omega_mp(mp.mpf(p.mu) + m, p.a, float(x), 600))
                assert lommel.omega_shift_eval(p, m, float(x)) == pytest.approx(ref, rel=1e-9)

    def test_exact_cancellation_is_named(self):
        # at m = 11 the double terms cancel to exactly 0.0, while the value,
        # 1e-49 to 1e-25, is in double range: the cause is cancellation
        p = DEEP["small_a"]
        for x in np.geomspace(0.1, 20.0, 7):
            with pytest.warns(PrecisionLossWarning,
                              match="omega_shift_eval: cancellation .*; escalating") as caught:
                lommel.omega_shift_eval(p, 11, float(x))
            assert not any("outside double range" in str(w.message) for w in caught)

    def test_x_positive_required(self):
        with pytest.raises(DomainError):
            lommel.omega_shift_eval(P0, 2, 0.0)
        with pytest.raises(DomainError):
            lommel.rho_shift_eval(P0, 2, -1.0)


def _order(lo, hi):
    # an order in (lo, hi]; integer orders are drawn as often as generic ones
    return st.one_of(st.integers(math.floor(lo) + 1, math.floor(hi)).map(float),
                     st.floats(lo, hi, exclude_min=True))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mu=_order(-1.0, 3.0), nu=_order(0.0, 6.0), a=st.floats(0.05, 5.0),
       ratio=st.floats(1.0, 3.0, exclude_min=True), m=st.integers(0, 24),
       log_x=st.floats(math.log(1e-3), math.log(50.0)))
def test_shifts_match_600_bits_or_raise(mu, nu, a, ratio, m, log_x):
    # each shift is within 1e-9 of the 600-bit weight, or raises
    # DoubleOverflow exactly when that weight does not fit a double
    p = Params(mu, nu, a, a * ratio)
    x = math.exp(log_x)
    for shift, weight, order, scale in ((lommel.omega_shift_eval, omega_mp, mu, p.a),
                                        (lommel.rho_shift_eval, rho_mp, nu, p.b)):
        ref = float(weight(mp.mpf(order) + m, scale, x, 600))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrecisionLossWarning)
            if 0.0 < ref < math.inf:
                assert shift(p, m, x) == pytest.approx(ref, rel=1e-9, abs=0)
            else:
                with pytest.raises(DoubleOverflow):
                    shift(p, m, x)
