import math

import pytest

from bmop import asymptotics as asy
from bmop import mellin, mopoly
from bmop.errors import DomainError, DoubleOverflow
from bmop.precision import PrecisionConfig, bits_for
from bmop.specfun import Params

EXT = PrecisionConfig(mode="extended", mantissa_bits=300)
P0 = Params(mu=0.5, nu=1.5, a=1.0, b=2.0)


class TestLaguerre:
    def test_n0(self):
        assert asy.laguerre_monic(0, 1.3, 2.7) == 1.0

    def test_n1(self):
        alpha, x = 1.3, 2.7
        assert asy.laguerre_monic(1, alpha, x) == pytest.approx(x - (alpha + 1.0))

    def test_n2_alpha0(self):
        x = 1.9
        assert asy.laguerre_monic(2, 0.0, x) == pytest.approx(x * x - 4.0 * x + 2.0)

    def test_three_term(self):
        # monic form: L_{n+1} = (x - (2n+alpha+1)) L_n - n(n+alpha) L_{n-1}
        alpha = 0.8
        for x in (0.5, 3.0, 9.0):
            for n in (1, 2, 4):
                lhs = asy.laguerre_monic(n + 1, alpha, x)
                rhs = ((x - (2 * n + alpha + 1)) * asy.laguerre_monic(n, alpha, x)
                       - n * (n + alpha) * asy.laguerre_monic(n - 1, alpha, x))
                assert lhs == pytest.approx(rhs, rel=1e-12)


class TestSmallA:
    def test_n0_form(self):
        mu = 0.5
        x = 1.3
        assert asy.q_limit_small_a(1.0, mu, 1.5, 0, x) == pytest.approx(
            x ** mu / math.gamma(mu + 1.0), rel=1e-13)

    def test_convergence(self):
        k, n, x = 1.0, 2, 1.0
        lim = asy.q_limit_small_a(k, P0.mu, P0.nu, n, x)
        errs = []
        for a in (1e-2, 1e-3, 1e-4):
            p = Params(P0.mu, P0.nu, a, k * math.sqrt(a))
            errs.append(abs(mopoly.q_eval(p, n, x / a, EXT) - lim))
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] <= 1e-2 * abs(lim)


class TestLargeA:
    def test_n0_form(self):
        mu = 0.5
        x = 1.3
        assert asy.q_limit_large_a(1.0, mu, 1.5, 0, x) == pytest.approx(
            x ** (mu - 0.5), rel=1e-13)

    def test_scaled_match(self):
        c, n, a = 1.0, 1, 200.0
        p = Params(P0.mu, P0.nu, a, a + c)
        for x in (0.5, 1.0):
            lim = asy.q_limit_large_a(c, p.mu, p.nu, n, x)
            val = (2.0 * math.sqrt(math.pi * a) * math.exp(-2.0 * a * x)
                   * mopoly.q_eval(p, n, x * x, EXT))
            assert val == pytest.approx(lim, rel=1e-2)


class TestLargeB:
    def test_scaled_match(self):
        c, n, b = 1.0, 1, 100.0
        p = Params(P0.mu, P0.nu, b - c, b)
        for x in (0.5, 1.0):
            lim = asy.p_limit_large_b(c, p, n, x)
            val = (math.sqrt(4.0 * b / math.pi) * math.exp(2.0 * b * x)
                   * mopoly.p_eval(p, n, x * x, EXT))
            assert val == pytest.approx(lim, rel=1e-2)


class TestAtZero:
    def test_example_value(self):
        # (mu=0, nu=1, a=1, b=2), n=0: 9 * rho_{1,2}(0+) = 9/4
        p = Params(mu=0.0, nu=1.0, a=1.0, b=2.0)
        assert asy.p_at_zero(p, 0) == pytest.approx(2.25, rel=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 4, 8])
    def test_extrapolation(self, n):
        got = asy.p_at_zero(P0, n)
        ref = mopoly.p_eval(P0, n, 1e-10, EXT)
        assert got == pytest.approx(ref, rel=1e-6)


class TestMehlerHeine:
    def test_limit_prefactor(self):
        x = 1.0
        ref = (P0.gap ** (P0.mu + 1.0) / P0.a ** P0.mu
               * mellin.meijer_g203(P0.mu, P0.nu, x))
        assert asy.mehler_heine_limit(P0, x) == pytest.approx(ref, rel=1e-12)

    def test_convergence(self):
        x = 1.0
        lim = asy.mehler_heine_limit(P0, x)
        errs = [abs(asy.mehler_heine_scaled_p(P0, n, x) - lim)
                for n in (10, 20, 40)]
        assert errs[0] > errs[1] > errs[2]

    def test_generic_orders(self):
        # shifted orders formed in double lose the non-dyadic digits of mu,
        # nu before the cancelling sum: 1.5377 against the limit 1.0651
        p = Params(0.3, 1.3, 0.9, 1.8)
        lim = asy.mehler_heine_limit(p, 1.0)
        assert abs(asy.mehler_heine_scaled_p(p, 60, 1.0) - lim) <= 2e-2 * abs(lim)

    def test_below_double_range(self):
        # P_200 at the scaled point is 1.5e-378: p_eval raises rather than
        # return 0.0, and the scaling is applied before rounding to a double
        n, x = 200, 0.5
        with pytest.raises(DoubleOverflow, match="below double range"):
            mopoly.p_eval(P0, n, x / ((n + 1) * P0.gap),
                          PrecisionConfig(mode="extended", mantissa_bits=bits_for(n)))
        lim = asy.mehler_heine_limit(P0, x)
        assert abs(asy.mehler_heine_scaled_p(P0, n, x) - lim) <= 1e-2 * abs(lim)

    def test_domain(self):
        with pytest.raises(DomainError):
            asy.mehler_heine_limit(P0, -1.0)
