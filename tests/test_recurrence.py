import numpy as np
import pytest

from bmop import mopoly, recurrence
from bmop.errors import DomainError, PrecisionLossWarning
from bmop.precision import PrecisionConfig
from bmop.specfun import Params

EXT = PrecisionConfig(mode="extended", mantissa_bits=300)
P0 = Params(mu=0.5, nu=1.5, a=1.0, b=2.0)
P1 = Params(mu=0.0, nu=1.0, a=0.8, b=1.6)


class TestCoefficients:
    def test_a2_constant(self):
        p = Params(mu=0.0, nu=1.0, a=1.0, b=2.0)
        for n in range(6):
            assert recurrence.q_recurrence_coeffs(p, n).a2 == pytest.approx(1.0 / 9.0)

    def test_a1_at_zero(self):
        # (mu=0, nu=1, a=1, b=2), n=0: a_{1,0} = 2*3*(1/9) + 1/3 = 1
        p = Params(mu=0.0, nu=1.0, a=1.0, b=2.0)
        assert recurrence.q_recurrence_coeffs(p, 0).a1 == pytest.approx(1.0)

    def test_low_order_zeros(self):
        c0 = recurrence.q_recurrence_coeffs(P0, 0)
        c1 = recurrence.q_recurrence_coeffs(P0, 1)
        assert c0.am1 == 0.0
        assert c0.am2 == 0.0
        assert c1.am2 == 0.0

    def test_duality(self):
        for n in range(10):
            bc = recurrence.p_recurrence_coeffs(P0, n)
            for j in range(2, -3, -1):
                m = n + j
                if m < 0:
                    assert bc.at(j) == 0.0
                    continue
                assert bc.at(j) == recurrence.q_recurrence_coeffs(P0, m).at(-j)

    def test_at_reads_each_shift(self):
        c = recurrence.q_recurrence_coeffs(P0, 3)
        assert [c.at(i) for i in range(-2, 3)] == [c.am2, c.am1, c.a0, c.a1, c.a2]
        for i in (-3, 3):
            with pytest.raises(DomainError):
                c.at(i)

    def test_b2_closed_form(self):
        # b_{2,n} = (n+1)(n+2)(mu+nu+n+1)(mu+nu+n+2)(b/(b^2-a^2))^2
        p, n = P0, 3
        s = p.mu + p.nu
        ref = ((n + 1) * (n + 2) * (s + n + 1) * (s + n + 2)
               * (p.b / p.gap) ** 2)
        assert recurrence.p_recurrence_coeffs(p, n).a2 == pytest.approx(ref)

    def test_negative_index_rejected(self):
        with pytest.raises(DomainError):
            recurrence.q_recurrence_coeffs(P0, -1)


class TestResiduals:
    @pytest.mark.parametrize("p", [P0, P1], ids=["S0", "S1"])
    def test_q_residual(self, p):
        for n in (0, 1, 2, 5, 10):
            for x in np.geomspace(0.1, 20.0, 6):
                assert recurrence.q_residual(p, n, float(x), EXT) <= 1e-10

    @pytest.mark.parametrize("p", [P0, P1], ids=["S0", "S1"])
    def test_p_residual(self, p):
        for n in (0, 1, 2, 5, 10):
            for x in np.geomspace(0.1, 20.0, 6):
                assert recurrence.p_residual(p, n, float(x), EXT) <= 1e-10


class TestForward:
    def test_initial_entries_exact(self):
        x = 2.0
        vals = recurrence.q_forward(P0, 1, x)
        assert vals[0] == mopoly.q_eval(P0, 0, x)
        assert vals[1] == mopoly.q_eval(P0, 1, x)

    def test_q_forward_vs_direct(self):
        x = 2.0
        vals = recurrence.q_forward(P0, 8, x, EXT)
        for n, v in enumerate(vals):
            ref = mopoly.q_eval(P0, n, x, EXT)
            assert v == pytest.approx(ref, rel=1e-7)

    def test_p_forward_vs_direct(self):
        x = 2.0
        vals = recurrence.p_forward(P0, 8, x, EXT)
        for n, v in enumerate(vals):
            ref = mopoly.p_eval(P0, n, x, EXT)
            assert v == pytest.approx(ref, rel=1e-7)

    def test_x_positive_required(self):
        with pytest.raises(DomainError):
            recurrence.q_forward(P0, 3, 0.0)
