import math
import re
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from bmop import specfun
from bmop.errors import DomainError
from bmop.precision import DOUBLE, PrecisionConfig
from bmop.specfun import (Params, bessel_i, bessel_k, besseli_mp, besselk_mp,
                          hyp_terminating, omega, omega_at_zero, omega_ladder_mp,
                          rho, rho_at_zero, rho_ladder_mp)

EXT = PrecisionConfig(mode="extended", mantissa_bits=200)
EXT300 = PrecisionConfig(mode="extended", mantissa_bits=300)


class TestParams:
    def test_valid(self):
        p = Params(mu=0.5, nu=1.5, a=1.0, b=2.0)
        assert p.gap == pytest.approx(3.0)

    @pytest.mark.parametrize("kw", [
        dict(mu=-1.5, nu=1.0, a=1.0, b=2.0),
        dict(mu=0.0, nu=0.0, a=1.0, b=2.0),
        dict(mu=0.0, nu=1.0, a=2.0, b=1.0),
        dict(mu=0.0, nu=1.0, a=-1.0, b=2.0),
    ])
    def test_invalid(self, kw):
        with pytest.raises(DomainError):
            Params(**kw)


class TestBessel:
    @pytest.mark.parametrize("order", [0.0, 0.5, 1.0, 2.5])
    @pytest.mark.parametrize("z", [0.01, 1.0, 10.0, 80.0])
    def test_i_vs_mpmath(self, order, z):
        ref = float(mpmath.besseli(order, z))
        assert bessel_i(order, z).value() == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("order", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("z", [0.01, 1.0, 10.0, 80.0])
    def test_k_vs_mpmath(self, order, z):
        ref = float(mpmath.besselk(order, z))
        assert bessel_k(order, z).value() == pytest.approx(ref, rel=1e-13)

    def test_wronskian(self):
        for z in (0.2, 1.0, 5.0, 30.0):
            lhs = (bessel_i(1.5, z).value() * bessel_k(2.5, z).value()
                   + bessel_i(2.5, z).value() * bessel_k(1.5, z).value())
            assert lhs == pytest.approx(1.0 / z, rel=1e-12)

    # scipy's ive underflows and kve overflows at a large order and a small
    # argument; double mode must then give the extended value, not a
    # truncated series or an infinite log
    @pytest.mark.parametrize("order,z", [(200.0, 4.0), (300.0, 10.0), (130.0, 0.4)])
    def test_i_beyond_scipy_range(self, order, z):
        ref = bessel_i(order, z, EXT300).log_magnitude
        assert abs(bessel_i(order, z).log_magnitude - ref) <= 1e-12

    @pytest.mark.parametrize("order,z,log_k", [(300.0, 1.0, 1616.452238338607),
                                               (170.0, 2.0, 700.7382)])
    def test_k_beyond_scipy_range(self, order, z, log_k):
        ref = bessel_k(order, z, EXT300).log_magnitude
        assert ref == pytest.approx(log_k, rel=1e-7)
        assert abs(bessel_k(order, z).log_magnitude - ref) <= 1e-12 * ref


class TestBesselkMp:
    # both members of the pair against mpmath at bits + 80; at 200 bits the
    # large-z expansion takes over near z = 76
    zs = [0.01, 0.8, 7.0, 60.0, 260.0, 4e-5, 2.0, 80.0]

    @staticmethod
    def check_pair(nu, z, bits=200):
        pair = besselk_mp(nu, z, bits)
        with mp.workprec(bits + 80):
            for k, got in enumerate(pair):
                ref = mpmath.besselk(mp.mpf(nu) + k, mp.mpf(z))
                assert abs(got - ref) <= mp.mpf(2) ** (10 - bits) * abs(ref)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 13])
    @pytest.mark.parametrize("z", zs)
    def test_integer_orders(self, n, z):
        self.check_pair(n, z)

    # half-integer, generic, near-integer, near-half and negative orders;
    # at 5e-324, log2(1/nu) in Temme's guard bits had overflowed
    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, -0.5, 0.3, 7.3, 1e-9, 1 + 1e-12,
                                    0.5000001, 2.4999, -0.3, -0.7, -0.9999, -2.3, 5e-324])
    @pytest.mark.parametrize("z", zs)
    def test_non_integer_orders(self, nu, z):
        self.check_pair(nu, z)

    # Temme's series gives way to the large-z expansion at
    # z = (bits + 20) ln2 / 2; z = 150 and 200 are the far end of the
    # quadrature nodes.  Both branches sum in fixed point at a scale set
    # by bits, so each precision is its own case.
    @pytest.mark.parametrize("bits", [116, 200, 320])
    @pytest.mark.parametrize("where", [0.99, 1.0, 1.01, 150.0, 200.0])
    @pytest.mark.parametrize("nu", [2, 2.5, 0.3, -1.7])
    def test_branch_switch_and_quadrature_range(self, nu, where, bits):
        z = where if where > 2 else where * (bits + 20) * math.log(2) / 2
        self.check_pair(nu, z, bits)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(nu=st.one_of(st.integers(-4, 20).map(lambda k: k / 2),
                        st.floats(-3.0, 10.0)),
           z=st.floats(1e-6, 250.0), bits=st.sampled_from([116, 200, 320]))
    def test_any_order_point_and_precision(self, nu, z, bits):
        self.check_pair(nu, z, bits)


class TestBesseliMp:
    # both members of the pair against mpmath at bits + 80, the reference
    # order formed in mpf: the float nu + 1 is itself rounded (7.3 + 1 is
    # 1.2e-15 off in I_8.3 at z = 5)
    @staticmethod
    def check_pair(nu, z, bits=200):
        pair = besseli_mp(nu, z, bits)
        with mp.workprec(bits + 80):
            for k, got in enumerate(pair):
                ref = mpmath.besseli(mp.mpf(nu) + k, mp.mpf(z))
                assert abs(got - ref) <= mp.mpf(2) ** (10 - bits) * abs(ref)

    # the power series gives way to the large-z expansion at
    # z = (bits + 20) ln2 / 2 when (2 nu + 3)^2 < 8z; z = 150 and 200 lie
    # beyond that switch at every precision here, and for nu = 40 the order
    # condition keeps them on the power series
    @pytest.mark.parametrize("bits", [116, 200, 320])
    @pytest.mark.parametrize("where", [0.99, 1.0, 1.01, 150.0, 200.0])
    @pytest.mark.parametrize("nu", [-0.9, -0.5, 0, 2, 2.5, 7.3, 40])
    def test_branch_switch_and_quadrature_range(self, nu, where, bits):
        z = where if where > 2 else where * (bits + 20) * math.log(2) / 2
        self.check_pair(nu, z, bits)

    @pytest.mark.parametrize("nu", [-0.9, -0.5, 0, 2, 2.5, 7.3, 40])
    @pytest.mark.parametrize("z", [1e-12, 0.01, 1.0, 7.0, 30.0])
    def test_small_and_moderate_z(self, nu, z):
        self.check_pair(nu, z)

    def test_large_order_just_past_the_switch(self):
        # at nu = 40 the alternating expansion's first term ratio is about
        # 4 nu^2 / 8z = 17, and its sum cancels; the order condition keeps
        # the power series there
        z = 1.001 * (116 + 20) * math.log(2) / 2
        assert (2 * 40 + 3) ** 2 >= 8 * z
        self.check_pair(40, z, 116)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(nu=st.one_of(st.integers(-1, 80).map(lambda k: k / 2),
                        st.floats(-1.0, 60.0, exclude_min=True)),
           z=st.floats(1e-6, 300.0), bits=st.sampled_from([64, 116, 200, 320, 600]))
    def test_any_order_point_and_precision(self, nu, z, bits):
        self.check_pair(nu, z, bits)

    @pytest.mark.parametrize("nu,z", [(0.5, 0.0), (-0.5, 0.0), (2.0, -1.0), (-1.0, 1.0),
                                      (-2.5, 1.0)])
    def test_outside_the_domain(self, nu, z):
        with pytest.raises(DomainError):
            besseli_mp(nu, z)


def test_one_extended_evaluator_per_bessel_family():
    # besselk_mp and besseli_mp are the only Bessel evaluators in the
    # library; mpmath's own Bessel functions serve only as test oracles
    offenders = []
    for path in sorted(Path(specfun.__file__).parent.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if (re.search(r"\bmp(math)?\.bessel[ik]\b", line)
                    or re.search(r"from mpmath import .*\bbessel[ik]\b", line)):
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert offenders == []


class TestLadders:
    # integers and half-integers first: they take besselk_mp's special paths
    orders = st.one_of(st.integers(-1, 12).map(lambda k: k / 2),
                       st.floats(-1.0, 6.0, exclude_min=True))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["I", "K"]), order=orders, scale=st.floats(0.05, 10.0),
           x=st.floats(1e-6, 1e4), jmax=st.integers(0, 30),
           bits=st.sampled_from([160, 300]))
    def test_matches_per_order(self, kind, order, scale, x, jmax, bits):
        # the recurrences read the scale as (order+j+1)/a and (order+j-1)/b,
        # so it is drawn apart from the Bessel argument 2 scale sqrt(x)
        ladder = (omega_ladder_mp if kind == "I" else rho_ladder_mp)(order, scale, x, jmax, bits)
        assert len(ladder) == jmax + 1
        bessel = mpmath.besseli if kind == "I" else mpmath.besselk
        with mp.workprec(bits + 60):
            xm = mp.mpf(x)
            for j, got in enumerate(ladder):
                v = mp.mpf(order) + j
                ref = xm ** (v / 2) * bessel(v, 2 * mp.mpf(scale) * mpmath.sqrt(xm))
                assert abs(got - ref) <= mp.mpf(2) ** (10 - bits) * abs(ref)


class TestWeights:
    def test_omega_definition(self):
        x, mu, a = 1.7, 0.5, 1.2
        ref = x ** (mu / 2) * float(mpmath.besseli(mu, 2 * a * math.sqrt(x)))
        assert omega(mu, a, x).value() == pytest.approx(ref, rel=1e-13)

    def test_rho_definition(self):
        x, nu, b = 1.7, 1.5, 2.1
        ref = x ** (nu / 2) * float(mpmath.besselk(nu, 2 * b * math.sqrt(x)))
        assert rho(nu, b, x).value() == pytest.approx(ref, rel=1e-13)

    def test_omega_three_term(self):
        # omega_{mu+1} = x omega_{mu-1} - (mu/a) omega_{mu}
        mu, a = 1.5, 1.0
        for x in (0.1, 1.0, 10.0):
            lhs = omega(mu + 1, a, x).value()
            rhs = x * omega(mu - 1, a, x).value() - mu / a * omega(mu, a, x).value()
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_omega_at_zero(self):
        # literal limit: 0 for mu > 0, 1 at mu = 0, divergent for mu < 0
        assert omega_at_zero(0.5, 1.3) == 0.0
        assert omega_at_zero(0.0, 1.3) == 1.0
        assert omega_at_zero(-0.5, 1.3) == math.inf
        # small-x coefficient: omega(x) ~ (a x)^mu / Gamma(mu+1)
        mu, a, x = 0.5, 1.3, 1e-12
        assert omega(mu, a, x).value() / x ** mu == pytest.approx(
            a ** mu / math.gamma(mu + 1.0), rel=1e-5)

    def test_rho_at_zero(self):
        nu, b = 1.5, 2.0
        x = 1e-12
        assert rho(nu, b, x).value() == pytest.approx(
            rho_at_zero(nu, b).value(), rel=1e-5)

    def test_extended_matches_double(self):
        v_d = omega(0.5, 1.0, 3.0, DOUBLE).value()
        v_e = omega(0.5, 1.0, 3.0, EXT).value()
        assert v_d == pytest.approx(v_e, rel=1e-13)


class TestHypTerminating:
    def test_2f1_n1(self):
        # 2F1(-1, b; c; z) = 1 - b z / c
        assert hyp_terminating([-1.0, 2.0], [3.0], 0.5) == pytest.approx(
            1.0 - 2.0 * 0.5 / 3.0, rel=1e-14)

    def test_1f2_n0(self):
        assert hyp_terminating([0.0], [2.0, 3.0], 1.7) == 1.0

    def test_1f2_finite_sum(self):
        # 1F2(-2; 2, 1; 1): term k has (-2)_k / ((2)_k (1)_k k!)
        val = hyp_terminating([-2.0], [2.0, 1.0], 1.0)
        manual = 1.0 + (-2.0) / (2.0 * 1.0) + 2.0 / ((2.0 * 3.0) * (1.0 * 2.0) * 2.0)
        assert val == pytest.approx(manual, rel=1e-14)
