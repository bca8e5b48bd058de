import math

import numpy as np
import pytest
from scipy import special as sp

from bmop import mellin, mopoly
from bmop.errors import DomainError, NonConvergence, SymmetryViolation
from bmop.precision import PrecisionConfig
from bmop.specfun import Params, rho

EXT = PrecisionConfig(mode="extended", mantissa_bits=300)
P0 = Params(mu=0.5, nu=1.5, a=1.0, b=2.0)


class TestTruncation:
    def test_height_grows_with_tolerance(self):
        t1 = mellin.truncation_height(1e-8, math.pi, 2.0)
        t2 = mellin.truncation_height(1e-14, math.pi, 2.0)
        assert t2 > t1 > 0

    def test_height_bound_is_respected(self):
        t = mellin.truncation_height(1e-10, math.pi, 3.0)
        assert math.exp(-math.pi * t) * t ** 3.0 < 1e-10


class TestCahenMellin:
    @pytest.mark.parametrize("x", [0.3, 1.0, 2.5, 6.0])
    def test_exponential(self, x):
        got = mellin.mb_integrate(
            lambda t: np.exp(sp.loggamma(t) - t * math.log(x)),
            decay_rate=math.pi / 2, poly_power=2.0)
        assert got == pytest.approx(math.exp(-x), rel=1e-10)

    def test_integrand_must_give_one_value_per_node(self):
        # a scalar for the whole contour is malformed, not a cue to loop
        with pytest.raises(DomainError):
            mellin.mb_integrate(lambda t: np.sum(np.exp(sp.loggamma(t))),
                                decay_rate=math.pi / 2, poly_power=2.0)

    def test_symmetry_guard(self):
        # a non-conjugate-symmetric integrand must be flagged, not silently
        # projected to its real part
        with pytest.raises(SymmetryViolation):
            mellin.mb_integrate(
                lambda t: (1.0 + 1.0j) * np.exp(-np.abs(np.imag(t))),
                decay_rate=1.0, poly_power=0.0)


class TestRhoMellin:
    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.7])
    def test_vs_bessel_route(self, nu):
        for x in (0.05, 0.5, 2.0, 8.0):
            got = mellin.rho_mellin(nu, P0.b, x)
            ref = rho(nu, P0.b, x, EXT).value()
            assert got == pytest.approx(ref, rel=1e-9)

    def test_integer_order_supported(self):
        got = mellin.rho_mellin(1.0, 1.6, 0.7)
        ref = rho(1.0, 1.6, 0.7, EXT).value()
        assert got == pytest.approx(ref, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            mellin.rho_mellin(1.5, 2.0, 0.0)
        with pytest.raises(DomainError):
            mellin.rho_mellin(-0.5, 2.0, 1.0)


class TestPMellin:
    @pytest.mark.parametrize("n", [0, 1, 3, 7, 10])
    def test_vs_direct(self, n):
        for x in (0.1, 1.0, 4.0):
            got = mellin.p_mellin_eval(P0, n, x)
            ref = mopoly.p_eval(P0, n, x, EXT)
            assert got == pytest.approx(ref, rel=1e-8)

    def test_degree_cap(self):
        with pytest.raises(DomainError):
            mellin.p_mellin_eval(P0, 41, 1.0)

    @pytest.mark.parametrize("p,x", [
        (P0, 7.960262559627996),
        (Params(0.5, 1.5, 0.9098879818288075, 1.8895432308789497), 17.55172045457327),
    ])
    def test_small_value_is_not_a_symmetry_fault(self, p, x):
        # |P_10| is ~1e-9 of the contour mass here, so the imaginary
        # rounding residual sits far above 1e-10 |P_10| but below the
        # summation floor
        got = mellin.p_mellin_eval(p, 10, x)
        ref = mopoly.p_eval(p, 10, x, EXT)
        assert got == pytest.approx(ref, rel=1e-8)


class TestMeijerG:
    @pytest.mark.parametrize("mu,nu", [(0.5, 1.5), (0.0, 0.7), (1.2, 2.3)])
    def test_contour_vs_residues(self, mu, nu):
        for x in (0.01, 0.5, 2.0, 10.0):
            got = mellin.meijer_g203(mu, nu, x)
            ref = mellin.meijer_g203_series(mu, nu, x)
            assert got == pytest.approx(ref, rel=1e-8)

    def test_series_rejects_integer_nu(self):
        with pytest.raises(DomainError):
            mellin.meijer_g203_series(0.5, 1.0, 1.0)

    def test_contour_handles_integer_nu(self):
        # integer order degenerates the residue ladders; the contour route
        # must still work, checked against mpmath's Meijer-G
        import mpmath
        x = 0.8
        got = mellin.meijer_g203(0.5, 1.0, x)
        ref = float(mpmath.meijerg([[], []], [[0.0, 1.0], [-0.5]], x))
        assert got == pytest.approx(ref, rel=1e-9)
