import collections
import math

import numpy as np
import pytest

from bmop import mopoly, quad
from bmop.errors import DomainError, NonConvergence
from bmop.specfun import Params

P0 = Params(mu=0.5, nu=1.5, a=1.0, b=2.0)
P1 = Params(mu=0.0, nu=1.0, a=0.8, b=1.6)


class TestHalfLine:
    def test_exponential(self):
        # integral of e^(-3x) dx = 1/3
        got = quad.integrate_half_line(lambda x: np.exp(-3.0 * x), 3.0)
        assert got == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_gamma_integral(self):
        # integral of x^2.5 e^(-x) dx = Gamma(3.5)
        got = quad.integrate_half_line(lambda x: x ** 2.5 * np.exp(-x), 1.0)
        assert got == pytest.approx(math.gamma(3.5), rel=1e-10)

    def test_vectorized_integrand_error_propagates(self):
        # the integrand is called on the whole node array; a numerical
        # failure inside it must surface
        def f(x):
            if isinstance(x, np.ndarray):
                raise NonConvergence("inner iteration failed")
            return math.exp(-x)

        with pytest.raises(NonConvergence):
            quad.integrate_half_line(f, 1.0)

    def test_integrand_must_give_one_value_per_node(self):
        # a scalar for the whole array is malformed, not a cue to loop
        with pytest.raises(DomainError):
            quad.integrate_half_line(lambda x: float(np.max(np.exp(-x))), 1.0)


class TestMoments:
    @pytest.mark.parametrize("p", [P0, P1], ids=["S0", "S1"])
    def test_closed_form(self, p):
        # cross-moment of the two weights against the gamma-form oracle
        for i in range(3):
            for j in range(3):
                base = p.mu + p.nu + 1.0 + i + j
                ref = (p.a ** (p.mu + i) * p.b ** (p.nu + j)
                       * math.gamma(base) / (2.0 * p.gap ** base))
                assert quad.moment_closed(p, i, j).value() == pytest.approx(
                    ref, rel=1e-13)

    @pytest.mark.parametrize("p", [P0, P1], ids=["S0", "S1"])
    def test_quad_vs_closed(self, p):
        for i in (0, 3, 8):
            for j in (0, 3, 8):
                got = quad.moment_quad(p, i, j)
                ref = quad.moment_closed(p, i, j).value()
                assert got == pytest.approx(ref, rel=1e-10)


class TestBiorthogonality:
    @pytest.mark.parametrize("p", [P0, P1], ids=["S0", "S1"])
    def test_quadrature_path(self, p):
        rep = quad.biorth_matrix(p, 5)
        assert rep.max_offdiag_abs <= 1e-8
        assert rep.max_diag_dev <= 1e-8

    @pytest.mark.parametrize("p", [P0, P1], ids=["S0", "S1"])
    def test_moment_path(self, p):
        rep = quad.biorth_matrix_moments(p, 8)
        assert rep.max_offdiag_abs <= 1e-10
        assert rep.max_diag_dev <= 1e-10

    def test_orthogonality_to_lower_moments(self):
        # Q_n kills rho-moments of order below n
        for n in (1, 3, 5):
            for j in range(n):
                val, scale = quad.q_rho_moment(P0, n, j)
                assert abs(val) <= 1e-12 * scale


class TestProductRule:
    def test_each_form_is_formed_once(self, monkeypatch):
        # the N^2 entries of the matrix read N forms of each family
        calls = collections.Counter()
        for name in ("q_values_mp", "p_values_mp"):
            def counted(self, n, name=name, method=getattr(mopoly.WeightGrid, name)):
                calls[name] += 1
                return method(self, n)
            monkeypatch.setattr(mopoly.WeightGrid, name, counted)
        quad.biorth_matrix(P0, 4)
        assert calls == {"q_values_mp": 4, "p_values_mp": 4}

    def test_tail_bound_unreachable(self):
        cfg = quad.QuadConfig(abs_tol=1e-300, max_doublings=2)
        with pytest.raises(NonConvergence):
            quad.ProductRule(P0, 2, cfg=cfg)


class TestConfig:
    def test_bad_size(self):
        with pytest.raises((DomainError, ValueError)):
            quad.biorth_matrix(P0, 0)
