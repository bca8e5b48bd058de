import math

import numpy as np
import pytest

from bmop import mopoly, quad, rmt
from bmop.errors import DimensionError, DomainError

SPEC = rmt.KernelSpec(kappa=0, nu_total=2.0, alpha=0.5, beta=1.5, n=2)


class TestKernelSpec:
    def test_params_mapping(self):
        p = SPEC.params
        assert p.mu == SPEC.kappa
        assert p.nu == SPEC.nu_total - SPEC.kappa
        assert p.a == SPEC.alpha
        assert p.b == SPEC.beta

    @pytest.mark.parametrize("kw", [
        dict(kappa=-1, nu_total=2.0, alpha=0.5, beta=1.5, n=2),
        dict(kappa=0, nu_total=0.0, alpha=0.5, beta=1.5, n=2),
        dict(kappa=0, nu_total=2.0, alpha=1.5, beta=0.5, n=2),
        dict(kappa=0, nu_total=2.0, alpha=0.5, beta=1.5, n=0),
    ])
    def test_invariants(self, kw):
        with pytest.raises((DomainError, DimensionError)):
            rmt.KernelSpec(**kw)


class TestCoupledModel:
    def test_kernel_spec_mapping(self):
        m = rmt.CoupledModel(n=2, M=4, tau=0.5, seed=1)
        s = m.kernel_spec
        assert s.kappa == 0
        assert s.nu_total == 2.0
        assert s.alpha == pytest.approx((1.0 - 0.5) / 1.0)
        assert s.beta == pytest.approx((1.0 + 0.5) / 1.0)

    def test_dimension_guard(self):
        with pytest.raises(DimensionError):
            rmt.CoupledModel(n=4, M=4, tau=0.5, seed=1)
        with pytest.raises(DomainError):
            rmt.CoupledModel(n=2, M=4, tau=1.5, seed=1)


class TestKernel:
    def test_n1_diagonal_is_q0_p0(self):
        spec = rmt.KernelSpec(kappa=0, nu_total=2.0, alpha=0.5, beta=1.5, n=1)
        p = spec.params
        for x, k in rmt.kernel_density_curve(spec, [0.5, 1.0, 3.0]):
            ref = mopoly.q_eval(p, 0, x) * mopoly.p_eval(p, 0, x)
            assert k == pytest.approx(ref, rel=1e-10)

    def test_kernel_eval_symvals(self):
        got = rmt.kernel_eval(SPEC, 1.0, 2.0)
        p = SPEC.params
        ref = math.fsum(mopoly.q_eval(p, k, 1.0) * mopoly.p_eval(p, k, 2.0)
                        for k in range(SPEC.n))
        assert got == pytest.approx(ref, rel=1e-12)

    def test_trace(self):
        assert rmt.kernel_trace(SPEC) == pytest.approx(2.0, abs=1e-8)

    def test_trace_is_last_partial(self):
        cfg = quad.QuadConfig(panel_order=14, abs_tol=1e-11)
        assert (rmt.kernel_trace(SPEC, cfg, 96)
                == rmt.kernel_trace_partials(SPEC, cfg, 96)[-1])

    def test_trace_partials(self):
        traces = rmt.kernel_trace_partials(
            rmt.KernelSpec(kappa=0, nu_total=2.0, alpha=0.5, beta=1.5, n=3))
        for m, t in enumerate(traces):
            assert t == pytest.approx(m + 1.0, abs=1e-8)

    def test_first_moment_identity(self):
        got = rmt.kernel_first_moment(SPEC)
        ref = rmt.mean_trace_identity(SPEC)
        assert got == pytest.approx(ref, rel=1e-6)

    def test_tail_vanishes(self):
        # the diagonal decays like e^(-2(beta-alpha) sqrt(x)); far outside
        # the support it must be negligible against the bulk scale
        bulk = rmt.kernel_eval(SPEC, 1.0, 1.0)
        curve = rmt.kernel_density_curve(SPEC, [400.0, 500.0])
        for _, k in curve:
            assert abs(k) < 1e-10 * abs(bulk)


class TestSampling:
    def test_shapes_and_determinism(self):
        m = rmt.CoupledModel(n=2, M=4, tau=0.5, seed=11)
        b1 = rmt.sample_coupled(m, 100)
        b2 = rmt.sample_coupled(m, 100)
        assert b1.values.shape == (100, 2)
        assert np.array_equal(b1.values, b2.values)

    def test_seed_changes_samples(self):
        b1 = rmt.sample_coupled(rmt.CoupledModel(n=2, M=4, tau=0.5, seed=1), 50)
        b2 = rmt.sample_coupled(rmt.CoupledModel(n=2, M=4, tau=0.5, seed=2), 50)
        assert not np.array_equal(b1.values, b2.values)

    def test_positive(self):
        b = rmt.sample_coupled(rmt.CoupledModel(n=2, M=4, tau=0.5, seed=3), 200)
        assert np.all(b.values >= 0)

    def test_csv_roundtrip(self, tmp_path):
        b = rmt.sample_coupled(rmt.CoupledModel(n=2, M=4, tau=0.5, seed=5), 64)
        path = str(tmp_path / "s.csv")
        b.to_csv(path)
        back = rmt.SampleBatch.from_csv(path, 2, 4, 0.5, 5)
        assert np.array_equal(b.values, back.values)

    def test_binary_roundtrip(self, tmp_path):
        b = rmt.sample_coupled(rmt.CoupledModel(n=2, M=4, tau=0.5, seed=5), 64)
        path = str(tmp_path / "s.bin")
        b.to_binary(path)
        back = rmt.SampleBatch.from_binary(path)
        assert np.array_equal(b.values, back.values)
        assert (back.n, back.M, back.tau, back.seed) == (2, 4, 0.5, 5)


class TestDensityCompare:
    def test_chi_square_sane(self):
        m = rmt.CoupledModel(n=2, M=4, tau=0.5, seed=17)
        batch = rmt.sample_coupled(m, 20000)
        rep = rmt.density_compare(batch, m.kernel_spec, bins=20)
        assert rep.p_value > 1e-3
        assert rep.dof >= 1
        assert rep.observed.sum() == pytest.approx(2 * 20000, abs=0.5)
        # one edge per merged bin boundary, the overflow bin closed by inf
        assert len(rep.bin_edges) == len(rep.observed) + 1
        assert np.all(np.diff(rep.bin_edges) > 0)
        assert rep.bin_edges[-1] == np.inf

    def test_size_mismatch(self):
        m = rmt.CoupledModel(n=2, M=4, tau=0.5, seed=17)
        batch = rmt.sample_coupled(m, 100)
        other = rmt.KernelSpec(kappa=0, nu_total=2.0, alpha=0.5, beta=1.5, n=3)
        with pytest.raises(DimensionError):
            rmt.density_compare(batch, other)
