"""The one precision rule, precision.bits_for, and the sites that take their
working bits from it: each returns the doubles it returned at its former
bit count, and the cancellation on the sign-change window stays well inside
the rule's budget."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from bmop import asymptotics as asy
from bmop import mopoly, rmt, specfun
from bmop.precision import PrecisionConfig, bits_for
from bmop.specfun import Params

SETS = {"S0": Params(0.5, 1.5, 1.0, 2.0), "S1": Params(0.0, 1.0, 0.8, 1.6),
        "generic": Params(0.3, 1.3, 0.9, 1.8)}


def _former_escalation_bits(ratio, n):
    """The escalation formula as it stood before bits_for replaced it."""
    lost = 0 if not math.isfinite(ratio) or ratio <= 1 else int(math.log2(ratio))
    if not math.isfinite(ratio):
        lost = 4 * max(n, 10)
    return min(53 + lost + 48, 4000)


@pytest.mark.parametrize("ratio", [0.5, 1.0, 1e5, 1.9e8, 1e300, math.inf, math.nan])
@pytest.mark.parametrize("n", [0, 10, 34, 1000])
def test_bits_for_keeps_the_escalation_values(n, ratio):
    assert bits_for(n, ratio) == _former_escalation_bits(ratio, n)


def test_bits_for_degree_budget():
    assert [bits_for(n) for n in (0, 10, 15, 30, 40, 80)] == [141, 141, 161, 221, 261, 421]
    assert bits_for(1000) == 4000
    assert bits_for(80, 2.0 ** 66.5) == 167  # a measured ratio overrides the degree


@pytest.mark.parametrize("name", SETS)
def test_mehler_heine_as_at_64_plus_12n_bits(monkeypatch, name):
    p = SETS[name]
    cases = [(n, x) for n in (20, 40, 80) for x in (0.1, 1.0, 5.0)]
    values = [asy.mehler_heine_scaled_p(p, n, x) for n, x in cases]
    monkeypatch.setattr(asy, "bits_for", lambda n, ratio=math.inf: 64 + 12 * n)
    assert [asy.mehler_heine_scaled_p(p, n, x) for n, x in cases] == values


@pytest.mark.parametrize("name", SETS)
def test_determinants_as_at_144_bits(name):
    p = SETS[name]
    former = PrecisionConfig(mode="extended", mantissa_bits=144)
    for x in (0.3, 2.0, 9.0):
        assert mopoly.q_eval_determinant(p, 10, x) == mopoly.q_eval_determinant(p, 10, x, former)
        assert mopoly.p_eval_determinant(p, 10, x) == mopoly.p_eval_determinant(p, 10, x, former)


# kernel parameters must have an integer kappa = mu, so S0 has no kernel;
# S1 and the int, half and generic orders of the benchmark's curves stand in
@pytest.mark.parametrize("spec", [rmt.KernelSpec(0, 1.0, 0.8, 1.6, 3),
                                  rmt.KernelSpec(0, 2.0, 1 / 3, 5 / 3, 2),
                                  rmt.KernelSpec(0, 2.5, 0.5, 1.5, 3),
                                  rmt.KernelSpec(1, 3.1374, 0.5, 1.5, 4)],
                         ids=["S1", "int", "half", "generic"])
def test_kernel_tables_as_at_200_bits(monkeypatch, spec):
    xs = np.linspace(0.05, 12.0, 40)
    edges = np.linspace(1e-12, 10.0, 21)
    curve = rmt.kernel_density_curve(spec, xs)
    counts = rmt._expected_counts(spec, edges, 1000)
    monkeypatch.setattr(rmt, "bits_for", lambda n, ratio=math.inf: 200)
    assert rmt.kernel_density_curve(spec, xs) == curve
    np.testing.assert_array_equal(rmt._expected_counts(spec, edges, 1000), counts)


def _sign_window_loss(p, n, points=60, bits=800):
    """Bits lost to cancellation, log2(max term / |sum|), by Q_n and P_n at
    the worst of `points` nodes of the sign-change window."""
    lo, hi = mopoly.sign_change_window(p, n)
    worst = 0.0
    with mp.workprec(bits):
        qc, pc = (mopoly._coeffs_mp(f(p), n) for f in (mopoly._q_family, mopoly._p_family))
        for x in np.geomspace(lo, hi, points):
            for coeffs, ladder in ((qc, specfun.omega_ladder_mp(p.mu, p.a, x, n, bits)),
                                   (pc, specfun.rho_ladder_mp(p.nu, p.b, x, n, bits))):
                terms = [c * w for c, w in zip(coeffs, ladder)]
                top = max(abs(t) for t in terms)
                worst = max(worst, float(mpmath.log(top / abs(mpmath.fsum(terms)), 2)))
    return worst


@settings(max_examples=10, deadline=None, derandomize=True)
@given(mu=st.one_of(st.integers(0, 5).map(float),
                    st.floats(-1.0, 6.0, exclude_min=True, exclude_max=True)),
       nu=st.one_of(st.integers(1, 7).map(float),
                    st.floats(0.0, 8.0, exclude_min=True, exclude_max=True)),
       a=st.floats(0.05, 10.0),
       ratio=st.floats(1.001, 50.0),
       n=st.integers(0, 15))
def test_sign_window_loss_within_half_the_budget(mu, nu, a, ratio, n):
    # the rule reserves bits_for(n) - 53 bits above the double result; at
    # most half of them may go to cancellation
    p = Params(mu, nu, a, a * ratio)
    assert _sign_window_loss(p, n) <= (bits_for(n) - 53) / 2


@settings(max_examples=8, deadline=None, derandomize=True)
@given(mu=st.one_of(st.integers(0, 5).map(float),
                    st.floats(-1.0, 6.0, exclude_min=True, exclude_max=True)),
       nu=st.one_of(st.integers(1, 7).map(float),
                    st.floats(0.0, 8.0, exclude_min=True, exclude_max=True)),
       a=st.floats(0.05, 10.0),
       ratio=st.floats(1.001, 50.0))
def test_sign_counts_exact_off_the_presets(mu, nu, a, ratio):
    # Q_n has exactly n sign changes, all inside the scan window, on every
    # admissible parameter set, not only on S0 and S1
    p = Params(mu, nu, a, a * ratio)
    assert mopoly.sign_change_profile(p, 8, grid_points=1024) == list(range(9))
