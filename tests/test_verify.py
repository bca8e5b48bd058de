import math

import pytest

from bmop import lommel, mopoly, verify
from bmop.errors import DomainError


def test_unknown_suite():
    with pytest.raises(DomainError):
        verify.run_suite("nope")


def test_option_no_selected_suite_takes():
    with pytest.raises(DomainError, match="takes no option N"):
        verify.run_suite("bessel", N=4)


def test_options_reach_the_suites_naming_them(monkeypatch):
    seen = {}

    def a(p, n_max=None):
        seen["a"] = n_max
        return verify.SuiteReport("a", [])

    def b(p, N=None):
        seen["b"] = N
        return verify.SuiteReport("b", [])

    def c(p):
        seen["c"] = True
        return verify.SuiteReport("c", [])

    monkeypatch.setattr(verify, "SUITES", {"a": a, "b": b, "c": c})
    verify.run_suite("all", N=4, n_max=3)
    assert seen == {"a": 3, "b": 4, "c": True}
    with pytest.raises(DomainError, match="takes no option N"):
        verify.run_suite("a", N=4)


def test_single_suite_shape():
    reports = verify.run_suite("bessel")
    assert len(reports) == 1
    payload = reports[0].as_dict()
    assert payload["schema"] == "bmop/1"
    assert payload["suite"] == "bessel"
    assert isinstance(payload["pass"], bool)
    assert all({"name", "max_error", "tolerance", "pass"} == set(c)
               for c in payload["checks"])


def test_check_result_pass_logic():
    good = verify.CheckResult("x", 1e-12, 1e-10)
    bad = verify.CheckResult("y", 1e-8, 1e-10)
    assert good.passed and not bad.passed
    rep = verify.SuiteReport("s", [good, bad])
    assert not rep.passed


def test_worst_keeps_nan():
    # a nan error must fail its check, not drop out of the reduction
    assert math.isnan(verify._worst([0.1, float("nan"), 0.2]))
    assert not verify.CheckResult("x", verify._worst([float("nan"), 0.0]), 1.0).passed


def test_suite_fails_on_a_nan_error(monkeypatch):
    # Python's max drops a nan unless it comes first; the suites must not
    rho_shift_eval = lommel.rho_shift_eval

    def nan_at_3(p, m, x):
        return float("nan") if m == 3 else rho_shift_eval(p, m, x)

    monkeypatch.setattr(lommel, "rho_shift_eval", nan_at_3)
    rep = verify.suite_lommel(verify.PRESETS["S0"], m_max=4)
    check = rep.checks[0]
    assert check.name == "shift_reconstruction"
    assert math.isnan(check.max_error) and not check.passed and not rep.passed


def test_large_a_limit_uses_every_point():
    # at a = 200, x = 2 the unscaled Q_2(x^2) is beyond double range; the
    # scaled value must still enter the error
    checks = {c.name: c.max_error for c in verify.suite_limits(verify.PRESETS["S0"]).checks}
    assert checks["large_a_final"] == pytest.approx(4.005e-3, rel=1e-3)


def test_kernel_suite_builds_one_weight_grid(monkeypatch):
    builds = []
    init = mopoly.WeightGrid.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(mopoly.WeightGrid, "__init__", counted)
    assert verify.suite_kernel(verify.PRESETS["S0"]).passed
    assert len(builds) == 1
