"""Acceptance gate: one test per top-level requirement, each printing a
single PASS/FAIL line with its measured worst error and pinned tolerance.

Every check here compares independent computational routes; tolerances are
fixed and must not be loosened to make a failing configuration pass.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from bmop import mellin, mopoly, quad, recurrence, rmt, verify
from bmop.precision import PrecisionConfig
from bmop.specfun import Params, rho

EXT = PrecisionConfig(mode="extended", mantissa_bits=300)
PRESETS = [("S0", verify.PRESETS["S0"]), ("S1", verify.PRESETS["S1"])]


def report(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d} ({label}): {detail}")


def test_criterion_01_biorthogonality():
    t0 = time.time()
    worst_quad = worst_mom = 0.0
    for _, p in PRESETS:
        rep_q = quad.biorth_matrix(p, 13)
        worst_quad = max(worst_quad, rep_q.max_offdiag_abs, rep_q.max_diag_dev)
        rep_m = quad.biorth_matrix_moments(p, 13)
        worst_mom = max(worst_mom, rep_m.max_offdiag_abs, rep_m.max_diag_dev)
    elapsed = time.time() - t0
    ok = worst_quad <= 1e-8 and worst_mom <= 1e-10 and elapsed <= 60.0
    report(1, "biorthogonality 13x13",
           ok, f"quad {worst_quad:.2e} <= 1e-8, moments {worst_mom:.2e} "
               f"<= 1e-10, {elapsed:.1f}s <= 60s")
    assert worst_quad <= 1e-8
    assert worst_mom <= 1e-10
    assert elapsed <= 60.0


def test_criterion_02_moment_oracle():
    t0 = time.time()
    worst = 0.0
    for _, p in PRESETS:
        for i in range(9):
            for j in range(9):
                got = quad.moment_quad(p, i, j)
                ref = quad.moment_closed(p, i, j).value()
                worst = max(worst, abs(got - ref) / abs(ref))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed <= 10.0
    report(2, "moment oracle", ok,
           f"rel {worst:.2e} <= 1e-10, {elapsed:.1f}s <= 10s")
    assert worst <= 1e-10
    assert elapsed <= 10.0


def test_criterion_03_triple_oracle():
    xs = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
    worst_q = worst_p = 0.0
    for _, p in PRESETS:
        for n in range(11):
            q_rows = [(mopoly.q_eval(p, n, x),
                       mopoly.q_eval_determinant(p, n, x),
                       mopoly.q_eval_series(p, n, x)) for x in xs]
            scale = max(abs(r[0]) for r in q_rows)
            for r in q_rows:
                worst_q = max(worst_q, abs(r[0] - r[1]) / scale,
                              abs(r[0] - r[2]) / scale,
                              abs(r[1] - r[2]) / scale)
            p_rows = [(mopoly.p_eval(p, n, x),
                       mopoly.p_eval_determinant(p, n, x),
                       mellin.p_mellin_eval(p, n, x)) for x in xs]
            scale = max(abs(r[0]) for r in p_rows)
            for r in p_rows:
                worst_p = max(worst_p, abs(r[0] - r[1]) / scale,
                              abs(r[0] - r[2]) / scale,
                              abs(r[1] - r[2]) / scale)
    ok = worst_q <= 1e-9 and worst_p <= 1e-8
    report(3, "triple oracle", ok,
           f"Q routes {worst_q:.2e} <= 1e-9, P routes {worst_p:.2e} <= 1e-8")
    assert worst_q <= 1e-9
    assert worst_p <= 1e-8


def test_criterion_04_recurrence():
    worst_res = 0.0
    xs = np.geomspace(0.05, 50.0, 20)
    for _, p in PRESETS:
        for n in range(13):
            for x in xs:
                worst_res = max(worst_res,
                                recurrence.q_residual(p, n, float(x), EXT),
                                recurrence.p_residual(p, n, float(x), EXT))
    worst_dual = 0.0
    for _, p in PRESETS:
        for n in range(13):
            bc = recurrence.p_recurrence_coeffs(p, n)
            for j in range(2, -3, -1):
                m = n + j
                ref = recurrence.q_recurrence_coeffs(p, m).at(-j) if m >= 0 else 0.0
                worst_dual = max(worst_dual, abs(bc.at(j) - ref))
    worst_int = verify._integral_identity_error(verify.PRESETS["S0"], n_cap=6)
    ok = worst_res <= 1e-9 and worst_dual == 0.0 and worst_int <= 1e-6
    report(4, "5-term recurrence", ok,
           f"residual {worst_res:.2e} <= 1e-9, duality {worst_dual:.1e} exact, "
           f"integral {worst_int:.2e} <= 1e-6")
    assert worst_res <= 1e-9
    assert worst_dual == 0.0
    assert worst_int <= 1e-6


def test_criterion_05_derivative_identities():
    worst = 0.0
    for _, p in PRESETS:
        rep = verify.suite_derivative(p, n_max=8)
        worst = max(worst, max(c.max_error for c in rep.checks))
    ok = worst <= 1e-6
    report(5, "derivative identities", ok, f"rel {worst:.2e} <= 1e-6 (n <= 8)")
    assert worst <= 1e-6


def test_criterion_06_sign_changes():
    t0 = time.time()
    ok = True
    for name, p in PRESETS:
        profile = mopoly.sign_change_profile(p, 15)
        ok = ok and profile == list(range(16))
    elapsed = time.time() - t0
    ok = ok and elapsed <= 30.0
    report(6, "sign changes", ok,
           f"Q_n has exactly n sign changes for n <= 15 on both presets, "
           f"{elapsed:.1f}s <= 30s")
    assert ok


def test_criterion_07_limiting_forms():
    rep = verify.suite_limits(verify.PRESETS["S0"])
    worst_name = max(rep.checks, key=lambda c: c.max_error - c.tolerance)
    ok = rep.passed
    report(7, "limiting forms", ok,
           "; ".join(f"{c.name} {c.max_error:.2e} <= {c.tolerance:.0e}"
                     for c in rep.checks))
    assert ok, f"worst check: {worst_name.name}"


def test_criterion_08_mellin_barnes():
    from scipy import special as sp

    p = verify.PRESETS["S0"]
    worst_rho = 0.0
    for x in np.geomspace(0.02, 10.0, 25):
        got = mellin.rho_mellin(p.nu, p.b, float(x))
        ref = rho(p.nu, p.b, float(x), EXT).value()
        worst_rho = max(worst_rho, abs(got - ref) / abs(ref))
    worst_cahen = 0.0
    for x in (0.3, 1.0, 2.5, 6.0):
        got = mellin.mb_integrate(
            lambda t: np.exp(sp.loggamma(t) - t * math.log(x)),
            decay_rate=math.pi / 2, poly_power=2.0)
        worst_cahen = max(worst_cahen, abs(got - math.exp(-x)) / math.exp(-x))
    worst_g = 0.0
    for mu, nu in ((0.5, 1.5), (0.0, 0.7), (1.2, 2.3)):
        for x in (0.01, 0.5, 2.0, 10.0):
            got = mellin.meijer_g203(mu, nu, x)
            ref = mellin.meijer_g203_series(mu, nu, x)
            worst_g = max(worst_g, abs(got - ref) / abs(ref))
    ok = worst_rho <= 1e-9 and worst_cahen <= 1e-10 and worst_g <= 1e-8
    report(8, "Mellin-Barnes layer", ok,
           f"rho {worst_rho:.2e} <= 1e-9, Cahen-Mellin {worst_cahen:.2e} "
           f"<= 1e-10, Meijer-G {worst_g:.2e} <= 1e-8")
    assert worst_rho <= 1e-9
    assert worst_cahen <= 1e-10
    assert worst_g <= 1e-8


def test_criterion_09_kernel():
    # traces of K_1 .. K_6, projections of K_1 .. K_4 and first moments of
    # K_2, K_3, all read from one product rule
    checks = {c.name: c.max_error for c in verify.suite_kernel(verify.PRESETS["S0"]).checks}
    worst_tr, worst_proj, worst_mom = (checks[k] for k in ("trace", "projection", "first_moment"))
    ok = worst_tr <= 1e-8 and worst_proj <= 1e-6 and worst_mom <= 1e-6
    report(9, "correlation kernel", ok,
           f"trace {worst_tr:.2e} <= 1e-8 (n <= 6), projection "
           f"{worst_proj:.2e} <= 1e-6 (n <= 4), moment {worst_mom:.2e} <= 1e-6")
    assert worst_tr <= 1e-8
    assert worst_proj <= 1e-6
    assert worst_mom <= 1e-6


def test_criterion_10_monte_carlo():
    t0 = time.time()
    model = rmt.CoupledModel(n=2, M=4, tau=0.5, seed=20260823)
    batch = rmt.sample_coupled(model, 200000)
    spec = model.kernel_spec
    sums = batch.values.sum(axis=1)
    pred = rmt.mean_trace_identity(spec)
    se = sums.std(ddof=1) / math.sqrt(len(sums))
    z = (sums.mean() - pred) / se
    rep = rmt.density_compare(batch, spec)
    elapsed = time.time() - t0
    ok = abs(z) <= 3.0 and rep.p_value > 1e-3 and elapsed <= 300.0
    report(10, "Monte-Carlo vs kernel", ok,
           f"mean z = {z:.2f} (|z| <= 3), chi-square p = {rep.p_value:.3f} "
           f"> 0.001, {elapsed:.1f}s <= 300s")
    assert abs(z) <= 3.0
    assert rep.p_value > 1e-3
    assert elapsed <= 300.0


def test_criterion_11_determinism(tmp_path):
    def run(args):
        r = subprocess.run([sys.executable, "-m", "bmop.cli"] + args,
                           capture_output=True)
        assert r.returncode == 0, r.stderr
        return r.stdout

    eval_args = ["eval", "--kind", "P", "--preset", "S0", "--n", "4",
                 "--x", "0.3", "1.0", "3.0"]
    same_eval = run(eval_args) == run(eval_args)

    outs = []
    for tag in ("a", "b"):
        prefix = str(tmp_path / tag)
        run(["sample", "--n", "2", "--M", "4", "--tau", "0.5", "--seed", "42",
             "--num-samples", "300", "--out-prefix", prefix])
        outs.append(b"".join(open(prefix + ext, "rb").read()
                             for ext in (".csv", ".bin", ".json")))
    same_sample = outs[0] == outs[1]

    ok = same_eval and same_sample
    report(11, "determinism", ok,
           f"eval byte-identical: {same_eval}, sample byte-identical: "
           f"{same_sample}")
    assert same_eval
    assert same_sample
