import json
import subprocess
import sys

import pytest
import scipy.special as sp

from bmop import cli
from bmop.cli import main


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "bmop.cli"] + args,
                          capture_output=True, text=True)


class TestEval:
    def test_q1_oracle(self, capsys):
        code = main(["eval", "--kind", "Q", "--mu", "0", "--nu", "1",
                     "--a", "1", "--b", "2", "--n", "1", "--x", "1"])
        assert code == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        x, v = map(float, rows[0].split(","))
        assert x == 1.0
        assert v == pytest.approx(-2.0 * sp.iv(0, 2.0) + 3.0 * sp.iv(1, 2.0),
                                  rel=1e-12)

    def test_preset(self, capsys):
        code = main(["eval", "--kind", "P", "--preset", "S1",
                     "--n", "2", "--x", "0.5", "1.5"])
        assert code == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert len(rows) == 2

    def test_bad_params_exit2(self, capsys):
        code = main(["eval", "--kind", "Q", "--mu", "0", "--nu", "1",
                     "--a", "2", "--b", "1", "--n", "0", "--x", "1"])
        assert code == 2
        assert "b > a > 0" in capsys.readouterr().err

    def test_poly_kind_needs_n1(self, capsys):
        code = main(["eval", "--kind", "A1", "--preset", "S0",
                     "--n", "0", "--x", "1"])
        assert code == 2

    def test_bad_precision_env_exit2(self, capsys, monkeypatch):
        monkeypatch.setenv("BMOP_PRECISION", "extended:xx")
        code = main(["eval", "--kind", "Q", "--preset", "S0", "--n", "1", "--x", "1"])
        assert code == 2
        assert "BMOP_PRECISION" in capsys.readouterr().err

    def test_numerical_value_error_exit3(self, capsys, monkeypatch):
        # a ValueError from numpy or mpmath is a numerical failure, not a
        # parameter error
        def fail(*args, **kwargs):
            raise ValueError("math domain error")

        monkeypatch.setattr(cli.mopoly, "q_eval", fail)
        code = main(["eval", "--kind", "Q", "--preset", "S0", "--n", "1", "--x", "1"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_double_range_overflow_exit3(self, capsys):
        code = main(["eval", "--kind", "Q", "--mu", "0.5", "--nu", "1.5",
                     "--a", "200", "--b", "201", "--n", "2", "--x", "4"])
        assert code == 3
        assert "beyond double range" in capsys.readouterr().err


class TestVerify:
    def test_bessel_json(self, capsys):
        code = main(["verify", "--suite", "bessel"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "bmop/1"
        assert payload["suite"] == "bessel"
        assert payload["pass"] is True
        for check in payload["checks"]:
            assert set(check) == {"name", "max_error", "tolerance", "pass"}

    def test_biorth_with_cap(self, capsys, tmp_path):
        out = str(tmp_path / "rep.json")
        code = main(["verify", "--suite", "biorth", "--N", "4", "--out", out])
        assert code == 0
        payload = json.loads(open(out).read())
        assert payload["pass"] is True

    def test_option_no_selected_suite_takes_exits2(self, capsys):
        # bessel has no matrix size: the option must not be dropped silently
        assert main(["verify", "--suite", "bessel", "--N", "4"]) == 2
        assert "takes no option N" in capsys.readouterr().err


class TestKernel:
    def test_curve_csv(self, capsys):
        code = main(["kernel", "--n", "1", "--nu-total", "2",
                     "--alpha", "0.5", "--beta", "1.5",
                     "--x-max", "2", "--x-count", "5"])
        assert code == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert len(rows) == 5
        for row in rows:
            x, k = map(float, row.split(","))
            assert k > 0

    def test_bad_grid_exit2(self, capsys):
        code = main(["kernel", "--n", "1", "--nu-total", "2",
                     "--alpha", "0.5", "--beta", "1.5", "--x-max", "-1"])
        assert code == 2


class TestSample:
    def test_outputs(self, tmp_path, capsys):
        prefix = str(tmp_path / "run")
        code = main(["sample", "--n", "2", "--M", "4", "--tau", "0.5",
                     "--seed", "3", "--num-samples", "50",
                     "--out-prefix", prefix])
        assert code == 0
        payload = json.loads(open(prefix + ".json").read())
        assert payload["num_samples"] == 50
        assert payload["seed"] == 3
        with open(prefix + ".csv") as fh:
            lines = fh.read().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 51


class TestDeterminism:
    def test_sample_byte_identical(self, tmp_path):
        for tag in ("a", "b"):
            prefix = str(tmp_path / tag)
            r = run_cli(["sample", "--n", "2", "--M", "4", "--tau", "0.5",
                         "--seed", "9", "--num-samples", "200",
                         "--out-prefix", prefix])
            assert r.returncode == 0
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for ext in (".csv", ".bin", ".json"):
            assert open(a + ext, "rb").read() == open(b + ext, "rb").read()

    def test_eval_byte_identical(self):
        args = ["eval", "--kind", "Q", "--preset", "S0", "--n", "3",
                "--x", "0.5", "1.0", "2.0"]
        r1 = run_cli(args)
        r2 = run_cli(args)
        assert r1.returncode == r2.returncode == 0
        assert r1.stdout == r2.stdout
