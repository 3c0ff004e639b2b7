import json
import os
import subprocess
import sys

import pytest

from qkit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_ramanujan_at_zero(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "Aq", "--q", "0.5", "--z", "0")
        assert code == 0 and out.strip() == "1"

    def test_sw_root(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "S", "--q", "0.5", "--n", "1", "--x", "2")
        assert code == 0 and out.strip() == "0"

    def test_theta4_matches_product_value(self, capsys):
        from qkit import QParam, theta4

        code, out, _ = run_cli(capsys, "eval", "theta4", "--q", "0.5", "--z", "0.3")
        assert code == 0
        assert abs(float(out.strip()) - theta4(0.3, QParam(0.5)).real) < 1e-12

    def test_complex_output_format(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "qpoch", "--q", "0.5", "--z", "2,1", "--n", "3")
        assert code == 0 and out.strip().endswith("i") and "+" in out or "-" in out

    def test_every_catalogued_function_evaluates(self, capsys):
        cases = [
            ("qpoch", ["--z", "0.3"]),
            ("qgamma", ["--x", "2.5"]),
            ("theta2", ["--x", "0.2"]),
            ("theta3", ["--x", "0.2"]),
            ("partial_theta", ["--z", "0.4"]),
            ("eq", ["--z", "0.3"]),
            ("Eq", ["--z", "0.3"]),
            ("calE", ["--x", "0.4", "--t", "0.3"]),
            ("phi", ["--upper", "0.2", "--lower", "0.5", "--z", "0.3"]),
            ("psi", ["--upper", "2.0", "--lower", "0.2", "--z", "0.5"]),
            ("m", ["--upper", "0.2", "--lower", "0.3", "--ell", "1.0", "--z", "0.4"]),
            ("bessel1", ["--nu", "0.5", "--z", "0.8"]),
            ("bessel2", ["--nu", "0.5", "--z", "0.8"]),
            ("bessel3", ["--nu", "0.5", "--z", "0.8"]),
            ("I1", ["--nu", "0.5", "--z", "0.8"]),
            ("I2", ["--nu", "0.5", "--z", "0.8"]),
            ("H", ["--n", "4", "--x", "0.3"]),
            ("h", ["--n", "4", "--x", "0.3"]),
            ("L", ["--n", "3", "--alpha", "0.5", "--x", "0.6"]),
            ("p", ["--n", "3", "--upper", "0.2", "--lower", "0.3", "--x", "0.6"]),
        ]
        for fn, extra in cases:
            code, out, err = run_cli(capsys, "eval", fn, "--q", "0.5", *extra)
            assert code == 0 and out.strip(), (fn, code, err)

    def test_unknown_function(self, capsys):
        code, _, err = run_cli(capsys, "eval", "nosuch", "--q", "0.5")
        assert code == 2

    def test_numeric_failure_exit(self, capsys):
        # e_q pole is a numeric failure, not a usage error, also where the double q^(-m)
        # is not exact (0.37**-3 leaves 1 - z q^3 a few ulps off 0)
        for q, z in (("0.5", "4"), ("0.37", repr(0.37**-3))):
            code, _, err = run_cli(capsys, "eval", "eq", "--q", q, "--z", z)
            assert code == 3, (q, z, err)

    def test_lower_parameter_pole_is_named(self, capsys):
        # the lower parameter 2 = q^(-1) is a pole of the degree-3 polynomial
        code, _, err = run_cli(capsys, "eval", "p", "--q", "0.5", "--n", "3", "--lower", "2",
                               "--x", "1")
        assert code == 3 and "PoleError" in err


class TestVerify:
    def test_exit_zero_and_determinism(self, capsys):
        code1, out1, _ = run_cli(capsys, "verify", "--group", "SERIES", "--samples", "1",
                                 "--seed", "42", "--format", "json", "--threads", "1")
        code2, out2, _ = run_cli(capsys, "verify", "--group", "SERIES", "--samples", "1",
                                 "--seed", "42", "--format", "json", "--threads", "1")
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert all(entry["status"] == "pass" for entry in payload)

    def test_csv_mirror(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--group", "SERIES", "--samples", "1",
                               "--seed", "3", "--format", "csv", "--threads", "1")
        assert code == 0
        header = out.splitlines()[0]
        assert header == "id,group,params,lhs,rhs,abs_err,rel_err,status,corrected,wall_ms"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify", "--group", "SERIES", "--samples", "1",
                               "--seed", "3", "--format", "json", "--threads", "1",
                               "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text())

    def test_skipped_point_fails_the_run(self, capsys, monkeypatch):
        from qkit import identities

        skipped = identities.ResidualReport("x", "SERIES", {}, complex("nan"), complex("nan"),
                                            float("nan"), float("nan"), "skipped(budget)", False,
                                            reason="rhs: QuadratureError: did not stabilize")
        monkeypatch.setattr(identities, "run_suite", lambda *args, **kwargs: [skipped])
        code, out, _ = run_cli(capsys, "verify", "--group", "SERIES", "--threads", "1")
        assert code == 1 and "0 pass, 0 fail, 1 skipped" in out
        assert "skipped(budget) (rhs: QuadratureError: did not stabilize)" in out

    def test_python_dash_m(self):
        # a plain checkout has no qkit script on PATH; python -m qkit must work
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run(
            [sys.executable, "-m", "qkit", "verify", "--group", "SERIES", "--samples", "1",
             "--seed", "99", "--threads", "1", "--format", "json"],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)

    def test_env_tolerance_override(self, capsys, monkeypatch):
        monkeypatch.setenv("QKIT_TOL", "1e-1")
        code, out, _ = run_cli(capsys, "verify", "--group", "SERIES", "--samples", "1",
                               "--seed", "3", "--threads", "1")
        assert code == 0


class TestAsymp:
    def test_canonical_family(self, capsys):
        code, out, _ = run_cli(capsys, "asymp", "--family", "AqScaled", "--q", "0.4",
                               "--z", "0.7", "--nmin", "4", "--nmax", "10")
        assert code == 0 and "status=pass" in out

    def test_unknown_family(self, capsys):
        code, _, err = run_cli(capsys, "asymp", "--family", "Nope")
        assert code == 2


class TestOracle:
    def test_equal(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--identity", "qbinom1",
                               "--order", "40", "--q", "1/3")
        assert code == 0 and "equal to order 40" in out

    def test_unknown_identity(self, capsys):
        code, _, _ = run_cli(capsys, "oracle", "--identity", "nonexistent", "--q", "1/3")
        assert code == 2

    def test_bad_rational(self, capsys):
        code, _, _ = run_cli(capsys, "oracle", "--identity", "qbinom1", "--q", "zebra")
        assert code == 2

    def test_base_outside_unit_interval(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--identity", "qbinom1", "--q", "3/2")
        assert code == 2 and "usage error" in err

    def test_order_below_one(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--identity", "qbinom1",
                               "--q", "1/3", "--order", "0")
        assert code == 2 and "usage error" in err
