import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import beg_dobrushin
from beg_dobrushin import ModelParams, verify
from beg_dobrushin.cli import main
from conftest import class_loop_max_tv, numpy_exp_is_math_exp


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# a strip point so large that the Lemma 1 table overflows to nan
NAN_SPEC = ("-d", "2", "--point", "-2e307", "1e307", "--beta-steps", "5")


class TestRegionCommand:
    def test_inside_point(self, capsys):
        code, out, _ = run_cli(capsys, "region", "-d", "2", "-x", "-6", "-y", "0")
        assert code == 0
        record = json.loads(out)
        assert record["major"] == "Disordered"
        assert record["sub"] == "B"
        assert record["curve_x"] == pytest.approx(-3.69658, abs=1e-4)
        assert record["in_dobrushin"] is True

    def test_antiquadrupolar_point(self, capsys):
        code, out, _ = run_cli(capsys, "region", "-d", "2", "-x", "1", "-y", "-3")
        assert code == 0
        record = json.loads(out)
        assert record["major"] == "Antiquadrupolar"
        assert record["in_dobrushin"] is False

    def test_strip_point_right_of_curve(self, capsys):
        code, out, _ = run_cli(capsys, "region", "-d", "2", "-x", "-5", "-y", "2")
        assert code == 0
        record = json.loads(out)
        assert record["sub"] == "A"
        assert record["curve_x"] == pytest.approx(-7.0448644, abs=1e-4)
        assert record["in_dobrushin"] is False

    def test_exponent_form_negative_value(self, capsys):
        code, out, _ = run_cli(capsys, "region", "-d", "2", "-x", "-6", "-y", "-6.7e-05")
        assert code == 0
        assert json.loads(out)["y"] == -6.7e-05

    def test_csv_writes_no_sub_as_empty_field(self, capsys):
        # JSON writes null for a point outside A|B|C; CSV leaves the field empty
        code, out, _ = run_cli(capsys, "region", "-d", "2", "-x", "1", "-y", "1", "--format", "csv")
        assert code == 0
        assert out == "d,x,y,major,sub,curve_x,in_dobrushin\n2,1,1,Ferromagnetic,,-4.69657624,False\n"
        assert json.loads(run_cli(capsys, "region", "-d", "2", "-x", "1", "-y", "1")[1])["sub"] is None


class TestCurveCommand:
    def test_degenerate_range_at_band_edge(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "-d", "2", "--y-min", "-1", "--y-max", "-1", "--steps", "2"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "y,x_curve"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(values) == 2
        for v in values:
            assert v == pytest.approx(-2.69658, abs=1e-4)

    def test_blume_capel_rows(self, capsys):
        for d, expected in ((2, -3.69658), (3, -3.77794)):
            code, out, _ = run_cli(
                capsys, "curve", "-d", str(d), "--y-min", "0", "--y-max", "0", "--steps", "2"
            )
            assert code == 0
            value = float(out.strip().splitlines()[1].split(",")[1])
            assert value == pytest.approx(expected, abs=1e-4)

    def test_csv_json_round_trip(self, capsys):
        code, csv_out, _ = run_cli(
            capsys, "curve", "-d", "2", "--y-min", "-2", "--y-max", "2", "--steps", "9"
        )
        assert code == 0
        code, json_out, _ = run_cli(
            capsys,
            "curve", "-d", "2", "--y-min", "-2", "--y-max", "2", "--steps", "9",
            "--format", "json",
        )
        assert code == 0
        csv_rows = [line.split(",") for line in csv_out.strip().splitlines()[1:]]
        json_rows = json.loads(json_out)
        assert len(csv_rows) == len(json_rows) == 9
        for (y_str, x_str), rec in zip(csv_rows, json_rows):
            assert abs(float(y_str) - rec["y"]) <= 1e-15
            assert abs(float(x_str) - rec["x_curve"]) <= 1e-15


class TestBoundsCommand:
    def test_record_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "-d", "2", "-x", "-5", "-y", "2", "--beta", "0.5"
        )
        assert code == 0
        record = json.loads(out)
        assert record["a"] == 8.0
        assert record["b"] == 3.0
        assert record["theorem1_bound"] > max(record["lemma2_bound"], record["lemma3_bound"])

    def test_outside_strip_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "-d", "2", "-x", "1", "-y", "1", "--beta", "1")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("beta", ["0", "1"])
    def test_overflowing_exponent_names_the_point(self, capsys, beta):
        # a = 2d|x + y + 1| is inf: the point is at fault, not a/b or beta
        code, out, err = run_cli(capsys, "bounds", "-d", "2", "-x", "-1e308", "-y", "0.5", "--beta", beta)
        assert code == 2
        assert out == ""
        assert err == (
            "error: exponent a is inf at point (-1e+308, 0.5) (d = 2); "
            "the point is too large in magnitude\n"
        )


class TestScanCommand:
    def test_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scan", "-d", "2", "-x", "-6", "-y", "0",
            "--beta-min", "0.1", "--beta-max", "2", "--steps", "5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "beta,max_tv,threshold,satisfied"
        assert len(lines) == 6
        assert all(line.endswith("True") for line in lines[1:])

    def test_large_dimension_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scan", "-d", "10", "-x", "0", "-y", "-2", "--log",
            "--beta-min", "0.1", "--beta-max", "10", "--steps", "3", "--format", "json",
        )
        assert code == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        rows = json.loads(out, parse_constant=reject)
        assert [row["beta"] for row in rows] == [0.1, 1.0, 10.0]
        for row in rows:
            params = ModelParams(x=0.0, y=-2.0, beta=row["beta"], d=10)
            assert format(row["max_tv"], ".9g") == format(class_loop_max_tv(params), ".9g")
            assert row["threshold"] == 0.05


class TestVerifyCommand:
    def test_default_small_run_passes(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, _, err = run_cli(
            capsys,
            "verify", "--points-per-region", "2", "--beta-steps", "5",
            "-o", str(report_path),
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert set(report) == {"meta", "checks"}
        assert report["meta"]["d"] == 2
        assert all(check["pass"] for check in report["checks"])
        assert "pass" in err

    def test_point_failure_exits_one(self, capsys, tmp_path):
        # the concluding-remark counterexample point; it lies outside the
        # strip, which only the bound checks require
        report_path = tmp_path / "report.json"
        code, _, err = run_cli(
            capsys, "verify", "-d", "2", "--point", "0", "-2", "--beta-steps", "10",
            "--checks", "DobrushinSatisfied", "-o", str(report_path),
        )
        assert code == 1
        assert "FAIL" in err
        report = json.loads(report_path.read_text())
        assert report["checks"][0]["witnesses"]

    def test_points_keep_their_order(self, capsys):
        points = [[-3.0, 0.5], [-0.5, -2.0], [-4.0, 1.5]]
        argv = [arg for point in points for arg in ("--point", *map(str, point))]
        code, out, _ = run_cli(capsys, "verify", "--beta-steps", "3", *argv)
        assert code == 0
        assert json.loads(out)["meta"]["points"] == points

    def test_exponent_form_negative_point(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--beta-steps", "3", "--point", "-3", "-6.7e-05")
        assert code == 0
        assert json.loads(out)["meta"]["points"] == [[-3.0, -6.7e-05]]

    def test_points_all_outside_the_strip_are_usage_error(self, capsys, tmp_path):
        # every bound check would see no cell and report a vacuous pass
        report_path = tmp_path / "report.json"
        report_path.write_text("earlier report\n")
        code, out, err = run_cli(
            capsys, "verify", "--point", "0.5", "0.5", "--point", "1", "1", "--beta-steps", "3",
            "-o", str(report_path),
        )
        assert code == 2
        assert out == ""
        assert "A|B|C" in err
        for name in ("TVvsLemma1", "Lemma1vsLemma2", "Lemma1vsLemma3", "AllvsTheorem1"):
            assert name in err
        assert report_path.read_bytes() == b"earlier report\n"

    def test_point_outside_the_strip_beside_a_strip_point(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--beta-steps", "3", "--point", "-3", "0.5", "--point", "0.5", "0.5",
        )
        assert code == 0
        assert "FAIL" not in err
        for check in json.loads(out)["checks"]:
            assert check["pass"]
            assert check["unclassifiable"] == [[0.5, 0.5]]

    def test_points_ignore_the_seed(self, capsys):
        argv = ("verify", "--beta-steps", "3", "--point", "-3", "0.5")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert run_cli(capsys, *argv, "--seed", "7") == (code, out, err)

    def test_unknown_check_name_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--points-per-region", "1", "--beta-steps", "3",
            "--checks", "TVvsLemma1,Bogus",
        )
        assert code == 2
        assert "'Bogus'" in err
        for name in ("TVvsLemma1", "Lemma1vsLemma2", "Lemma1vsLemma3", "AllvsTheorem1",
                     "DobrushinSatisfied"):
            assert name in err

    def test_non_finite_slack_is_usage_error(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, out, err = run_cli(
            capsys, "verify", *NAN_SPEC, "--checks", "TVvsLemma1", "-o", str(report_path),
        )
        assert code == 2
        assert out == ""
        assert "error: TVvsLemma1" in err
        assert "(-2e+307, 1e+307)" in err
        assert not report_path.exists()

    def test_overflowing_beta_is_named(self, capsys):
        # the Lemma 1 table overflows at beta 1e308, not at the point
        code, out, err = run_cli(capsys, "verify", "--point", "-3", "0", "--beta-steps", "2", "--beta-max", "1e308")
        assert code == 2
        assert out == ""
        assert err == (
            "error: TVvsLemma1 slack is nan at point (-3.0, 0.0), beta 1e+308; "
            "the point or beta is too large in magnitude\n"
        )

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_default_sweep_is_the_api_default(self, capsys, d):
        # the verify flags' defaults and default_certification_spec's must agree
        code, out, _ = run_cli(capsys, "verify", "-d", str(d))
        assert code == 0
        assert out == verify.run_sweep(verify.default_certification_spec(d)).to_json() + "\n"

    def test_non_finite_spec_value_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--point", "nan", "0")
        assert code == 2
        assert out == ""
        assert "argument --point: expected a finite number, got 'nan'" in err

    # Each pinned digest below is recorded for both of numpy's exp paths and
    # chosen by numpy_exp_is_math_exp(): False on numpy's AVX-512 exp kernel,
    # True where np.exp is the C library's exp, as math.exp is.

    # sha256 of the `checks` block of `begdob verify -d D --seed 2026`
    CHECKS_SHA256 = {
        False: {
            1: "4d512c2107a447265768575e4f4af1b3fcbd3ad24bc7112504be93eb86578286",
            2: "09fb1d9b805dc652e02115561bf42d9213735b52aa8492463ef456344fd58da8",
            3: "d623ecd3d99cd3ebbdf88128d7c5f2237848e9a423735995dc73556c3981de48",
        },
        True: {
            1: "4d512c2107a447265768575e4f4af1b3fcbd3ad24bc7112504be93eb86578286",
            2: "09fb1d9b805dc652e02115561bf42d9213735b52aa8492463ef456344fd58da8",
            3: "4cca883061840d544a27e2174efd74c7f0b19c8fc548f05bf1c17f7304176c08",
        },
    }

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_default_report_checks_are_pinned(self, capsys, d):
        code, out, _ = run_cli(capsys, "verify", "-d", str(d), "--seed", "2026")
        assert code == 0
        checks = json.loads(out)["checks"]
        digest = hashlib.sha256(json.dumps(checks, sort_keys=True, indent=2).encode()).hexdigest()
        assert digest == self.CHECKS_SHA256[numpy_exp_is_math_exp()][d]

    ALL_CHECKS = "TVvsLemma1,Lemma1vsLemma2,Lemma1vsLemma3,AllvsTheorem1,DobrushinSatisfied"

    # sha256 of the whole stdout of `begdob verify -d D --checks <all five>`
    FULL_SHA256 = {
        False: {
            1: "fe343f140c35e11b655ec703a20c77bbf9679a12dbecdae05686abc9c74e4ad3",
            2: "edaa3502cb39da8a390eb0641a1af594a7d2440d8a41150c0b72b0dabd051328",
            3: "aad26aed52f0a2ad47d823338baf5db8a7184aed9a6e68b419821e64d82f35ec",
        },
        True: {
            1: "76716905b3901c3e61da285700b6b1d7414c04828ef8670adb5c5fa13cdeb897",
            2: "46311a13874b7838d2100b94cc7205652e83b979eeae8cf88430ed61f0d4067e",
            3: "34a8b8d21bfe724b7b780cfe0d6869b2f79effcc92fb4c042a7577bebd2f0bf4",
        },
    }

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_all_checks_report_is_pinned(self, capsys, d):
        code, out, _ = run_cli(capsys, "verify", "-d", str(d), "--checks", self.ALL_CHECKS)
        assert code == 1  # DobrushinSatisfied fails right of the curve
        assert hashlib.sha256(out.encode()).hexdigest() == self.FULL_SHA256[numpy_exp_is_math_exp()][d]

    # sha256 of the report `begdob verify` writes for all five checks on a
    # linear grid from beta = 0, at the default points and three points outside
    # the strip (the command-line grid is logarithmic, so the spec is built here)
    ZERO_GRID_SHA256 = {
        False: {
            1: "fd418f6d3947abb102db73a86458ef50709dc7edc2b826eb7ae44364daa6e540",
            2: "e8bcfc2d5a12724c853deaa04fb0f9b1ff1de644c3fc90eba84985fae8f1becb",
            3: "c64f1ba3c8c2d10972cffabc118135a5e938c754255f6daa802c265a38959819",
        },
        True: {
            1: "fd418f6d3947abb102db73a86458ef50709dc7edc2b826eb7ae44364daa6e540",
            2: "f63923a1fd861edd97f34f8199575f5486686ffed2c62a3d45385ed12829fd10",
            3: "c64f1ba3c8c2d10972cffabc118135a5e938c754255f6daa802c265a38959819",
        },
    }

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_grid_from_zero_report_is_pinned(self, d):
        spec = verify.SweepSpec(
            d=d,
            points=verify.sample_strip_points(20) + ((0.0, -2.0), (0.2, -1.9), (1.0, 1.0)),
            beta_grid=tuple(np.linspace(0.0, 20.0, 41).tolist()),
            checks=verify.ALL_CHECKS,
        )
        text = verify.run_sweep(spec).to_json() + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == self.ZERO_GRID_SHA256[numpy_exp_is_math_exp()][d]


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("region", "-d", "2", "-x", "nan", "-y", "0"),
            ("region", "-d", "2", "-x", "-6", "-y", "inf"),
            ("bounds", "-d", "2", "-x", "-5", "-y", "2", "--beta", "nan"),
            ("scan", "-d", "2", "-x", "0", "-y", "-2", "--beta-max", "inf"),
            ("verify", "--beta-max", "nan"),
        ],
    )
    def test_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "finite" in err


class TestBadValues:
    """Malformed values exit 2 with a message naming the option."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("-d", "abc"), "argument -d: invalid int value: 'abc'"),
            (("--seed", "1.5"), "argument --seed: invalid int value: '1.5'"),
            (("--beta-max", "lots"), "argument --beta-max: expected a finite number, got 'lots'"),
            (("--beta-max", "inf"), "argument --beta-max: expected a finite number, got 'inf'"),
            (("--beta-max", "1e400"), "argument --beta-max: expected a finite number, got '1e400'"),
            (("--beta-min", "nan"), "argument --beta-min: expected a finite number, got 'nan'"),
            (("--point", "1", "2", "3"), "unrecognized arguments: 3"),
            (("--point", "-3", "zero"), "argument --point: expected a finite number, got 'zero'"),
        ],
    )
    def test_unparsable_verify_value(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("verify", "--beta-min", "0"), "--beta-min"),
            (("verify", "--beta-min", "-1", "--beta-max", "-0.5"), "--beta-min"),
            (("scan", "-d", "2", "-x", "0", "-y", "-2", "--log", "--beta-min", "0"), "--beta-min"),
            (("verify", "--beta-steps", "-3"), "--beta-steps"),
            (("verify", "--beta-steps", "0"), "--beta-steps"),
            (("verify", "--points-per-region", "-2"), "--points-per-region"),
            (("verify", "--points-per-region", "0"), "--points-per-region"),
            (("curve", "-d", "2", "--y-min", "-1", "--y-max", "1", "--steps", "1"), "--steps must be >= 2, got 1"),
            (("scan", "-d", "2", "-x", "0", "-y", "-2", "--steps", "1"), "--steps must be >= 2, got 1"),
            (("verify", "--beta-min", "5", "--beta-max", "1", "--beta-steps", "3"),
             "--beta-min and --beta-max must give 3 strictly increasing betas, got 5.0 and 1.0"),
            (("verify", "--beta-min", "1", "--beta-max", "1", "--beta-steps", "2"),
             "--beta-min and --beta-max must give 2 strictly increasing betas, got 1.0 and 1.0"),
            # ends one float apart: some of the 40 betas round equal
            (("verify", "--beta-min", "1", "--beta-max", "1.0000000000000002"),
             "--beta-min and --beta-max must give 40 strictly increasing betas, got 1.0 and 1.0000000000000002"),
        ],
    )
    def test_option_value(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {name}")

    @pytest.mark.parametrize(
        "argv, names",
        [
            (("curve", "-d", "2", "--y-min", "-1e308", "--y-max", "1e308", "--steps", "3"),
             ("--y-min", "--y-max")),
            (("scan", "-d", "2", "-x", "-6", "-y", "0", "--beta-min", "-1e308", "--beta-max", "1e308",
              "--steps", "3"), ("--beta-min",)),
        ],
    )
    def test_far_apart_grid_endpoints(self, tmp_path, argv, names):
        # a subprocess, so that a numpy RuntimeWarning would reach stderr
        src = str(Path(beg_dobrushin.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        command = [sys.executable, "-W", "default", "-m", "beg_dobrushin", *argv]
        done = subprocess.run(command, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith(f"error: {names[0]}")
        assert all(name in done.stderr for name in names)
        assert "RuntimeWarning" not in done.stderr

    def test_overflowing_csv_output(self, capsys):
        argv = ("curve", "-d", "2", "--y-min", "1e308", "--y-max", "1e308", "--steps", "2")
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 2
        assert out == ""
        assert (code, err) == run_cli(capsys, *argv, "--format", "json")[::2]

    def test_finite_csv_output_unchanged(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "-d", "2", "--y-min", "-2", "--y-max", "2", "--steps", "3")
        assert code == 0
        assert out == "y,x_curve\n-2,-4.04486436\n0,-3.69657624\n2,-7.04486436\n"
        code, out, _ = run_cli(capsys, "region", "-d", "2", "-x", "-6", "-y", "0", "--format", "csv")
        assert code == 0
        assert out == "d,x,y,major,sub,curve_x,in_dobrushin\n2,-6,0,Disordered,B,-3.69657624,True\n"
        code, out, _ = run_cli(capsys, "bounds", "-d", "2", "-x", "-5", "-y", "2", "--beta", "0.7", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == (
            "2,-5,2,0.7,8,3,0.106151244,0.0129801461,0.011143927,0.0097351096,0.466639358,0.25"
        )

    def test_overflowing_json_output(self, capsys):
        code, out, err = run_cli(
            capsys,
            "curve", "-d", "2", "--y-min", "1e308", "--y-max", "1e308", "--steps", "2",
            "--format", "json",
        )
        assert code == 2
        assert out == ""
        assert "too large" in err


class TestSingleWriter:
    """Each command's output is formatted in full before any of it is written."""

    # argv and the whole stderr of each failing command
    FAILING = {
        "region": (("region", "-d", "2", "-x", "-6", "-y", "1e308"),
                   "error: curve x is -inf at y=1e+308 (d = 2); y is too large in magnitude\n"),
        "curve": (("curve", "-d", "2", "--y-min", "1e308", "--y-max", "1e308", "--steps", "2"),
                  "error: curve x is -inf at y=1e+308 (d = 2); y is too large in magnitude\n"),
        "bounds": (("bounds", "-d", "2", "-x", "-1e308", "-y", "1e307", "--beta", "1"),
                   "error: exponent a is inf at point (-1e+308, 1e+307) (d = 2); "
                   "the point is too large in magnitude\n"),
        "scan": (("scan", "-d", "2", "-x", "1e308", "-y", "-1e308"),
                 "error: max TV is nan at beta 0.001 for point (1e+308, -1e+308) (d = 2); "
                 "the point or beta is too large in magnitude\n"),
        "verify": (("verify", *NAN_SPEC, "--checks", "TVvsLemma1"),
                   "error: TVvsLemma1 slack is nan at point (-2e+307, 1e+307), beta 50.0; "
                   "the point or beta is too large in magnitude\n"),
        # an overflow at a huge beta names that beta
        "scan-huge-beta": (("scan", "-d", "2", "-x", "6", "-y", "0", "--beta-max", "1e308", "--steps", "3"),
                           "error: max TV is nan at beta 5e+307 for point (6.0, 0.0) (d = 2); "
                           "the point or beta is too large in magnitude\n"),
        # a finite exponent a, then an overflowing scalar bound, which names itself
        "bounds-lemma2": (("bounds", "-d", "2", "-x", "-1e308", "-y", "9e307", "--beta", "1"),
                          "error: lemma2_bound is nan at point (-1e+308, 9e+307), beta 1.0 (d = 2); "
                          "the point or beta is too large in magnitude\n"),
        # a band B point whose exponent a = 2d|x + y + 1| rounds to 0
        "verify-strip-edge": (("verify", "--point", "-1.0000000000000002", "2.2204460492503052e-16"),
                              "error: exponents must be positive, got a=0.0, b=2.0\n"),
        # a bound check with no point in A|B|C checked nothing: not a pass
        "verify-outside-strip": (("verify", "--point", "0.5", "0.5"),
                                 "error: every --point lies outside A|B|C, so AllvsTheorem1, "
                                 "Lemma1vsLemma2, Lemma1vsLemma3, TVvsLemma1 checked nothing\n"),
    }

    @pytest.mark.parametrize("command", FAILING)
    def test_failed_command_leaves_output_file_unchanged(self, capsys, tmp_path, command):
        argv, message = self.FAILING[command]
        assert run_cli(capsys, *argv) == (2, "", message)
        target = tmp_path / "earlier.out"
        target.write_bytes(b"earlier output\n")
        assert run_cli(capsys, *argv, "-o", str(target)) == (2, "", message)
        assert target.read_bytes() == b"earlier output\n"

    # argv and exit code of each command that writes its output
    WRITING = {
        "region": (("region", "-d", "2", "-x", "-6", "-y", "0", "--format", "csv"), 0),
        "curve": (("curve", "-d", "2", "--y-min", "-2", "--y-max", "2", "--steps", "5"), 0),
        "bounds": (("bounds", "-d", "2", "-x", "-5", "-y", "2", "--beta", "0.5"), 0),
        "scan": (("scan", "-d", "2", "-x", "0", "-y", "-2", "--steps", "5", "--format", "json"), 0),
        "verify": (("verify", "-d", "1", "--points-per-region", "1", "--beta-steps", "3",
                    "--checks", "AllvsTheorem1,DobrushinSatisfied"), 0),
        "curve-band": (("curve", "-d", "2", "--y-min", "-1", "--y-max", "1", "--steps", "3"), 0),
        "bounds-band-C": (("bounds", "-d", "2", "-x", "-3", "-y", "-2", "--beta", "0.5"), 0),
        "scan-log": (("scan", "-d", "2", "-x", "-6", "-y", "0", "--log", "--beta-min", "0.05",
                      "--beta-max", "5", "--steps", "3", "--format", "json"), 0),
        "verify-d1": (("verify", "-d", "1", "--points-per-region", "1", "--beta-steps", "3"), 0),
        "verify-d3": (("verify", "-d", "3", "--points-per-region", "4", "--beta-steps", "40"), 0),
        # only verify needs an increasing grid, and one beta always is one
        "scan-descending": (("scan", "-d", "2", "-x", "-6", "-y", "0", "--beta-min", "2",
                             "--beta-max", "0.1", "--steps", "3"), 0),
        "verify-one-beta": (("verify", "--beta-min", "5", "--beta-max", "1", "--beta-steps", "1",
                             "--point", "-3", "0.5"), 0),
        # DobrushinSatisfied fails right of the curve and at the concluding-remark point
        "verify-all-checks": (("verify", "-d", "2", "--checks", TestVerifyCommand.ALL_CHECKS), 1),
        "verify-point": (("verify", "-d", "2", "--point", "0", "-2", "--beta-steps", "5",
                          "--checks", "DobrushinSatisfied"), 1),
    }

    @pytest.mark.parametrize("command", WRITING)
    def test_output_file_holds_the_stdout_bytes(self, capsys, tmp_path, command):
        argv, want = self.WRITING[command]
        code, out, err = run_cli(capsys, *argv)
        assert code == want
        assert out
        if argv[0] == "verify":  # a report, in a file or on stdout, is JSON
            json.loads(out)
        target = tmp_path / "report.out"
        target.write_text("an earlier, longer file " * 200)
        assert run_cli(capsys, *argv, "-o", str(target)) == (code, "", err)
        assert target.read_bytes() == out.encode()
        assert run_cli(capsys, *argv, "-o", "-") == (code, out, err)


class TestFloatOptionProperty:
    @given(st.floats())
    @example(-math.inf)
    @example(math.inf)
    @example(math.nan)
    @example(-6.7e-05)
    @example(-0.0)
    def test_region_x_accepts_exactly_the_finite_values(self, value):
        # every float as Python writes it: exponent-form negatives, -0.0,
        # nan, inf and -inf included
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["region", "-d", "2", "-x", repr(value), "-y", "0"])
        if math.isfinite(value):
            assert code == 0, err.getvalue()
            assert json.loads(out.getvalue())["x"] == float(format(value, ".9g"))
        else:
            assert code == 2
            assert out.getvalue() == ""
            assert "argument -x: expected a finite number" in err.getvalue()


class TestOverflowMessage:
    def test_scan_overflow_prints_only_the_error_line(self, tmp_path):
        # numpy warns once per code location, so the first and a second call
        # in one process would differ if the kernel let numpy warn
        src = str(Path(beg_dobrushin.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("PYTHONWARNINGS", None)
        script = (
            "from beg_dobrushin.cli import main\n"
            "argv = ['scan', '-d', '2', '-x', '1e308', '-y', '-1e308']\n"
            "assert (main(argv), main(argv)) == (2, 2)\n"
        )
        argv = [sys.executable, "-W", "default", "-c", script]
        done = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == ""
        line = (
            "error: max TV is nan at beta 0.001 for point (1e+308, -1e+308) (d = 2); "
            "the point or beta is too large in magnitude\n"
        )
        assert done.stderr == line * 2


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self, tmp_path):
        src = str(Path(beg_dobrushin.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        argv = [sys.executable, "-m", "beg_dobrushin", "region", "-d", "2", "-x", "-6", "-y", "0"]
        done = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["sub"] == "B"
        argv = [sys.executable, "-m", "beg_dobrushin", "verify", "--beta-steps", "0"]
        done = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert "--beta-steps" in done.stderr


class TestUsage:
    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, "region", "-d", "2", "-x", "-6")
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2
