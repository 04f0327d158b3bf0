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
from conftest import class_loop_max_tv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# a strip point so large that the Lemma 1 table overflows to nan
NAN_SPEC = "d = 2\npoints = -2e307,1e307\nbeta_steps = 5\n"


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

    def test_spec_file_failure_exits_one(self, capsys, tmp_path):
        spec_path = tmp_path / "sweep.spec"
        spec_path.write_text(
            "# concluding-remark counterexample point\n"
            "d = 2\n"
            "points = 0,-2\n"
            "beta_min = 0.001\n"
            "beta_max = 50\n"
            "beta_steps = 10\n"
            "checks = DobrushinSatisfied\n"
        )
        report_path = tmp_path / "report.json"
        code, _, err = run_cli(
            capsys, "verify", "--spec", str(spec_path), "-o", str(report_path)
        )
        assert code == 1
        assert "FAIL" in err
        report = json.loads(report_path.read_text())
        assert report["checks"][0]["witnesses"]

    def test_empty_points_vacuous_pass(self, capsys, tmp_path):
        spec_path = tmp_path / "sweep.spec"
        spec_path.write_text("d = 2\npoints = \nbeta_steps = 3\n")
        code, out, _ = run_cli(capsys, "verify", "--spec", str(spec_path))
        assert code == 0
        report = json.loads(out)
        assert all(check["pass"] for check in report["checks"])

    def test_bad_spec_file_is_usage_error(self, capsys, tmp_path):
        spec_path = tmp_path / "sweep.spec"
        spec_path.write_text("this is not a key value line\n")
        code, _, err = run_cli(capsys, "verify", "--spec", str(spec_path))
        assert code == 2

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

    def test_unknown_spec_key_names_its_line(self, capsys, tmp_path):
        spec_path = tmp_path / "sweep.spec"
        spec_path.write_text("d = 2\nbeta_stepz = 3\n")
        code, out, err = run_cli(capsys, "verify", "--spec", str(spec_path))
        assert code == 2
        assert out == ""
        assert f"{spec_path}:2" in err
        assert "'beta_stepz'" in err

    def test_non_finite_slack_is_usage_error(self, capsys, tmp_path):
        spec_path = tmp_path / "sweep.spec"
        spec_path.write_text(NAN_SPEC)
        report_path = tmp_path / "report.json"
        code, out, err = run_cli(
            capsys, "verify", "--spec", str(spec_path), "--checks", "TVvsLemma1",
            "-o", str(report_path),
        )
        assert code == 2
        assert out == ""
        assert "error: TVvsLemma1" in err
        assert "(-2e+307, 1e+307)" in err
        assert not report_path.exists()

    def test_non_finite_spec_value_is_usage_error(self, capsys, tmp_path):
        spec_path = tmp_path / "sweep.spec"
        spec_path.write_text("d = 2\npoints = nan,0\nbeta_steps = 3\n")
        code, out, _ = run_cli(capsys, "verify", "--spec", str(spec_path))
        assert code == 2
        assert out == ""

    # sha256 of the `checks` block of `begdob verify -d D --seed 2026`
    CHECKS_SHA256 = {
        1: "4d512c2107a447265768575e4f4af1b3fcbd3ad24bc7112504be93eb86578286",
        2: "09fb1d9b805dc652e02115561bf42d9213735b52aa8492463ef456344fd58da8",
        3: "d623ecd3d99cd3ebbdf88128d7c5f2237848e9a423735995dc73556c3981de48",
    }

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_default_report_checks_are_pinned(self, capsys, d):
        code, out, _ = run_cli(capsys, "verify", "-d", str(d), "--seed", "2026")
        assert code == 0
        checks = json.loads(out)["checks"]
        digest = hashlib.sha256(json.dumps(checks, sort_keys=True, indent=2).encode()).hexdigest()
        assert digest == self.CHECKS_SHA256[d]

    ALL_CHECKS = "TVvsLemma1,Lemma1vsLemma2,Lemma1vsLemma3,AllvsTheorem1,DobrushinSatisfied"

    # sha256 of the whole stdout of `begdob verify -d D --checks <all five>`
    FULL_SHA256 = {
        1: "fe343f140c35e11b655ec703a20c77bbf9679a12dbecdae05686abc9c74e4ad3",
        2: "edaa3502cb39da8a390eb0641a1af594a7d2440d8a41150c0b72b0dabd051328",
        3: "aad26aed52f0a2ad47d823338baf5db8a7184aed9a6e68b419821e64d82f35ec",
    }

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_all_checks_report_is_pinned(self, capsys, d):
        code, out, _ = run_cli(capsys, "verify", "-d", str(d), "--checks", self.ALL_CHECKS)
        assert code == 1  # DobrushinSatisfied fails right of the curve
        assert hashlib.sha256(out.encode()).hexdigest() == self.FULL_SHA256[d]

    # sha256 of the report `begdob verify` writes for all five checks on a
    # linear grid from beta = 0, at the default points and three points outside
    # the strip (the command-line grid is logarithmic, so the spec is built here)
    ZERO_GRID_SHA256 = {
        1: "fd418f6d3947abb102db73a86458ef50709dc7edc2b826eb7ae44364daa6e540",
        2: "e8bcfc2d5a12724c853deaa04fb0f9b1ff1de644c3fc90eba84985fae8f1becb",
        3: "c64f1ba3c8c2d10972cffabc118135a5e938c754255f6daa802c265a38959819",
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
        assert hashlib.sha256(text.encode()).hexdigest() == self.ZERO_GRID_SHA256[d]


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
    """Malformed values exit 2 with a message naming the key or option."""

    @pytest.mark.parametrize(
        "text, name",
        [
            ("d = abc\n", "d:"),
            ("seed = 1.5\n", "seed:"),
            ("beta_max = lots\n", "beta_max:"),
            ("points = 1,2,3\n", "points:"),
            ("points = -3,zero\n", "points:"),
            ("beta_steps = 0\n", "beta_steps"),
            ("points_per_region = 0\n", "points_per_region"),
            ("beta_min = 0\n", "beta_min"),
        ],
    )
    def test_spec_file_value(self, capsys, tmp_path, text, name):
        spec_path = tmp_path / "sweep.spec"
        spec_path.write_text(text)
        code, out, err = run_cli(capsys, "verify", "--spec", str(spec_path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {name}")

    def test_binary_spec_file(self, capsys, tmp_path):
        spec_path = tmp_path / "sweep.spec"
        spec_path.write_bytes(b"d = \xff\xfe\n")
        code, _, err = run_cli(capsys, "verify", "--spec", str(spec_path))
        assert code == 2
        assert str(spec_path) in err

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
        ],
    )
    def test_option_value(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {name}")

    def test_flag_overrides_bad_spec_value(self, capsys, tmp_path):
        spec_path = tmp_path / "sweep.spec"
        spec_path.write_text("beta_steps = 0\npoints_per_region = 1\n")
        code, _, err = run_cli(capsys, "verify", "--spec", str(spec_path), "--beta-steps", "2")
        assert code == 0
        assert "error" not in err

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

    FAILING = {
        "region": ("region", "-d", "2", "-x", "-6", "-y", "1e308"),
        "curve": ("curve", "-d", "2", "--y-min", "1e308", "--y-max", "1e308", "--steps", "2"),
        "bounds": ("bounds", "-d", "2", "-x", "-1e308", "-y", "1e307", "--beta", "1"),
        "scan": ("scan", "-d", "2", "-x", "1e308", "-y", "-1e308"),
        "verify": ("verify", "--spec", "{spec}", "--checks", "TVvsLemma1"),
    }

    @pytest.mark.parametrize("command", FAILING)
    def test_failed_command_leaves_output_file_unchanged(self, capsys, tmp_path, command):
        spec_path = tmp_path / "sweep.spec"
        spec_path.write_text(NAN_SPEC)
        target = tmp_path / "earlier.out"
        target.write_bytes(b"earlier output\n")
        argv = [arg.format(spec=spec_path) for arg in self.FAILING[command]]
        code, out, err = run_cli(capsys, *argv, "-o", str(target))
        assert code == 2
        assert out == ""
        assert "error: " in err
        assert target.read_bytes() == b"earlier output\n"

    SUCCEEDING = {
        "region": ("region", "-d", "2", "-x", "-6", "-y", "0", "--format", "csv"),
        "curve": ("curve", "-d", "2", "--y-min", "-2", "--y-max", "2", "--steps", "5"),
        "bounds": ("bounds", "-d", "2", "-x", "-5", "-y", "2", "--beta", "0.5"),
        "scan": ("scan", "-d", "2", "-x", "0", "-y", "-2", "--steps", "5", "--format", "json"),
        "verify": ("verify", "-d", "1", "--points-per-region", "1", "--beta-steps", "3",
                   "--checks", "AllvsTheorem1,DobrushinSatisfied"),
    }

    @pytest.mark.parametrize("command", SUCCEEDING)
    def test_output_file_holds_the_stdout_bytes(self, capsys, tmp_path, command):
        argv = self.SUCCEEDING[command]
        code, out, err = run_cli(capsys, *argv)
        assert out
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
        line = "error: result nan is not finite; an input is too large in magnitude\n"
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
