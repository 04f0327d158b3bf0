"""The scripts under scripts/, run as a user runs them."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import beg_dobrushin

ROOT = Path(__file__).resolve().parent.parent
# the directory holding the imported package, so the script runs the same copy
PACKAGE_PARENT = str(Path(beg_dobrushin.__file__).resolve().parent.parent)


def test_run_certification_writes_passing_reports(tmp_path):
    env = dict(os.environ, PYTHONPATH=PACKAGE_PARENT)
    argv = [sys.executable, str(ROOT / "scripts" / "run_certification.py"),
            "--points-per-region", "1", "--out-dir", str(tmp_path)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    paths = sorted(tmp_path.iterdir())
    assert [p.name for p in paths] == [f"certification_d{d}.json" for d in (1, 2, 3)]
    for d, path in zip((1, 2, 3), paths):
        report = json.loads(path.read_text(), parse_constant=reject)
        assert report["meta"]["d"] == d
        assert len(report["meta"]["points"]) == 3
        assert report["checks"]
        assert all(check["pass"] for check in report["checks"])
        rev = report["meta"]["git_rev"]
        assert rev is None or re.fullmatch("[0-9a-f]{40}", rev)


def test_run_certification_rejects_empty_sample_before_writing(tmp_path):
    env = dict(os.environ, PYTHONPATH=PACKAGE_PARENT)
    out_dir = tmp_path / "reports"
    argv = [sys.executable, str(ROOT / "scripts" / "run_certification.py"),
            "--points-per-region", "0", "--out-dir", str(out_dir)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stderr.endswith("error: --points-per-region must be >= 1, got 0\n")
    assert "Traceback" not in done.stderr
    assert not out_dir.exists()


def test_count_code_skips_blanks_comments_and_docstrings(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""Module docstring,\n\nover three lines."""\n'
        "# a comment\n"
        "import math  # counted\n"
        "\n"
        "def f(x):\n"
        '    """Function docstring."""\n'
        "    text = '''a string\n"
        "\n"
        "    that is code'''\n"
        "    return math.sqrt(x)\n"
    )
    argv = [sys.executable, str(ROOT / "scripts" / "count_code.py"), str(tmp_path)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    # import, def, the string's two non-blank lines and the return
    assert done.stdout == f"5 {source}\n5 total\n"
