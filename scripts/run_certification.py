#!/usr/bin/env python3
"""Run the full bound-domination certification sweep for d = 1..3 and write
one JSON report per dimension."""

import argparse
import pathlib
import subprocess
import sys
import time

from beg_dobrushin.verify import default_certification_spec, run_sweep


def source_revision() -> str | None:
    """HEAD of the git checkout holding this script, or None outside one."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=pathlib.Path(__file__).resolve().parent,
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="reports", help="output directory")
    parser.add_argument("--points-per-region", type=int, default=20)
    parser.add_argument("--seed", type=int, default=2026)
    args = parser.parse_args()
    # an empty sample would certify nothing, so refuse it before making out_dir
    if args.points_per_region < 1:
        parser.error(f"--points-per-region must be >= 1, got {args.points_per_region}")

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rev = source_revision()
    all_passed = True
    for d in (1, 2, 3):
        spec = default_certification_spec(
            d, points_per_region=args.points_per_region, seed=args.seed
        )
        start = time.perf_counter()
        report = run_sweep(spec)
        elapsed = time.perf_counter() - start
        report.git_rev = rev
        path = out_dir / f"certification_d{d}.json"
        path.write_text(report.to_json() + "\n")
        all_passed = all_passed and report.all_passed
        print(f"d={d}: {'pass' if report.all_passed else 'FAIL'} "
              f"({elapsed:.1f}s) -> {path}")
        for check in report.checks:
            slack = "n/a" if check.worst_slack is None else f"{check.worst_slack:.3e}"
            print(f"  {check.name}: worst slack {slack}")
    sys.exit(0 if all_passed else 1)


if __name__ == "__main__":
    main()
