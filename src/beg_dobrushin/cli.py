"""Command-line front end: region classification, curve export, bound
evaluation, temperature scans and certification sweeps.

Exit codes: 0 success, 1 check failure, 2 usage or parse error.

Each ``cmd_*`` returns its formatted output and exit code (``verify`` also a
stderr summary); only ``main`` writes, so a failed command leaves ``-o`` alone.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import bounds, kernel, region, specification, verify
from .errors import DomainError
from .model import ModelParams, check_int, check_real, check_result, classify_region


def _fmt(value: float) -> str:
    return format(value, ".9g")


def _field(name: str, value, fmt: str):
    """Output field `name`: a float to 9 significant digits, as a number in
    JSON and as text in CSV, None as JSON's null or an empty CSV field, and
    a float that overflowed to inf or nan as check_result's DomainError."""
    if not isinstance(value, float):
        return value if fmt == "json" else "" if value is None else str(value)
    value = check_result(value, name)
    return float(_fmt(value)) if fmt == "json" else _fmt(value)


def _format(records: dict | list[dict], fmt: str) -> str:
    """Records as CSV under a header of their keys, or as JSON: one record (a
    dict) as an object, a list of records as an array.  Every field is checked
    before any text is made."""
    rows = [records] if isinstance(records, dict) else records
    fields = [{k: _field(k, v, fmt) for k, v in row.items()} for row in rows]
    if fmt == "json":
        payload = fields[0] if isinstance(records, dict) else fields
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    return "".join(",".join(line) + "\n" for line in [list(rows[0]), *(f.values() for f in fields)])


def cmd_region(args) -> tuple[str, int]:
    label = classify_region(args.x, args.y)
    record = {
        "d": args.d,
        "x": float(args.x),
        "y": float(args.y),
        "major": label.major.value,
        "sub": label.sub.value if label.sub is not None else None,
        "curve_x": region.curve_x(args.d, args.y),
        "in_dobrushin": region.in_dobrushin_region(args.d, args.x, args.y),
    }
    return _format(record, args.format), 0


def cmd_curve(args) -> tuple[str, int]:
    check_int("--steps", args.steps, "be >= 2", lambda n: n >= 2)
    # linspace forms y_max - y_min, which overflows for far-apart endpoints
    if not math.isfinite(args.y_max - args.y_min):
        raise DomainError(
            f"--y-min {args.y_min!r} and --y-max {args.y_max!r} are too far apart: "
            "their difference is not a finite number"
        )
    ys = np.linspace(args.y_min, args.y_max, args.steps)
    rows = [{"y": float(y), "x_curve": region.curve_x(args.d, float(y))} for y in ys]
    return _format(rows, args.format), 0


def cmd_bounds(args) -> tuple[str, int]:
    params = ModelParams(x=args.x, y=args.y, beta=args.beta, d=args.d)
    ep = bounds.exponents(params)
    # a = 2d|x + y + 1| (or 2d|x|) may overflow, which beta_critical would blame on a/b
    check_result(ep.a, "exponent a", f"at point {(params.x, params.y)} (d = {params.d})", "the point")
    record = {
        "d": args.d,
        "x": float(args.x),
        "y": float(args.y),
        "beta": float(args.beta),
        "a": ep.a,
        "b": ep.b,
        "beta_critical": bounds.beta_critical(ep),
        "theorem1_bound": bounds.theorem1_bound(params),
        "lemma2_bound": bounds.lemma2_bound(params),
        "lemma3_bound": bounds.lemma3_bound(params),
        "r_at_a_over_b": bounds.r_of_t(ep.a / ep.b),
        "threshold": 1.0 / (2 * args.d),
    }
    return _format(record, args.format), 0


def cmd_scan(args) -> tuple[str, int]:
    check_int("--steps", args.steps, "be >= 2", lambda n: n >= 2)
    # the grid lies between its endpoints, so checking them checks it all;
    # checking them first keeps a negative endpoint away from linspace
    for name, beta in (("--beta-min", args.beta_min), ("--beta-max", args.beta_max)):
        ModelParams(x=args.x, y=args.y, beta=check_real(name, beta, "be >= 0", lambda b: b >= 0), d=args.d)
    if args.log:
        betas = _log_grid(args.beta_min, args.beta_max, args.steps)
    else:
        betas = np.linspace(args.beta_min, args.beta_max, args.steps).tolist()
    threshold = 1.0 / (2 * args.d)
    top = kernel.max_tv(args.d, args.x, args.y, betas)[0]
    non_finite = np.flatnonzero(~np.isfinite(top))
    if len(non_finite):
        i = non_finite[0]
        specification.checked_max_tv(float(top[i]), args.d, args.x, args.y, betas[i])
    rows = [{"beta": beta, "max_tv": t, "threshold": threshold, "satisfied": t < threshold}
            for beta, t in zip(betas, top.tolist())]
    return _format(rows, args.format), 0


def _log_grid(beta_min: float, beta_max: float, steps: int) -> tuple[float, ...]:
    """Geometric beta grid from --beta-min to --beta-max, both checked > 0."""
    for name, value in (("--beta-min", beta_min), ("--beta-max", beta_max)):
        check_real(name, value, "be > 0 for a logarithmic beta grid", lambda v: v > 0)
    return verify.log_beta_grid(beta_min, beta_max, steps)


def _spec_from_args(args) -> verify.SweepSpec:
    # an empty grid would certify nothing and still report every check passed
    for name, value in (("--beta-steps", args.beta_steps), ("--points-per-region", args.points_per_region)):
        check_int(name, value, "be >= 1", lambda n: n >= 1)
    points = args.points or verify.sample_strip_points(args.points_per_region, seed=args.seed)

    if args.checks is None:
        checks = verify.BOUND_CHECKS
    else:
        by_value = {c.value: c for c in verify.Check}
        checks = set()
        for name in (part.strip() for part in args.checks.split(",")):
            if name not in by_value:
                raise DomainError(f"unknown check {name!r}; valid checks: {', '.join(by_value)}")
            checks.add(by_value[name])

    beta_grid = _log_grid(args.beta_min, args.beta_max, args.beta_steps)
    # a sweep's grid must increase: one beta always does; more need
    # --beta-min < --beta-max, far enough apart that no two betas round equal
    if any(a >= b for a, b in zip(beta_grid, beta_grid[1:])):
        raise DomainError(
            f"--beta-min and --beta-max must give {args.beta_steps} strictly increasing betas, "
            f"got {args.beta_min!r} and {args.beta_max!r}"
        )
    return verify.SweepSpec(d=args.d, points=points, beta_grid=beta_grid, checks=checks)


def cmd_verify(args) -> tuple[str, int, str]:
    report = verify.run_sweep(_spec_from_args(args))
    # a bound check that saw no strip point checked nothing, so it cannot pass
    unchecked = [c.name for c in report.checks if c.worst_slack is None and c.unclassifiable]
    if unchecked:
        raise DomainError(f"every --point lies outside A|B|C, so {', '.join(unchecked)} checked nothing")
    summary = []
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        slack = "n/a" if check.worst_slack is None else _fmt(check.worst_slack)
        summary.append(f"{check.name}: {status} (worst slack {slack})\n")
        for witness in check.witnesses[:5]:
            summary.append(
                f"  witness: point={witness.point} beta={_fmt(witness.beta)} "
                f"pair={witness.pair} slack={_fmt(witness.slack)}\n"
            )
    return report.to_json() + "\n", 0 if report.all_passed else 1, "".join(summary)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Reads exponent-form negatives such as `-y -6.7e-05`, and `-inf`, as
    values; the stock pattern accepts only `-6` and `-0.5` forms and takes
    the rest for an unknown option.  (`-inf` is then refused as not finite.)"""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)([eE][+-]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="begdob",
        description="Dobrushin uniqueness region of the BEG model",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, fmt_default):
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=fmt_default)

    p = sub.add_parser("region", help="classify a coupling point")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-x", type=_finite_float, required=True)
    p.add_argument("-y", type=_finite_float, required=True)
    add_common(p, "json")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("curve", help="export the uniqueness boundary curve")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--y-min", type=_finite_float, required=True)
    p.add_argument("--y-max", type=_finite_float, required=True)
    p.add_argument("--steps", type=int, default=101)
    add_common(p, "csv")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("bounds", help="evaluate the analytic bounds at a point")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-x", type=_finite_float, required=True)
    p.add_argument("-y", type=_finite_float, required=True)
    p.add_argument("--beta", type=_finite_float, required=True)
    add_common(p, "json")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("scan", help="scan the exact condition over temperatures")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-x", type=_finite_float, required=True)
    p.add_argument("-y", type=_finite_float, required=True)
    p.add_argument("--beta-min", type=_finite_float, default=1e-3)
    p.add_argument("--beta-max", type=_finite_float, default=50.0)
    p.add_argument("--steps", type=int, default=40)
    p.add_argument("--log", action="store_true", help="use a logarithmic beta grid")
    add_common(p, "csv")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="run a certification sweep")
    p.add_argument("-d", type=int, default=2)
    p.add_argument("--point", nargs=2, type=_finite_float, action="append", dest="points",
                   metavar=("X", "Y"), help="a sweep point; repeat for more (default: sampled strip points)")
    p.add_argument("--beta-min", type=_finite_float, default=1e-3)
    p.add_argument("--beta-max", type=_finite_float, default=50.0)
    p.add_argument("--beta-steps", type=int, default=40)
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--points-per-region", type=int, default=20)
    p.add_argument("--checks", default=None, help="comma-separated check names")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        text, code, *summary = args.func(args)
        if args.output is None or args.output == "-":
            sys.stdout.write(text)
        else:
            with open(args.output, "w") as out:
                out.write(text)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stderr.write("".join(summary))
    return code


def run() -> None:
    sys.exit(main())
