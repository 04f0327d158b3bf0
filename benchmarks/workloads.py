"""The four workloads: how each makes its operations from the seed, runs one
through the package's public entry points, and checks its output.

Operations come in cycles.  A cycle holds the same mix of dimensions and
point kinds at every seed, so a run of whole cycles costs the same at every
seed and only the coordinates change.  Cycle 0 is the set-up cycle.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path

import oracles

FIXED_POINT_BETA = 0.53591  # find_failure_beta(2, 0, -2), to 1e-5
SCAN_BETAS = (0.05, 0.5, 5.0)  # geomspace(0.05, 5, 3)


@dataclass(frozen=True)
class Op:
    id: int
    d: int
    args: tuple
    cells: int


@dataclass
class Outcome:
    op: Op
    latency: float
    value: object = None
    error: str | None = None
    output_bytes: int = 0
    witnesses: int = 0


def _call_cli(pkg, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = pkg.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool, tmp: Path):
        self.seed = seed
        self.smoke = smoke
        self.tmp = tmp

    def rng(self, cycle: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{cycle}")

    def cycle(self, index: int) -> list[Op]:
        raise NotImplementedError

    def setup_ops(self) -> list[Op]:
        """The first operation of each dimension the workload uses."""
        firsts: dict[int, Op] = {}
        for op in self.cycle(0):
            firsts.setdefault(op.d, op)
        return list(firsts.values())

    def run(self, pkg, op: Op) -> Outcome:
        start = time.perf_counter()
        try:
            return self._run(pkg, op, start)
        except Exception as exc:  # an operation that raises counts as failed
            return Outcome(op, time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")

    def _run(self, pkg, op: Op, start: float) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> str | None:
        """None if the outcome is correct, else what is wrong with it."""
        if outcome.error is not None:
            return outcome.error
        try:
            return self._check(outcome.op, outcome.value)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"

    def _check(self, op: Op, value) -> str | None:
        raise NotImplementedError


class Certify(Workload):
    """`begdob verify -d D --seed S -o <file>`, D cycling 1, 2, 3."""

    name = "certify"
    CHECK_NAMES = ["AllvsTheorem1", "Lemma1vsLemma2", "Lemma1vsLemma3", "TVvsLemma1"]

    def cycle(self, index: int) -> list[Op]:
        per_region, steps = (1, 4) if self.smoke else (20, 40)
        cells = 3 * per_region * steps
        return [Op(index * 10 + d, d, (per_region, steps), cells) for d in (1, 2, 3)]

    def _run(self, pkg, op: Op, start: float) -> Outcome:
        per_region, steps = op.args
        path = self.tmp / f"verify-{os.getpid()}.json"
        argv = ["verify", "-d", str(op.d), "--seed", str(self.seed), "-o", str(path)]
        if self.smoke:
            argv += ["--points-per-region", str(per_region), "--beta-steps", str(steps)]
        rc, _, err = _call_cli(pkg, argv)
        latency = time.perf_counter() - start
        if rc != 0:
            return Outcome(op, latency, error=f"exit {rc}: {err.strip()[-300:]}")
        text = path.read_text()
        doc = oracles.strict_json(text)
        witnesses = sum(len(c.get("witnesses", ())) for c in doc.get("checks", ()))
        return Outcome(op, latency, value=doc, output_bytes=len(text.encode()), witnesses=witnesses)

    def _check(self, op: Op, doc) -> str | None:
        per_region, steps = op.args
        meta, checks = doc["meta"], doc["checks"]
        if meta["d"] != op.d or len(meta["points"]) != 3 * per_region or len(meta["grid"]) != steps:
            return (f"report describes d={meta['d']}, {len(meta['points'])} points, "
                    f"{len(meta['grid'])} betas")
        if [c["name"] for c in checks] != self.CHECK_NAMES:
            return f"checks {[c['name'] for c in checks]}"
        for c in checks:
            slack = c["worst_slack"]
            if not (c["pass"] is True and c["fail_count"] == 0 and not c["witnesses"]
                    and not c["unclassifiable"] and isinstance(slack, float) and slack >= -1e-12):
                return f"check {c['name']} failed: worst slack {slack}, {c['fail_count']} failures"
        if self.seed == 2026 and not self.smoke:
            digest = oracles.checks_digest(checks)
            if digest != oracles.VERIFY_CHECKS_SHA256[op.d]:
                return f"checks block of d={op.d} differs from the recorded digest ({digest})"
        return None


class ExactScan(Workload):
    """`begdob scan -d D -x X -y Y --log` over three betas, D from 4 to 6,
    with points on both sides of the uniqueness curve.

    A cycle is d = 4, 5, 5, 6, 6, so the median latency falls among the d=5
    operations and the 90th percentile among the d=6 ones rather than
    between two dimensions.  d = 7 is left out: one operation takes 3-4 s
    and 400 MB, too few per run for a steady median.
    """

    name = "exact-scan"

    def cycle(self, index: int) -> list[Op]:
        rng = self.rng(index)
        ops = []
        dims = (2, 3, 3) if self.smoke else (4, 5, 5, 6, 6)
        for k, d in enumerate(dims):
            y = rng.uniform(-3.0, 3.0)
            gap = rng.uniform(0.1, 2.0)
            inside = (index + k) % 2 == 0
            x = oracles.curve_x(d, y) + (-gap if inside else gap)
            ops.append(Op(index * 10 + k, d, (x, y), len(SCAN_BETAS)))
        return ops

    def _run(self, pkg, op: Op, start: float) -> Outcome:
        x, y = op.args
        argv = ["scan", "-d", str(op.d), "-x", repr(x), "-y", repr(y), "--log",
                "--beta-min", repr(SCAN_BETAS[0]), "--beta-max", repr(SCAN_BETAS[-1]),
                "--steps", str(len(SCAN_BETAS)), "--format", "json"]
        rc, out, err = _call_cli(pkg, argv)
        latency = time.perf_counter() - start
        if rc != 0:
            return Outcome(op, latency, error=f"exit {rc}: {err.strip()[-300:]}")
        return Outcome(op, latency, value=oracles.strict_json(out), output_bytes=len(out.encode()))

    def _check(self, op: Op, rows) -> str | None:
        x, y = op.args
        threshold = 1.0 / (2 * op.d)
        if len(rows) != len(SCAN_BETAS):
            return f"{len(rows)} rows"
        # The CLI prints 9 significant digits.
        for row, beta in zip(rows, SCAN_BETAS):
            ref = oracles.class_max_tv(op.d, x, y, beta)
            if not math.isclose(row["beta"], beta, rel_tol=1e-8):
                return f"beta {row['beta']} != {beta}"
            if not math.isclose(row["max_tv"], ref, rel_tol=1e-8, abs_tol=1e-300):
                return f"max_tv {row['max_tv']} != {ref} at beta {beta}"
            if not math.isclose(row["threshold"], threshold, rel_tol=1e-8):
                return f"threshold {row['threshold']}"
            near_threshold = math.isclose(ref, threshold, rel_tol=1e-8)
            if row["satisfied"] != (ref < threshold) and not near_threshold:
                return f"satisfied={row['satisfied']} with max_tv {ref} at beta {beta}"
        return None


class FailureSearch(Workload):
    """Locate one point: classify_region, in_dobrushin_region, curve_x, then
    find_failure_beta.  Each cycle holds (2, 0, -2) and, per d, one point
    inside the curve and one in the ordered phases near (0, -2), plus a
    second inside point at d=4: the slowest kind then fills the top fifth of
    latencies, so the 90th percentile falls inside it."""

    name = "failure-search"

    def cycle(self, index: int) -> list[Op]:
        rng = self.rng(index)
        dims = (1, 2) if self.smoke else (1, 2, 3, 4)
        kinds = [(d, kind) for d in dims for kind in ("inside", "outside")] + [(dims[-1], "inside")]
        ops = [Op(index * 100, 2, (0.0, -2.0, "fixed"), 1)]
        for k, (d, kind) in enumerate(kinds, start=1):
            if kind == "inside":
                y = rng.uniform(-3.0, 3.0)
                x = oracles.curve_x(d, y) - rng.uniform(0.1, 3.0)
            else:  # x > 0, y in [-2.6, -1.4]: the exact condition fails at some beta
                x, y = rng.uniform(0.05, 0.6), rng.uniform(-2.6, -1.4)
            ops.append(Op(index * 100 + k, d, (x, y, kind), 1))
        return ops

    def _run(self, pkg, op: Op, start: float) -> Outcome:
        x, y, _ = op.args
        label = pkg.classify_region(x, y)
        inside = pkg.in_dobrushin_region(op.d, x, y)
        cx = pkg.curve_x(op.d, y)
        beta = pkg.find_failure_beta(op.d, x, y)
        latency = time.perf_counter() - start
        sub = label.sub.value if label.sub is not None else None
        return Outcome(op, latency, value=(label.major.value, sub, inside, cx, beta))

    def _check(self, op: Op, value) -> str | None:
        x, y, kind = op.args
        major, sub, inside, cx, beta = value
        d = op.d
        if (major, sub) != oracles.ground_state_region(x, y):
            return f"region {(major, sub)} != {oracles.ground_state_region(x, y)}"
        ref_cx = oracles.curve_x(d, y)
        if not math.isclose(cx, ref_cx, rel_tol=1e-9):
            return f"curve_x {cx} != {ref_cx}"
        if inside != (sub in ("A", "B", "C") and x < ref_cx):
            return f"in_dobrushin_region {inside}"
        if kind == "fixed":
            ok = beta is not None and abs(beta - FIXED_POINT_BETA) <= 1e-5
            return None if ok else f"beta {beta}"
        if kind == "inside":
            return None if beta is None else f"failure at beta {beta} inside the curve"
        threshold = 1.0 / (2 * d)
        if beta is None:
            return "no failure found"
        if oracles.class_max_tv(d, x, y, beta) < threshold:
            return f"condition holds at the returned beta {beta}"
        if oracles.class_max_tv(d, x, y, beta - 1e-6) >= threshold:
            return f"condition already fails at beta {beta} - 1e-6"
        return None


class FiniteVolume(Workload):
    """finite_volume_marginal(params, 3, boundary) with a uniform or a mixed
    boundary ring."""

    name = "finite-volume"
    RING = tuple([(-1, j) for j in range(3)] + [(3, j) for j in range(3)]
                 + [(i, -1) for i in range(3)] + [(i, 3) for i in range(3)])

    def cycle(self, index: int) -> list[Op]:
        rng = self.rng(index)
        ops = []
        for k, mixed in enumerate((False, True)):
            x, y, beta = rng.uniform(-3.0, 1.0), rng.uniform(-2.0, 2.0), rng.uniform(0.1, 1.5)
            if mixed:
                ring = tuple((site, rng.choice((-1, 0, 1))) for site in self.RING)
            else:
                spin = rng.choice((-1, 0, 1))
                ring = tuple((site, spin) for site in self.RING)
            ops.append(Op(index * 10 + k, 2, (x, y, beta, ring, mixed), 1))
        return ops

    def _run(self, pkg, op: Op, start: float) -> Outcome:
        x, y, beta, ring, mixed = op.args
        params = pkg.ModelParams(x=x, y=y, beta=beta, d=2)
        boundary = dict(ring) if mixed else ring[0][1]
        dist = pkg.finite_volume_marginal(params, 3, boundary)
        latency = time.perf_counter() - start
        return Outcome(op, latency, value=dist.as_tuple())

    def _check(self, op: Op, value) -> str | None:
        x, y, beta, ring, _ = op.args
        ref = oracles.transfer_marginal(x, y, beta, dict(ring))
        if any(abs(a - b) > 1e-12 for a, b in zip(value, ref)):
            return f"marginal {value} != {ref}"
        return None


WORKLOADS = {w.name: w for w in (Certify, ExactScan, FailureSearch, FiniteVolume)}
