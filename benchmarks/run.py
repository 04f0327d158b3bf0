#!/usr/bin/env python3
"""Benchmark of the beg_dobrushin package: one client, closed loop.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root; the package is imported from ./src.  The run
times whole cycles of operations (see workloads.py) until S seconds have
passed, then checks every operation against the oracles in oracles.py.

--trace 0 prints the end-to-end metrics.  The process's own set-up (import
plus the first operation of each dimension) and two more set-ups in fresh
interpreters give the median ``setup_s``.

--trace 1 records spans around the package's public functions (spans.py)
during set-up and S/2 seconds of operations, writes them to
.bench_build/benchmarks/spans-<workload>.jsonl, then runs the same
operations untraced for S/2 seconds to give the tracing overhead, and for
certify S/2 seconds more with BEGDOB_WORKERS=1 as the single-process
baseline.  It prints the per-layer metrics.

--smoke shrinks every operation so that a run takes a few seconds.

The last line of standard output is the JSON result; the line before it
holds the machine, versions, sample counts and phase timings.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = "beg_dobrushin"
SETUP_RUNS = 3  # this process plus fresh probes
WORKERS_ENV = "BEGDOB_WORKERS"


def load_package():
    """Import the package from ./src of this checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {src / PACKAGE}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module(PACKAGE)
    importlib.import_module(f"{PACKAGE}.cli")
    if Path(pkg.__file__).resolve().parent != (src / PACKAGE).resolve():
        raise SystemExit(f"error: imported {pkg.__file__}, not the checkout's package")
    return pkg


def environment(seed: int) -> dict:
    def read(path: Path) -> str | None:
        try:
            return path.read_text().strip()
        except OSError:
            return None

    model = None
    for line in (read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(index / "size")
    rev = None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            rev = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "git_rev": rev,
    }


def run_cycles(workload, pkg, seconds: float, indices, tracer=None):
    """Run whole cycles, numbered from `indices`, until `seconds` have
    passed; returns [(outcomes, wall seconds)] per cycle."""
    cycles = []
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        cycle_start = time.perf_counter()
        outcomes = []
        for op in workload.cycle(next(indices)):
            if tracer is not None:
                tracer.op = op.id
            outcomes.append(workload.run(pkg, op))
        cycles.append((outcomes, time.perf_counter() - cycle_start))
    return cycles


def outcomes_of(cycles) -> list:
    return [o for outcomes, _ in cycles for o in outcomes]


def cells_per_s(cycles) -> float:
    """Median over cycles of the cells of correct operations per second."""
    return statistics.median(
        sum(o.op.cells for o in outcomes if o.error is None) / wall for outcomes, wall in cycles)


def set_up(workload_cls, seed: int, smoke: bool, tmp: Path, traced: bool):
    """Import the package and run the first operation of each dimension."""
    start = time.perf_counter()
    pkg = load_package()
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer(PACKAGE, tmp)
        tracer.install()
    workload = workload_cls(seed, smoke, tmp)
    outcomes = []
    for op in workload.setup_ops():
        if tracer is not None:
            tracer.op = op.id
        outcomes.append(workload.run(pkg, op))
    return pkg, workload, tracer, outcomes, time.perf_counter() - start


def probe_setup(args, tmp: Path) -> float:
    """Set-up time in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0"] + (["--smoke"] if args.smoke else [])
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {out.stderr.strip()[-500:]}")
    return float(out.stdout.split()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if os.environ.get(WORKERS_ENV):
        parser.error(f"{WORKERS_ENV} must be unset: run_sweep runs with its default worker count")
    tmp = ROOT / ".bench_build" / "benchmarks" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            *_, setup_s = set_up(WORKLOADS[args.workload], args.seed, args.smoke, tmp, traced=False)
            print(repr(setup_s))
            return 0
        return measure(args, WORKLOADS[args.workload], tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, workload_cls, tmp: Path) -> int:
    traced = bool(args.trace)
    pkg, workload, tracer, setup_outcomes, setup_s = set_up(
        workload_cls, args.seed, args.smoke, tmp, traced)
    phase_s = args.seconds / 2 if traced else args.seconds
    indices = itertools.count(1)  # cycle 0 was the set-up
    phases = {"timed": run_cycles(workload, pkg, phase_s, indices, tracer)}
    if traced:
        tracer.uninstall()
        phases["untraced"] = run_cycles(workload, pkg, phase_s, indices)
        if workload.name == "certify":
            os.environ[WORKERS_ENV] = "1"
            try:
                phases["serial"] = run_cycles(workload, pkg, phase_s, indices)
            finally:
                del os.environ[WORKERS_ENV]
    self_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # run_sweep's default, since BEGDOB_WORKERS is unset
    pool_workers = (os.cpu_count() or 1) if workload.name == "certify" else 0

    everything = setup_outcomes + [o for cycles in phases.values() for o in outcomes_of(cycles)]
    failures = []
    for outcome in everything:
        problem = workload.check(outcome)
        if problem is not None:
            outcome.error = problem
            failures.append({"op": outcome.op.id, "d": outcome.op.d, "error": problem})
    rates = {name: cells_per_s(cycles) for name, cycles in phases.items()}
    timed = outcomes_of(phases["timed"])
    latencies_ms = [o.latency * 1e3 for o in timed]
    details = {
        "workload": workload.name,
        "env": environment(args.seed),
        "sweep_workers": pool_workers or None,
        "latency_samples": len(latencies_ms),
        "phases": {name: {"cycles": len(cycles), "ops": len(outcomes_of(cycles)),
                          "wall_s": sum(w for _, w in cycles), "cells_per_s": rates[name]}
                   for name, cycles in phases.items()},
        "failures": failures[:20],
    }
    if traced:
        from spans import layer_metrics, write_spans

        spans = tracer.collect()
        write_spans(spans, tmp.parent / f"spans-{workload.name}.jsonl", workload.name, args.seed)
        layers = layer_metrics(spans, {o.op.id for o in timed})
        layers.update({
            "cli.output_bytes": sum(o.output_bytes for o in timed) / len(timed),
            "verify.witnesses": sum(o.witnesses for o in timed) / len(timed),
            # without a pool the untraced run is already single-process
            "verify.serial_cells_per_s": rates.get("serial", rates["untraced"]),
            "trace.cells_per_s": rates["timed"],
            "trace.untraced_cells_per_s": rates["untraced"],
        })
        layers["trace.overhead_frac"] = 1.0 - rates["timed"] / rates["untraced"]
        values = layers
    else:
        setups = [setup_s] + [probe_setup(args, tmp) for _ in range(SETUP_RUNS - 1)]
        details["setup_samples_s"] = setups
        values = {
            "setup_s": statistics.median(setups),
            "cells_per_s": rates["timed"],
            "op_p50_ms": statistics.median(latencies_ms),
            "op_p90_ms": statistics.quantiles(latencies_ms, n=10, method="inclusive")[8],
            "peak_rss_mb": (self_peak_kb + pool_workers * child_peak_kb) / 1024,
            "ok_frac": 1.0 - len(failures) / len(everything),
        }
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if traced else "end_to_end"]}
    missing = set(units) ^ set(values)
    if missing:
        raise RuntimeError(f"metrics do not match BENCHMARK.json: {sorted(missing)}")
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(everything),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
