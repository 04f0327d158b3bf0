"""In-memory spans around calls into the package's public functions.

The tracer replaces each listed function, wherever a package module holds a
reference to it, with a wrapper that records a span: (id, parent id, name,
start, end, operation id, argument summary).  Ids are (pid, n) pairs, so spans
from forked pool workers link to the parent-process span that was open when
the pool forked them.  A worker appends its spans (pickled) to a file in
``spill_dir`` after each sweep point, because it exits without running any
hook of ours;
the parent keeps its spans in memory until ``collect``.

Only ``verify._sweep_point`` is private: it is the unit of work the pool runs,
so its span gives per-point busy time and the moment a worker can spill.
``model.pair_energy`` and ``model.check_spin`` are left unwrapped: the
finite-volume loop calls them half a million times per marginal, and a span
there would measure the tracer rather than the layer.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import statistics
import sys
import time
from pathlib import Path

# (module, attribute, span name, argument summary or None).  Dotted
# attributes are methods patched on their class.
TRACED = (
    ("cli", "main", "cli.main", None),
    ("verify", "run_sweep", "verify.run_sweep",
     lambda spec, workers=None: (len(spec.points) * len(spec.beta_grid),
                                 1 if len(spec.points) <= 1 else workers or os.cpu_count() or 1)),
    ("verify", "_sweep_point", "verify.point", None),
    ("verify", "find_failure_beta", "verify.find_failure_beta", None),
    ("verify", "sample_strip_points", "verify.sample_strip_points", None),
    ("verify", "default_certification_spec", "verify.default_certification_spec", None),
    ("verify", "SweepReport.to_json", "verify.report_json", None),
    ("specification", "exact_max_tv", "specification.exact_max_tv", lambda params: params.d),
    ("specification", "finite_volume_marginal", "specification.finite_volume_marginal",
     lambda params, box_side, boundary: box_side),
    ("specification", "conditional_distribution", "specification.conditional_distribution", None),
    ("specification", "total_variation", "specification.total_variation", None),
    ("bounds", "require_sub_region", "bounds.require_sub_region", None),
    ("bounds", "exponents", "bounds.exponents", None),
    ("bounds", "theorem1_bound", "bounds.theorem1_bound", None),
    ("bounds", "beta_critical", "bounds.beta_critical", None),
    ("bounds", "r_of_t", "bounds.r_of_t", None),
    ("bounds", "theta", "bounds.theta", None),
    ("bounds", "psi", "bounds.psi", None),
    ("bounds", "lemma1_bound", "bounds.lemma1_bound", None),
    ("bounds", "lemma2_bound", "bounds.lemma2_bound", None),
    ("bounds", "lemma3_bound", "bounds.lemma3_bound", None),
    ("bounds", "theta_sum_bound", "bounds.theta_sum_bound", None),
    ("bounds", "psi_bound", "bounds.psi_bound", None),
    ("region", "solve_t_d", "region.solve_t_d", lambda d: d),
    ("region", "curve_x", "region.curve_x", None),
    ("region", "in_dobrushin_region", "region.in_dobrushin_region", None),
    ("region", "blume_capel_xc", "region.blume_capel_xc", None),
    ("model", "classify_region", "model.classify_region", None),
    ("model", "ground_pairs", "model.ground_pairs", None),
    ("model", "ModelParams.__post_init__", "model.ModelParams", None),
)


class Tracer:
    """Span recorder: ``install`` wraps the functions in TRACED, ``uninstall``
    restores them, ``collect`` gathers the spans of every process."""

    def __init__(self, package: str, spill_dir: Path):
        self.package = package
        self.spill_dir = spill_dir
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, int]] = []
        self.op: int | None = None
        self.pid = os.getpid()
        self.count = 0
        self.in_child = False
        self._undo: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        if self._undo:
            self.pid = os.getpid()
            self.spans = []
            self.in_child = True

    def _wrap(self, fn, name, summarize, spill):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = (tracer.pid, tracer.count)
            tracer.count += 1
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                arg = summarize(*args, **kwargs) if summarize else None
                tracer.spans.append((sid, parent, name, start, end, tracer.op, arg))
                if spill and tracer.in_child:
                    tracer._spill()

        return traced

    def _spill(self) -> None:
        with open(self.spill_dir / f"spans-{self.pid}.pickle", "ab") as fh:
            pickle.dump(self.spans, fh, protocol=pickle.HIGHEST_PROTOCOL)
        self.spans = []

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        for mod_name, attr, name, summarize in TRACED:
            owner = sys.modules[f"{self.package}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, summarize, False))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, summarize, name == "verify.point")
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo = []

    def collect(self) -> list[tuple]:
        """Spans of this process and of every worker that spilled; removes
        the spill files, which only this run's workers wrote."""
        spans = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.pickle")):
            with open(path, "rb") as fh:
                while True:
                    try:
                        spans.extend(pickle.load(fh))
                    except EOFError:
                        break
            path.unlink()
        return spans


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _cold_s(spans: list[tuple], name: str) -> float:
    """Sum over argument values (dimensions) of the first call's duration
    minus the median of the later calls with the same argument."""
    by_arg: dict = {}
    for span in sorted(spans, key=lambda s: s[3]):
        if span[2] == name:
            by_arg.setdefault(span[6], []).append(span[4] - span[3])
    return sum((durs[0] - statistics.median(durs[1:]) for durs in by_arg.values() if len(durs) > 1),
               0.0)


def layer_metrics(spans: list[tuple], timed_ops: set[int]) -> dict[str, float]:
    """Per-layer totals over the spans of the timed operations, divided by the
    number of those operations; cold-start costs use every span."""
    n_ops = max(len(timed_ops), 1)
    by_id = {s[0]: s for s in spans}
    children: dict = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append(span)
    timed = [s for s in spans if s[5] in timed_ops]
    layer_of = {s[0]: s[2].split(".", 1)[0] for s in spans}

    def self_time(span) -> float:
        start, end = span[3], span[4]
        kids = [(max(k[3], start), min(k[4], end)) for k in children.get(span[0], ())]
        return (end - start) - _union_length([k for k in kids if k[1] > k[0]])

    def outermost(span) -> bool:
        layer = layer_of[span[0]]
        parent = by_id.get(span[1])
        while parent is not None:
            if layer_of[parent[0]] == layer:
                return False
            parent = by_id.get(parent[1])
        return True

    def named(name):
        return [s for s in timed if s[2] == name]

    def layer(prefix):
        return [s for s in timed if s[2].startswith(prefix + ".")]

    def busy(span_list):
        return sum(s[4] - s[3] for s in span_list if outermost(s))

    sweeps = named("verify.run_sweep")
    points = named("verify.point")
    sweep_capacity = sum((s[4] - s[3]) * s[6][1] for s in sweeps)
    ffb_ids = {s[0] for s in named("verify.find_failure_beta")}
    emt = named("specification.exact_max_tv")
    fvm = named("specification.finite_volume_marginal")
    return {
        "cli.self_s": sum(self_time(s) for s in named("cli.main")) / n_ops,
        "verify.run_sweep.busy_s": sum(s[4] - s[3] for s in sweeps) / n_ops,
        "verify.run_sweep.self_s": sum(self_time(s) for s in sweeps + points) / n_ops,
        "verify.cells": sum(s[6][0] for s in sweeps) / n_ops,
        "verify.pool_efficiency": (sum(s[4] - s[3] for s in points) / sweep_capacity
                                   if sweep_capacity else 0.0),
        "verify.find_failure_beta.busy_s": sum(by_id[i][4] - by_id[i][3] for i in ffb_ids) / n_ops,
        "verify.find_failure_beta.probes": sum(1 for s in emt if s[1] in ffb_ids) / n_ops,
        "verify.report_json_s": sum(s[4] - s[3] for s in named("verify.report_json")) / n_ops,
        "specification.exact_max_tv.calls": len(emt) / n_ops,
        "specification.exact_max_tv.busy_s": sum(s[4] - s[3] for s in emt) / n_ops,
        "specification.exact_max_tv.rows": sum(3 ** (2 * s[6] - 1) for s in emt) / n_ops,
        "specification.exact_max_tv.cold_s": _cold_s(spans, "specification.exact_max_tv"),
        "specification.finite_volume_marginal.calls": len(fvm) / n_ops,
        "specification.finite_volume_marginal.busy_s": sum(s[4] - s[3] for s in fvm) / n_ops,
        "specification.finite_volume_marginal.configs": sum(3 ** (s[6] ** 2) for s in fvm) / n_ops,
        "bounds.calls": len(layer("bounds")) / n_ops,
        "bounds.busy_s": busy(layer("bounds")) / n_ops,
        "region.calls": len(layer("region")) / n_ops,
        "region.busy_s": busy(layer("region")) / n_ops,
        "region.solve_t_d.cold_s": _cold_s(spans, "region.solve_t_d"),
        "model.classify_region.calls": len(named("model.classify_region")) / n_ops,
        "model.params_built": len(named("model.ModelParams")) / n_ops,
        "model.busy_s": busy(layer("model")) / n_ops,
        "trace.spans": len(timed) / n_ops,
    }


def write_spans(spans: list[tuple], path: Path, workload: str, seed: int) -> None:
    """JSON lines: a header naming the run and the fields, then one array per
    span.  Each run overwrites the file of its workload."""
    with open(path, "w") as fh:
        fields = ["id", "parent", "name", "start", "end", "op", "arg"]
        fh.write(json.dumps({"workload": workload, "seed": seed, "fields": fields}) + "\n")
        fh.writelines(json.dumps(span) + "\n" for span in spans)
