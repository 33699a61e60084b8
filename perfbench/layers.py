"""Per-layer metrics from the spans of traced jobs.

A job's spans come from launcher.py: (id, parent id, layer, start, end,
counts).  A layer's self time is its spans' duration minus the part of each
span that its child spans cover; children may run on other threads, so the
covered part is the union of their intervals.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

# (metric, unit); the layer names follow the orbitscope modules, and lp, fft
# and io are the orbitscope -> scipy/numpy call boundaries
METRICS = [
    ("import.wall_s", "s"), ("import.modules", "count"),
    ("linalg.roots_decompose.calls", "count"), ("linalg.roots_decompose.self_s", "s"),
    ("linalg.rank_tol.calls", "count"), ("linalg.rank_tol.self_s", "s"),
    ("linalg.mat_exp.calls", "count"), ("linalg.mat_exp.self_s", "s"),
    ("orbits.orbit_dim.calls", "count"), ("orbits.orbit_dim.self_s", "s"),
    ("classify.calls", "count"), ("classify.self_s", "s"),
    ("sections.normal_form.self_s", "s"),
    ("sections.section_point.calls", "count"), ("sections.section_point.self_s", "s"),
    ("quasisection.diagonal_action.self_s", "s"),
    ("quasisection.normalize_into.calls", "count"),
    ("quasisection.normalize_into.self_s", "s"),
    ("quasisection.is_relatively_compact.calls", "count"),
    ("quasisection.is_relatively_compact.self_s", "s"),
    ("quasisection.coverage.useful_frac", "ratio"),
    ("quasisection.group_transforms.calls", "count"),
    ("quasisection.group_transforms.matrices", "count"),
    ("quasisection.group_transforms.self_s", "s"),
    ("quasisection.block_abs.points", "count"), ("quasisection.block_abs.self_s", "s"),
    ("lp.quasisection.solves", "count"), ("lp.quasisection.self_s", "s"),
    ("lp.wavelet.solves", "count"), ("lp.wavelet.self_s", "s"),
    ("wavelet.calderon.lp_per_sample", "count"),
    ("quad.tensor_rule.calls", "count"), ("quad.nodes", "count"),
    ("quad.gauss_legendre.calls", "count"), ("quad.gauss_legendre.self_s", "s"),
    ("quad.distinct_rule_frac", "ratio"),
    ("wavelet.synth_wavelet.self_s", "s"),
    ("wavelet.parameter_grid.calls", "count"), ("wavelet.parameter_grid.self_s", "s"),
    ("wavelet.point_support_box.calls", "count"),
    ("wavelet.point_support_box.self_s", "s"),
    ("wavelet.calderon_check.self_s", "s"), ("wavelet.calderon.covered_frac", "ratio"),
    ("wavelet.ghat.points", "count"), ("wavelet.ghat.self_s", "s"),
    ("wavelet.sigma_at.points", "count"), ("wavelet.sigma_at.self_s", "s"),
    ("wavelet.l1_estimate.self_s", "s"), ("wavelet.cwt.self_s", "s"),
    ("fft.slices", "count"), ("fft.points", "count"), ("fft.self_s", "s"),
    ("fft.flops_computed", "count"), ("wavelet.coeff_bytes_computed", "B"),
    ("io.load_json.self_s", "s"),
    ("io.dump_report.self_s", "s"), ("io.dump_report.bytes", "B"),
    ("io.export_ghat.self_s", "s"), ("io.export_ghat.bytes", "B"),
    ("io.savez.self_s", "s"), ("io.savez.bytes", "B"),
    ("io.signal_load.self_s", "s"), ("io.signal_load.bytes", "B"),
    ("cli.handler.self_s", "s"),
    ("wavelet.out_of_band_isometry", "ratio"), ("trace.overhead_frac", "ratio"),
]
# metrics that count work; two traced runs with one seed must agree on them
COUNTS = [name for name, unit in METRICS if unit in ("count", "B")]


def _covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _job_layers(spans, acc):
    """Add one job's spans to the per-layer accumulators."""
    children = defaultdict(list)
    by_id = {}
    for sid, parent, layer, start, end, extra in spans:
        by_id[sid] = (parent, layer)
        children[parent].append((start, end))
    orders = []
    for sid, parent, layer, start, end, extra in spans:
        extra = extra or {}
        acc[layer + ".calls"] += 1
        acc[layer + ".self_s"] += (end - start) - _covered(children[sid], start, end)
        for key, value in extra.items():
            if key != "order":
                acc[f"{layer}.{key}"] += value
        if layer == "quad.gauss_legendre" and "order" in extra:
            orders.append(extra["order"])
        if layer == "fft" and extra.get("points", 0) > 1:
            n = extra["points"]
            acc["fft.flops"] += 5.0 * n * math.log2(n)
        if layer == "lp.wavelet":
            node = parent
            while node:
                up, name = by_id.get(node, (0, None))
                if name == "wavelet.calderon_check":
                    acc["lp.wavelet.in_calderon"] += 1
                    break
                node = up
    acc["quad.distinct_orders"] += len(set(orders))


def per_layer(traced_jobs, traced_walls, untraced_walls, out_of_band):
    """Per-layer metrics over the traced jobs of one run.

    `traced_jobs` holds the launcher's records, one per job; the walls are the
    same jobs timed traced and untraced; `out_of_band` is the recorded isometry
    ratio of the out-of-band transform, or None where the workload has none.
    """
    acc = defaultdict(float)
    for record in traced_jobs:
        _job_layers(record["spans"], acc)

    def share(num, den):
        return num / den if den else 0.0

    values = {
        "import.wall_s": statistics.median(r["import_s"] for r in traced_jobs),
        "import.modules": statistics.median(r["import_modules"] for r in traced_jobs),
        "quasisection.coverage.useful_frac": share(
            acc["quasisection.quasi_section_verdict.checked"],
            acc["quasisection.quasi_section_verdict.drawn"]),
        "lp.quasisection.solves": acc["lp.quasisection.calls"],
        "lp.wavelet.solves": acc["lp.wavelet.calls"],
        "wavelet.calderon.lp_per_sample": share(
            acc["lp.wavelet.in_calderon"], acc["wavelet.calderon_check.samples"]),
        "quad.nodes": acc["quad.tensor_rule.nodes"],
        "quad.distinct_rule_frac": share(acc["quad.distinct_orders"],
                                         acc["quad.gauss_legendre.calls"]),
        "wavelet.calderon.covered_frac": share(acc["wavelet.calderon_check.covered"],
                                               acc["wavelet.calderon_check.samples"]),
        "fft.slices": acc["fft.calls"],
        "fft.flops_computed": acc["fft.flops"],
        "wavelet.coeff_bytes_computed": acc["wavelet.cwt.coeff_bytes"],
        "wavelet.out_of_band_isometry": out_of_band if out_of_band is not None else 0.0,
        "trace.overhead_frac": share(sum(traced_walls), sum(untraced_walls)) - 1.0,
    }
    out = {}
    for name, unit in METRICS:
        value = values[name] if name in values else acc[name]
        out[name] = {"value": float(value), "unit": unit}
    return out
