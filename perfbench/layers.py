"""Per-layer metrics of the traced run and the map from each to the
end-to-end metric and the workloads it should move.

Layer names are the package's module names.  Times are span totals of the
traced replay (workloads.py); ``cluster.self_s`` is the warm cluster_scan
span minus the state-layer calls it repeats.  Counts are exact and repeat
bit for bit at a fixed seed.  A layer that does not run on a workload
reports 0.  Each value is the median over the run's replays.  Times come
from replays without tracemalloc; ``<layer>.peak_alloc_mb`` comes from a
separate tracemalloc replay and is the layer's peak allocation above what
was allocated when its span began.
"""

from __future__ import annotations

import benchstats

ALL = "all"
LAYERS = ("kernels", "momentum", "loops", "ensemble", "state", "cluster",
          "resolvent")

# name, unit, better, end-to-end metric it moves, workloads it moves on
LAYER_METRICS = (
    ("kernels.table_build_s", "s", "lower", "setup_s",
     "all; most on ladder-b8"),
    ("kernels.table_builds", "count", "lower", "setup_s", ALL),
    ("kernels.psi_cells", "count", "lower", "kernels.table_build_s", ALL),
    ("kernels.momentum_nodes", "count", "lower", "kernels.table_build_s",
     ALL),
    ("kernels.register_s", "s", "lower", "wall_s",
     "cluster-scan, resolvent-5e4"),
    ("kernels.register_calls", "count", "lower", "wall_s",
     "cluster-scan, resolvent-5e4"),
    ("momentum.forms_s", "s", "lower", "wall_s", "cluster-scan"),
    ("momentum.forms_calls", "count", "lower", "wall_s", "cluster-scan"),
    ("loops.sample_s", "s", "lower", "wall_s", "bulk-1e6, ladder-b8"),
    ("loops.jumps_sampled", "count", "lower", "wall_s",
     "bulk-1e6, ladder-b8"),
    ("seeds.substreams", "count", "lower", "wall_s", "bulk-1e6, ladder-b8"),
    ("loops.parallel_speedup", "x", "higher",
     "none directly; decides keep-or-drop of the thread pool", "bulk-1e6"),
    ("ensemble.logw_s", "s", "lower", "wall_s",
     "ladder-b8 most; bulk-1e6 little"),
    ("ensemble.psi_pairs", "count", "lower", "wall_s",
     "ladder-b8 most; bulk-1e6 little"),
    ("ensemble.z_s", "s", "lower", "wall_s", "ladder-b8, cluster-scan"),
    ("ensemble.estimators_s", "s", "lower", "wall_s", "bulk-1e6"),
    ("ensemble.variance_s", "s", "lower", "wall_s, peak_rss_mb",
     "bulk-1e6"),
    ("ensemble.max_weight_share", "1", "lower",
     "time_to_accuracy_s, ess_frac", "ladder-b8"),
    ("state.self_s", "s", "lower", "wall_s", "cluster-scan"),
    ("cluster.self_s", "s", "lower", "wall_s", "cluster-scan"),
    ("resolvent.onepoint_s", "s", "lower", "wall_s, peak_rss_mb",
     "resolvent-5e4"),
    ("resolvent.twopoint_s", "s", "lower", "wall_s, peak_rss_mb",
     "resolvent-5e4"),
    ("resolvent.decay_s", "s", "lower", "wall_s, peak_rss_mb",
     "resolvent-5e4"),
) + tuple(
    (f"{layer}.peak_alloc_mb", "MB", "lower", "peak_rss_mb",
     "wherever the layer runs") for layer in LAYERS
) + (
    ("trace.self_sum_s", "s", "lower", "wall_s (accounting)", ALL),
    ("trace.overhead_s", "s", "lower", "n/a (traced minus untraced total)",
     ALL),
)

# span name of the traced replay behind each *_s layer metric
SPAN_OF = {
    "kernels.table_build_s": "kernels.table_build",
    "kernels.register_s": "kernels.register",
    "momentum.forms_s": "momentum.forms",
    "loops.sample_s": "loops.sample",
    "ensemble.logw_s": "ensemble.logw",
    "ensemble.z_s": "ensemble.z",
    "ensemble.estimators_s": "ensemble.estimators",
    "ensemble.variance_s": "ensemble.variance",
    "state.self_s": "state.self",
    "resolvent.onepoint_s": "resolvent.onepoint",
    "resolvent.twopoint_s": "resolvent.twopoint",
    "resolvent.decay_s": "resolvent.decay",
}


def one_child(rec, mem):
    """Per-layer values of one timed replay and one tracemalloc replay."""
    spans = rec["spans"]
    out = {name: spans.get(span, 0.0) for name, span in SPAN_OF.items()}
    out["cluster.self_s"] = (spans.get("cluster.total", 0.0)
                             - spans.get("state.self", 0.0))
    for name, unit, *_ in LAYER_METRICS:
        if unit == "count":
            out[name] = rec["counts"].get(name, 0)
    for layer in LAYERS:
        out[f"{layer}.peak_alloc_mb"] = mem["peak_alloc_mb"].get(layer, 0.0)
    out.update(rec["gauges"])
    out.setdefault("loops.parallel_speedup", 0.0)
    # self times of the replay's wall part: every span but table building,
    # less the state-layer calls that the warm cluster_scan span repeats
    out["trace.self_sum_s"] = sum(
        v for k, v in spans.items()
        if k not in ("kernels.table_build", "state.self"))
    return out


def layer_metrics(plain, timed, memory):
    """Median per-layer values over the replays, plus the tracing overhead:
    timed replay total minus plain total, paired round by round."""
    per_child = [one_child(r, m) for r, m in zip(timed, memory)]
    values = {name: benchstats.median([c[name] for c in per_child])
              for name, *_ in LAYER_METRICS if not name.startswith("trace.o")}
    values["trace.overhead_s"] = benchstats.median(
        [(t["setup_s"] + t["wall_s"]) - (p["setup_s"] + p["wall_s"])
         for p, t in zip(plain, timed)])
    return {name: {"value": values[name], "unit": unit}
            for name, unit, *_ in LAYER_METRICS}
