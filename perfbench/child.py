"""One benchmark run of one workload in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N --t0 T --mode M

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, ``import spinboson`` and
every kernel table.  ``--mode setup`` stops there; ``--mode plain`` runs
the workload through its top-level calls; ``--mode spans`` replays it
bottom-up with timed spans; ``--mode memory`` repeats that replay with
tracemalloc on, for per-layer allocation peaks (its times are inflated by
tracemalloc and not used).
Prints one JSON record on stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import time
import tracemalloc

import numpy as np
import scipy
from spinboson import SpinMeasureParams, TiltedEnsemble, build_ensemble


def _feed(h, x):
    if isinstance(x, np.ndarray):
        h.update(x.tobytes())
    elif isinstance(x, TiltedEnsemble):
        h.update(x.logw.tobytes())
    elif dataclasses.is_dataclass(x):
        _feed(h, vars(x))
    elif isinstance(x, dict):
        for key in sorted(x):
            h.update(key.encode())
            _feed(h, x[key])
    elif isinstance(x, (list, tuple)):
        for v in x:
            _feed(h, v)
    else:
        h.update(repr(x).encode())


def fingerprint(out):
    """Digest of a run's outputs, log-weights included and every float at
    full precision, so a traced replay can be compared bit for bit with a
    plain run."""
    h = hashlib.sha256()
    _feed(h, out)
    return h.hexdigest()


def parallel_speedup(ctx, seed, workload):
    """build_ensemble at workers = 1 over workers = 2, same loops."""
    params = SpinMeasureParams(1.0, 1.0)
    times = {}
    for workers in (1, 2):
        t0 = time.perf_counter()
        build_ensemble(params, ctx["table"], workload.n, seed,
                       workers=workers)
        times[workers] = time.perf_counter() - t0
    return times[1] / times[2]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "spans", "memory"),
                    required=True)
    args = ap.parse_args(argv)
    traced = args.mode != "plain"
    if args.mode == "memory":
        tracemalloc.start()

    import benchstats
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    spans = (benchstats.Spans(memory=args.mode == "memory") if traced
             else benchstats.NoSpans())
    calls = benchstats.Calls()
    ctx = workload.setup(spans)
    setup_s = time.monotonic() - args.t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    t0 = time.perf_counter()
    if traced:
        out = workload.replay(ctx, args.seed, calls, spans)
    else:
        out = workload.run(ctx, args.seed, calls)
    wall_s = time.perf_counter() - t0

    checks = workload.checks(out)
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ess_frac": out["ess_frac"],
        "se_S": out["se_S"],
        "checks": [[name, bool(ok)] for name, ok in checks],
        "calls": calls.attempted,
        "raised": calls.raised,
        "fingerprint": fingerprint(out),
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
    }
    if traced:
        tracemalloc.stop()
        record["spans"] = spans.seconds
        record["peak_alloc_mb"] = spans.peak_mb
        record["counts"] = spans.counts
        record["gauges"] = spans.gauges
        if args.mode == "spans" and getattr(workload, "measures_speedup",
                                            False):
            record["gauges"]["loops.parallel_speedup"] = parallel_speedup(
                ctx, args.seed, workload)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
