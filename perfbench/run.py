"""spinboson-lab benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload bulk-1e6 --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout (the directory holding ``src/``).
Each measurement is a fresh ``perfbench/child.py`` process, so setup time
and peak RSS belong to that one run.  Every child uses the same seed, so
each repeats identical work and the reported times are medians over
children.  In an untraced run, full children run while the next one fits
in ``--seconds`` (at least one runs) and set-up-only children fill the
rest of the budget (at least two); ``setup_s`` is the median over every
child.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs rounds of
a plain child, a timed replay and a tracemalloc replay (see workloads.py
and child.py; at least one round) and prints the per-layer metrics.
Human-readable lines and a ``record`` line with the run context come
first; the last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``.  Exits 1 without a
result when no child finished, and 2 outside a source checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchstats  # noqa: E402
from layers import LAYER_METRICS, layer_metrics  # noqa: E402

WORKLOADS = ("bulk-1e6", "ladder-b8", "resolvent-5e4", "cluster-scan")
DEADLINE_S = 170.0        # every run ends well inside 180 s
MIN_SETUPS = 2            # set-up-only children per untraced run, at least
END_TO_END = (            # name, unit
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ess_frac", "1"),
    ("time_to_accuracy_s", "s"),
)
SINGLE_THREAD = {k: "1" for k in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def child_env(root):
    """Plain single-threaded baseline: no worker pool, one BLAS thread,
    the package imported from the checkout's src/."""
    env = dict(os.environ)
    env.pop("SPINBOSON_WORKERS", None)
    env.update(SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    return env


def spawn(root, workload, seed, mode, timeout):
    """Run one child; returns its record, or None if it failed."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--workload", workload,
             "--seed", str(seed), "--t0", repr(t0), "--mode", mode],
            cwd=root, env=child_env(root), capture_output=True, text=True,
            timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"child ({mode}) timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"child ({mode}) exited {proc.returncode}:\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(root, workload, seed, seconds, modes):
    """Run rounds of children (one child per mode, at least one round)
    while the next round still fits the budget; an untraced run then fills
    what is left with set-up-only children (at least MIN_SETUPS).  Starting
    a round only when it fits keeps a run near ``seconds`` however slow the
    host is, so the benchmark's total time stays bounded.  Returns per-mode
    record lists and the number of children that failed."""
    start = time.monotonic()
    runs = {m: [] for m in ("setup",) + modes}
    crashed = 0

    def child(mode):
        nonlocal crashed
        left = DEADLINE_S - (time.monotonic() - start)
        rec = spawn(root, workload, seed, mode, left)
        if rec is None:
            crashed += 1
        else:
            runs[mode].append(rec)

    def fill(group, min_rounds):
        n, longest = 0, 0.0
        while not crashed:
            t0 = time.monotonic()
            for mode in group:
                child(mode)
            n += 1
            longest = max(longest, time.monotonic() - t0)
            elapsed = time.monotonic() - start
            if elapsed + longest > DEADLINE_S - 20.0 or (
                    n >= min_rounds and elapsed + longest > seconds):
                return

    fill(modes, 1)
    if modes == ("plain",):
        fill(("setup",), MIN_SETUPS)
    return runs, crashed


def tally(records, crashed, extra_checks=()):
    """(attempted, failed, failed names) over every child's checks and
    calls, the extra checks, and the children that did not finish."""
    attempted = crashed + len(extra_checks)
    failed = crashed
    names = ["child process failed"] * crashed
    for name, ok in extra_checks:
        if not ok:
            failed += 1
            names.append(name)
    for rec in records:
        attempted += len(rec["checks"]) + rec["calls"]
        bad = [name for name, ok in rec["checks"] if not ok]
        failed += len(bad) + len(rec["raised"])
        names += bad + rec["raised"]
    return attempted, failed, names


def same_outputs(records):
    return len({r["fingerprint"] for r in records}) == 1


def end_to_end(plain, setups):
    """The end-to-end metrics of an untraced run; set-up time is the median
    over every child, set-up-only ones included."""
    wall = benchstats.median([r["wall_s"] for r in plain])
    se = plain[0]["se_S"]
    values = {
        "setup_s": benchstats.median([r["setup_s"] for r in setups + plain]),
        "wall_s": wall,
        "peak_rss_mb": benchstats.median([r["peak_rss_mb"] for r in plain]),
        "ess_frac": plain[0]["ess_frac"],
        "time_to_accuracy_s": benchstats.time_to_accuracy(wall, se),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def src_lines(root):
    return sum(len(p.read_text().splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def git_commit(root):
    if not (root / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() or "unavailable"


def context(root, args, first):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": first["versions"]["numpy"],
        "scipy": first["versions"]["scipy"],
        "src_lines": src_lines(root),
        "env": SINGLE_THREAD,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "spinboson" / "__init__.py").is_file():
        print("run from the root of a spinboson-lab checkout "
              "(src/spinboson not found)", file=sys.stderr)
        return 2

    modes = ("plain", "spans", "memory") if args.trace else ("plain",)
    runs, crashed = measure(root, args.workload, args.seed, args.seconds,
                            modes)
    if not all(runs[m] for m in modes):
        print("no run finished; no result", file=sys.stderr)
        return 1
    plain = runs["plain"]
    traced = runs.get("spans", []) + runs.get("memory", [])

    # every child ran the same seed, so every output must repeat exactly
    extra = [("plain runs repeat bit for bit",
              same_outputs(plain))]
    if args.trace:
        extra.append(("traced replay matches the plain run bit for bit",
                      same_outputs(plain + traced)))
    attempted, failed, failures = tally(plain + traced, crashed, extra)

    if args.trace:
        metrics = layer_metrics(plain, runs["spans"], runs["memory"])
        shown = {name: unit for name, unit, *_ in LAYER_METRICS}
    else:
        metrics = end_to_end(plain, runs["setup"])
        shown = dict(END_TO_END)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  children "
          + ", ".join(f"{len(runs[m])} {m}" for m in modes))
    samples = {"setup_s": runs["setup"] + plain, "wall_s": plain,
               "peak_rss_mb": plain}
    for key in shown:
        line = f"  {key:28s} {metrics[key]['value']:.6g} {shown[key]}"
        if key in samples and not args.trace:
            line += f"  {benchstats.summary([r[key] for r in samples[key]])}"
        print(line)
    print(f"  {'check_fail_frac':28s} "
          f"{benchstats.fail_share(failed, attempted):.6g} 1"
          f"  ({failed} of {attempted} checks and calls)")
    for name in failures:
        print(f"  FAILED: {name}")
    record = {"context": context(root, args, plain[0]),
              "checks": plain[0]["checks"],
              "failures": failures,
              "children": {m: [{k: r[k] for k in ("setup_s", "wall_s",
                                                  "peak_rss_mb")}
                               for r in runs[m]] for m in modes},
              "setup_children": [r["setup_s"] for r in runs["setup"]]}
    print("record " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
