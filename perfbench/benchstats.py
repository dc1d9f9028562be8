"""Arithmetic of the benchmark: order statistics, derived metrics, call
and check accounting, and span timing.

Pure Python plus numpy, so perfbench/test_benchstats.py can check it at toy
sizes in seconds.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

TARGET_SE = 1e-3        # the spin-factor accuracy time_to_accuracy_s aims at


def median(values):
    """Median of a non-empty sequence (mean of the middle pair if even)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no values")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def _rank(p, n):
    """Nearest rank (1-based) of the p-th percentile of n samples, in
    integer arithmetic (p in steps of 0.1)."""
    p10 = round(p * 10)
    return max(1, -(-p10 * n // 1000))


def highest_percentile(n, min_beyond=10):
    """The highest of the usual percentiles with at least min_beyond of n
    samples above it, or None when n is too small for any."""
    for p in (99.9, 99, 95, 90, 75):
        if n - _rank(p, n) >= min_beyond:
            return p
    return None


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    return xs[_rank(p, len(xs)) - 1]


def summary(values):
    """Median, sample count and, where the sample count allows, the
    highest percentile with ten samples beyond it."""
    out = {"median": median(values), "n": len(values)}
    p = highest_percentile(len(values))
    if p is not None:
        out[f"p{p:g}"] = percentile(values, p)
    return out


def time_to_accuracy(wall_s, se_s, target=TARGET_SE):
    """Run time projected to a spin-factor standard error of target,
    assuming cost linear in the loop count (SE falls as N^-1/2)."""
    return wall_s * (se_s / target) ** 2


def psi_pairs(counts):
    """Psi evaluations of the boundary-sum log-weight: (c + 2)^2 per loop
    with c jumps, summed over loops."""
    c = np.asarray(counts, dtype=np.int64)
    return int(np.sum((c + 2) ** 2))


def fail_share(failed, attempted):
    """Failed checks plus raised calls over all attempted."""
    if attempted < 1:
        raise ValueError("nothing attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


class Calls:
    """Counts calls into the package; a call that raises is counted,
    remembered and answered with None so the run can go on."""

    def __init__(self):
        self.attempted = 0
        self.raised = []

    def do(self, name, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            self.raised.append(f"{name}: {type(exc).__name__}: {exc}")
            return None


class NoSpans:
    """Span recorder that records nothing (untraced runs)."""

    @contextmanager
    def span(self, name):
        yield

    def count(self, name, n):
        pass

    def gauge(self, name, value):
        pass


class Spans(NoSpans):
    """Flat span recorder: busy seconds per span name and, when memory is
    on (tracemalloc running), each layer's peak allocation above what was
    allocated when its span began; plus exact counts and last-value
    gauges.

    Spans must not nest; a layer's self time is then its span total.
    """

    def __init__(self, memory=False):
        self.memory = memory
        self.seconds = {}
        self.peak_mb = {}
        self.counts = {}
        self.gauges = {}

    @contextmanager
    def span(self, name):
        if self.memory:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.seconds[name] = self.seconds.get(name, 0.0) + dt
            if self.memory:
                peak = (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
                layer = name.split(".")[0]
                self.peak_mb[layer] = max(self.peak_mb.get(layer, 0.0), peak)

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def gauge(self, name, value):
        self.gauges[name] = value
