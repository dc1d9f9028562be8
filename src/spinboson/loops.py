"""The beta-periodic two-state jump process (spin loops).

A loop is an initial sign together with an even number of sorted jump
times in (-beta/2, beta/2); evenness encodes the periodic boundary
condition of the thermal trace.  The jump count 2m is distributed as

    P(2m) = (eps*beta)^{2m} / ((2m)! cosh(eps*beta)),

and given the count the jump times are the order statistics of i.i.d.
uniforms.  The sampler draws every count, sign and uniform of a chunk in
one pass, then sorts the times loop by loop with one row sort per jump
count present (jump_count_groups), so each time is sorted once, in
a row of its own loop's length.  Exact transfer-matrix formulas for
multi-time correlations serve as oracles for the sampler.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
IDENTITY2 = np.eye(2)


@dataclass(frozen=True)
class SpinMeasureParams:
    """Inverse temperature and spin coupling of H_spin = -eps sigma_x."""

    beta: float
    eps: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        try:
            math.cosh(self.eps * self.beta)
        except OverflowError:
            raise ValueError(
                f"eps * beta = {self.eps * self.beta:g} overflows "
                "cosh(eps * beta), the jump-count normalization") from None


@dataclass(frozen=True)
class SpinLoop:
    """A beta-periodic two-state path."""

    initial_sign: int
    jumps: tuple

    def __post_init__(self):
        if self.initial_sign not in (-1, 1):
            raise ValueError("initial sign must be +-1")
        if len(self.jumps) % 2:
            raise ValueError("jump count must be even (periodicity)")
        if any(b <= a for a, b in zip(self.jumps, self.jumps[1:])):
            raise ValueError("jump times must be strictly increasing")
        object.__setattr__(self, "jumps", tuple(float(t) for t in self.jumps))

    def value(self, t):
        """Path value at time t: initial_sign * (-1)^{#jumps <= t}."""
        if np.ndim(t):
            n = np.searchsorted(np.asarray(self.jumps), np.asarray(t),
                                side="right")
            return self.initial_sign * np.where(n % 2, -1, 1)
        n = bisect.bisect_right(self.jumps, t)
        return self.initial_sign * (-1 if n % 2 else 1)

    def boundaries(self, beta):
        """Constancy-interval boundaries (-beta/2, jumps..., beta/2)."""
        return np.concatenate(([-0.5 * beta], self.jumps, [0.5 * beta]))

    def interval_signs(self):
        """Sign on each constancy interval."""
        m = len(self.jumps)
        return self.initial_sign * (-1) ** np.arange(m + 1)

    def rotated(self, a, beta):
        """The time-translated loop Y_t = X_{wrap(t - a)}."""
        half = 0.5 * beta
        shifted = sorted(((t + a + half) % beta) - half for t in self.jumps)
        # drop accidental boundary hits (probability zero for sampled loops)
        shifted = [t for t in shifted if -half < t < half]
        if len(shifted) % 2:
            shifted = shifted[:-1]
        probe = -half + 0.25 * min(
            [s + half for s in shifted] + [beta])
        sign = int(self.value(((probe - a + half) % beta) - half))
        return SpinLoop(sign, tuple(shifted))


def jump_count_pmf(params):
    """Probabilities of the even jump counts 0, 2, 4, ... truncated where
    the term drops below 1e-16 of the running sum.

    The terms x^{2m}/(2m)! follow from the recurrence
    term_m = term_{m-1} x^2 / ((2m-1) 2m), finite wherever cosh(x) is."""
    x = params.eps * params.beta
    x2 = x * x
    terms = [1.0]
    total = 1.0
    m = 1
    while True:
        # the ratio stays near 1 at the largest term, so no product
        # overflows before cosh(x) does
        term = terms[-1] * (x2 / ((2 * m - 1) * (2 * m)))
        if term < 1e-16 * total:
            break
        terms.append(term)
        total += term
        m += 1
    pmf = np.array(terms) / math.cosh(x)
    return pmf


def jump_count_groups(counts):
    """Yield (c, idx) per jump count c present, ascending: idx are the loops
    with c jumps, ascending (count 0 need not be present at all).

    One stable sort of the counts groups every loop in a single pass; the
    counts are cast to the narrowest unsigned type that holds them, which
    numpy sorts by radix up to 16 bits.
    """
    hist = np.bincount(counts)
    order = np.argsort(counts.astype(np.min_scalar_type(len(hist) - 1)),
                       kind="stable")
    ends = np.cumsum(hist)
    for c in np.flatnonzero(hist):
        yield c, order[ends[c] - hist[c]:ends[c]]


def sample_loop_arrays(params, rng, n):
    """Vectorized sampler: (signs, jump counts, flat sorted jump times).

    The flat array concatenates each loop's sorted jumps; split points are
    np.cumsum(counts).  The draws come in a fixed order (counts, signs,
    then all uniforms of the chunk); the times are then sorted within each
    loop by one row sort per jump count present (a two-jump row by its
    minimum and maximum), which touches each time once and leaves the draws
    as they were.
    """
    pmf = jump_count_pmf(params)
    pmf = pmf / pmf.sum()
    m = rng.choice(len(pmf), size=n, p=pmf)
    counts = 2 * m
    signs = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
    total = int(counts.sum())
    flat = rng.uniform(-0.5 * params.beta, 0.5 * params.beta, size=total)
    starts = np.cumsum(counts) - counts
    for c, idx in jump_count_groups(counts):
        at = starts[idx]
        if c == 2:
            lo, hi = flat[at], flat[at + 1]
            flat[at], flat[at + 1] = np.minimum(lo, hi), np.maximum(lo, hi)
        elif c:
            cols = at[:, None] + np.arange(c)
            flat[cols] = np.sort(flat[cols], axis=1)
    return signs, counts, flat


def two_point_oracle(params, tau):
    """E[X_u X_{u+tau}] = cosh(eps (beta - 2 tau)) / cosh(eps beta)."""
    beta, eps = params.beta, params.eps
    if np.any((np.asarray(tau) < 0) | (np.asarray(tau) > beta)):
        raise ValueError("tau must lie in [0, beta]")
    return np.cosh(eps * (beta - 2.0 * np.asarray(tau))) / math.cosh(
        eps * beta)


def _propagator(eps, t):
    """e^{eps sigma_x t} = cosh(eps t) I + sinh(eps t) sigma_x."""
    return math.cosh(eps * t) * IDENTITY2 + math.sinh(eps * t) * SIGMA_X


def correlation_trace(params, times, observables):
    """Multi-time correlation by explicit 2x2 transfer-matrix products.

    times are sorted points in [-beta/2, beta/2]; observables are 2x2
    diagonal multipliers inserted at those times.  Normalized by the
    total trace 2 cosh(eps beta).
    """
    beta, eps = params.beta, params.eps
    times = list(times)
    if times != sorted(times):
        raise ValueError("times must be sorted")
    if len(times) != len(observables):
        raise ValueError("one observable per time")
    mat = IDENTITY2
    prev = -0.5 * beta
    for t, obs in zip(times, observables):
        mat = np.asarray(obs) @ _propagator(eps, t - prev) @ mat
        prev = t
    mat = _propagator(eps, 0.5 * beta - prev) @ mat
    return float(np.trace(mat)) / (2.0 * math.cosh(eps * beta))
