import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from spinboson.loops import (
    IDENTITY2,
    SIGMA_Z,
    SpinLoop,
    SpinMeasureParams,
    correlation_trace,
    jump_count_groups,
    jump_count_pmf,
    sample_loop_arrays,
    two_point_oracle,
)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_two_point_oracle_values():
    p = SpinMeasureParams(2.0, 1.0)
    assert two_point_oracle(p, 0.0) == pytest.approx(1.0)
    assert two_point_oracle(p, 1.0) == pytest.approx(1.0 / math.cosh(2.0))
    assert two_point_oracle(p, 0.5) \
        == pytest.approx(math.cosh(1.0) / math.cosh(2.0), rel=1e-12)
    with pytest.raises(ValueError):
        two_point_oracle(p, 3.0)


def test_total_mass_identity():
    for beta, eps in ((1.0, 0.5), (2.0, 1.0), (1.0, 2.0), (0.5, 0.0),
                      (90.0, 1.0), (1.0, 300.0), (700.0, 1.0)):
        # the truncated even series x^{2m} / (2m)! sums to cosh(x)
        p = SpinMeasureParams(beta, eps)
        total = float(np.sum(jump_count_pmf(p))) * math.cosh(eps * beta)
        assert total == pytest.approx(math.cosh(eps * beta), rel=1e-12)


def test_overflowing_cosh_is_rejected():
    SpinMeasureParams(709.0, 1.0)
    with pytest.raises(ValueError, match="overflows"):
        SpinMeasureParams(800.0, 1.0)


def test_jump_count_pmf_frozen():
    pmf = jump_count_pmf(SpinMeasureParams(1.0, 0.0))
    assert pmf.tolist() == [1.0]


# ---------------------------------------------------------------------------
# transfer-matrix correlations
# ---------------------------------------------------------------------------

def test_correlation_trace_basics():
    p = SpinMeasureParams(2.0, 1.0)
    assert correlation_trace(p, [0.3], [SIGMA_Z]) == pytest.approx(0.0,
                                                                   abs=1e-14)
    assert correlation_trace(p, [-0.5, 0.4], [IDENTITY2, IDENTITY2]) \
        == pytest.approx(1.0, rel=1e-12)


def test_correlation_trace_matches_two_point():
    p = SpinMeasureParams(2.0, 1.0)
    for tau in (0.2, 0.5, 1.3):
        u = -0.7
        got = correlation_trace(p, [u, u + tau], [SIGMA_Z, SIGMA_Z])
        assert got == pytest.approx(float(two_point_oracle(p, tau)),
                                    rel=1e-12)


def test_correlation_trace_validation():
    p = SpinMeasureParams(1.0, 1.0)
    with pytest.raises(ValueError):
        correlation_trace(p, [0.4, 0.1], [SIGMA_Z, SIGMA_Z])
    with pytest.raises(ValueError):
        correlation_trace(p, [0.1], [SIGMA_Z, SIGMA_Z])


# ---------------------------------------------------------------------------
# the loop object
# ---------------------------------------------------------------------------

def test_loop_values_and_boundaries():
    loop = SpinLoop(1, (-0.2, 0.3))
    assert loop.value(-0.4) == 1
    assert loop.value(0.0) == -1
    assert loop.value(0.45) == 1
    assert np.array_equal(loop.value(np.array([-0.4, 0.0, 0.45])),
                          [1, -1, 1])
    assert loop.boundaries(1.0).tolist() == [-0.5, -0.2, 0.3, 0.5]
    assert loop.interval_signs().tolist() == [1, -1, 1]
    # periodicity: value at both endpoints agrees
    assert loop.value(-0.5) == loop.value(0.5)


def test_loop_validation():
    with pytest.raises(ValueError):
        SpinLoop(2, ())
    with pytest.raises(ValueError):
        SpinLoop(1, (0.1,))
    with pytest.raises(ValueError):
        SpinLoop(1, (0.3, 0.1))


def test_loop_rotation_translates_the_path():
    rng = np.random.default_rng(5)
    beta = 2.0
    for _ in range(25):
        m = 2 * rng.integers(0, 4)
        jumps = np.sort(rng.uniform(-0.5 * beta, 0.5 * beta, m))
        loop = SpinLoop(1 if rng.random() < 0.5 else -1, tuple(jumps))
        a = rng.uniform(-beta, beta)
        rot = loop.rotated(a, beta)
        for t in rng.uniform(-0.5 * beta, 0.5 * beta, 7):
            wrapped = ((t - a + 0.5 * beta) % beta) - 0.5 * beta
            assert rot.value(t) == loop.value(wrapped)


# ---------------------------------------------------------------------------
# the sampler
# ---------------------------------------------------------------------------

def test_sampler_frozen_coupling():
    p = SpinMeasureParams(1.0, 0.0)
    rng = np.random.default_rng(0)
    for _ in range(10):
        signs, counts, flat = sample_loop_arrays(p, rng, 1)
        assert counts.tolist() == [0] and len(flat) == 0


def test_sampler_parity_and_sorting():
    p = SpinMeasureParams(1.0, 1.0)
    signs, counts, flat = sample_loop_arrays(p, np.random.default_rng(1),
                                             5000)
    assert np.all(counts % 2 == 0)
    assert set(np.unique(signs)) <= {-1, 1}
    offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.intp)))
    for i in range(0, 5000, 97):
        j = flat[offsets[i]:offsets[i + 1]]
        assert np.all(np.diff(j) > 0)


def test_sampler_jump_count_mean():
    p = SpinMeasureParams(1.0, 1.0)
    _, counts, _ = sample_loop_arrays(p, np.random.default_rng(2), 100000)
    mean = counts.mean()
    se = counts.std() / math.sqrt(len(counts))
    assert abs(mean - math.tanh(1.0)) <= 3.0 * se


def _lexsort_reference(params, rng, n):
    """The sampler's draws in the same order, sorted within each loop by
    one global sort on (loop id, time); the counts in the narrowest
    unsigned type that holds the largest count of the law."""
    pmf = jump_count_pmf(params)
    pmf = pmf / pmf.sum()
    counts = 2 * rng.choice(len(pmf), size=n, p=pmf)
    counts = counts.astype(np.min_scalar_type(2 * (len(pmf) - 1)))
    signs = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
    flat = rng.uniform(-0.5 * params.beta, 0.5 * params.beta,
                       size=int(counts.sum()))
    ids = np.repeat(np.arange(n), counts)
    return signs, counts, flat[np.lexsort((flat, ids))]


# the examples pin the edge cases: no constant loop in the chunk (at
# eps beta = 8 a loop is constant with probability 1/cosh 8 ~ 6.7e-4, and
# at eps beta = 32 never in practice), no jumps at all, a single loop
@example(beta=8.0, eps=1.0, n=600, seed=2)
@example(beta=16.0, eps=2.0, n=37, seed=0)
@example(beta=16.0, eps=2.0, n=1, seed=5)
@example(beta=3.0, eps=0.0, n=600, seed=1)
@example(beta=0.05, eps=0.1, n=1, seed=0)
@given(beta=st.floats(0.05, 16.0),
       eps=st.one_of(st.just(0.0), st.floats(0.1, 2.0)),
       n=st.integers(1, 600),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sampler_matches_the_lexsort_reference(beta, eps, n, seed):
    # the row sorts per jump count return what one global sort returns,
    # bit for bit, from the same draws
    p = SpinMeasureParams(beta, eps)
    got = sample_loop_arrays(p, np.random.default_rng(seed), n)
    want = _lexsort_reference(p, np.random.default_rng(seed), n)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


@given(counts=st.lists(st.integers(0, 300), max_size=200))
def test_jump_count_groups_match_per_count_scans(counts):
    # one stable sort gives each count's loops in ascending order, as one
    # scan of all loops per count did
    counts = np.array(counts, dtype=np.int64)
    groups = list(jump_count_groups(counts))
    present = sorted(set(counts.tolist()))
    assert [int(c) for c, _ in groups] == present
    for c, idx in groups:
        assert np.array_equal(idx, np.flatnonzero(counts == c))


def _path_products(signs, counts, flat, times):
    offsets = np.concatenate(([0], np.cumsum(counts)))
    n = len(signs)
    out = np.empty((n, len(times)), dtype=np.int64)
    ids = np.repeat(np.arange(n), counts)
    for j, t in enumerate(times):
        crossings = np.bincount(ids[flat <= t], minlength=n)
        out[:, j] = signs * np.where(crossings % 2, -1, 1)
    return out


@pytest.mark.parametrize("eps,beta", [(0.5, 1.0), (1.0, 2.0), (2.0, 1.0)])
def test_sampler_two_point_matches_oracle(eps, beta):
    p = SpinMeasureParams(beta, eps)
    signs, counts, flat = sample_loop_arrays(
        p, np.random.default_rng(11), 50000)
    u0 = -0.25 * beta
    for frac in (0.1, 0.25, 0.5):
        x = _path_products(signs, counts, flat, [u0, u0 + frac * beta])
        prod = x[:, 0] * x[:, 1]
        mc = prod.mean()
        se = prod.std() / math.sqrt(len(prod))
        assert abs(mc - float(two_point_oracle(p, frac * beta))) <= 3.0 * se


def test_sampler_translation_and_reflection_invariance():
    p = SpinMeasureParams(2.0, 1.0)
    signs, counts, flat = sample_loop_arrays(
        p, np.random.default_rng(13), 50000)
    tau = 0.37 * p.beta
    oracle = float(two_point_oracle(p, tau))
    for a in (0.0, 0.25 * p.beta, 0.45 * p.beta):
        u = -0.5 * p.beta + a
        x = _path_products(signs, counts, flat, [u, u + tau])
        prod = x[:, 0] * x[:, 1]
        se = prod.std() / math.sqrt(len(prod))
        assert abs(prod.mean() - oracle) <= 3.0 * se
    # reflection: correlate at (-v, -u) with u < v
    u, v = -0.8, -0.8 + tau
    x = _path_products(signs, counts, flat, [-v, -u])
    prod = x[:, 0] * x[:, 1]
    se = prod.std() / math.sqrt(len(prod))
    assert abs(prod.mean() - oracle) <= 3.0 * se


def test_sampler_draws_counts_in_the_narrowest_unsigned_type():
    # one byte holds every count of the law at eps beta = 1, two bytes at
    # eps beta = 200, where the law's counts pass 255; the flat times stay
    # sorted per loop by intp positions
    for beta, want in ((1.0, np.uint8), (200.0, np.uint16)):
        p = SpinMeasureParams(beta, 1.0)
        signs, counts, flat = sample_loop_arrays(
            p, np.random.default_rng(3), 50)
        assert counts.dtype == want
        assert len(flat) == int(counts.sum())
        ends = np.cumsum(counts, dtype=np.intp)
        for a, b in zip(ends - counts, ends):
            assert np.all(np.diff(flat[a:b]) > 0)
    assert 2 * (len(jump_count_pmf(p)) - 1) > 255
