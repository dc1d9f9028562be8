import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinboson import ensemble as ensemble_mod
from spinboson.ensemble import (
    DEFAULT_CHUNK,
    TiltedEnsemble,
    build_ensemble,
    loop_log_weight,
    loop_z_value,
)
from spinboson.kernels import ThermalKernelTable
from spinboson.loops import SpinLoop, SpinMeasureParams, jump_count_pmf
from spinboson.resolvent import resolvent_onepoint
from spinboson.state import StateConfig

from conftest import distinct_rows, flip_even, phase

BETA = 1.0


def _strata(ens):
    """(mass, loops) per stratum of the post-stratified estimator, derived
    afresh: the first constant loop of each sign, of mass P(0)/2, then runs
    of adjacent jump counts of at least MIN_STRATUM loops (the leftover at
    the top joins the last run), each of the jump-count law's mass over the
    counts from its first up to the next run's first (the first run from
    count 1, the last to the end); masses renormalized over the strata
    present."""
    pmf = jump_count_pmf(ens.params)
    pmf = pmf / pmf.sum()
    out = []
    for sign in (1, -1):
        atom = np.flatnonzero((ens.counts == 0) & (ens.signs == sign))
        if len(atom):
            out.append([pmf[0] / 2, atom[:1]])
    runs = []
    for c in sorted(set(ens.counts[ens.counts > 0].tolist())):
        if not runs or len(runs[-1][1]) >= ensemble_mod.MIN_STRATUM:
            runs.append([c, []])
        runs[-1][1].extend(np.flatnonzero(ens.counts == c))
    if len(runs) > 1 and len(runs[-1][1]) < ensemble_mod.MIN_STRATUM:
        runs[-2][1].extend(runs.pop()[1])
    for k, (c, loops) in enumerate(runs):
        lo = 1 if k == 0 else c
        hi = runs[k + 1][0] if k + 1 < len(runs) else 2 * len(pmf)
        mass = sum(pmf[m] for m in range(len(pmf)) if lo <= 2 * m < hi)
        out.append([mass, np.sort(np.array(loops))])
    total = sum(mass for mass, _ in out)
    return [(mass / total, loops) for mass, loops in out]


# ---------------------------------------------------------------------------
# free-measure degenerations
# ---------------------------------------------------------------------------

def test_zero_source_is_untilted(free_ensemble, f_gauss):
    ens = free_ensemble
    # kappa_mean = 0 and Phi = 0: the log-weights vanish exactly
    assert ens.kernels.kappa_mean == 0.0 and ens.kernels.phi is None
    assert np.all(ens.logw == 0.0)
    assert ens.ess == pytest.approx(ens.n)
    vals = np.sin(np.arange(ens.n, dtype=float))
    mean, _ = ens.expectation(vals[ens.distinct])
    # all weights are 1: the mass-weighted mean of the stratum means
    want = sum(p * vals[loops].mean() for p, loops in _strata(ens))
    assert mean == pytest.approx(want, rel=1e-14)
    sval, se = ens.spin_factor(f_gauss, 0.0)
    assert sval == 1.0 + 0.0j
    assert se == 0.0
    assert ens.ell_shift(f_gauss) == 0.0
    x = ens.params.eps * BETA
    assert ens.log_partition() == pytest.approx(
        math.log(2.0 * math.cosh(x)), rel=1e-12)


def test_frozen_coupling_closed_forms(eps0_ensemble, kernel_table, f_gauss):
    ens = eps0_ensemble
    assert np.all(ens.counts == 0)
    m = kernel_table.m_value(f_gauss).real
    z = ens.z_values(f_gauss)
    # Z = sign * <f, m> for the two constant loops
    assert np.allclose(np.abs(z.real), m, rtol=1e-10)
    assert np.allclose(z.imag, 0.0, atol=1e-12)
    sval, se = ens.spin_factor(f_gauss, 0.0)
    assert sval.real == pytest.approx(math.cos(m), abs=3.0 * se + 1e-10)
    assert abs(ens.ell_shift(f_gauss)) <= 3.0 * z.real[
        distinct_rows(ens)].std() / math.sqrt(ens.n) + 1e-12
    # both signs carry the same quadratic weight, so the partition
    # function reduces to 2 exp(Psi(beta)/2)
    assert ens.log_partition() == pytest.approx(
        math.log(2.0) + 0.5 * kernel_table.Psi(BETA), rel=1e-12)


@pytest.mark.parametrize("which", ["fixture", "constant"])
def test_log_partition_matches_scipy_logsumexp(ensemble, which):
    from scipy.special import logsumexp

    if which == "constant":
        ens = build_ensemble(SpinMeasureParams(BETA, 1.0),
                             ThermalKernelTable.constant(BETA, 2.5), 20000,
                             seed=7)
    else:
        ens = ensemble
    x = ens.params.eps * ens.params.beta
    # log sum_s p_s mean_s(W), each stratum's mean by logsumexp
    ref = math.log(2.0 * math.cosh(x)) + float(logsumexp(
        [math.log(p) + logsumexp(ens.logw[loops]) - math.log(len(loops))
         for p, loops in _strata(ens)]))
    assert abs(ens.log_partition() - ref) <= 1e-14 * abs(ref)


# ---------------------------------------------------------------------------
# boundary-sum identities vs the reference paths
# ---------------------------------------------------------------------------

def test_log_weights_match_reference(ensemble):
    idx = np.nonzero(ensemble.counts > 0)[0][:20]
    for i in idx:
        ref = loop_log_weight(ensemble.loop(i), ensemble.kernels)
        assert ensemble.logw[i] == pytest.approx(ref, rel=1e-9)


@pytest.mark.filterwarnings("ignore:weight degeneracy")
def test_log_weights_match_reference_long_loops(gauss_src):
    # at beta = 8 a loop has about 8 jumps, so the pair sum has dozens of
    # terms per loop
    beta = 8.0
    table = ThermalKernelTable(gauss_src, beta)
    ens = build_ensemble(SpinMeasureParams(beta, 1.0), table, 200, seed=11)
    idx = np.nonzero(ens.counts >= 8)[0][:12]
    assert len(idx) >= 10
    for i in idx:
        ref = loop_log_weight(ens.loop(i), table)
        assert ens.logw[i] == pytest.approx(ref, rel=1e-9)


def _ensemble_of(loops, table):
    """A TiltedEnsemble over the given SpinLoops, built from their arrays."""
    signs = np.array([lp.initial_sign for lp in loops], dtype=np.int8)
    counts = np.array([len(lp.jumps) for lp in loops], dtype=np.int64)
    flat = np.array([t for lp in loops for t in lp.jumps], dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return TiltedEnsemble(SpinMeasureParams(table.beta, 1.0), table,
                              signs, counts, flat, 0, DEFAULT_CHUNK)


_jump_fractions = st.lists(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    max_size=12, unique=True)


# rotation works modulo beta, so the property draws jumps and shift on a
# grid of ROT_SLOTS slots of the circle: jumps at slot centres, the shift a
# whole number of slots plus at most a quarter slot.  Every jump then stays
# at least a slot from the next and a quarter slot from the circle end,
# before and after the rotation, far above its rounding.
ROT_SLOTS = 1 << 10


@settings(max_examples=25)
@given(beta=st.floats(0.5, 8.0),
       raw=st.lists(st.tuples(st.sampled_from([-1, 1]),
                              st.lists(st.integers(0, ROT_SLOTS - 1),
                                       max_size=12, unique=True)),
                    min_size=1, max_size=6),
       slot_shift=st.integers(-ROT_SLOTS, ROT_SLOTS),
       frac_shift=st.floats(-0.25, 0.25))
def test_log_weights_rotation_invariance_property(gauss_src, beta, raw,
                                                  slot_shift, frac_shift):
    loops = []
    for sign, slots in raw:
        jumps = sorted(beta * ((k + 0.5) / ROT_SLOTS - 0.5) for k in slots)
        loops.append(SpinLoop(sign, tuple(jumps[:len(jumps) & ~1])))
    shift = beta * (slot_shift + frac_shift) / ROT_SLOTS
    rotated = [lp.rotated(shift, beta) for lp in loops]
    assert all(len(a.jumps) == len(b.jumps)
               for a, b in zip(loops, rotated))
    table = ThermalKernelTable(gauss_src, beta)
    orig = _ensemble_of(loops, table).logw
    rot = _ensemble_of(rotated, table).logw
    # each Psi value is within the table's tol (1e-9) of the exact one,
    # relative to 1 + Psi(beta), and |d_p d_q| / 2 <= 2 per pair, so each
    # side is within 2 n_pairs scale of the exact log-weight
    scale = 1e-9 * (1.0 + table.Psi(beta))
    for lp, o, r in zip(loops, orig, rot):
        m = len(lp.jumps)
        n_pairs = (m + 2) * (m + 1) // 2
        assert abs(r - o) <= 4.0 * n_pairs * scale


_long_jump_fractions = st.lists(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    max_size=24, unique=True)


@settings(max_examples=20)
@given(beta=st.floats(0.5, 16.0),
       raw=st.lists(st.tuples(st.sampled_from([-1, 1]),
                              _long_jump_fractions),
                    min_size=1, max_size=4))
def test_log_weights_match_reference_property(gauss_src, beta, raw):
    # the periodic pair sum over the jumps plus the static term against the
    # interval-pair double blocks, for loops of up to 24 jumps
    loops = []
    for sign, fracs in raw:
        jumps = sorted({beta * (u - 0.5) for u in fracs})
        loops.append(SpinLoop(sign, tuple(jumps[:len(jumps) & ~1])))
    table = ThermalKernelTable(gauss_src, beta)
    logw = _ensemble_of(loops, table).logw
    for lp, got in zip(loops, logw):
        assert got == pytest.approx(loop_log_weight(lp, table), rel=1e-9)


def test_static_moment_is_the_path_integral(ensemble):
    # one value per distinct loop
    m = ensemble.static_moment
    assert ensemble.static_moment is m
    loops = ensemble.distinct
    const = ensemble.counts[loops] == 0
    assert np.all(m[const] == BETA * ensemble.signs[loops[const]])
    for k in np.flatnonzero(~const)[:50]:
        lp = ensemble.loop(loops[k])
        want = np.dot(lp.interval_signs(), np.diff(lp.boundaries(BETA)))
        assert m[k] == pytest.approx(want, rel=1e-13, abs=1e-14 * BETA)


@pytest.mark.filterwarnings("ignore:weight degeneracy")
@pytest.mark.parametrize("beta, c0", [(1.0, 0.5), (8.0, 2.0)])
def test_constant_kernel_log_weight_is_the_static_term(beta, c0):
    # kappa = c0 has Phi = 0, so log W = c0 M^2 / 4 exactly
    ens = build_ensemble(SpinMeasureParams(beta, 1.0),
                         ThermalKernelTable.constant(beta, c0), 20000, seed=3)
    assert np.array_equal(ens.logw[ens.distinct],
                          0.25 * c0 * ens.static_moment ** 2)
    assert np.all(ens.logw[ens.counts == 0] == 0.25 * c0 * beta ** 2)


@pytest.mark.filterwarnings("ignore:weight degeneracy")
def test_log_weights_evaluate_phi_once_per_jump_pair(gauss_src, monkeypatch):
    # structural guard: the Phi spline sees each pair of true jumps once,
    # never a circle end, in calls of at most JUMP_SLAB points, and no
    # triu_indices gather is formed; the slab size does not change a bit
    table = ThermalKernelTable(gauss_src, 4.0)
    params = SpinMeasureParams(4.0, 1.0)
    ref = build_ensemble(params, table, 20000, seed=9)
    calls = []

    def counted(x, out=None, phi=table.phi):
        calls.append(np.size(x))
        return phi(x, out=out)

    def no_triu(*args, **kw):
        raise AssertionError("np.triu_indices called for the log-weights")

    monkeypatch.setattr(table, "phi", counted)
    monkeypatch.setattr(np, "triu_indices", no_triu)
    for slab in (ensemble_mod.JUMP_SLAB, 256):
        monkeypatch.setattr(ensemble_mod, "JUMP_SLAB", slab)
        calls.clear()
        ens = build_ensemble(params, table, 20000, seed=9)
        assert sum(calls) == np.sum(ens.counts * (ens.counts - 1) // 2)
        assert max(calls) <= slab
        assert np.array_equal(ens.logw, ref.logw)
    assert len(calls) > 100


def test_z_values_match_reference(ensemble, f_gauss):
    # one value per distinct loop; loop 0 is always distinct
    z = ensemble.z_values(f_gauss, t_offset=0.1)
    d = ensemble.distinct
    for k in list(np.flatnonzero(ensemble.counts[d] > 0)[:10]) + [0]:
        ref = loop_z_value(ensemble.loop(d[k]), ensemble.kernels, f_gauss,
                           0.1)
        assert z[k] == pytest.approx(ref, rel=1e-9, abs=1e-12)


def _boundary_vector_z(kernels, f, t, sign, jumps):
    """Z = -1/2 sum_p d_p G(e_p) of one path from its whole boundary and
    d-coefficient vectors, and sum_p |d_p G(e_p)| / 2, the scale of its
    rounding."""
    beta = kernels.beta
    e = np.concatenate(([-0.5 * beta], jumps, [0.5 * beta]))
    d = np.where(np.arange(len(e)) % 2, -2.0, 2.0)
    d[[0, -1]] *= 0.5
    rel = e - t
    g = sign * d * np.sign(rel) * kernels.register(f).A(np.abs(rel))
    return -0.5 * g.sum(), 0.5 * np.abs(g).sum()


@pytest.mark.filterwarnings("ignore:weight degeneracy")
@settings(max_examples=25)
@given(beta=st.floats(0.5, 8.0),
       raw=st.lists(st.tuples(st.sampled_from([-1, 1]), _jump_fractions),
                    min_size=1, max_size=6),
       data=st.data())
def test_z_values_match_oracles_property(gauss_src, f_gauss, beta, raw,
                                         data):
    # jump counts may be odd here: the boundary sum needs no periodic path,
    # and an odd count moves every later loop to an odd flat offset
    paths = [(sign, sorted({beta * (u - 0.5) for u in fracs}))
             for sign, fracs in raw]
    signs = np.array([p[0] for p in paths], dtype=np.int8)
    counts = np.array([len(p[1]) for p in paths], dtype=np.int64)
    flat = np.array([t for p in paths for t in p[1]], dtype=float)
    # t anywhere, on a circle end, or exactly on a jump time
    t = data.draw(st.one_of(
        st.floats(-0.5 * beta, 0.5 * beta),
        st.sampled_from([-0.5 * beta, 0.5 * beta] + flat.tolist())))
    table = ThermalKernelTable(gauss_src, beta)
    ens = TiltedEnsemble(SpinMeasureParams(beta, 1.0), table, signs, counts,
                         flat, 0, DEFAULT_CHUNK)
    z = ens.z_values(f_gauss, t)
    assert len(z) == len(ens.distinct)
    for k, i in enumerate(ens.distinct):
        sign, jumps = paths[i]
        ref, scale = _boundary_vector_z(table, f_gauss, t, sign, jumps)
        assert abs(z[k] - ref) <= 1e-14 * scale
        if len(jumps) % 2 == 0:
            loop = loop_z_value(SpinLoop(sign, tuple(jumps)), table, f_gauss,
                                t)
            assert abs(z[k] - loop) <= 1e-12 * scale


@pytest.mark.parametrize("t", [0.0, 0.3 * BETA, -0.5 * BETA, 0.5 * BETA])
def test_frozen_spin_z_is_the_endpoint_terms(kernel_table, f_gauss, t):
    ens = build_ensemble(SpinMeasureParams(BETA, 1.0), kernel_table, 50,
                         seed=0, frozen_spin=True)
    a_f = kernel_table.register(f_gauss).A
    h = 0.5 * BETA
    # -1/2 (G(-beta/2) - G(beta/2)) for the constant +1 path
    want = 0.5 * (np.sign(h + t) * a_f(h + t) + np.sign(h - t) * a_f(h - t))
    assert np.all(ens.z_values(f_gauss, t) == want)


def test_z_values_evaluates_A_once_per_jump(ensemble, f_gauss, monkeypatch):
    # structural guard: two circle ends shared by every loop plus one point
    # per jump, not two ends per loop
    entry = ensemble.kernels.register(f_gauss)
    points = []

    def counted(x, a_f=entry.A):
        points.append(np.size(x))
        return a_f(x)

    monkeypatch.setattr(entry, "A", counted)
    ensemble.z_values(f_gauss, 0.0123)
    assert sum(points) == ensemble.counts.sum() + 2


@pytest.mark.parametrize("slab", [2, 7, 256])
def test_boundary_sums_do_not_depend_on_the_slab(kernel_table, f_gauss, slab,
                                                 monkeypatch):
    # the jump slabs hold whole loops, however many per slab, and with odd
    # jump counts a loop or a slab may start at an odd flat index: a loop's
    # sum does not change a bit
    rng = np.random.default_rng(6)
    raw = [(int(sign), list(rng.random(c))) for sign, c in
           zip(rng.choice([-1, 1], 300), rng.integers(0, 9, 300))]
    ens = _ensemble_of_kind(kernel_table, "two-atoms", raw, 0)
    assert np.any(ens.offsets[:-1][ens.counts > 0] % 2)
    a_f = kernel_table.register(f_gauss).A
    per_loop = [lambda x: np.sign(x) * a_f(np.abs(x)), lambda u: u]
    want = [ens._boundary_sum(g, 0.2) for g in per_loop]
    monkeypatch.setattr(ensemble_mod, "JUMP_SLAB", slab)
    for g, w in zip(per_loop, want):
        assert ens._boundary_sum(g, 0.2).tobytes() == w.tobytes()


def test_sampler_sorts_each_jump_once(kernel_table, monkeypatch):
    # structural guard: no global lexsort, and the sampler's row sorts
    # cover each jump time once, in a row of its own loop's length
    rows = {}

    def no_lexsort(*args, **kw):
        raise AssertionError("np.lexsort called while sampling")

    def counted(a, axis=-1, sort=np.sort, **kw):
        n_rows, length = np.shape(a)
        assert axis == 1
        rows[length] = rows.get(length, 0) + n_rows
        return sort(a, axis=axis, **kw)

    monkeypatch.setattr(np, "lexsort", no_lexsort)
    monkeypatch.setattr(np, "sort", counted)
    ens = build_ensemble(SpinMeasureParams(BETA, 2.0), kernel_table, 10000,
                         seed=4, chunk_size=4096)
    monkeypatch.undo()
    assert sum(c * r for c, r in rows.items()) == ens.counts.sum()
    per_count = np.bincount(ens.counts)
    assert rows == {c: per_count[c] for c in np.flatnonzero(per_count) if c}


_KINDS = ["sampled", "frozen", "two-atoms", "no-constant",
          "one-sign-constants", "n1"]


def _ensemble_of_kind(kernel_table, kind, raw, seed):
    """A sampled or frozen ensemble of 40 len(raw) loops, or one built from
    the drawn paths raw, (sign, jump fractions) each: with both constant
    paths added, with no constant path, with constant paths of one sign
    only, or the first path alone."""
    params = SpinMeasureParams(BETA, 1.0)
    if kind in ("sampled", "frozen"):
        return build_ensemble(params, kernel_table, 40 * len(raw), seed=seed,
                              frozen_spin=kind == "frozen")
    if kind == "two-atoms":
        raw = raw + [(1, []), (-1, [])]
    elif kind == "no-constant":
        raw = [(sign, fracs or [0.5]) for sign, fracs in raw]
    elif kind == "one-sign-constants":
        raw = [(sign if fracs else raw[0][0], fracs) for sign, fracs in raw]
    elif kind == "n1":
        raw = raw[:1]
    paths = [(sign, sorted({BETA * (u - 0.5) for u in fracs}))
             for sign, fracs in raw]
    signs = np.array([p[0] for p in paths], dtype=np.int8)
    counts = np.array([len(p[1]) for p in paths], dtype=np.int64)
    flat = np.array([x for p in paths for x in p[1]], dtype=float)
    return TiltedEnsemble(params, kernel_table, signs, counts, flat, 0,
                          DEFAULT_CHUNK)


# loop-wise functions of (Z, log W), odd in Z so that the two constant
# paths differ: complex, real and tuple outputs
_LOOPWISE = {
    "complex": lambda s: lambda z, w: np.exp(-1j * s * z) * w + z,
    "real": lambda s: lambda z, w: z.real * np.exp(s * w),
    "tuple": lambda s: lambda z, w: (np.exp(-1j * s * z) + z, z.real * w),
}


@pytest.mark.filterwarnings("ignore:weight degeneracy")
@pytest.mark.parametrize("out", sorted(_LOOPWISE))
@pytest.mark.parametrize("kind", _KINDS)
@settings(max_examples=20)
@given(raw=st.lists(st.tuples(st.sampled_from([-1, 1]), _jump_fractions),
                    min_size=1, max_size=8),
       s=st.floats(-4.0, 4.0), t=st.floats(-0.5 * BETA, 0.5 * BETA),
       seed=st.integers(0, 1 << 16))
def test_map_distinct_is_fn_on_all_loops_property(kernel_table, f_gauss, kind,
                                                  out, raw, s, t, seed):
    # the distinct loops are the loops with jumps and the first constant
    # loop of each sign, ascending; every loop's Z, M and log W is its
    # distinct row's bit for bit, so a loop-wise fn mapped over the distinct
    # loops and read back through each loop's row is fn on all loops
    ens = _ensemble_of_kind(kernel_table, kind, raw, seed)
    const_signs = set(ens.signs[ens.counts == 0].tolist())
    assert len(ens.distinct) == int(np.sum(ens.counts > 0)) + len(const_signs)
    assert np.all(np.diff(ens.distinct) > 0)
    rows = distinct_rows(ens)
    a_f = kernel_table.register(f_gauss).A
    z_all = _all_loop_boundary_sum(ens, lambda x: np.sign(x) * a_f(np.abs(x)),
                                   t)
    z = ens.z_values(f_gauss, t)
    assert z[rows].tobytes() == z_all.tobytes()
    m_all = 2.0 * _all_loop_boundary_sum(ens, lambda u: u)
    assert ens.static_moment[rows].tobytes() == m_all.tobytes()
    w = ens.logw[ens.distinct]
    assert w[rows].tobytes() == ens.logw.tobytes()
    fn = _LOOPWISE[out](s)
    got, want = fn(z, w), fn(z_all, ens.logw)
    pairs = zip(got, want) if out == "tuple" else [(got, want)]
    for g, h in pairs:
        assert g.dtype == h.dtype and g.shape == (len(ens.distinct),)
        assert g[rows].tobytes() == h.tobytes()


def _all_loop_boundary_sum(ens, g, t=0.0):
    # -1/2 sum_p d_p g(e_p - t) on every loop, constant loops included
    lo, hi = g(0.5 * ens.params.beta * np.array([-1.0, 1.0]) - t)
    out = -0.5 * np.array([lo - hi, lo + hi])[ens.counts & 1]
    gj = g(ens.jumps_flat - t)
    gj[1::2] *= -1.0
    has = np.flatnonzero(ens.counts)
    starts = ens.offsets[has]
    sums = np.add.reduceat(gj, starts)
    out[has] += np.where(starts & 1, -sums, sums)
    return out * ens.signs


def _all_loop_expectation(ens, v):
    """(mean, se) of the post-stratified estimator over every loop, from
    the strata derived afresh, with the uncancelled magnitudes of the mean
    and of the squared SE that bound their rounding."""
    w = np.exp(ens.logw - ens.logw.max())
    per_loop, atoms, runs = np.zeros(ens.n), [], []
    for mass, loops in _strata(ens):
        if ens.counts[loops[0]] == 0:
            atoms.append((loops[0], mass * w[loops[0]]))
        else:
            per_loop[loops] = w[loops] * mass / len(loops)
            runs.append(loops)
    sum_w = np.sum(per_loop) + sum(a for _, a in atoms)
    v = np.asarray(v)
    parts = (v.real, v.imag) if np.iscomplexobj(v) else (v,)
    means, var, mean_scale, var_scale = [], 0.0, 0.0, 0.0
    for x in parts:
        mean = (np.sum(per_loop * x) + sum(a * x[i] for i, a in atoms)) / sum_w
        means.append(mean)
        mean_scale += (np.sum(per_loop * np.abs(x))
                       + sum(a * abs(x[i]) for i, a in atoms)) / sum_w
        wd = per_loop * (x - mean)
        var += np.dot(wd, wd) - sum(np.sum(wd[r]) ** 2 / len(r) for r in runs)
        var_scale += np.sum((per_loop * (np.abs(x) + abs(mean))) ** 2)
    se = math.sqrt(max(var, 0.0)) / sum_w
    mean = complex(*means) if len(parts) == 2 else means[0]
    return mean, se, mean_scale, var_scale / sum_w ** 2


def _assert_estimate(got, want, rel=1e-14):
    # the mean and SE agree to rel of their uncancelled magnitudes
    (val, se), (mean, want_se, mean_scale, var_scale) = got, want
    assert abs(val - mean) <= rel * max(abs(mean), mean_scale)
    assert abs(se * se - want_se * want_se) <= rel * max(want_se ** 2,
                                                         var_scale)


def _all_loop_kernel_variance(ens, f, n_cells):
    beta = ens.params.beta
    edges = np.linspace(-0.5 * beta, 0.5 * beta, n_cells + 1)
    g = np.sign(edges) * ens.kernels.register(f).A(np.abs(edges)).real
    y = 2.0 * _all_loop_boundary_sum(ens, lambda u: np.interp(u, edges, g))
    mean = _all_loop_expectation(ens, y)[0]
    return 0.25 * _all_loop_expectation(ens, (y - mean) ** 2)[0]


@pytest.mark.filterwarnings("ignore:weight degeneracy")
@pytest.mark.parametrize("kind", _KINDS)
@settings(max_examples=10)
@given(raw=st.lists(st.tuples(st.sampled_from([-1, 1]), _jump_fractions),
                    min_size=1, max_size=8),
       s=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=3),
       t=st.floats(-0.5 * BETA, 0.5 * BETA), seed=st.integers(0, 1 << 16))
def test_estimators_on_distinct_loops_match_all_loops_property(
        kernel_table, f_gauss, kind, raw, s, t, seed):
    # char_function, variance_two_routes and ell_shift read only the
    # distinct loops; the same formulas over every loop, each loop with
    # jumps averaged with its spin flip, agree with them
    ens = _ensemble_of_kind(kernel_table, kind, raw, seed)
    a_f = kernel_table.register(f_gauss).A
    z = _all_loop_boundary_sum(ens, lambda x: np.sign(x) * a_f(np.abs(x)),
                               t)
    vals, ses = ens.char_function(f_gauss, s, t)
    for sj, val, se in zip(s, vals, ses):
        _assert_estimate((val, se), _all_loop_expectation(
            ens, flip_even(ens.counts, z, lambda x: np.exp(-1j * sj * x))))
    z0 = _all_loop_boundary_sum(
        ens, lambda x: np.sign(x) * a_f(np.abs(x))).real
    mean = _all_loop_expectation(ens, flip_even(ens.counts, z0,
                                                lambda x: x))
    assert ens.ell_shift(f_gauss) == pytest.approx(
        -mean[0], rel=0.0, abs=1e-14 * max(abs(mean[0]), mean[2]))
    rep = ens.variance_two_routes(f_gauss, 64)
    _assert_estimate((rep.var_direct, rep.var_direct_se),
                     _all_loop_expectation(ens, flip_even(
                         ens.counts, z0, lambda x: (x - mean[0]) ** 2)))
    for got, n_cells in ((rep.var_kernel, 64), (rep.var_kernel_fine, 128)):
        want = _all_loop_kernel_variance(ens, f_gauss, n_cells)
        assert got == pytest.approx(want, rel=1e-14, abs=1e-300)


def _flip_estimates(ens, src, f, s, t, lam):
    # (value, SE) of the spin-sign estimators, the SE of ell being that of
    # the mean of Z and the one-point value's error its SE plus evaluation
    cfg = StateConfig(beta=BETA, eps=1.0, d=3, s=1.0, n0=1e-3, source=src,
                      kernels=ens.kernels, ensemble=ens)
    _, mean_se, var, var_se = ens._z_moments(f)
    one = resolvent_onepoint(cfg, lam, f)
    return {"S": ens.char_function(f, s, t), "ell": (ens.ell_shift(f),
                                                     mean_se),
            "var": (var, var_se), "R": (one.value, one.error)}


@pytest.mark.filterwarnings("ignore:weight degeneracy")
@pytest.mark.parametrize("kind", _KINDS)
@settings(max_examples=10)
@given(raw=st.lists(st.tuples(st.sampled_from([-1, 1]), _jump_fractions),
                    min_size=1, max_size=8),
       s=st.floats(-4.0, 4.0), t=st.floats(-0.5 * BETA, 0.5 * BETA),
       lam=st.sampled_from([-0.8, 1.3]), seed=st.integers(0, 1 << 16))
def test_estimates_are_invariant_under_the_spin_flip_property(
        kernel_table, gauss_src, f_gauss, kind, raw, s, t, lam, seed):
    # the free measure and log W are invariant under X -> -X, which
    # negates Z: the same loops with every sign negated give the same
    # values and SEs when the atoms present form a flip pair (both or
    # none); a lone atom turns into the other one, which conjugates S,
    # negates ell and takes R to -conj(R)
    ens = _ensemble_of_kind(kernel_table, kind, raw, seed)
    flipped = TiltedEnsemble(ens.params, kernel_table, -ens.signs,
                             ens.counts, ens.jumps_flat, 0, DEFAULT_CHUNK)
    got = _flip_estimates(flipped, gauss_src, f_gauss, s, t, lam)
    want = _flip_estimates(ens, gauss_src, f_gauss, s, t, lam)
    if len(ens.atom_rows) == 1:
        want["S"] = (np.conj(want["S"][0]), want["S"][1])
        want["ell"] = (-want["ell"][0], want["ell"][1])
        want["R"] = (-np.conj(want["R"][0]), want["R"][1])
    for key, (val, se) in want.items():
        assert abs(got[key][0] - val) <= 1e-14 * abs(val), key
        assert abs(got[key][1] - se) <= 1e-14 * se, key


def test_frozen_spin_reads_its_atom_unaveraged(kernel_table, f_gauss):
    # a single atom and no loop with jumps: nothing is averaged, so the
    # spin factor is exp(-i <f, m>) and ell = -<f, m>
    ens = build_ensemble(SpinMeasureParams(BETA, 1.0), kernel_table, 1000,
                         seed=0, frozen_spin=True)
    m = kernel_table.m_value(f_gauss).real
    val, se = ens.spin_factor(f_gauss)
    assert abs(val - np.exp(-1j * m)) <= 1e-12 and se == 0.0
    assert ens.ell_shift(f_gauss) == pytest.approx(-m, rel=1e-12)


def test_char_function_exponentiates_only_distinct_loops(
        ensemble, f_gauss, monkeypatch):
    # structural guard: cos(s Z) runs on the distinct loops and sin(s Z)
    # on the two atoms, once per s; nothing is exponentiated
    ensemble.z_values(f_gauss, 0.0625)
    points = {"cos": [], "sin": [], "exp": []}

    def counted(name):
        fn = getattr(np, name)

        def call(x, *args, **kw):
            points[name].append(np.size(x))
            return fn(x, *args, **kw)
        return call

    for name in points:
        monkeypatch.setattr(np, name, counted(name))
    ensemble.char_function(f_gauss, [0.125, 0.375], 0.0625)
    assert points == {"cos": [len(ensemble.distinct)] * 2, "sin": [2, 2],
                      "exp": []}
    assert len(ensemble.distinct) < ensemble.n


def test_per_loop_state_lives_on_the_distinct_loops(ensemble, f_gauss,
                                                    g_gauss):
    # structural guard: the cached estimator arrays hold one value per
    # distinct loop, and the only n-length arrays are the loop data
    ens = ensemble
    ens.char_function(f_gauss, [0.5, 1.0], 0.2)
    ens.variance_two_routes(g_gauss)
    ens.ell_shift(f_gauss)
    ens.deviation_bound_check(f_gauss, [0.5])
    ens.static_moment
    ens.z_values(g_gauss, 0.3)
    ens.norm_weights
    d = len(ens.distinct)
    assert np.all(np.diff(ens.distinct) > 0) and d < ens.n
    arrays = [v for v in ens._z_cache.values() if isinstance(v, np.ndarray)]
    assert len(arrays) >= 3
    assert all(len(a) == d for a in arrays + [ens.weights])
    full = {k for k, v in vars(ens).items()
            if isinstance(v, np.ndarray) and len(v) in (ens.n, ens.n + 1)}
    assert full <= {"signs", "counts", "offsets", "jumps_flat", "logw"}


def test_z_moments_are_memoized(ensemble, g_gauss, monkeypatch):
    # the variance routes and the deviation bound share one estimate
    h = g_gauss.scaled(0.5)
    first = ensemble._z_moments(h)
    monkeypatch.setattr(ensemble, "expectation", None)
    assert ensemble._z_moments(h) is first


def test_uniform_interp_matches_np_interp(kernel_table, f_gauss):
    rng = np.random.default_rng(4)
    for n_cells in (1, 7, 64, 128):
        edges = np.linspace(-0.5 * BETA, 0.5 * BETA, n_cells + 1)
        g = np.sign(edges) * kernel_table.register(f_gauss).A(
            np.abs(edges)).real
        x = np.concatenate((rng.uniform(edges[0], edges[-1], 20000), edges))
        got = ensemble_mod.uniform_interp(x, edges, g)
        want = np.interp(x, edges, g)
        tol = 4.0 * np.spacing(np.max(np.abs(g)))
        assert np.max(np.abs(got - want)) <= tol


def test_spin_factor_is_memoized_per_t(ensemble, f_gauss):
    first = ensemble.spin_factor(f_gauss, 0.25)
    assert ensemble.spin_factor(f_gauss, 0.25) is first
    other = ensemble.spin_factor(f_gauss, -0.25)
    assert other is not first
    counts = ensemble.counts[ensemble.distinct]
    for t, got in ((-0.25, other), (0.25, first)):
        assert got == ensemble.expectation(flip_even(
            counts, ensemble.z_values(f_gauss, t).real, phase(1.0)))


def test_char_function_estimates_each_s_once(kernel_table, f_gauss,
                                             monkeypatch):
    # char_function is the one estimator: each (f, t, s) reaches
    # expectation once, and spin_factor is its cached s = 1 value
    ens = build_ensemble(SpinMeasureParams(BETA, 1.0), kernel_table, 2000,
                         seed=11)
    calls = []
    estimate = ens.expectation

    def counted(values):
        calls.append(len(values))
        return estimate(values)

    monkeypatch.setattr(ens, "expectation", counted)
    vals, ses = ens.char_function(f_gauss, [0.0, 1.0])
    assert len(calls) == 2
    assert ens.spin_factor(f_gauss) == (vals[1], ses[1])
    assert ens.char_function(f_gauss, 1.0) == (vals[1], ses[1])
    assert len(calls) == 2
    # a time offset is a new key, shared again by both entry points
    moved, _ = ens.char_function(f_gauss, [1.0, 0.5], 0.25)
    assert ens.spin_factor(f_gauss, 0.25)[0] == moved[0]
    assert ens.char_function(f_gauss, 0.5, t_offset=0.25)[0] == moved[1]
    assert len(calls) == 4
    assert moved[0] == estimate(flip_even(
        ens.counts[ens.distinct], ens.z_values(f_gauss, 0.25).real,
        phase(1.0)))[0]


def test_z_linearity(ensemble, f_gauss, g_gauss):
    zf = ensemble.z_values(f_gauss)
    z2f = ensemble.z_values(f_gauss.scaled(2.0))
    assert np.allclose(z2f, 2.0 * zf, rtol=1e-12)
    zg = ensemble.z_values(g_gauss)
    zfg = ensemble.z_values(f_gauss + g_gauss)
    assert np.allclose(zfg, zf + zg, rtol=1e-9, atol=1e-11)


def test_action_rotation_invariance(ensemble):
    rng = np.random.default_rng(21)
    idx = np.nonzero(ensemble.counts >= 2)[0][:8]
    for i in idx:
        loop = ensemble.loop(i)
        ref = loop_log_weight(loop, ensemble.kernels)
        a = rng.uniform(-BETA, BETA)
        rot = loop_log_weight(loop.rotated(a, BETA), ensemble.kernels)
        assert rot == pytest.approx(ref, rel=1e-9)


def test_path_values_match_loops(ensemble):
    times = np.array([-0.45, -0.1, 0.02, 0.39])
    pv = ensemble.path_values(times)
    for i in (0, 17, 123, ensemble.n - 1):
        loop = ensemble.loop(i)
        assert pv[i].tolist() == [loop.value(t) for t in times]


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def test_spin_factor_modulus(ensemble, f_gauss):
    val, se = ensemble.spin_factor(f_gauss, 0.0)
    assert abs(val) <= 1.0 + 3.0 * se + 1e-12


def test_char_function_vectorization(ensemble, f_gauss):
    s = [0.0, 0.7, 1.9]
    vals, ses = ensemble.char_function(f_gauss, s)
    assert vals[0] == 1.0 + 0.0j and ses[0] == 0.0
    z = ensemble.z_values(f_gauss).real
    counts = ensemble.counts[ensemble.distinct]
    for j, sj in enumerate(s):
        ref, ref_se = ensemble.expectation(flip_even(counts, z, phase(sj)))
        assert vals[j] == ref and ses[j] == ref_se
    scalar_val, _ = ensemble.char_function(f_gauss, 0.7)
    assert scalar_val == vals[1]


def test_expectation_of_ones_is_exact(ensemble):
    # the normalized weights of this ensemble do not sum to 1 in floating
    # point; the quotient-form estimator must still reproduce a constant
    ones = np.ones(len(ensemble.distinct))
    assert ensemble.expectation(ones) == (1.0, 0.0)
    assert ensemble.expectation(ones.astype(complex)) == (1.0 + 0.0j, 0.0)


@pytest.mark.parametrize("frozen", [False, True])
def test_expectation_rejects_all_loop_arrays(kernel_table, frozen):
    # one value per distinct loop: an array over all n loops is refused,
    # also when a single distinct loop would broadcast against it
    ens = build_ensemble(SpinMeasureParams(BETA, 1.0), kernel_table, 2000,
                         seed=11, frozen_spin=frozen)
    assert len(ens.distinct) < ens.n
    with pytest.raises(ValueError, match="per distinct loop"):
        ens.expectation(np.ones(ens.n))
    with pytest.raises(ValueError, match="per distinct loop"):
        ens.expectation(np.ones(ens.n, dtype=complex))


def test_z_values_are_cached_read_only(ensemble, f_gauss):
    # Z is computed once per (f, t) and shared: one value per distinct loop
    z = ensemble.z_values(f_gauss, 0.375)
    assert ensemble.z_values(f_gauss, 0.375) is z
    assert z.shape == (len(ensemble.distinct),)
    assert not z.flags.writeable
    with pytest.raises(ValueError):
        z[0] = 0.0


_THREADS_CASE = """
import warnings
from spinboson import SourceProfile, TestFunction
from spinboson.ensemble import build_ensemble
from spinboson.kernels import ThermalKernelTable
from spinboson.loops import SpinMeasureParams
src = SourceProfile.gaussian(width=1.0, amplitude=1.0, d=3, s=1.0)
f = TestFunction.gaussian(width=1.0, amplitude=1.0, d=3, s=1.0)
with warnings.catch_warnings():
    warnings.simplefilter("ignore", RuntimeWarning)
    ens = build_ensemble(SpinMeasureParams(4.0, 1.0),
                         ThermalKernelTable(src, 4.0), 200000, seed=7)
val, se = ens.spin_factor(f)
print(val.real.hex(), val.imag.hex(), se.hex())
"""


def test_se_does_not_depend_on_blas_threads():
    # a multi-threaded BLAS dot splits its sum by the thread count; the SE
    # must come out bit for bit the same under one and two threads
    root = os.path.dirname(os.path.dirname(ensemble_mod.__file__))
    path = os.pathsep.join([root] + ([os.environ["PYTHONPATH"]]
                                     if os.environ.get("PYTHONPATH") else []))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        outs.append(subprocess.run(
            [sys.executable, "-c", _THREADS_CASE], env=env, check=True,
            capture_output=True, text=True, timeout=300).stdout)
    assert outs[0] == outs[1] != ""


def test_single_stratum_is_the_iid_estimator(kernel_table, f_gauss):
    # no constant loop and one jump count: one stratum, whose estimate is
    # the self-normalized mean with the squared SE sum_i w_i^2 d_i^2 /
    # (sum w)^2 less (sum_i w_i d_i)^2 / n (sum w)^2, a rounding residue
    rng = np.random.default_rng(5)
    loops = [SpinLoop(int(s), tuple(sorted(BETA * (u - 0.5))))
             for s, u in zip(rng.choice([-1, 1], 300),
                             rng.random((300, 2)))]
    ens = _ensemble_of(loops, kernel_table)
    v = np.exp(-1j * ens.z_values(f_gauss))
    w = np.exp(ens.logw - ens.logw.max())
    mean = np.sum(w * v) / np.sum(w)
    se = math.sqrt(np.sum(w ** 2 * np.abs(v - mean) ** 2)) / np.sum(w)
    got, got_se = ens.expectation(v)
    assert got == pytest.approx(mean, rel=1e-14)
    assert got_se == pytest.approx(se, rel=1e-12)


def _spin_factors(table, beta, n, seeds, f):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return [build_ensemble(SpinMeasureParams(beta, 1.0), table, n,
                               seed=seed).spin_factor(f) for seed in seeds]


@pytest.mark.parametrize("beta, n", [(1.0, 5000), (4.0, 20000),
                                     (8.0, 50000)])
def test_post_stratified_se_matches_seed_spread(gauss_src, f_gauss, beta,
                                                n):
    # the reported SE is honest: over 40 seeds, the spread of S over the
    # rms reported SE stays within the spread's own sampling error
    table = ThermalKernelTable(gauss_src, beta, tol=1e-9)
    vals, ses = zip(*_spin_factors(table, beta, n, range(100, 140),
                                   f_gauss))
    vals = np.array(vals)
    spread = math.sqrt(np.sum(np.abs(vals - vals.mean()) ** 2)
                       / (len(vals) - 1))
    ratio = spread / math.sqrt(np.mean(np.square(ses)))
    assert 0.7 <= ratio <= 1.4


@pytest.mark.filterwarnings("ignore:weight degeneracy")
@pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
def test_post_stratified_mean_agrees_with_iid(gauss_src, f_gauss, beta):
    # the strata change the estimator, not its target: the post-stratified
    # spin factor agrees with the iid self-normalized one on the same
    # loops within their combined SE, and its SE is smaller
    table = ThermalKernelTable(gauss_src, beta, tol=1e-9)
    ens = build_ensemble(SpinMeasureParams(beta, 1.0), table, 20000, seed=8)
    val, se = ens.spin_factor(f_gauss)
    v = np.exp(-1j * ens.z_values(f_gauss))[distinct_rows(ens)]
    w = np.exp(ens.logw - ens.logw.max())
    iid = np.sum(w * v) / np.sum(w)
    iid_se = math.sqrt(np.sum(w ** 2 * np.abs(v - iid) ** 2)) / np.sum(w)
    assert abs(val - iid) <= 3.0 * math.hypot(se, iid_se)
    assert se < iid_se


def _exact_log_partition(beta, eps, c0):
    # kappa = c0: log W = c0 M^2 / 4 = log E_h[exp(h M sqrt(c0 / 2))] over
    # a standard normal h, and the spin trace in a static field b is
    # 2 cosh(beta sqrt(eps^2 + b^2))
    from scipy.integrate import quad

    def integrand(h):
        # phi(h) cosh(beta r), with the Gaussian inside each exponential
        r = beta * math.sqrt(eps * eps + 0.5 * c0 * h * h)
        return (0.5 / math.sqrt(2.0 * math.pi)
                * (math.exp(r - 0.5 * h * h) + math.exp(-r - 0.5 * h * h)))

    val, _ = quad(integrand, -np.inf, np.inf, epsabs=0.0, epsrel=1e-13)
    return math.log(2.0) + math.log(val)


@pytest.mark.filterwarnings("ignore:weight degeneracy")
@pytest.mark.parametrize("beta, c0", [(1.0, 0.5), (4.0, 0.5)])
def test_log_partition_matches_exact_constant_kernel(beta, c0):
    ens = build_ensemble(SpinMeasureParams(beta, 1.0),
                         ThermalKernelTable.constant(beta, c0), 20000,
                         seed=12)
    # delta-method SE of log sum_s p_s mean_s(W): the atoms add none
    w = np.exp(ens.logw - ens.logw.max())
    strata = _strata(ens)
    total = sum(p * w[loops].mean() for p, loops in strata)
    var = sum(p * p * w[loops].var(ddof=1) / len(loops)
              for p, loops in strata if len(loops) > 1)
    se = math.sqrt(var) / total
    exact = _exact_log_partition(beta, 1.0, c0)
    assert abs(ens.log_partition() - exact) <= 4.0 * se


def test_variance_routes_zero_source(free_ensemble, f_gauss):
    rep = free_ensemble.variance_two_routes(f_gauss)
    assert rep.var_direct == 0.0
    assert rep.var_kernel == pytest.approx(0.0, abs=1e-12)


def _dense_kernel_variance(ens, f, n_cells):
    # 1/4 (kcell^T M2 kcell - (kcell^T m1)^2) from the explicit per-loop
    # cell-integral matrix and its weighted first and second moments
    beta = ens.params.beta
    entry = ens.kernels.register(f)
    edges = np.linspace(-0.5 * beta, 0.5 * beta, n_cells + 1)
    g = np.sign(edges) * entry.A(np.abs(edges)).real
    kcell = np.diff(g) / (beta / n_cells)
    cells = ens.cell_integrals(edges)
    w = ens.norm_weights
    m1 = cells.T @ w
    m2 = (cells * w[:, None]).T @ cells
    return 0.25 * float(kcell @ m2 @ kcell - (kcell @ m1) ** 2)


@pytest.mark.parametrize("n_cells", [64, 128])
def test_kernel_variance_matches_cell_matrix_oracle(ensemble, f_gauss,
                                                    n_cells):
    got = ensemble._kernel_variance(f_gauss, n_cells)
    want = _dense_kernel_variance(ensemble, f_gauss, n_cells)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_kernel_variance_zero_source_is_exactly_zero(free_ensemble, f_gauss):
    assert free_ensemble._kernel_variance(f_gauss, 64) == 0.0
    assert free_ensemble._kernel_variance(f_gauss, 128) == 0.0


def _cli_routes_rule(rep, ens, f):
    # the routes-agree rule as the command line applied it from the report's
    # variances: 5% relative, else 3 SE of the direct route, each loop
    # with jumps averaged with its spin flip
    z = ens.z_values(f).real
    counts = ens.counts[ens.distinct]
    mean, _ = ens.expectation(flip_even(counts, z, lambda x: x))
    _, se = ens.expectation(flip_even(counts, z,
                                      lambda x: (x - mean.real) ** 2))
    scale = max(rep.var_direct, rep.var_kernel, 1e-300)
    gap = abs(rep.var_direct - rep.var_kernel)
    return gap <= 0.05 * scale or gap <= 3.0 * se, se


@pytest.mark.parametrize("name", ["ensemble", "free_ensemble",
                                  "eps0_ensemble"])
@pytest.mark.parametrize("factor", [1.0, 1.04, 1.06])
def test_routes_agree_matches_cli_rule(name, factor, request, monkeypatch,
                                       f_gauss):
    ens = request.getfixturevalue(name)
    if factor != 1.0:
        # displace the kernel route to either side of the 5% allowance
        kernel = ens._kernel_variance
        monkeypatch.setattr(ens, "_kernel_variance",
                            lambda f, n: factor * kernel(f, n))
    rep = ens.variance_two_routes(f_gauss)
    agree, se = _cli_routes_rule(rep, ens, f_gauss)
    assert rep.var_direct_se == se
    assert rep.routes_agree == agree


def test_variance_routes_frozen_coupling(eps0_ensemble, kernel_table,
                                         f_gauss):
    m = kernel_table.m_value(f_gauss).real
    rep = eps0_ensemble.variance_two_routes(f_gauss)
    # Z = +-m with the empirical sign imbalance b, so the exact tilted
    # variance is m^2 - (b m)^2
    z = eps0_ensemble.z_values(f_gauss).real
    mean, _ = eps0_ensemble.expectation(z)
    assert rep.var_direct == pytest.approx(m * m - mean.real ** 2, rel=1e-9)
    assert rep.var_direct == pytest.approx(m * m, rel=0.01)
    assert rep.var_kernel == pytest.approx(m * m, rel=0.05)
    assert not rep.grid_flagged


def test_deviation_bound(ensemble, free_ensemble, f_gauss):
    ok, rows = ensemble.deviation_bound_check(f_gauss, [0.0, 0.3, 1.0, 2.0])
    assert ok
    assert rows[0][1] == pytest.approx(0.0, abs=1e-12)
    ok_free, rows_free = free_ensemble.deviation_bound_check(
        f_gauss, [0.0, 1.0])
    assert ok_free
    assert all(r[1] <= 1e-12 for r in rows_free)


def test_deviation_bound_frozen_coupling(eps0_ensemble, kernel_table,
                                         f_gauss):
    # with two equally weighted signs, the bound reduces to the analytic
    # inequality |cos(s c) - 1| <= s^2 c^2 / 2, which must hold with
    # real margin on the grid
    m = kernel_table.m_value(f_gauss).real
    ok, rows = eps0_ensemble.deviation_bound_check(
        f_gauss, [0.1, 0.5, 1.0, 2.0])
    assert ok
    for s, lhs, bound, margin in rows:
        assert abs(math.cos(s * m) - 1.0) <= 0.5 * s * s * m * m
        assert lhs == pytest.approx(abs(math.cos(s * m) - 1.0), abs=0.05)


def test_cnumber_criterion(free_ensemble, eps0_ensemble, f_gauss):
    verdict, evidence = free_ensemble.cnumber_criterion(f_gauss)
    assert verdict
    assert evidence["var_direct"] == 0.0
    verdict0, evidence0 = eps0_ensemble.cnumber_criterion(f_gauss)
    assert not verdict0
    assert evidence0["var_direct"] > 1.0


def test_frozen_spin_diagnostic(kernel_table, f_gauss):
    params = SpinMeasureParams(BETA, 1.0)
    ens = build_ensemble(params, kernel_table, 1000, seed=0,
                         frozen_spin=True)
    m = kernel_table.m_value(f_gauss).real
    assert ens.ell_shift(f_gauss) == pytest.approx(-m, rel=1e-10)
    verdict, evidence = ens.cnumber_criterion(f_gauss)
    assert verdict
    assert evidence["var_direct"] <= 1e-20


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

@settings(max_examples=25)
@given(seed=st.integers(0, 2 ** 31 - 1), chunk_size=st.integers(1, 64),
       k=st.integers(1, 4), extra=st.integers(0, 63))
def test_chunk_prefix_property(kernel_table, seed, chunk_size, k, extra):
    # chunk i is drawn from substream(seed, i) alone, so appending fewer
    # than chunk_size loops leaves the k full chunks before them unchanged
    params = SpinMeasureParams(BETA, 1.0)
    n = k * chunk_size
    a = build_ensemble(params, kernel_table, n, seed, chunk_size=chunk_size)
    b = build_ensemble(params, kernel_table, n + extra % chunk_size, seed,
                       chunk_size=chunk_size)
    assert np.array_equal(a.signs, b.signs[:n])
    assert np.array_equal(a.counts, b.counts[:n])
    assert np.array_equal(a.jumps_flat, b.jumps_flat[:b.offsets[n]])
    # each loop's pair values are added in a fixed order, whatever other
    # loops share its jump count
    assert np.array_equal(a.logw, b.logw[:n])


def test_seed_changes_sample(kernel_table):
    params = SpinMeasureParams(BETA, 1.0)
    a = build_ensemble(params, kernel_table, 2000, seed=5)
    b = build_ensemble(params, kernel_table, 2000, seed=6)
    assert not np.array_equal(a.counts, b.counts)
