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
from spinboson.loops import (
    SpinLoop,
    SpinMeasureParams,
    jump_count_pmf,
    sample_loop_arrays,
)
from spinboson.resolvent import resolvent_onepoint
from spinboson.seeds import substream
from spinboson.state import StateConfig

from conftest import flip_even, loop_rows, phase

BETA = 1.0


def _strata(ens):
    """The mass of each atom, that of the c = 2 stratum and (mass, loops)
    per run of the post-stratified estimator, derived afresh: the two
    constant paths, of mass P(0)/2 each; the loops with two jumps, of mass
    P(2), read by quadrature; and runs of adjacent jump counts c >= 4 of at
    least MIN_STRATUM loops (the leftover at the top joins the last run),
    each of the jump-count law's mass over the counts from its first up to
    the next run's first (the first run from count 4, the last to the
    end); masses renormalized over the atoms, c = 2 and the runs present."""
    pmf = jump_count_pmf(ens.params)
    pmf = pmf / pmf.sum()
    p2 = pmf[1] if len(pmf) > 1 else 0.0
    out = []
    runs = []
    for c in sorted(set(ens.counts[ens.counts >= 4].tolist())):
        if not runs or len(runs[-1][1]) >= ensemble_mod.MIN_STRATUM:
            runs.append([c, []])
        runs[-1][1].extend(np.flatnonzero(ens.counts == c))
    if len(runs) > 1 and len(runs[-1][1]) < ensemble_mod.MIN_STRATUM:
        runs[-2][1].extend(runs.pop()[1])
    for k, (c, loops) in enumerate(runs):
        lo = 4 if k == 0 else c
        hi = runs[k + 1][0] if k + 1 < len(runs) else 2 * len(pmf)
        mass = sum(pmf[m] for m in range(len(pmf)) if lo <= 2 * m < hi)
        out.append([mass, np.sort(np.array(loops))])
    total = pmf[0] + p2 + sum(mass for mass, _ in out)
    return (pmf[0] / 2 / total, p2 / total,
            [(mass / total, loops) for mass, loops in out])


def _levels(ens):
    """The node rows of each level of the c = 2 rule, fine first, derived
    afresh from c2_rule: their initial signs (every node with X_0 = +1,
    then -1), jump pairs and weights (half the node's weight each)."""
    out = []
    for level, n in zip(ensemble_mod.C2_LEVELS, ens.c2_nodes):
        t, w = ensemble_mod.c2_rule(ens.params.beta, *level)
        assert len(w) == n
        out.append((np.repeat([1, -1], n), np.tile(t, (2, 1)),
                    np.tile(w, 2) / 2))
    return out


def _node_logw(ens, t):
    """log W of two-jump paths, jump pairs t: kappa_mean M^2 / 4 with
    |M| = beta - 2 ell, plus 2 Phi(ell), ell = t_2 - t_1."""
    ell = t[:, 1] - t[:, 0]
    logw = 0.25 * ens.kernels.kappa_mean * (ens.params.beta - 2.0 * ell) ** 2
    phi = ens.kernels.phi
    return logw if phi is None else logw + 2.0 * phi(ell)


def _node_sums(ens, g):
    """The boundary sum of g on every node row at t = 0, fine level first:
    -1/2 X_0 (g(-beta/2) - 2 g(t_1) + 2 g(t_2) - g(beta/2))."""
    h = 0.5 * ens.params.beta
    lo, hi = g(np.array([-h, h]))
    return np.concatenate([
        -0.5 * signs * (lo - 2.0 * g(t[:, 0]) + 2.0 * g(t[:, 1]) - hi)
        for signs, t, _ in _levels(ens)])


def _read_flat(ens):
    """The flat jump times of the loops as the estimator reads them: as
    drawn where c <= 2, moved to the static tilt where c >= 4."""
    flat = ens.jumps_flat.copy()
    flat[np.repeat(ens.counts >= 4, ens.counts)] = ens.moved_flat
    return flat


def _read_loop(ens, i):
    """Loop i as the estimator reads it, a SpinLoop (_read_flat)."""
    a, b = ens.offsets[i], ens.offsets[i + 1]
    return SpinLoop(int(ens.signs[i]), tuple(_read_flat(ens)[a:b]))


def _importance_logw(ens):
    """log(W J) per loop: its log W plus, on a loop with c >= 4 jumps,
    the log Jacobian of its move to the static tilt."""
    logw = ens.logw.copy()
    logw[ens.counts >= 4] += ens.log_jac
    return logw


def _atom_logw(ens):
    """log W of a constant path, kappa_mean beta^2 / 4."""
    return 0.25 * ens.kernels.kappa_mean * ens.params.beta ** 2


def _constant_loops(kernel_table, n):
    """A TiltedEnsemble of n constant +1 loops: the sample of a frozen
    spin."""
    return TiltedEnsemble(SpinMeasureParams(BETA, 1.0), kernel_table,
                          np.ones(n, dtype=np.int8),
                          np.zeros(n, dtype=np.int64), np.empty(0), 0,
                          DEFAULT_CHUNK)


# ---------------------------------------------------------------------------
# free-measure degenerations
# ---------------------------------------------------------------------------

def test_zero_source_is_untilted(free_ensemble, f_gauss):
    ens = free_ensemble
    # kappa_mean = 0 and Phi = 0: the log-weights vanish exactly
    assert ens.kernels.kappa_mean == 0.0 and ens.kernels.phi is None
    assert np.all(ens.logw == 0.0)
    assert ens.ess == pytest.approx(ens.n)
    vals = np.sin(np.arange(len(ens.weights), dtype=float))
    mean, _ = ens.expectation(vals)
    # all weights are 1: the mass-weighted mean of the atoms' values, of
    # the fine c = 2 nodes' weighted values and of the runs' means
    p_atom, p2, runs = _strata(ens)
    rows = loop_rows(ens)
    _, _, w_fine = _levels(ens)[0]
    want = p_atom * (vals[0] + vals[1]) + p2 * np.dot(
        w_fine, vals[2:2 + len(w_fine)]) + sum(
        p * vals[rows[loops]].mean() for p, loops in runs)
    assert mean == pytest.approx(want, rel=1e-14)
    sval, se = ens.spin_factor(f_gauss)
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
    # Z = sign * <f, m> on the two constant paths, the only rows, each of
    # tilted mass 1/2
    assert len(z) == 2 and z[0] == -z[1]
    assert np.allclose(np.abs(z.real), m, rtol=1e-10)
    assert np.allclose(z.imag, 0.0, atol=1e-12)
    sval, se = ens.spin_factor(f_gauss)
    assert sval.imag == 0.0 and se == 0.0
    assert sval.real == pytest.approx(math.cos(z[0].real), rel=1e-15)
    assert ens.ell_shift(f_gauss) == 0.0
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
    # log sum_s p_s mean_s(W), each run's mean of W J (J the Jacobian of a
    # moved loop) by logsumexp and c = 2 by the fine nodes
    p_atom, p2, runs = _strata(ens)
    _, t, w = _levels(ens)[0]
    logw = _importance_logw(ens)
    ref = math.log(2.0 * math.cosh(x)) + float(logsumexp(
        [math.log(2.0 * p_atom) + _atom_logw(ens),
         math.log(p2) + logsumexp(_node_logw(ens, t), b=w)]
        + [math.log(p) + logsumexp(logw[loops]) - math.log(len(loops))
           for p, loops in runs]))
    assert abs(ens.log_partition() - ref) <= 1e-14 * abs(ref)


# ---------------------------------------------------------------------------
# boundary-sum identities vs the reference paths
# ---------------------------------------------------------------------------

def test_log_weights_match_reference(ensemble):
    idx = np.nonzero(ensemble.counts > 0)[0][:20]
    for i in idx:
        ref = loop_log_weight(_read_loop(ensemble, i), ensemble.kernels)
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
        ref = loop_log_weight(_read_loop(ens, i), table)
        assert ens.logw[i] == pytest.approx(ref, rel=1e-9)


def _loop_arrays(loops):
    """(signs, counts, flat jump times) of the given SpinLoops."""
    signs = np.array([lp.initial_sign for lp in loops], dtype=np.int8)
    counts = np.array([len(lp.jumps) for lp in loops], dtype=np.int64)
    flat = np.array([t for lp in loops for t in lp.jumps], dtype=float)
    return signs, counts, flat


def _ensemble_of(loops, table):
    """A TiltedEnsemble over the given SpinLoops, built from their arrays."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return TiltedEnsemble(SpinMeasureParams(table.beta, 1.0), table,
                              *_loop_arrays(loops), 0, DEFAULT_CHUNK)


def _log_weights_of(loops, table):
    """log W of the given SpinLoops themselves, by the ensemble's own
    boundary-sum code: an ensemble moves its loops with c >= 4 jumps."""
    signs, counts, flat = _loop_arrays(loops)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return _ensemble_of(loops, table)._log_weights(signs, starts, counts,
                                                   flat)


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
    orig = _log_weights_of(loops, table)
    rot = _log_weights_of(rotated, table)
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
    logw = _log_weights_of(loops, table)
    for lp, got in zip(loops, logw):
        assert got == pytest.approx(loop_log_weight(lp, table), rel=1e-9)


def test_static_moment_is_the_path_integral(ensemble):
    # one value per row: the constant +1 and -1 paths, the c = 2 nodes,
    # X_0 (beta - 2 ell) each, then the loops with c >= 4 jumps
    m = ensemble.static_moment
    assert ensemble.static_moment is m
    loops = np.flatnonzero(ensemble.counts >= 4)
    assert len(m) == len(ensemble.weights) == 2 + 2 * sum(
        ensemble.c2_nodes) + len(loops)
    assert m[0] == BETA and m[1] == -BETA
    nodes = np.concatenate([signs * (BETA - 2.0 * (t[:, 1] - t[:, 0]))
                            for signs, t, _ in _levels(ensemble)])
    assert np.allclose(m[2:2 + len(nodes)], nodes, rtol=0, atol=1e-14)
    rows = loop_rows(ensemble)
    for i in loops[:50]:
        lp = _read_loop(ensemble, i)
        want = np.dot(lp.interval_signs(), np.diff(lp.boundaries(BETA)))
        assert m[rows[i]] == pytest.approx(want, rel=1e-13,
                                           abs=1e-14 * BETA)


@pytest.mark.filterwarnings("ignore:weight degeneracy")
@pytest.mark.parametrize("beta, c0", [(1.0, 0.5), (8.0, 2.0)])
def test_constant_kernel_log_weight_is_the_static_term(beta, c0):
    # kappa = c0 has Phi = 0, so log W = c0 M^2 / 4 exactly
    ens = build_ensemble(SpinMeasureParams(beta, 1.0),
                         ThermalKernelTable.constant(beta, c0), 20000, seed=3)
    m = 2.0 * _all_loop_boundary_sum(ens, lambda u: u)
    assert np.array_equal(ens.logw, 0.25 * c0 * m ** 2)
    assert np.all(ens.logw[ens.counts == 0] == 0.25 * c0 * beta ** 2)


@pytest.mark.filterwarnings("ignore:weight degeneracy")
def test_log_weights_evaluate_phi_once_per_jump_pair(gauss_src, monkeypatch):
    # structural guard: the Phi spline sees each pair of true jumps once,
    # and each c = 2 node's pair once, never a circle end, in calls of at
    # most JUMP_SLAB points, and no triu_indices gather is formed; the slab
    # size does not change a bit
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
        assert sum(calls) == np.sum(ens.counts * (ens.counts - 1) // 2) \
            + sum(ens.c2_nodes)
        assert max(calls) <= slab
        assert np.array_equal(ens.logw, ref.logw)
    assert len(calls) > 100


@pytest.mark.filterwarnings("ignore:weight degeneracy")
@pytest.mark.parametrize("kind", ["gaussian", "constant", "zero"])
def test_build_weighs_and_moves_in_one_pass(gauss_src, zero_src, kind,
                                            monkeypatch):
    # structural guard: the build weighs and moves every loop in its pass
    # per jump count, never through _boundary_sums, and no slab size
    # changes a bit of what it builds; the constant and the zero-source
    # kernels have no Phi, and with the zero source nothing moves
    beta = 8.0
    table = {"gaussian": lambda: ThermalKernelTable(gauss_src, beta),
             "constant": lambda: ThermalKernelTable.constant(beta, 2.0),
             "zero": lambda: ThermalKernelTable(zero_src, beta)}[kind]()
    assert (table.phi is None) == (kind != "gaussian")

    def no_boundary_sums(*args, **kw):
        raise AssertionError("_boundary_sums called while building")

    monkeypatch.setattr(ensemble_mod, "_boundary_sums", no_boundary_sums)
    names = ("logw", "log_jac", "moved_flat", "weights")
    want = None
    for slab in (ensemble_mod.JUMP_SLAB, 256, 7):
        monkeypatch.setattr(ensemble_mod, "JUMP_SLAB", slab)
        ens = build_ensemble(SpinMeasureParams(beta, 1.0), table, 3000,
                             seed=12)
        got = [getattr(ens, name).tobytes() for name in names]
        want = want or got
        assert got == want
    drawn = ens.jumps_flat[np.repeat(ens.counts >= 4, ens.counts)]
    assert np.all((ens.moved_flat != drawn) == (kind != "zero"))
    assert np.all((ens.log_jac != 0.0) == (kind != "zero"))


def test_z_values_match_reference(ensemble, f_gauss):
    # one value per row: the constant +1 and -1 paths, the c = 2 nodes and
    # the loops with c >= 4 jumps
    z = ensemble.z_values(f_gauss)
    rows = loop_rows(ensemble)
    paths = [(0, SpinLoop(1, ())), (1, SpinLoop(-1, ()))] + [
        (rows[i], _read_loop(ensemble, i))
        for i in np.flatnonzero(ensemble.counts >= 4)[:10]]
    k = 2
    for signs, jumps, _ in _levels(ensemble):
        for j in (0, len(signs) // 2 + 5, len(signs) - 1):
            paths.append((k + j, SpinLoop(int(signs[j]), tuple(jumps[j]))))
        k += len(signs)
    for row, lp in paths:
        ref = loop_z_value(lp, ensemble.kernels, f_gauss)
        assert z[row] == pytest.approx(ref, rel=1e-9, abs=1e-12)


def _boundary_vector_z(kernels, f, sign, jumps):
    """Z = -1/2 sum_p d_p G(e_p) of one path from its whole boundary and
    d-coefficient vectors, and sum_p |d_p G(e_p)| / 2, the scale of its
    rounding."""
    beta = kernels.beta
    e = np.concatenate(([-0.5 * beta], jumps, [0.5 * beta]))
    d = np.where(np.arange(len(e)) % 2, -2.0, 2.0)
    d[[0, -1]] *= 0.5
    g = sign * d * np.sign(e) * kernels.register(f).A(np.abs(e))
    return -0.5 * g.sum(), 0.5 * np.abs(g).sum()


@pytest.mark.filterwarnings("ignore:weight degeneracy")
@settings(max_examples=25)
@given(beta=st.floats(0.5, 8.0),
       raw=st.lists(st.tuples(st.sampled_from([-1, 1]), _jump_fractions),
                    min_size=1, max_size=6))
def test_z_values_match_oracles_property(gauss_src, f_gauss, beta, raw):
    paths = []
    for sign, fracs in raw:
        jumps = sorted({beta * (u - 0.5) for u in fracs})
        paths.append((sign, jumps[:len(jumps) & ~1]))
    signs = np.array([p[0] for p in paths], dtype=np.int8)
    counts = np.array([len(p[1]) for p in paths], dtype=np.int64)
    flat = np.array([t for p in paths for t in p[1]], dtype=float)
    table = ThermalKernelTable(gauss_src, beta)
    ens = TiltedEnsemble(SpinMeasureParams(beta, 1.0), table, signs, counts,
                         flat, 0, DEFAULT_CHUNK)
    z = ens.z_values(f_gauss)
    # the constant paths, the c = 2 nodes, of which every 701st row is
    # checked, and the loops with c >= 4
    rows = [(0, 1, []), (1, -1, [])]
    k = 2
    for node_signs, jumps, _ in _levels(ens):
        rows += [(k + j, node_signs[j], jumps[j])
                 for j in range(0, len(node_signs), 701)]
        k += len(node_signs)
    # the loops with c >= 4 moved to the static tilt, as the ensemble holds
    # them
    moved = ens.moved_flat
    rows += [(k + j, signs[i],
              moved[ens.moved_offsets[j]:ens.moved_offsets[j + 1]])
             for j, i in enumerate(np.flatnonzero(counts >= 4))]
    assert len(z) == k + int(np.sum(counts >= 4))
    for row, sign, jumps in rows:
        ref, scale = _boundary_vector_z(table, f_gauss, sign, jumps)
        assert abs(z[row] - ref) <= 1e-14 * scale
        loop = loop_z_value(SpinLoop(int(sign), _distinct(jumps)), table,
                            f_gauss)
        assert abs(z[row] - loop) <= 1e-12 * scale


def _distinct(jumps):
    """The jump times of the same path with every pair of equal adjacent
    times dropped (an interval of length 0): moving a loop can round a
    tiny interval to nothing."""
    out = []
    for x in jumps:
        if out and out[-1] == x:
            out.pop()
        else:
            out.append(float(x))
    return tuple(out)


def test_odd_jump_count_is_refused(kernel_table):
    # a periodic path jumps an even number of times
    signs = np.array([1, -1], dtype=np.int8)
    for counts in ([2, 1], [3, 0]):
        flat = np.linspace(-0.4, 0.4, sum(counts))
        with pytest.raises(ValueError, match="odd number of jumps"):
            TiltedEnsemble(SpinMeasureParams(BETA, 1.0), kernel_table, signs,
                           np.array(counts, dtype=np.int64), flat, 0,
                           DEFAULT_CHUNK)


def test_frozen_spin_z_is_the_endpoint_terms(ensemble, f_gauss):
    # rows 0 and 1 of any ensemble are the constant +1 and -1 paths (a
    # frozen spin): -1/2 (G(-beta/2) - G(beta/2)) times the sign, with G
    # odd, so A_f(beta/2) times the sign
    a_f = ensemble.kernels.register(f_gauss).A
    h = 0.5 * BETA
    want = 0.5 * (a_f(h) + a_f(h))
    z = ensemble.z_values(f_gauss)
    assert z[0] == want and z[1] == -want


def test_z_values_evaluates_A_once_per_jump(kernel_table, f_gauss,
                                            monkeypatch):
    # structural guard: two circle ends shared by every row, plus one point
    # per jump of a loop row and per jump of a node (its X_0 = -1 row
    # negates the X_0 = +1 one), not two ends per loop, and no point for a
    # sampled loop with two jumps
    ens = build_ensemble(SpinMeasureParams(BETA, 1.0), kernel_table, 2000,
                         seed=11)
    entry = kernel_table.register(f_gauss)
    points = []

    def counted(x, a_f=entry.A):
        points.append(np.size(x))
        return a_f(x)

    monkeypatch.setattr(entry, "A", counted)
    ens.z_values(f_gauss)
    counts = ens.counts
    assert sum(points) == (counts[counts >= 4].sum() + 2
                           + 2 * sum(ens.c2_nodes))


@pytest.mark.parametrize("slab", [2, 7, 256])
def test_boundary_sums_do_not_depend_on_the_slab(kernel_table, f_gauss, slab,
                                                 monkeypatch):
    # the jump slabs hold whole loops, however many per slab: a row's sum
    # does not change a bit
    rng = np.random.default_rng(6)
    raw = [(int(sign), list(rng.random(c))) for sign, c in
           zip(rng.choice([-1, 1], 300), 2 * rng.integers(0, 5, 300))]
    ens = _ensemble_of_kind(kernel_table, "two-atoms", raw, 0)
    a_f = kernel_table.register(f_gauss).A
    # g returns a new array, as _boundary_sums needs
    per_loop = [lambda x: np.sign(x) * a_f(np.abs(x)), lambda u: 2.0 * u]
    want = [ens._boundary_sum(g) for g in per_loop]
    monkeypatch.setattr(ensemble_mod, "JUMP_SLAB", slab)
    for g, w in zip(per_loop, want):
        assert ens._boundary_sum(g).tobytes() == w.tobytes()


def test_boundary_sums_leave_the_jump_times_unchanged(kernel_table,
                                                      f_gauss):
    # the boundary sums negate every other value of g in place, and
    # static_moment is kept from the weighing pass: the drawn, the moved
    # and the node jump times stay as they were, bit for bit
    ens = build_ensemble(SpinMeasureParams(BETA, 2.0), kernel_table, 2000,
                         seed=5)
    held = (ens.jumps_flat, ens.moved_flat, ens._nodes[3])
    before = [x.tobytes() for x in held]
    assert len(ens.moved_flat) and len(ens._nodes[3])
    ens.static_moment
    ens.z_values(f_gauss)
    assert [x.tobytes() for x in held] == before


def test_sampler_sorts_each_jump_once(kernel_table, monkeypatch):
    # structural guard: no global lexsort, and the sampler's row sorts
    # cover each jump time once, in a row of its own loop's length; a
    # two-jump row is ordered by np.minimum and np.maximum, one pair of
    # elements per row
    rows = {}

    def no_lexsort(*args, **kw):
        raise AssertionError("np.lexsort called while sampling")

    def counted(a, axis=-1, sort=np.sort, **kw):
        n_rows, length = np.shape(a)
        assert axis == 1
        rows[length] = rows.get(length, 0) + n_rows
        return sort(a, axis=axis, **kw)

    def counted_pairs(lo, hi, maximum=np.maximum):
        assert np.shape(lo) == np.shape(hi) and np.ndim(lo) == 1
        rows[2] = rows.get(2, 0) + len(lo)
        return maximum(lo, hi)

    monkeypatch.setattr(np, "lexsort", no_lexsort)
    monkeypatch.setattr(np, "sort", counted)
    monkeypatch.setattr(np, "maximum", counted_pairs)
    ens = build_ensemble(SpinMeasureParams(BETA, 2.0), kernel_table, 10000,
                         seed=4, chunk_size=4096)
    monkeypatch.undo()
    assert sum(c * r for c, r in rows.items()) == ens.counts.sum()
    per_count = np.bincount(ens.counts)
    assert rows == {c: per_count[c] for c in np.flatnonzero(per_count) if c}


_KINDS = ["sampled", "frozen", "two-atoms", "no-constant",
          "one-sign-constants", "n1"]


def _ensemble_of_kind(kernel_table, kind, raw, seed):
    """A sampled ensemble of 40 len(raw) loops, as many constant +1 loops
    (the sample of a frozen spin), or one built from the drawn paths raw,
    (sign, jump fractions) each, cut to an even number of jumps: with both
    constant paths added, with no constant path, with constant paths of one
    sign only, or the first path alone."""
    params = SpinMeasureParams(BETA, 1.0)
    if kind == "sampled":
        return build_ensemble(params, kernel_table, 40 * len(raw), seed=seed)
    if kind == "frozen":
        return _constant_loops(kernel_table, 40 * len(raw))
    paths = []
    for sign, fracs in raw:
        jumps = sorted({BETA * (u - 0.5) for u in fracs})
        paths.append((sign, jumps[:len(jumps) & ~1]))
    if kind == "two-atoms":
        paths = paths + [(1, []), (-1, [])]
    elif kind == "no-constant":
        paths = [(sign, jumps or [-0.25 * BETA, 0.25 * BETA])
                 for sign, jumps in paths]
    elif kind == "one-sign-constants":
        paths = [(sign if jumps else raw[0][0], jumps)
                 for sign, jumps in paths]
    elif kind == "n1":
        paths = paths[:1]
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
       s=st.floats(-4.0, 4.0), seed=st.integers(0, 1 << 16))
def test_map_distinct_is_fn_on_all_loops_property(kernel_table, f_gauss, kind,
                                                  out, raw, s, seed):
    # the rows are the constant +1 and -1 paths, the c = 2 nodes, then the
    # loops with c >= 4 jumps, ascending; every loop with a row (c = 2 has
    # none) has its row's Z and M bit for bit, and its log W is that of its
    # row's path (kappa_mean beta^2 / 4 on an atom), so a loop-wise fn
    # mapped over the rows and read back through each such loop's row is
    # fn on those loops
    ens = _ensemble_of_kind(kernel_table, kind, raw, seed)
    n_rows = 2 + 2 * sum(ens.c2_nodes) + int(np.sum(ens.counts >= 4))
    rows = loop_rows(ens)
    read = rows >= 0
    assert np.all(read == (ens.counts != 2))
    rows = rows[read]
    a_f = kernel_table.register(f_gauss).A
    z_all = _all_loop_boundary_sum(
        ens, lambda x: np.sign(x) * a_f(np.abs(x)))[read]
    z = ens.z_values(f_gauss)
    assert z[rows].tobytes() == z_all.tobytes()
    m_all = 2.0 * _all_loop_boundary_sum(ens, lambda u: u)[read]
    assert ens.static_moment[rows].tobytes() == m_all.tobytes()
    w = np.full(n_rows, _atom_logw(ens))
    w[n_rows - int(np.sum(ens.counts >= 4)):] = ens.logw[ens.counts >= 4]
    assert w[rows].tobytes() == ens.logw[read].tobytes()
    fn = _LOOPWISE[out](s)
    got, want = fn(z, w), fn(z_all, ens.logw[read])
    pairs = zip(got, want) if out == "tuple" else [(got, want)]
    for g, h in pairs:
        assert g.dtype == h.dtype and g.shape == (n_rows,)
        assert g[rows].tobytes() == h.tobytes()


def _all_loop_boundary_sum(ens, g):
    # -1/2 sum_p d_p g(e_p) on every loop, constant loops included
    lo, hi = g(0.5 * ens.params.beta * np.array([-1.0, 1.0]))
    out = np.full(ens.n, -0.5 * (lo - hi))
    gj = g(_read_flat(ens))
    gj[1::2] *= -1.0
    has = np.flatnonzero(ens.counts)
    out[has] += np.add.reduceat(gj, ens.offsets[has])
    return out * ens.signs


def _path_sums(ens, g):
    """The boundary sum of g on the constant +1 and -1 paths, on the node
    rows and on every loop."""
    lo, hi = g(0.5 * ens.params.beta * np.array([-1.0, 1.0]))
    ends = -0.5 * (lo - hi)
    return (np.array([ends, -ends]), _node_sums(ens, g),
            _all_loop_boundary_sum(ens, g))


def _path_z(ens, f):
    a_f = ens.kernels.register(f).A
    return _path_sums(ens, lambda x: np.sign(x) * a_f(np.abs(x)))


def _all_loop_expectation(ens, v_atoms, v_nodes, v):
    """(mean, se, gap) of the post-stratified estimator from the strata
    derived afresh: the atoms, read exactly, with the values v_atoms of the
    constant +1 and -1 paths; the c = 2 stratum by the fine nodes, with the
    values v_nodes of the node rows (fine, then coarse), and by the coarse
    ones for the gap; and the loops with c >= 4 jumps, with their values in
    v (one per loop; the others are not read); with the uncancelled
    magnitudes of the mean and of the squared SE that bound their
    rounding."""
    top = ens.logw.max()
    w = np.exp(_importance_logw(ens) - top)
    p_atom, p2, strata = _strata(ens)
    atom = p_atom * math.exp(_atom_logw(ens) - top)
    nodes = [p2 * wl * np.exp(_node_logw(ens, t) - top)
             for _, t, wl in _levels(ens)]
    per_loop, runs = np.zeros(ens.n), []
    for mass, loops in strata:
        per_loop[loops] = w[loops] * mass / len(loops)
        runs.append(loops)
    sums = [np.sum(per_loop) + 2.0 * atom + np.sum(x) for x in nodes]
    v, v_atoms, v_nodes = (np.asarray(x) for x in (v, v_atoms, v_nodes))
    cut = len(nodes[0])
    split = [v_nodes[:cut], v_nodes[cut:]]
    parts = ([(v.real, v_atoms.real, [y.real for y in split]),
              (v.imag, v_atoms.imag, [y.imag for y in split])]
             if any(np.iscomplexobj(a) for a in (v, v_atoms, v_nodes))
             else [(v, v_atoms, split)])
    means, var, gap = [], 0.0, 0.0
    mean_scale, var_scale = 0.0, 0.0
    for x, xa, xn in parts:
        fine, coarse = ((np.sum(per_loop * x) + atom * np.sum(xa)
                         + np.sum(wn * y)) / total
                        for wn, y, total in zip(nodes, xn, sums))
        means.append(fine)
        gap += (fine - coarse) ** 2
        mean_scale += (np.sum(per_loop * np.abs(x)) + atom * np.sum(np.abs(xa))
                       + np.sum(nodes[0] * np.abs(xn[0]))) / sums[0]
        wd = per_loop * (x - fine)
        var += np.dot(wd, wd) - sum(np.sum(wd[r]) ** 2 / len(r) for r in runs)
        var_scale += np.sum((per_loop * (np.abs(x) + abs(fine))) ** 2)
    se = math.sqrt(max(var, 0.0)) / sums[0]
    mean = complex(*means) if len(parts) == 2 else means[0]
    return mean, se, math.sqrt(gap), mean_scale, var_scale / sums[0] ** 2


def _assert_estimate(got, want, rel=1e-14):
    # the mean, SE and gap agree to rel of their uncancelled magnitudes
    (val, se, gap), (mean, want_se, want_gap, mean_scale, var_scale) = \
        got, want
    assert abs(val - mean) <= rel * max(abs(mean), mean_scale)
    assert abs(se * se - want_se * want_se) <= rel * max(want_se ** 2,
                                                         var_scale)
    assert abs(gap - want_gap) <= 4.0 * rel * max(abs(mean), mean_scale)


def _all_loop_kernel_variance(ens, f, n_cells):
    beta = ens.params.beta
    edges = np.linspace(-0.5 * beta, 0.5 * beta, n_cells + 1)
    g = np.sign(edges) * ens.kernels.register(f).A(np.abs(edges)).real
    ya, yn, y = (2.0 * x for x in _path_sums(
        ens, lambda u: np.interp(u, edges, g)))
    mean = _all_loop_expectation(ens, ya, yn, y)[0]
    return 0.25 * _all_loop_expectation(
        ens, (ya - mean) ** 2, (yn - mean) ** 2, (y - mean) ** 2)[0]


@pytest.mark.filterwarnings("ignore:weight degeneracy")
@pytest.mark.parametrize("kind", _KINDS)
@settings(max_examples=10)
@given(raw=st.lists(st.tuples(st.sampled_from([-1, 1]), _jump_fractions),
                    min_size=1, max_size=8),
       s=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=3),
       seed=st.integers(0, 1 << 16))
def test_estimators_on_distinct_loops_match_all_loops_property(
        kernel_table, f_gauss, kind, raw, s, seed):
    # char_function, variance_two_routes and ell_shift read only the rows;
    # the same formulas over the constant paths, the c = 2 nodes and every
    # loop with c >= 4 jumps, each path averaged with its spin flip, agree
    # with the estimate without control, and the first two are the
    # estimate with the static control, their errors the SE plus the gap
    ens = _ensemble_of_kind(kernel_table, kind, raw, seed)
    za0, zn0, z0 = (x.real for x in _path_z(ens, f_gauss))
    vals, ses = ens.char_function(f_gauss, s)
    z_rows = ens.z_values(f_gauss).real
    for sj, val, se in zip(s, vals, ses):
        got = ens.estimate(np.cos(sj * z_rows))
        _assert_estimate(got, _all_loop_expectation(
            ens, flip_even(za0, phase(sj)), flip_even(zn0, phase(sj)),
            flip_even(z0, phase(sj))))
        # char_function is that estimate with the static control cos(s x)
        got = ens.estimate(np.cos(sj * z_rows), ens.static_control(
            f_gauss, lambda x: np.cos(sj * x)))
        assert val == got[0] and se == got[1] + got[2]
    mean = _all_loop_expectation(ens, flip_even(za0, lambda x: x),
                                 flip_even(zn0, lambda x: x),
                                 flip_even(z0, lambda x: x))
    assert mean[0] == 0.0 and ens.ell_shift(f_gauss) == 0.0
    rep = ens.variance_two_routes(f_gauss, 64)
    got = ens.estimate(z_rows * z_rows, ens.static_control(
        f_gauss, lambda x: np.square(x.real)))
    assert (rep.var_direct, rep.var_direct_se) == (got[0], got[1] + got[2])
    got = ens.estimate(z_rows * z_rows)
    _assert_estimate(got, _all_loop_expectation(
        ens, flip_even(za0, lambda x: x ** 2),
        flip_even(zn0, lambda x: x ** 2), flip_even(z0, lambda x: x ** 2)))
    for got, n_cells in ((rep.var_kernel, 64), (rep.var_kernel_fine, 128)):
        want = _all_loop_kernel_variance(ens, f_gauss, n_cells)
        assert got == pytest.approx(want, rel=1e-14, abs=1e-300)


def _flip_estimates(ens, src, f, s, lam):
    # (value, SE) of the spin-sign estimators, the one-point value's error
    # being its SE plus evaluation
    cfg = StateConfig(beta=BETA, eps=1.0, d=3, s=1.0, n0=1e-3, source=src,
                      kernels=ens.kernels, ensemble=ens)
    one = resolvent_onepoint(cfg, lam, f)
    return {"S": ens.char_function(f, s), "var": ens._z_moments(f),
            "R": (one.value, one.error)}


@pytest.mark.filterwarnings("ignore:weight degeneracy")
@pytest.mark.parametrize("kind", _KINDS)
@settings(max_examples=10)
@given(raw=st.lists(st.tuples(st.sampled_from([-1, 1]), _jump_fractions),
                    min_size=1, max_size=8),
       s=st.floats(-4.0, 4.0), lam=st.sampled_from([-0.8, 1.3]),
       seed=st.integers(0, 1 << 16))
def test_estimates_are_invariant_under_the_spin_flip_property(
        kernel_table, gauss_src, f_gauss, kind, raw, s, lam, seed):
    # the free measure, log W and the move to the static tilt are invariant
    # under X -> -X, which negates Z and swaps the atoms: the same sample
    # with every sign negated gives the same values and SEs, whichever
    # constant loops were drawn
    ens = _ensemble_of_kind(kernel_table, kind, raw, seed)
    flipped = TiltedEnsemble(ens.params, kernel_table, -ens.signs,
                             ens.counts, ens.jumps_flat, 0, DEFAULT_CHUNK)
    assert np.array_equal(flipped.moved_flat, ens.moved_flat)
    got = _flip_estimates(flipped, gauss_src, f_gauss, s, lam)
    want = _flip_estimates(ens, gauss_src, f_gauss, s, lam)
    for key, (val, se) in want.items():
        assert abs(got[key][0] - val) <= 1e-14 * abs(val), key
        assert abs(got[key][1] - se) <= 1e-14 * se, key


def test_char_function_exponentiates_only_distinct_loops(
        ensemble, f_gauss, monkeypatch):
    # structural guard: cos(s Z) runs on the rows once per s, and the
    # control cos(s x) on the loop rows and on each level of the static
    # rule once per s; no sine is taken, and no exponential
    # over more values than the loop rows (their static weights and the
    # static rule's densities, each taken once per ensemble)
    ensemble.z_values(f_gauss)
    points = {"cos": [], "sin": [], "exp": []}

    def counted(name):
        fn = getattr(np, name)

        def call(x, *args, **kw):
            points[name].append(np.size(x))
            return fn(x, *args, **kw)
        return call

    for name in points:
        monkeypatch.setattr(np, name, counted(name))
    ensemble.char_function(f_gauss, [0.0625, 0.1875])
    n_rows = len(ensemble.weights)
    n_loops = int(np.sum(ensemble.counts >= 4))
    static = 0.25 * ensemble.kernels.kappa_mean * BETA ** 2
    _, levels, _ = ensemble_mod.static_levels(static, [4])
    nodes = [len(y) for y, _ in levels] * 2
    assert sorted(points["cos"]) == sorted([n_rows] * 2 + [n_loops] * 2
                                           + nodes)
    assert points["sin"] == []
    assert max(points["exp"]) <= n_loops
    assert n_rows < ensemble.n


def test_per_loop_state_lives_on_the_distinct_loops(ensemble, f_gauss,
                                                    g_gauss):
    # structural guard: the cached estimator arrays hold one value per
    # row, and the only n-length arrays are the loop data
    ens = ensemble
    ens.char_function(f_gauss, [0.5, 1.0])
    ens.variance_two_routes(g_gauss)
    ens.ell_shift(f_gauss)
    ens.deviation_bound_check(f_gauss, [0.5])
    ens.static_moment
    ens.z_values(f_gauss.scaled(2.0))
    w = ens.norm_weights
    assert np.all(w[ens.counts <= 2] == 0.0)
    c2_mass = np.sum(ens.weights[2:2 + 2 * ens.c2_nodes[0]]) / ens.sum_w
    assert np.sum(w) + ens.atom_mass + c2_mass == pytest.approx(1.0,
                                                               rel=1e-14)
    d = 2 + 2 * sum(ens.c2_nodes) + int(np.sum(ens.counts >= 4))
    assert d < ens.n
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


def test_spin_factor_is_memoized(ensemble, f_gauss):
    first = ensemble.spin_factor(f_gauss)
    assert ensemble.spin_factor(f_gauss) is first
    val, se, gap = ensemble.estimate(flip_even(
        ensemble.z_values(f_gauss).real, phase(1.0)),
        ensemble.static_control(f_gauss, np.cos))
    assert first == (val, se + gap)


def test_char_function_estimates_each_s_once(kernel_table, f_gauss,
                                             monkeypatch):
    # char_function is the one estimator: each (f, s) reaches estimate
    # once, and spin_factor is its cached s = 1 value
    ens = build_ensemble(SpinMeasureParams(BETA, 1.0), kernel_table, 2000,
                         seed=11)
    calls = []
    estimate = ens.estimate

    def counted(values, control=None):
        calls.append(len(values))
        return estimate(values, control)

    monkeypatch.setattr(ens, "estimate", counted)
    vals, ses = ens.char_function(f_gauss, [0.0, 1.0])
    assert len(calls) == 2
    assert ens.spin_factor(f_gauss) == (vals[1], ses[1])
    assert ens.char_function(f_gauss, 1.0) == (vals[1], ses[1])
    assert len(calls) == 2


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
    val, se = ensemble.spin_factor(f_gauss)
    assert abs(val) <= 1.0 + 3.0 * se + 1e-12


def test_char_function_vectorization(ensemble, f_gauss):
    s = [0.0, 0.7, 1.9]
    vals, ses = ensemble.char_function(f_gauss, s)
    assert vals[0] == 1.0 + 0.0j and ses[0] == 0.0
    z = ensemble.z_values(f_gauss).real
    for j, sj in enumerate(s):
        ref, ref_se, ref_gap = ensemble.estimate(
            flip_even(z, phase(sj)),
            ensemble.static_control(f_gauss, lambda x: np.cos(sj * x)))
        assert vals[j] == ref and ses[j] == ref_se + ref_gap
    scalar_val, _ = ensemble.char_function(f_gauss, 0.7)
    assert scalar_val == vals[1]


def test_expectation_of_ones_is_exact(ensemble):
    # the normalized weights of this ensemble do not sum to 1 in floating
    # point; the quotient-form estimator must still reproduce a constant
    ones = np.ones(len(ensemble.weights))
    assert ensemble.expectation(ones) == (1.0, 0.0)
    assert ensemble.expectation(ones.astype(complex)) == (1.0 + 0.0j, 0.0)


@pytest.mark.parametrize("frozen", [False, True])
def test_expectation_rejects_all_loop_arrays(kernel_table, frozen):
    # one value per row: an array over all n loops is refused, also when
    # the sample holds constant loops only
    ens = (_constant_loops(kernel_table, 2000) if frozen else
           build_ensemble(SpinMeasureParams(BETA, 1.0), kernel_table, 2000,
                          seed=11))
    assert len(ens.weights) != ens.n
    with pytest.raises(ValueError, match="per row"):
        ens.expectation(np.ones(ens.n))
    with pytest.raises(ValueError, match="per row"):
        ens.expectation(np.ones(ens.n, dtype=complex))


def test_z_values_are_cached_read_only(ensemble, f_gauss):
    # Z is computed once per f and shared: one value per row
    z = ensemble.z_values(f_gauss)
    assert ensemble.z_values(f_gauss) is z
    assert z.shape == (len(ensemble.weights),)
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
    # no constant loop and one jump count, c = 4: besides the two atoms and
    # the fine c = 2 nodes, one stratum of mass 1 - P(0) - P(2), read by the
    # self-normalized mean of the moved loops, each weighing W J, with the
    # squared SE
    # sum_i w_i^2 |d_i|^2 / (sum w)^2 less |sum_i w_i d_i|^2 / n (sum w)^2
    rng = np.random.default_rng(5)
    loops = [SpinLoop(int(s), tuple(sorted(BETA * (u - 0.5))))
             for s, u in zip(rng.choice([-1, 1], 300),
                             rng.random((300, 4)))]
    ens = _ensemble_of(loops, kernel_table)
    v = np.exp(-1j * ens.z_values(f_gauss))
    pmf = jump_count_pmf(ens.params)
    p0, p2 = pmf[:2] / pmf.sum()
    top = ens.logw.max()
    w = np.exp(_importance_logw(ens) - top) * (1.0 - p0 - p2) / ens.n
    atom = math.exp(_atom_logw(ens) - top) * p0 / 2.0
    _, t, wl = _levels(ens)[0]
    nodes = p2 * wl * np.exp(_node_logw(ens, t) - top)
    first = 2 + len(nodes)
    v_nodes, v_loops = v[2:first], v[2 + 2 * sum(ens.c2_nodes):]
    sum_w = np.sum(w) + 2.0 * atom + np.sum(nodes)
    mean = (np.sum(w * v_loops) + atom * (v[0] + v[1])
            + np.sum(nodes * v_nodes)) / sum_w
    d = v_loops - mean
    se = math.sqrt(np.sum(w ** 2 * np.abs(d) ** 2)
                   - abs(np.sum(w * d)) ** 2 / ens.n) / sum_w
    got, got_se, _ = ens.estimate(v)
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
    # loops, each weighing W J, within their combined SE, and its SE is
    # smaller
    table = ThermalKernelTable(gauss_src, beta, tol=1e-9)
    ens = build_ensemble(SpinMeasureParams(beta, 1.0), table, 20000, seed=8)
    val, se = ens.spin_factor(f_gauss)
    v = np.exp(-1j * _path_z(ens, f_gauss)[2])
    logw = _importance_logw(ens)
    w = np.exp(logw - logw.max())
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
@pytest.mark.parametrize("beta, c0", [(1.0, 0.5), (4.0, 0.5), (8.0, 0.5),
                                      (8.0, 2.0)])
def test_log_partition_matches_exact_constant_kernel(beta, c0):
    ens = build_ensemble(SpinMeasureParams(beta, 1.0),
                         ThermalKernelTable.constant(beta, c0), 20000,
                         seed=12)
    # delta-method SE of log sum_s p_s mean_s(W J): the atoms and the c = 2
    # nodes add none
    logw = _importance_logw(ens)
    top = logw.max()
    w = np.exp(logw - top)
    p_atom, p2, runs = _strata(ens)
    _, t, wl = _levels(ens)[0]
    total = (2.0 * p_atom * math.exp(_atom_logw(ens) - top)
             + p2 * np.sum(wl * np.exp(_node_logw(ens, t) - top)) + sum(
                 p * w[loops].mean() for p, loops in runs))
    var = sum(p * p * w[loops].var(ddof=1) / len(loops)
              for p, loops in runs if len(loops) > 1)
    se = math.sqrt(var) / total
    exact = _exact_log_partition(beta, 1.0, c0)
    assert abs(ens.log_partition() - exact) <= 4.0 * se


def test_variance_routes_zero_source(free_ensemble, f_gauss):
    rep = free_ensemble.variance_two_routes(f_gauss)
    assert rep.var_direct == 0.0
    assert rep.var_kernel == pytest.approx(0.0, abs=1e-12)


def _dense_kernel_variance(ens, f, n_cells):
    # 1/4 (kcell^T M2 kcell - (kcell^T m1)^2) from the explicit per-row
    # cell-integral matrix and its weighted first and second moments
    beta = ens.params.beta
    entry = ens.kernels.register(f)
    edges = np.linspace(-0.5 * beta, 0.5 * beta, n_cells + 1)
    g = np.sign(edges) * entry.A(np.abs(edges)).real
    kcell = np.diff(g) / (beta / n_cells)
    cells = ens.cell_integrals(edges)
    w = ens.weights / ens.sum_w
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
    # variances: 5% relative, else 3 errors of the direct route, each path
    # averaged with its spin flip, under which E~[Z] = 0, and read against
    # the static control x^2
    z = ens.z_values(f).real
    _, se, gap = ens.estimate(flip_even(z, lambda x: x ** 2),
                              ens.static_control(
                                  f, lambda x: np.square(x.real)))
    se += gap
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
    # Z = +-m on the two atoms, each of tilted mass 1/2, so the tilted
    # variance is m^2
    assert rep.var_direct == pytest.approx(m * m, rel=1e-9)
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
    # real margin on the grid; the atoms are read exactly
    m = kernel_table.m_value(f_gauss).real
    ok, rows = eps0_ensemble.deviation_bound_check(
        f_gauss, [0.1, 0.5, 1.0, 2.0])
    assert ok
    for s, lhs, bound, margin in rows:
        assert abs(math.cos(s * m) - 1.0) <= 0.5 * s * s * m * m
        assert lhs == pytest.approx(abs(math.cos(s * m) - 1.0), rel=1e-6)


def test_cnumber_criterion(free_ensemble, eps0_ensemble, f_gauss):
    verdict, evidence = free_ensemble.cnumber_criterion(f_gauss)
    assert verdict
    assert evidence["var_direct"] == 0.0
    verdict0, evidence0 = eps0_ensemble.cnumber_criterion(f_gauss)
    assert not verdict0
    assert evidence0["var_direct"] > 1.0


@pytest.fixture(scope="module")
def missed_atom_reference(gauss_src, f_gauss):
    # the benchmark's source and f at beta = 8, 2e5 loops at seed 99
    table = ThermalKernelTable(gauss_src, 8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ref = build_ensemble(SpinMeasureParams(8.0, 1.0), table, 200000,
                             seed=99)
    return table, ref.spin_factor(f_gauss)


@pytest.mark.filterwarnings("ignore:weight degeneracy")
@pytest.mark.parametrize("seed", [0, 9])
def test_a_missed_constant_path_leaves_no_bias(missed_atom_reference,
                                               gauss_src, f_gauss, seed):
    # at beta = 8, 4000 loops of these seeds draw no constant loop of one
    # sign; the atoms are read exactly all the same, so S is real, ell and
    # Re psi(R(lambda, f)) vanish, and S agrees with a 2e5-loop reference
    table, (ref, ref_se) = missed_atom_reference
    ens = build_ensemble(SpinMeasureParams(8.0, 1.0), table, 4000, seed=seed)
    constant = ens.signs[ens.counts == 0]
    assert len(set(constant.tolist())) == 1
    val, se = ens.spin_factor(f_gauss)
    assert val.imag == 0.0
    assert ens.ell_shift(f_gauss) == 0.0
    cfg = StateConfig(beta=8.0, eps=1.0, d=3, s=1.0, n0=1e-3,
                      source=gauss_src, kernels=table, ensemble=ens)
    for lam in (1.0, -0.5):
        assert resolvent_onepoint(cfg, lam, f_gauss).value.real == 0.0
    assert abs(val - ref) <= 4.0 * math.hypot(se, ref_se)


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


# ---------------------------------------------------------------------------
# the c = 2 rule
# ---------------------------------------------------------------------------

@settings(max_examples=40)
@given(beta=st.floats(0.25, 16.0))
def test_c2_rule_moments_property(beta):
    # the free law given two jumps is uniform on the triangle
    # -beta/2 < t_1 < t_2 < beta/2: each level's weights sum to 1, and
    # E[ell] = beta / 3, E[ell^2] = beta^2 / 6 and E[t_1] = -beta / 6
    for level in ensemble_mod.C2_LEVELS:
        t, w = ensemble_mod.c2_rule(beta, *level)
        assert np.all(np.diff(t, axis=1) > 0)
        assert np.all((t > -0.5 * beta) & (t < 0.5 * beta))
        ell = t[:, 1] - t[:, 0]
        assert abs(np.sum(w) - 1.0) <= 1e-13
        assert abs(np.dot(w, ell) - beta / 3.0) <= 1e-13 * beta
        assert abs(np.dot(w, ell * ell) - beta ** 2 / 6.0) <= 1e-13 * beta ** 2
        assert abs(np.dot(w, t[:, 0]) + beta / 6.0) <= 1e-13 * beta


def _c2_mass(ens):
    """E[W | c = 2] of each level, read off the ensemble's node rows: each
    row weighs p_2 w_k W_k / 2 on the scale on which an atom row weighs
    p_0 W_atom / 2."""
    pmf = jump_count_pmf(ens.params)
    scale = (0.5 * pmf[0] * math.exp(_atom_logw(ens))
             / (pmf[1] * ens.weights[0]))
    first = 2 + 2 * ens.c2_nodes[0]
    return (np.sum(ens.weights[2:first]) * scale,
            np.sum(ens._coarse) * scale)


@pytest.mark.filterwarnings("ignore:weight degeneracy")
@pytest.mark.parametrize("beta, c0", [(1.0, 0.5), (4.0, 0.5), (8.0, 2.0)])
def test_c2_rule_meets_the_constant_kernel_closed_form(beta, c0):
    # kappa = c0 has Phi = 0, so W = exp(c0 (beta - 2 ell)^2 / 4) and
    # E[W | c = 2] = (2 / beta^2) int_0^beta (beta - ell) W dell
    #              = sqrt(pi / a) erfi(sqrt(a) beta) / (2 beta), a = c0 / 4;
    # the fine level meets it within the level gap, its stated error, and
    # that gap is small: 1.4e-9 of the value at (8, 2), where W spans
    # e^32, and below 1e-13 at the other two
    from scipy.special import erfi
    ens = build_ensemble(SpinMeasureParams(beta, 1.0),
                         ThermalKernelTable.constant(beta, c0), 200, seed=3)
    a = 0.25 * c0
    exact = math.sqrt(math.pi / a) * erfi(math.sqrt(a) * beta) / (2.0 * beta)
    fine, coarse = _c2_mass(ens)
    gap = abs(fine - coarse)
    assert abs(fine - exact) <= gap + 1e-13 * exact
    assert gap <= 1e-8 * exact


# ---------------------------------------------------------------------------
# the move of the loops with c >= 4 to the static tilt
# ---------------------------------------------------------------------------

def _loops_at(x, c, beta):
    """(c, m) jump times of loops with c jumps whose sign-X_0 intervals
    (even index) have total length x beta, every interval of a sign equally
    long."""
    k = c // 2
    lengths = np.empty((c + 1, len(x)))
    lengths[0::2] = x * beta / (k + 1)
    lengths[1::2] = (1.0 - x) * beta / k
    return np.cumsum(lengths[:-1], axis=0) - 0.5 * beta


@pytest.mark.parametrize("c, static", [(4, 5.6), (4, 44.5), (10, 44.5),
                                       (6, -3.0)])
def test_static_tilt_is_an_exact_change_of_variables(c, static):
    # x, the sign-X_0 share of the circle, has free density b proportional
    # to x^k (1 - x)^(k - 1), k = c / 2.  The move keeps each sign's
    # interval proportions, sends x to an increasing y, and
    # E[h(y) J] = E[h(x)] under b, here for h = 1, x and the static tilt
    # e^{static (2x - 1)^2}, by 32 Gauss-Legendre points on each cell of
    # the move's piecewise-linear map (the integrand is smooth there),
    # against quad
    from scipy.integrate import quad
    beta, k = 8.0, c // 2
    cells = ensemble_mod.TILT_GRID
    u, wu = np.polynomial.legendre.leggauss(32)
    x = ((np.arange(cells)[:, None] + 0.5 * (u + 1.0)) / cells).ravel()
    wx = np.tile(0.5 * wu / cells, cells)
    n = len(x)
    rows = _loops_at(x, c, beta)
    log_jac = ensemble_mod.StaticTilt(beta, static)(rows)
    lengths = np.diff(rows, axis=0, prepend=-0.5 * beta, append=0.5 * beta)
    y = lengths[0::2].sum(axis=0) / beta
    assert np.all(np.diff(y) > 0)
    assert np.allclose(lengths[0::2], y * beta / (k + 1), rtol=1e-12,
                       atol=1e-14 * beta)
    assert np.allclose(lengths[1::2], (1.0 - y) * beta / k, rtol=1e-12,
                       atol=1e-14 * beta)

    def b(u):
        return u ** k * (1.0 - u) ** (k - 1)

    for h in (lambda u: 1.0 + 0.0 * u, lambda u: u,
              lambda u: np.exp(static * ((2.0 * u - 1.0) ** 2 - 1.0))):
        got = np.dot(wx, b(x) * h(y) * np.exp(log_jac))
        want, _ = quad(lambda v: b(v) * h(v), 0.0, 1.0, epsabs=0.0,
                       epsrel=1e-13, limit=200)
        assert got == pytest.approx(want, rel=1e-12)


def test_static_tilt_flattens_the_static_weight():
    # W = e^{static (2y - 1)^2} on a constant kernel: times the Jacobian,
    # it is nearly flat over the free law of x, where the free weights
    # span many orders of magnitude
    beta, c, static = 8.0, 6, 44.5
    n = 100000
    x = np.random.default_rng(1).beta(c // 2 + 1, c // 2, n)
    rows = _loops_at(x, c, beta)
    log_jac = ensemble_mod.StaticTilt(beta, static)(rows)
    y = (np.diff(rows, axis=0, prepend=-0.5 * beta,
                 append=0.5 * beta)[0::2].sum(axis=0) / beta)

    def kish(logw):
        w = np.exp(logw - logw.max())
        return w.sum() ** 2 / np.sum(w * w) / len(w)

    assert kish(static * (2.0 * x - 1.0) ** 2) < 0.01
    assert kish(static * (2.0 * y - 1.0) ** 2 + log_jac) > 0.99


@pytest.mark.filterwarnings("ignore:weight degeneracy")
def test_no_static_tilt_moves_nothing(gauss_src):
    # with kappa_mean = 0 the free law is its own tilt: the moved loops are
    # the drawn ones, with log Jacobians 0; otherwise every loop with
    # c >= 4 jumps moves.  Either way the ensemble keeps the free sample as
    # given, and the caller's array is not written
    params = SpinMeasureParams(4.0, 1.0)
    signs, counts, flat = sample_loop_arrays(params, substream(3, 0), 2000)
    drawn = flat.copy()
    big = np.repeat(counts >= 4, counts)
    free = TiltedEnsemble(params, ThermalKernelTable.constant(4.0, 0.0),
                          signs, counts, flat, 3, DEFAULT_CHUNK)
    assert np.array_equal(free.moved_flat, flat[big])
    assert np.all(free.log_jac == 0.0)
    tilted = TiltedEnsemble(params, ThermalKernelTable(gauss_src, 4.0),
                            signs, counts, flat, 3, DEFAULT_CHUNK)
    assert np.all(tilted.moved_flat != flat[big])
    assert len(tilted.log_jac) == np.sum(counts >= 4)
    for ens in (free, tilted):
        assert ens.jumps_flat is flat
    assert np.array_equal(flat, drawn)


@pytest.mark.filterwarnings("ignore:weight degeneracy")
def test_an_ensemble_rebuilt_from_its_own_arrays_is_the_same(gauss_src,
                                                             f_gauss):
    # the moved loops are held apart from the free sample, so building a
    # second ensemble from the first one's signs, counts and jumps_flat
    # moves the drawn loops once again, to the same place: every array and
    # estimate agrees bit for bit
    params = SpinMeasureParams(8.0, 1.0)
    table = ThermalKernelTable(gauss_src, 8.0)
    ens = build_ensemble(params, table, 3000, seed=5)
    again = TiltedEnsemble(params, table, ens.signs, ens.counts,
                           ens.jumps_flat, 5, DEFAULT_CHUNK)
    for name in ("moved_flat", "moved_offsets", "log_jac", "logw",
                 "weights"):
        assert np.array_equal(getattr(again, name), getattr(ens, name)), name
    assert again.spin_factor(f_gauss) == ens.spin_factor(f_gauss)


# ---------------------------------------------------------------------------
# the static-mode control
# ---------------------------------------------------------------------------

def _static_oracle(mp, static, c, g):
    """E_free[e^{static y^2} g(y) | c], y = 2x - 1 with x ~ Beta(c/2 + 1,
    c/2), by mpmath's quad, split where e^{static y^2} peaks near the
    ends."""
    with mp.workdps(30):
        k = c // 2
        log_b = mp.log(mp.beta(k + 1, k))

        def f(x):
            return mp.exp(k * mp.log(x) + (k - 1) * mp.log(1 - x) - log_b
                          + static * (2 * x - 1) ** 2) * g(2 * x - 1, mp)

        w = min(mp.mpf(1) / 8, 1 / (1 + 4 * mp.mpf(abs(static))))
        return float(mp.quad(f, [0, w / 8, w, mp.mpf(1) / 2, 1 - w,
                                 1 - w / 8, 1]))


# functions of y and of the module (numpy or mpmath) that evaluates them
_STATIC_G = {"one": lambda y, m: 1.0 + 0.0 * y,
             "cos": lambda y, m: m.cos(1.7 * y),
             "square": lambda y, m: (0.8 * y) ** 2}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("g", sorted(_STATIC_G))
@pytest.mark.parametrize("static", [0.0, 5.6, 45.0, 400.0])
@pytest.mark.parametrize("c", [4, 8, 20, 60, 120])
def test_static_means_meet_the_quad_oracle(c, static, g):
    # the exact per-count mean of the static control on the fine level of
    # its nested rule lies within the error it states, the level gap plus
    # its rounding bound, of mpmath's quad at 30 digits, and that error is
    # small; a beta^2 = 5.6 and 45 are the benchmark's at beta = 1 and 8,
    # and 400 that of beta = 24 on a constant kernel
    # (test_static_control_at_beta_24_raises_no_warning)
    mp = pytest.importorskip("mpmath")
    fn = _STATIC_G[g]
    shift, levels, rounding = ensemble_mod.static_levels(static, [c])
    fine, coarse = ((d * fn(y, np)).sum(axis=1) for y, d in levels)
    got = math.exp(shift[0]) * fine[0]
    gap = math.exp(shift[0]) * (abs(fine[0] - coarse[0]) + (
        rounding * np.abs(fn(levels[0][0], np))).sum())
    want = _static_oracle(mp, static, c, fn)
    assert abs(got - want) <= gap
    assert gap <= 1e-9 * abs(want)


@pytest.mark.filterwarnings("ignore:weight degeneracy")
def test_static_control_at_beta_24_raises_no_warning():
    # a beta^2 = 400 (beta = 24 on a constant kernel), where e^{a M^2}
    # spans e^400: the loop rows' static weights and the means of every
    # count present come out finite, with no overflow or underflow warning
    beta = 24.0
    table = ThermalKernelTable.constant(beta, 25.0 / 9.0)
    static = 0.25 * table.kappa_mean * beta ** 2
    assert static == pytest.approx(400.0, rel=1e-14)
    ens = build_ensemble(SpinMeasureParams(beta, 1.0), table, 2000, seed=1)
    counts = np.flatnonzero(ens.hist[4:]) + 4
    assert len(counts) > 5
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        u = ens._static_weights
        shift, levels, _ = ensemble_mod.static_levels(static, counts)
        means = [(d * np.cos(s * y)).sum(axis=1) for y, d in levels
                 for s in (0.0, 1.0, 4.0)]
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(shift))
    assert all(np.all(np.isfinite(m)) for m in means)


def test_static_control_is_exact_at_s_0(ensemble, f_gauss):
    # cos(0 Z) = 1 on every row: theta = 0, and the control leaves the mean
    # exactly 1, with SE and gap exactly 0
    ones = np.ones(len(ensemble.weights))
    ctl = ensemble.static_control(f_gauss, lambda x: np.cos(0.0 * x))
    assert ensemble.estimate(ones, ctl) == (1.0, 0.0, 0.0)
    assert ensemble.estimate(ones.astype(complex), ctl) == (1.0 + 0.0j,
                                                            0.0, 0.0)
    assert ensemble.char_function(f_gauss, 0.0) == (1.0 + 0.0j, 0.0)


def test_a_zero_control_leaves_the_estimate_as_it_was(ensemble, f_gauss):
    # psi = 0 on every loop row: theta = 0 with no division by zero, and
    # the estimate is the one without control, bit for bit
    z = ensemble.z_values(f_gauss).real
    n_loops = int(np.sum(ensemble.counts >= 4))
    means = np.zeros(len(ensemble.hist))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for v in (np.cos(0.7 * z), np.exp(-0.7j * z)):
            got = ensemble.estimate(v, (np.zeros(n_loops), means, means,
                                        means))
            assert not np.isnan(got[0]) and got == ensemble.estimate(v)


@pytest.mark.filterwarnings("ignore:weight degeneracy")
@pytest.mark.parametrize("beta", [1.0, 2.0, 4.0, 8.0])
def test_static_control_agrees_with_the_plain_estimate(gauss_src, f_gauss,
                                                       beta):
    # on the same rows, S read against the static control lies within 3
    # plain SE of S without it, for a real Z and for the complex Z of a
    # time-evolved direction, and its SE is no larger: theta minimizes the
    # stratum-centred sum of squares the SE is read from
    table = ThermalKernelTable(gauss_src, beta, tol=1e-9)
    ens = build_ensemble(SpinMeasureParams(beta, 1.0), table, 20000, seed=9)
    for f in (f_gauss, f_gauss.scaled(0.2).time_evolved(0.7)):
        z = ens.z_values(f)
        v = np.cos(z if z.imag.any() else z.real)
        plain, plain_se, _ = ens.estimate(v)
        val, se, gap = ens.estimate(v, ens.static_control(f, np.cos))
        assert abs(val - plain) <= 3.0 * plain_se
        assert se <= plain_se * (1.0 + 1e-12)
        assert gap <= 1e-3 * se


@pytest.mark.filterwarnings("ignore:weight degeneracy")
@pytest.mark.parametrize("beta", [1.0, 8.0])
def test_static_control_mean_agrees_with_the_pooled_plain_one(gauss_src,
                                                              f_gauss, beta):
    # theta is fitted on the rows it corrects, an O(1/n) bias: over 40
    # seeds, the average S with the control agrees with the average S
    # without it within 3 SE of the latter, pooled over the seeds
    table = ThermalKernelTable(gauss_src, beta, tol=1e-9)
    plain, plain_se, ctl = [], [], []
    for seed in range(200, 240):
        ens = build_ensemble(SpinMeasureParams(beta, 1.0), table, 5000,
                             seed=seed)
        val, se, _ = ens.estimate(np.cos(ens.z_values(f_gauss).real))
        plain.append(val)
        plain_se.append(se)
        ctl.append(ens.spin_factor(f_gauss)[0].real)
    pooled_se = math.sqrt(np.sum(np.square(plain_se))) / len(plain)
    assert abs(np.mean(ctl) - np.mean(plain)) <= 3.0 * pooled_se


def test_offsets_are_built_when_read(ensemble):
    # no n + 1 positions are held: offsets is built when read, in intp
    assert "offsets" not in vars(ensemble)
    offsets = ensemble.offsets
    assert offsets.dtype == np.intp and offsets[0] == 0
    assert np.array_equal(np.diff(offsets), ensemble.counts)
