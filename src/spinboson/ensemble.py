"""The tilted (interacting) loop ensemble.

Loops are drawn from the free spin measure and carry the FKN log-weight

    log W = 1/4 * int int X_t X_s kappa(|t-s|) dt ds,

so every interacting expectation is a self-normalized importance-sampling
average.  With interval boundaries e_0 < ... < e_{m+1} of a loop and the
jump coefficients d_p (the discrete derivative of the interval signs,
including the two circle endpoints), both the quadratic weight and the
spin random variable Z reduce to small boundary sums:

    int int X_t X_s kappa = - 2 sum_{p<q} d_p d_q Psi(e_q - e_p),
    Z = 1/2 int X_u K_f(|t-u|) du = -1/2 sum_p d_p G(e_p),

with G(u) = sign(u-t) A_f(|u-t|).  These follow from summation by parts
(the d_p sum telescopes to zero; the boundaries are sorted and Psi(0) = 0)
and make million-loop ensembles cheap.  Z is then two circle-end constants
G(+-beta/2) plus an alternating sum of G over the jump times.

The two constant paths are atoms of the free measure, of total mass
1/cosh(beta eps): every constant loop of one sign has the same Z and the
same log-weight, so per-loop functions run once per distinct loop
(TiltedEnsemble.map_distinct).

All weights live in log space with log-sum-exp reductions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from spinboson.loops import (
    SpinLoop,
    SpinMeasureParams,
    jump_count_groups,
    sample_loop_arrays,
)
from spinboson.seeds import substream

DEFAULT_CHUNK = 4096
JUMP_SLAB = 1 << 16


def loop_log_weight(loop, kernels):
    """log W of a single loop by explicit interval-pair double blocks.

    Reference path (O(m^2) double_block calls); the ensemble uses the
    boundary-sum identity instead.
    """
    e = loop.boundaries(kernels.beta)
    x = loop.interval_signs()
    total = 0.0
    for i in range(len(x)):
        for j in range(len(x)):
            total += x[i] * x[j] * kernels.double_block(
                e[i], e[i + 1], e[j], e[j + 1])
    return 0.25 * total


def loop_z_value(loop, kernels, f, t_offset=0.0):
    """Z for a single loop: 1/2 sum_i X_i int_{I_i} K_{f,t}(u) du."""
    e = loop.boundaries(kernels.beta)
    x = loop.interval_signs()
    total = 0.0 + 0.0j
    for i in range(len(x)):
        total += x[i] * kernels.interval_K_integral(
            f, t_offset, e[i], e[i + 1])
    return 0.5 * total


def _jump_pattern(n_bounds):
    """The d_p coefficients for initial sign +1: alternating, with the two
    endpoint entries halved."""
    pat = np.ones(n_bounds)
    pat[1:-1] = 2.0
    pat *= (-1.0) ** np.arange(n_bounds)
    return pat


@dataclass
class VarianceReport:
    """Var~(Z) by the direct and the kernel route.

    routes_agree: within 5% relative, or else within 3 SE of the direct
    route, compared against the coarse kernel route."""

    var_direct: float
    var_direct_se: float
    var_kernel: float
    var_kernel_fine: float
    routes_agree: bool
    grid_flagged: bool
    n_cells: int


class TiltedEnsemble:
    """Weighted sample of spin loops with cached Z-values.

    Built by build_ensemble; estimates are pure folds over the immutable
    arrays (signs, jump counts, flat jump times, log-weights).
    """

    def __init__(self, params, kernels, signs, counts, jumps_flat,
                 master_seed, chunk_size):
        self.params = params
        self.kernels = kernels
        self.signs = signs
        self.counts = counts
        self.jumps_flat = jumps_flat
        self.offsets = np.concatenate(([0], np.cumsum(counts)))
        self.master_seed = master_seed
        self.chunk_size = chunk_size
        self.n = len(signs)
        self._z_cache = {}
        self.logw = self._log_weights()
        # unnormalized weights, shifted so the largest is 1
        self.weights = np.exp(self.logw - self.logw.max())
        self.sum_w = float(self.weights.sum())
        self.ess = float(self.sum_w ** 2 / np.sum(self.weights ** 2))
        if self.ess < 0.01 * self.n:
            warnings.warn(
                f"weight degeneracy: ESS = {self.ess:.1f} of {self.n}",
                RuntimeWarning)

    @property
    def norm_weights(self):
        """The weights normalized to sum to 1."""
        return self.weights / self.sum_w

    # -- grouped geometry ----------------------------------------------------

    def _groups(self):
        """Yield (indices, boundary matrix) per distinct jump count."""
        beta = self.params.beta
        for c, idx, cols in jump_count_groups(self.counts, self.offsets):
            bounds = np.empty((len(idx), c + 2))
            bounds[:, 0] = -0.5 * beta
            bounds[:, -1] = 0.5 * beta
            bounds[:, 1:-1] = self.jumps_flat[cols]
            yield idx, bounds

    def _log_weights(self):
        psi = self.kernels.Psi
        out = np.empty(self.n)
        for idx, bounds in self._groups():
            p, q = np.triu_indices(bounds.shape[1], 1)
            pat = _jump_pattern(bounds.shape[1])
            # d_p d_q drops the loop's sign; row gathers copy whole rows
            rows = np.ascontiguousarray(bounds.T)
            out[idx] = -0.5 * ((pat[p] * pat[q]) @ psi(rows[q] - rows[p]))
        return out

    # -- distinct loops ------------------------------------------------------

    @cached_property
    def _distinct(self):
        """(pick, inverse): the distinct loops, ascending, and each loop's
        position among them.  The distinct loops are every loop with jumps
        and the first constant loop of each sign."""
        const = self.counts == 0
        keep = ~const
        atoms = [np.flatnonzero(const & (self.signs == s)) for s in (1, -1)]
        for atom in atoms:
            keep[atom[:1]] = True
        inverse = np.cumsum(keep) - 1
        for atom in atoms:
            inverse[atom] = inverse[atom[:1]]
        return np.flatnonzero(keep), inverse

    def map_distinct(self, fn, *per_loop):
        """fn(*per_loop), evaluated once per distinct loop.

        fn must act loop by loop, and the per-loop arrays (loops along the
        first axis) must be functions of the loop, as z_values is: every
        constant loop of one sign then gives the same result.  So fn runs
        on the loops with jumps and one constant loop per sign, and its
        output (an array or a tuple of arrays, loops along the first axis)
        is gathered back to all n loops.
        """
        pick, inverse = self._distinct
        out = fn(*(np.asarray(a)[pick] for a in per_loop))
        if isinstance(out, tuple):
            return tuple(r[inverse] for r in out)
        return out[inverse]

    # -- estimators ----------------------------------------------------------

    def expectation(self, values):
        """Self-normalized IS mean and standard error of a per-loop array.

        Quotient form over the unnormalized weights w:

            mean = sum_i w_i v_i / sum_i w_i,
            SE   = sqrt(sum_i w_i^2 |v_i - mean|^2) / sum_i w_i,

        with the real and imaginary parts of v summed as separate float
        arrays.  Since w_i * 1.0 == w_i, a per-loop array of ones gives
        exactly 1 (1+0j for complex input) with SE exactly 0.0, so every
        characteristic functional is exactly normalized at s = 0.
        """
        values = np.asarray(values)
        w = self.weights
        if np.iscomplexobj(values):
            mean = np.complex128(np.sum(w * values.real) / self.sum_w,
                                 np.sum(w * values.imag) / self.sum_w)
        else:
            mean = np.sum(w * values) / self.sum_w
        dev = values - mean
        var = np.sum(w ** 2 * dev.real ** 2)
        if np.iscomplexobj(values):
            var = var + np.sum(w ** 2 * dev.imag ** 2)
        return mean, float(np.sqrt(var)) / self.sum_w

    def log_partition(self):
        """log Z_beta = log(2 cosh(eps beta)) + log E_free[W]."""
        x = self.params.eps * self.params.beta
        # log sum W = max log W + log sum_w, the weights being shifted by
        # their largest log
        return (math.log(2.0 * math.cosh(x)) + float(self.logw.max())
                + math.log(self.sum_w) - math.log(self.n))

    def _boundary_sum(self, g, t=0.0):
        """-1/2 sum_p d_p g(e_p - t) per loop (Z for g = G): the circle ends
        have d_0 = X_0, d_{c+1} = (-1)^(c+1) X_0, and jump j at flat index
        k = offset + j - 1 has d = 2 (-1)^j X_0 = -2 X_0 (-1)^(offset + k)."""
        lo, hi = g(0.5 * self.params.beta * np.array([-1.0, 1.0]) - t)
        out = -0.5 * np.array([lo - hi, lo + hi])[self.counts & 1]
        # g runs on slabs of jump times, so its temporaries stay small
        gj = np.empty(len(self.jumps_flat), out.dtype)
        for a in range(0, len(gj), JUMP_SLAB):
            gj[a:a + JUMP_SLAB] = g(self.jumps_flat[a:a + JUMP_SLAB] - t)
        gj[1::2] *= -1.0
        has = np.flatnonzero(self.counts > 0)
        starts = self.offsets[has]
        sums = np.add.reduceat(gj, starts)
        out[has] += np.where(starts & 1, -sums, sums)
        out *= self.signs
        return out

    def z_values(self, f, t_offset=0.0):
        """Z_{beta,t,f} for every loop (cached per (f, t_offset))."""
        key = (f, float(t_offset))
        if key not in self._z_cache:
            a_f = self.kernels.register(f).A
            self._z_cache[key] = self._boundary_sum(
                lambda x: np.sign(x) * a_f(np.abs(x)), float(t_offset))
        return self._z_cache[key]

    def spin_factor(self, f, t_offset=0.0):
        """S = E~[exp(-i Z)] with standard error: char_function at s = 1."""
        self.char_function(f, 1.0, t_offset)
        return self._z_cache[("S", f, float(t_offset), 1.0)]

    def ell_shift(self, f):
        """The physical-field shift ell = -E~[Z] (real test functions)."""
        z = self.z_values(f).real
        mean, _ = self.expectation(z)
        return -float(mean.real)

    def char_function(self, f, s, t_offset=0.0):
        """E~[exp(-i s Z_{f,t})] with SE, vectorized over real s; each
        (f, t, s) is estimated once and cached beside Z."""
        t = float(t_offset)
        s = np.asarray(s, dtype=float)
        vals = np.empty(s.size, dtype=complex)
        ses = np.empty(s.size)
        for j, sj in enumerate(s.ravel()):
            key = ("S", f, t, float(sj))
            if key not in self._z_cache:
                z = self.z_values(f, t)
                self._z_cache[key] = self.expectation(np.exp(-1j * sj * z))
            vals[j], ses[j] = self._z_cache[key]
        if s.ndim == 0:
            return vals[0], ses[0]
        return vals, ses

    # -- variance diagnostics ------------------------------------------------

    def cell_integrals(self, edges, slab=20000):
        """Per-loop integrals of the path over each grid cell (exact for
        piecewise-constant paths).

        Reference path: an (n, n_cells) matrix, kept as the oracle for the
        projected kernel route of variance_two_routes.
        """
        n_cells = len(edges) - 1
        out = np.empty((self.n, n_cells))
        for idx, bounds in self._groups():
            starts = bounds[:, :-1]
            lens = np.diff(bounds, axis=1)
            c = bounds.shape[1] - 2
            xs = self.signs[idx, None] * (-1.0) ** np.arange(c + 1)[None, :]
            for lo in range(0, len(idx), slab):
                hi = min(lo + slab, len(idx))
                clipped = np.clip(
                    edges[None, None, :] - starts[lo:hi, :, None],
                    0.0, lens[lo:hi, :, None])
                cum = np.einsum("ni,nie->ne", xs[lo:hi], clipped)
                out[idx[lo:hi]] = np.diff(cum, axis=1)
        return out

    def _z_moments(self, f):
        """Tilted mean of the real Z of f and its variance, each with SE."""
        z = self.z_values(f).real
        mean, mean_se = self.expectation(z)
        var, var_se = self.expectation((z - mean) ** 2)
        return mean, mean_se, float(var), var_se

    def variance_two_routes(self, f, n_cells=64):
        """Var~(Z) directly and through the cell-averaged covariance kernel.

        The kernel route projects every loop onto the cell-constant kernel
        (see _kernel_variance), so both routes take O(N) memory.

        At beta ~ 1 nearly all of Var~(Z) is the static mode, so the kernel
        route agrees with the direct one even with a single cell (a flat
        kernel): there routes_agree and grid_flagged (the CLI's
        variance_grid_converged) do not test the kernel's shape.
        """
        _, _, var, var_se = self._z_moments(f)
        coarse = self._kernel_variance(f, n_cells)
        fine = self._kernel_variance(f, 2 * n_cells)
        gap = abs(var - coarse)
        agree = gap <= 0.05 * max(var, coarse, 1e-300) or gap <= 3.0 * var_se
        scale = max(abs(fine), abs(coarse), 1e-300)
        flagged = abs(fine - coarse) > 0.02 * scale
        return VarianceReport(var, var_se, coarse, fine, agree, flagged,
                              n_cells)

    def _kernel_variance(self, f, n_cells):
        """1/4 kcell^T Cov~ kcell, with kcell the cell average of K_f on a
        uniform grid of n_cells cells and Cov~ the tilted covariance of the
        per-loop cell integrals.

        That quadratic form is the tilted variance of the projection
        y_i = int X_i kbar dt, kbar the cell-constant kernel.  Since
        kcell_c h = g[c+1] - g[c], the antiderivative of kbar is the linear
        interpolant of g on the edges, and y is a boundary sum like Z:
        O(total boundaries) work and O(N) memory, no N x n_cells matrix.
        """
        beta = self.params.beta
        edges = np.linspace(-0.5 * beta, 0.5 * beta, n_cells + 1)
        # antiderivative of K(|u|) at the edges; its cell differences are
        # h times the cell averages of K
        g = np.sign(edges) * self.kernels.register(f).A(np.abs(edges)).real
        y = 2.0 * self._boundary_sum(lambda u: np.interp(u, edges, g))
        mean, _ = self.expectation(y)
        var, _ = self.expectation((y - mean) ** 2)
        return 0.25 * float(var)

    def deviation_bound_check(self, f, s_grid):
        """|S(sf) - exp(-i s E~[Z])| <= s^2/2 Var~(Z) + 5 SE, per s."""
        mean, _, var, _ = self._z_moments(f)
        vals, ses = self.char_function(f, s_grid)
        rows = []
        ok = True
        for s, val, se in zip(s_grid, vals, ses):
            lhs = abs(val - np.exp(-1j * s * mean))
            bound = 0.5 * s * s * var + 5.0 * se + 1e-12
            rows.append((float(s), float(lhs), float(bound),
                         float(bound - lhs)))
            ok = ok and lhs <= bound
        return ok, rows

    def cnumber_criterion(self, f, tol=1e-6):
        """Z almost-surely constant (c-number substitution) iff the tilted
        variance vanishes at tolerance."""
        mean, se, var, _ = self._z_moments(f)
        verdict = var <= tol * (mean ** 2 + 1.0)
        evidence = {
            "var_direct": var,
            "mean_z": float(mean),
            "se": se,
            "ess": self.ess,
        }
        return verdict, evidence

    def path_values(self, times):
        """Matrix of path values X_i(t_j) over all loops (n, len(times))."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        out = np.empty((self.n, len(times)), dtype=np.int64)
        for idx, bounds in self._groups():
            jumps = bounds[:, 1:-1]
            crossings = np.sum(jumps[:, :, None] <= times[None, None, :],
                               axis=1)
            out[idx] = (self.signs[idx, None].astype(np.int64)
                        * np.where(crossings % 2, -1, 1))
        return out

    # -- inspection ----------------------------------------------------------

    def loop(self, i):
        """Materialize loop i as a SpinLoop."""
        a, b = self.offsets[i], self.offsets[i + 1]
        return SpinLoop(int(self.signs[i]), tuple(self.jumps_flat[a:b]))


def build_ensemble(params, kernels, n, seed, chunk_size=DEFAULT_CHUNK,
                   workers=1, frozen_spin=False):
    """Sample n loops in deterministic chunks and attach FKN weights.

    Substreams are derived per chunk index, so the result depends only on
    (seed, n, chunk_size).  frozen_spin replaces every path by the constant
    +1 loop (diagnostic mode).  workers is accepted and ignored: the chunks
    are sampled in order in this thread, since a thread pool gave no
    speed-up; the perfbench scripts still pass it.
    """
    if n < 1:
        raise ValueError("need at least one loop")
    if frozen_spin:
        signs = np.ones(n, dtype=np.int8)
        counts = np.zeros(n, dtype=np.int64)
        flat = np.empty(0)
        return TiltedEnsemble(params, kernels, signs, counts, flat,
                              seed, chunk_size)

    parts = [sample_loop_arrays(params, substream(seed, i),
                                min(chunk_size, n - lo))
             for i, lo in enumerate(range(0, n, chunk_size))]
    signs, counts, flat = (np.concatenate(a) for a in zip(*parts))
    return TiltedEnsemble(params, kernels, signs, counts, flat,
                          seed, chunk_size)
