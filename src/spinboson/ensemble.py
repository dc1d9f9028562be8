"""The tilted (interacting) loop ensemble.

Loops are drawn from the free spin measure and carry the FKN log-weight
log W = 1/4 int int X_t X_s kappa(|t-s|) dt ds, so every interacting
expectation is a self-normalized importance-sampling average.  With a
loop's interval boundaries e_0 < ... < e_{m+1} and jump coefficients d_p
(the discrete derivative of the interval signs, circle ends included),
summation by parts turns the weight and the spin variable Z into boundary
sums:

    int int X_t X_s kappa = - 2 sum_{p<q} d_p d_q Psi(e_q - e_p),
    Z = 1/2 int X_u K_f(|t-u|) du = -1/2 sum_p d_p G(e_p),

with G(u) = sign(u-t) A_f(|u-t|): two circle-end constants G(+-beta/2)
plus an alternating sum of G over the jump times.  The log-weight takes
the periodic form of the pair sum: with Psi(u) = kappa_mean u^2 / 2 +
Phi(u), kappa_mean = Psi'(beta) / beta the circle mean of kappa and Phi
beta-periodic and even, the pairs with a circle end cancel and

    log W = kappa_mean M^2 / 4 - 2 sum_{j<l} (-1)^(l-j) Phi(t_l - t_j)

for the c jumps t_1 < ... < t_c of a loop, M = int X dt its static moment.

The two constant paths are atoms of the free measure, of total mass
1/cosh(beta eps): every constant loop of one sign has the same Z and
log-weight.  The sample arrays (signs, counts, jump times, log-weights)
hold one value per loop, every estimator array (Z, M, the estimator
weights and whatever expectation is given) one value per distinct loop,
in the order of TiltedEnsemble.distinct: the loops with jumps and the
first loop of each atom, ascending.

The estimators are post-stratified by jump count, whose law is exact
(loops.jump_count_pmf): E_free[W v] = sum_s p_s E_free[W v | stratum s].
The strata are the two atoms (mass P(0)/2 each, read once at their first
loop and adding no variance) and runs of adjacent counts c >= 1, merged
upwards until each holds MIN_STRATUM loops (the leftover at the top joins
the last run, which takes the mass of every count above it).  Empty
strata drop out and the other masses are renormalized.  A loop with jumps
weighs w_i = W_i p_s / n_s, and with d = v - mean

    SE^2 = sum_s [sum_{i in s} (w_i d_i)^2
                  - (sum_{i in s} w_i d_i)^2 / n_s] / (sum w)^2.

`ess` stays Kish's ESS of the FKN weights, (sum W)^2 / sum W^2.

The free measure is invariant under the global spin flip X -> -X: the
initial sign is a fair coin, independent of the jumps.  The flip keeps a
loop's jump times, its stratum and its log-weight (quadratic in X) and
negates Z (linear in X).  So every estimator of a loop function v(Z)
reads, on a loop with jumps, its flip-even part (v(Z) + v(-Z)) / 2, the
odd part having mean zero; an atom's row keeps v(Z), since each atom is
a stratum read exactly and the two atoms already form a flip pair
(TiltedEnsemble.flip_even).  The characteristic function thus reads
cos(s Z) on the loops with jumps; its imaginary part comes from the atoms
alone and vanishes when both are present.
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
    jump_count_pmf,
    sample_loop_arrays,
)
from spinboson.seeds import substream

DEFAULT_CHUNK = 4096
JUMP_SLAB = 1 << 16
MIN_STRATUM = 20          # loops per jump-count stratum, at least
CNUMBER_TOL = 1e-6        # relative variance bound of cnumber_criterion


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


def row_sum(a):
    """Sum over the rows of a 2-D array, added in order for every column.

    numpy's sum over axis 0 of a C-ordered array does that when there are
    two or more columns but goes pairwise on a single column, which would
    make a loop's sum depend on how many other loops share its slab."""
    return a.sum(axis=0) if a.shape[1] > 1 else np.cumsum(a, axis=0)[-1]


def uniform_interp(x, edges, fp):
    """np.interp(x, edges, fp) on uniform edges, x in [edges[0], edges[-1]]:
    each cell comes from the spacing, not from a binary search."""
    n = len(edges) - 1
    j = ((x - edges[0]) * (n / (edges[-1] - edges[0]))).astype(np.intp)
    np.minimum(j, n - 1, out=j)
    return (np.diff(fp) / np.diff(edges))[j] * (x - edges[j]) + fp[j]


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
    arrays (signs, jump counts, flat jump times, log-weights) and the
    jump-count strata derived from them (module docstring).
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
        self.hist = np.bincount(counts)      # loops per jump count
        self._z_cache = {}
        # the loops with jumps and the atoms' loops, ascending
        reps = [i for i, _ in self._constant_paths()]
        keep = counts > 0
        keep[reps] = True
        self.distinct = np.flatnonzero(keep)
        self.logw = self._log_weights()
        # FKN weights, shifted so the largest is 1
        fkn = np.exp(self.logw - self.logw.max())
        sum_fkn = float(fkn.sum())
        self.ess = float(sum_fkn ** 2 / np.sum(fkn ** 2))
        if self.ess < 0.01 * self.n:
            warnings.warn(
                f"weight degeneracy: ESS = {self.ess:.1f} of {self.n}",
                RuntimeWarning)
        self._stratify(fkn, reps)

    def _stratify(self, fkn, reps):
        """Derive the jump-count strata from counts and signs, and the
        estimator's weights from the FKN weights fkn (module docstring).

        Sets weights (W_i p_s / n_s per distinct loop, 0 on the atoms'
        loops reps), atom_rows and _atom_w (each atom's position in
        distinct and its weight p_a W), _starts and _sizes (each stratum's
        first count and its number of loops) and sum_w, the total weight."""
        pmf = jump_count_pmf(self.params)
        pmf = pmf / pmf.sum()
        starts, sizes = [], []
        for c in np.flatnonzero(self.hist[1:]) + 1:
            if not sizes or sizes[-1] >= MIN_STRATUM:
                starts.append(int(c))
                sizes.append(0)
            sizes[-1] += int(self.hist[c])
        if len(sizes) > 1 and sizes[-1] < MIN_STRATUM:
            starts.pop()
            leftover = sizes.pop()
            sizes[-1] += leftover
        # the runs tile the counts 1, 2, ...: the first takes the counts
        # below it, the last every count above it
        top = max(len(self.hist), 2 * len(pmf))
        bounds = [1] + starts[1:] + [top] if starts else []
        masses = [float(pmf[(a + 1) // 2:(b + 1) // 2].sum())
                  for a, b in zip(bounds, bounds[1:])]
        total = 0.5 * pmf[0] * len(reps) + sum(masses)
        scale = np.zeros(len(self.hist))
        for a, b, p, size in zip(bounds, bounds[1:], masses, sizes):
            scale[a:b] = p / (total * size)
        self.atom_rows = np.searchsorted(self.distinct, reps)
        self._atom_w = [float(fkn[i]) * 0.5 * pmf[0] / total for i in reps]
        self._starts = np.array(bounds[:-1], dtype=np.int64)
        self._sizes = np.array(sizes, dtype=float)
        self.weights = fkn[self.distinct] * scale[self.counts[self.distinct]]
        self.sum_w = self._weighted_sum(self.weights, np.ones(len(reps)))

    def _weighted_sum(self, wx, x_atoms):
        """sum_i wx_i plus each atom's weight times its value in x_atoms.

        sum_w is this sum for x = 1, and wx = weights * x equals weights
        bit for bit then, so x = 1 gives back exactly 1."""
        total = float(np.sum(wx))
        for mass, x in zip(self._atom_w, x_atoms):
            total += mass * x
        return total

    @property
    def atom_mass(self):
        """The tilted mass of the two constant paths."""
        return sum(self._atom_w) / self.sum_w

    @property
    def norm_weights(self):
        """Each loop's weight in the estimator, normalized to sum to 1: an
        atom's weight is shared by all of its constant loops."""
        w = self._spread(self.weights / self.sum_w)
        for (_, atom), mass in zip(self._constant_paths(), self._atom_w):
            w[atom] = mass / (self.sum_w * np.count_nonzero(atom))
        return w

    # -- grouped geometry ----------------------------------------------------

    def _groups(self):
        """Yield (indices, boundary matrix) per distinct jump count."""
        beta = self.params.beta
        for c, idx, cols in jump_count_groups(self.counts, self.offsets,
                                              self.hist):
            bounds = np.empty((len(idx), c + 2))
            bounds[:, 0] = -0.5 * beta
            bounds[:, -1] = 0.5 * beta
            bounds[:, 1:-1] = self.jumps_flat[cols]
            yield idx, bounds

    def _log_weights(self):
        """log W per loop (module docstring).  Per jump count c, a slab of
        loops fills a buffer of about JUMP_SLAB pair differences (c(c-1)/2
        rows, walked lag by lag, the odd lags first), which the Phi spline
        maps in place; each loop's values are added row by row in a fixed
        order, so a log-weight does not depend on the other loops."""
        m = 2.0 * self._boundary_sum(lambda u: u)    # M, left uncached
        out = self._spread(0.25 * self.kernels.kappa_mean * m ** 2)
        phi = self.kernels.phi
        if phi is None:
            return out
        for c, idx, cols in jump_count_groups(self.counts, self.offsets,
                                              self.hist):
            n_pairs = c * (c - 1) // 2
            if not n_pairs:
                continue
            # the odd lags k = 1, 3, ... fill the first n_odd rows
            lags = [*range(1, c, 2), *range(2, c, 2)]
            n_odd = (c // 2) * ((c + 1) // 2)
            step = max(1, JUMP_SLAB // n_pairs)
            buf = np.empty(n_pairs * min(step, len(idx)))
            for a in range(0, len(idx), step):
                # the (c, loops) jump rows, C-ordered (take, unlike an index
                # expression, does not follow the transposed index's order):
                # a lag's differences are the difference of two row blocks
                rows = self.jumps_flat.take(cols[a:a + step].T)
                diffs = buf[:n_pairs * rows.shape[1]].reshape(n_pairs, -1)
                r = 0
                for k in lags:
                    np.subtract(rows[k:], rows[:-k], out=diffs[r:r + c - k])
                    r += c - k
                phi(diffs, out=diffs)
                np.negative(diffs[:n_odd], out=diffs[:n_odd])
                out[idx[a:a + step]] -= 2.0 * row_sum(diffs)
        return out

    @cached_property
    def static_moment(self):
        """M = int X dt per distinct loop, the static-mode moment (twice the
        boundary sum of g(u) = u); log W carries kappa_mean M^2 / 4."""
        return 2.0 * self._boundary_sum(lambda u: u)

    # -- distinct loops ------------------------------------------------------

    def _constant_paths(self):
        """Yield (first loop, loop mask) per constant path, +1 first."""
        for sign in (1, -1):
            atom = (self.counts == 0) & (self.signs == sign)
            if atom.any():
                yield int(np.argmax(atom)), atom

    def _spread(self, v):
        """Spread rows per distinct loop to all loops, atoms to their loops."""
        out = np.empty((self.n,) + v.shape[1:], v.dtype)
        out[self.distinct] = v
        for i, atom in self._constant_paths():
            out[atom] = out[i]
        return out

    # -- estimators ----------------------------------------------------------

    def expectation(self, values):
        """Post-stratified IS mean and standard error of an array with one
        value per distinct loop (an atom's value at its first loop):
        mean = (sum_i w_i v_i + sum_a p_a W_a v_a) / sum w and the SE of
        the module docstring, the atoms adding no variance and the real
        and imaginary parts of v summed as separate float arrays.  Since
        w_i * 1.0 == w_i, an array of ones gives exactly 1 (1+0j for
        complex input) with SE exactly 0.0, so every characteristic
        functional is exactly normalized at s = 0."""
        values = np.asarray(values)
        if len(values) != len(self.distinct):
            raise ValueError("expectation takes one value per distinct loop")
        parts = ((values.real, values.imag) if np.iscomplexobj(values)
                 else (values,))
        counts = self.counts[self.distinct]
        means, var = [], 0.0
        for x in parts:
            mean = (self._weighted_sum(self.weights * x, x[self.atom_rows])
                    / self.sum_w)
            means.append(mean)
            # zero on the atoms' loops
            wd = x - mean
            wd *= self.weights
            # numpy's own loop: a BLAS dot rounds by its thread count
            var += float(np.einsum("i,i->", wd, wd))
            if len(self._sizes):
                per_stratum = np.add.reduceat(
                    np.bincount(counts, wd), self._starts)
                var -= float(np.sum(per_stratum ** 2 / self._sizes))
        se = math.sqrt(max(var, 0.0)) / self.sum_w
        if len(parts) == 2:
            return np.complex128(complex(*means)), se
        return np.float64(means[0]), se

    def flip_even(self, even, atoms):
        """The estimator array of a loop function v of Z (module
        docstring): even, a fresh array of the flip-even parts
        (v(Z) + v(-Z)) / 2 per distinct loop, with each atom's row set to
        v(Z) from atoms (one value per atom, in atom_rows order)."""
        out = even.astype(np.result_type(even, atoms), copy=False)
        out[self.atom_rows] = atoms
        return out

    def log_partition(self):
        """log Z_beta = log(2 cosh(eps beta)) + log sum_s p_s mean_s(W)."""
        x = self.params.eps * self.params.beta
        # the weights are shifted by the largest log W
        return (math.log(2.0 * math.cosh(x)) + float(self.logw.max())
                + math.log(self.sum_w))

    def _boundary_sum(self, g, t=0.0):
        """-1/2 sum_p d_p g(e_p - t) per distinct loop (Z for g = G): ends
        d_0 = X_0, d_{c+1} = (-1)^(c+1) X_0; jump j at flat index
        k = offset + j - 1 has d = 2 (-1)^j X_0 = -2 X_0 (-1)^(offset + k)."""
        counts = self.counts[self.distinct]
        lo, hi = g(0.5 * self.params.beta * np.array([-1.0, 1.0]) - t)
        out = -0.5 * np.array([lo - hi, lo + hi])[counts & 1]
        has = np.flatnonzero(counts)
        starts = self.offsets[self.distinct[has]]
        # g runs on slabs of whole loops' jumps; jump k has the sign (-1)^k
        sums = np.empty(len(has), out.dtype)
        cuts = np.append(np.searchsorted(starts, np.arange(
            0, len(self.jumps_flat), JUMP_SLAB), "right") - 1, len(has))
        for i, j in zip(cuts, cuts[1:]):
            a = starts[i]
            b = starts[j] if j < len(has) else len(self.jumps_flat)
            gj = g(self.jumps_flat[a:b] - t)
            gj[1 - a % 2::2] *= -1.0
            sums[i:j] = np.add.reduceat(gj, starts[i:j] - a)
        out[has] += np.where(starts & 1, -sums, sums)
        out *= self.signs[self.distinct]
        return out

    def z_values(self, f, t_offset=0.0):
        """Z_{beta,t,f} per distinct loop, cached per (f, t_offset) and
        shared read-only."""
        key = (f, float(t_offset))
        if key not in self._z_cache:
            a_f = self.kernels.register(f).A
            z = self._boundary_sum(lambda x: np.sign(x) * a_f(np.abs(x)),
                                   float(t_offset))
            z.flags.writeable = False
            self._z_cache[key] = z
        return self._z_cache[key]

    def spin_factor(self, f, t_offset=0.0):
        """S = E~[exp(-i Z)] with standard error: char_function at s = 1."""
        self.char_function(f, 1.0, t_offset)
        return self._z_cache[("S", f, float(t_offset), 1.0)]

    def ell_shift(self, f):
        """The physical-field shift ell = -E~[Z] (real test functions);
        0.0, not -0.0, when the atoms cancel."""
        return 0.0 - float(self._z_moments(f)[0])

    def char_function(self, f, s, t_offset=0.0):
        """E~[exp(-i s Z_{f,t})] with SE, shaped like the real s; each
        (f, t, s) is estimated once and cached beside Z.

        The loops with jumps read cos(s Z), a real array when Z is real,
        and the atoms exp(-i s Z) = cos(s Z) - i sin(s Z)."""
        t = float(t_offset)
        s = np.asarray(s, dtype=float)
        vals = np.empty(s.shape, dtype=complex)
        ses = np.empty(s.shape)
        z = None
        for j, sj in np.ndenumerate(s):
            key = ("S", f, t, float(sj))
            if key not in self._z_cache:
                if z is None:
                    z = self.z_values(f, t)
                    z = z if z.imag.any() else z.real
                x = sj * z
                c = np.cos(x)
                rows = self.atom_rows
                self._z_cache[key] = self.expectation(self.flip_even(
                    c, c[rows] - 1j * np.sin(x[rows])))
            vals[j], ses[j] = self._z_cache[key]
        if s.ndim == 0:
            return vals[()], ses[()]
        return vals, ses

    # -- variance diagnostics ------------------------------------------------

    def cell_integrals(self, edges, slab=20000):
        """Per-loop integrals of the path over each grid cell: the (n,
        n_cells) reference matrix behind the kernel route's oracle."""
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
        """Tilted mean and variance of the real Z of f, with SEs (cached):
        the flip-even parts of Z and (Z - mean)^2 on the loops with jumps
        are 0 and Z^2 + mean^2."""
        key = ("moments", f)
        if key not in self._z_cache:
            z = self.z_values(f).real
            za = z[self.atom_rows]
            mean, mean_se = self.expectation(
                self.flip_even(np.zeros(len(z)), za))
            var, var_se = self.expectation(
                self.flip_even(z * z + mean * mean, (za - mean) ** 2))
            self._z_cache[key] = (mean, mean_se, float(var), var_se)
        return self._z_cache[key]

    def variance_two_routes(self, f, n_cells=64):
        """Var~(Z) directly and through the cell-averaged covariance kernel
        (_kernel_variance), both in O(N) memory.  Where the static mode
        carries nearly all of Var~(Z), as at beta ~ 1, even a single flat
        cell agrees, so routes_agree does not test the kernel's shape."""
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
        """1/4 kcell^T Cov~ kcell, kcell the cell averages of K_f on n_cells
        uniform cells and Cov~ the tilted covariance of the per-loop cell
        integrals: the tilted variance of y = int X kbar dt, kbar the
        cell-constant kernel.  kbar's antiderivative is the linear
        interpolant of A_f on the edges, so y is a boundary sum like Z.
        This cross-check reads y un-averaged over the spin flip."""
        beta = self.params.beta
        edges = np.linspace(-0.5 * beta, 0.5 * beta, n_cells + 1)
        # antiderivative of K(|u|) at the edges; its cell differences are
        # h times the cell averages of K
        g = np.sign(edges) * self.kernels.register(f).A(np.abs(edges)).real
        y = 2.0 * self._boundary_sum(lambda u: uniform_interp(u, edges, g))
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

    def cnumber_criterion(self, f):
        """Z almost-surely constant (c-number substitution) iff the tilted
        variance is at most CNUMBER_TOL (E~[Z]^2 + 1)."""
        mean, se, var, _ = self._z_moments(f)
        verdict = var <= CNUMBER_TOL * (mean ** 2 + 1.0)
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
    are sampled in order in this thread.
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
