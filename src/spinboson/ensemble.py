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

The two constant paths are atoms of the free measure, each of mass
P(0)/2 = 1/(2 cosh(beta eps)) and with the exact log-weight
log W = kappa_mean beta^2 / 4.  The sample arrays (signs, counts, jump
times, log-weights) hold one value per loop, and every estimator array
(Z, M, the estimator weights and whatever expectation is given) one
value per row.  Rows 0 and 1 are the constant +1 and -1 paths, whether
or not the sample drew a constant loop of that sign, and the rows from 2
on are the loops with jumps, ascending.  A constant loop is no sample:
its atom is read exactly.

The estimators are post-stratified by jump count, whose law is exact
(loops.jump_count_pmf): E_free[W v] = sum_s p_s E_free[W v | stratum s].
The strata are the two atoms (mass P(0)/2 each, adding no variance) and
runs of adjacent counts c >= 2, merged upwards until each holds
MIN_STRATUM loops (the leftover at the top joins the last run, which
takes the mass of every count above it).  A run no loop fell into drops
out and the other masses are renormalized.  An atom row weighs p_a W_a,
a row with jumps w_i = W_i p_s / n_s, and with d = v - mean, summed over
the runs s,

    SE^2 = sum_s [sum_{i in s} (w_i d_i)^2
                  - (sum_{i in s} w_i d_i)^2 / n_s] / (sum w)^2.

`ess` stays Kish's ESS of the FKN weights of the n loops,
(sum W)^2 / sum W^2.

The free measure is invariant under the global spin flip X -> -X: the
initial sign is a fair coin, independent of the jumps.  The flip keeps a
loop's jump times, its stratum and its log-weight (quadratic in X),
negates Z (linear in X) and swaps the two atoms.  So every estimator of
a loop function v(Z) reads the flip-even part (v(Z) + v(-Z)) / 2 on
every row, the odd part having mean zero: the characteristic function
reads cos(s Z), and E~[Z] = 0 exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from spinboson.loops import (
    SpinLoop,
    jump_count_groups,
    jump_count_pmf,
    sample_loop_arrays,
)
from spinboson.seeds import substream

DEFAULT_CHUNK = 4096
JUMP_SLAB = 1 << 16
MIN_STRATUM = 20          # loops per jump-count stratum, at least
CNUMBER_TOL = 1e-6        # variance bound of cnumber_criterion


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
    arrays (signs, jump counts, flat jump times, log-weights), the rows
    and the jump-count strata derived from them (module docstring).
    """

    def __init__(self, params, kernels, signs, counts, jumps_flat,
                 master_seed, chunk_size):
        if np.any(counts & 1):
            raise ValueError("a loop has an odd number of jumps")
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
        # the rows: the +1 and -1 constant paths, then the loops with jumps
        has = np.flatnonzero(counts)
        self._row_signs = np.empty(2 + len(has), dtype=np.int8)
        self._row_signs[:2] = (1, -1)
        self._row_signs[2:] = signs[has]
        self._row_starts = self.offsets[has]
        self.logw, atom_logw = self._log_weights()
        # FKN weights, shifted so the largest is 1
        top = self.logw.max()
        fkn = np.exp(self.logw - top)
        sum_fkn = float(fkn.sum())
        self.ess = float(sum_fkn ** 2 / np.sum(fkn ** 2))
        if self.ess < 0.01 * self.n:
            warnings.warn(
                f"weight degeneracy: ESS = {self.ess:.1f} of {self.n}",
                RuntimeWarning)
        self._stratify(fkn[has], counts[has], np.exp(atom_logw - top))

    def _stratify(self, fkn, counts, fkn_atom):
        """Derive the jump-count strata, and the estimator's weights from
        the FKN weights: fkn and counts of the rows with jumps, fkn_atom of
        an atom (module docstring).

        Sets weights (p_a W per atom row, W_i p_s / n_s per row with
        jumps), _stratum (the stratum of each row with jumps), _sizes
        (each stratum's number of loops) and sum_w, the total weight."""
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
        total = pmf[0] + sum(masses)
        scale = np.zeros(len(self.hist))
        stratum = np.zeros(len(self.hist),
                           np.min_scalar_type(max(len(sizes) - 1, 0)))
        for k, (a, b, p, size) in enumerate(
                zip(bounds, bounds[1:], masses, sizes)):
            scale[a:b] = p / (total * size)
            stratum[a:b] = k
        self._stratum = stratum[counts]
        self._sizes = np.array(sizes, dtype=float)
        self.weights = np.empty(2 + len(counts))
        self.weights[:2] = fkn_atom * 0.5 * pmf[0] / total
        self.weights[2:] = fkn * scale[counts]
        self.sum_w = float(np.sum(self.weights))

    @property
    def atom_mass(self):
        """The tilted mass of the two constant paths."""
        return float(np.sum(self.weights[:2])) / self.sum_w

    @property
    def norm_weights(self):
        """Each loop's weight in the estimator, normalized so that these
        weights and atom_mass sum to 1: 0 on a constant loop, which is no
        sample (its atom is read exactly)."""
        w = np.zeros(self.n)
        w[self.counts > 0] = self.weights[2:] / self.sum_w
        return w

    # -- grouped geometry ----------------------------------------------------

    def _groups(self):
        """Yield (indices, boundary matrix) per jump count present."""
        beta = self.params.beta
        for c, idx, cols in jump_count_groups(self.counts, self.offsets,
                                              self.hist):
            bounds = np.empty((len(idx), c + 2))
            bounds[:, 0] = -0.5 * beta
            bounds[:, -1] = 0.5 * beta
            bounds[:, 1:-1] = self.jumps_flat[cols]
            yield idx, bounds

    def _log_weights(self):
        """log W per loop (module docstring), and an atom's log W.  Per
        jump count c, a slab of loops fills a buffer of about JUMP_SLAB
        pair differences (c(c-1)/2 rows, walked lag by lag, the odd lags
        first), which the Phi spline maps in place; each loop's values are
        added row by row in a fixed order, so a log-weight does not depend
        on the other loops."""
        m = 2.0 * self._boundary_sum(lambda u: u)    # M, left uncached
        static = 0.25 * self.kernels.kappa_mean * m ** 2
        # a constant loop has its atom's log W, kappa_mean beta^2 / 4
        out = np.full(self.n, static[0])
        out[self.counts > 0] = static[2:]
        phi = self.kernels.phi
        if phi is None:
            return out, static[0]
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
        return out, static[0]

    @cached_property
    def static_moment(self):
        """M = int X dt per row, the static-mode moment (twice the
        boundary sum of g(u) = u); log W carries kappa_mean M^2 / 4."""
        return 2.0 * self._boundary_sum(lambda u: u)

    # -- estimators ----------------------------------------------------------

    def expectation(self, values):
        """Post-stratified IS mean and standard error of an array with one
        value per row: mean = sum_i w_i v_i / sum w over all rows, and the
        SE of the module docstring, summed over the rows with jumps (the
        atoms add no variance), the real and imaginary parts of v summed
        as separate float arrays.  Since w_i * 1.0 == w_i, an array of ones
        gives exactly 1 (1+0j for complex input) with SE exactly 0.0, so
        every characteristic functional is exactly normalized at s = 0."""
        values = np.asarray(values)
        if len(values) != len(self.weights):
            raise ValueError("expectation takes one value per row")
        parts = ((values.real, values.imag) if np.iscomplexobj(values)
                 else (values,))
        means, var = [], 0.0
        for x in parts:
            mean = float(np.sum(self.weights * x)) / self.sum_w
            means.append(mean)
            wd = x[2:] - mean
            wd *= self.weights[2:]
            # numpy's own loop: a BLAS dot rounds by its thread count
            var += float(np.einsum("i,i->", wd, wd))
            per_stratum = np.bincount(self._stratum, wd, len(self._sizes))
            var -= float(np.sum(per_stratum ** 2 / self._sizes))
        se = math.sqrt(max(var, 0.0)) / self.sum_w
        if len(parts) == 2:
            return np.complex128(complex(*means)), se
        return np.float64(means[0]), se

    def log_partition(self):
        """log Z_beta = log(2 cosh(eps beta)) + log sum_s p_s mean_s(W)."""
        x = self.params.eps * self.params.beta
        # the weights are shifted by the largest log W
        return (math.log(2.0 * math.cosh(x)) + float(self.logw.max())
                + math.log(self.sum_w))

    def _boundary_sum(self, g, t=0.0):
        """-1/2 sum_p d_p g(e_p - t) per row (Z for g = G).  Every jump
        count c is even: the ends have d_0 = X_0 and d_{c+1} = -X_0, and
        jump j, at the flat index k = offset + j - 1 with an even offset,
        has d = 2 (-1)^j X_0 = -2 X_0 (-1)^k."""
        lo, hi = g(0.5 * self.params.beta * np.array([-1.0, 1.0]) - t)
        out = np.full(len(self._row_signs), -0.5 * (lo - hi))
        starts = self._row_starts
        # g runs on slabs of whole loops' jumps; jump k has the sign (-1)^k
        cuts = np.append(np.searchsorted(starts, np.arange(
            0, len(self.jumps_flat), JUMP_SLAB), "right") - 1, len(starts))
        for i, j in zip(cuts, cuts[1:]):
            a = starts[i]
            b = starts[j] if j < len(starts) else len(self.jumps_flat)
            gj = g(self.jumps_flat[a:b] - t)
            gj[1::2] *= -1.0
            out[2 + i:2 + j] += np.add.reduceat(gj, starts[i:j] - a)
        out *= self._row_signs
        return out

    def z_values(self, f, t_offset=0.0):
        """Z_{beta,t,f} per row, cached per (f, t_offset) and shared
        read-only."""
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
        """The physical-field shift ell = -E~[Z]: exactly 0.0 for every
        test function, Z being odd under the spin flip (module
        docstring)."""
        return 0.0

    def char_function(self, f, s, t_offset=0.0):
        """E~[exp(-i s Z_{f,t})] with SE, shaped like the real s; each
        (f, t, s) is estimated once and cached beside Z.  Every row reads
        the flip-even part cos(s Z), a real array when Z is real."""
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
                val, se = self.expectation(np.cos(sj * z))
                self._z_cache[key] = np.complex128(val), se
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
        """Tilted variance of the real Z of f with its SE (cached): E~[Z]
        is 0, so Var~(Z) = E~[Z^2]."""
        key = ("moments", f)
        if key not in self._z_cache:
            z = self.z_values(f).real
            var, se = self.expectation(z * z)
            self._z_cache[key] = (float(var), se)
        return self._z_cache[key]

    def variance_two_routes(self, f, n_cells=64):
        """Var~(Z) directly and through the cell-averaged covariance kernel
        (_kernel_variance), both in O(N) memory.  Where the static mode
        carries nearly all of Var~(Z), as at beta ~ 1, even a single flat
        cell agrees, so routes_agree does not test the kernel's shape."""
        var, var_se = self._z_moments(f)
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
        """|S(sf) - exp(-i s E~[Z])| <= s^2/2 Var~(Z) + 5 SE, per s, with
        E~[Z] = 0."""
        var, _ = self._z_moments(f)
        vals, ses = self.char_function(f, s_grid)
        rows = []
        ok = True
        for s, val, se in zip(s_grid, vals, ses):
            lhs = abs(val - 1.0)
            bound = 0.5 * s * s * var + 5.0 * se + 1e-12
            rows.append((float(s), float(lhs), float(bound),
                         float(bound - lhs)))
            ok = ok and lhs <= bound
        return ok, rows

    def cnumber_criterion(self, f):
        """Z almost-surely constant (c-number substitution) iff the tilted
        variance is at most CNUMBER_TOL; the constant is then E~[Z] = 0."""
        var, _ = self._z_moments(f)
        verdict = var <= CNUMBER_TOL
        evidence = {
            "var_direct": var,
            "mean_z": 0.0,
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
                   workers=1):
    """Sample n loops in deterministic chunks and attach FKN weights.

    Substreams are derived per chunk index, so the result depends only on
    (seed, n, chunk_size).  workers is accepted and ignored: the chunks
    are sampled in order in this thread.
    """
    if n < 1:
        raise ValueError("need at least one loop")
    parts = [sample_loop_arrays(params, substream(seed, i),
                                min(chunk_size, n - lo))
             for i, lo in enumerate(range(0, n, chunk_size))]
    signs, counts, flat = (np.concatenate(a) for a in zip(*parts))
    return TiltedEnsemble(params, kernels, signs, counts, flat,
                          seed, chunk_size)
