"""The tilted (interacting) loop ensemble.

Loops are drawn from the free spin measure and carry the FKN log-weight
log W = 1/4 int int X_t X_s kappa(|t-s|) dt ds, so every interacting
expectation is a self-normalized importance-sampling average.  With a
loop's interval boundaries e_0 < ... < e_{m+1} and jump coefficients d_p
(the discrete derivative of the interval signs, circle ends included),
summation by parts turns the weight and the spin variable Z into boundary
sums:

    int int X_t X_s kappa = - 2 sum_{p<q} d_p d_q Psi(e_q - e_p),
    Z = 1/2 int X_u K_f(|u|) du = -1/2 sum_p d_p G(e_p),

with G(u) = sign(u) A_f(|u|): two circle-end constants G(+-beta/2)
plus an alternating sum of G over the jump times.  The log-weight takes
the periodic form of the pair sum: with Psi(u) = kappa_mean u^2 / 2 +
Phi(u), kappa_mean = Psi'(beta) / beta the circle mean of kappa and Phi
beta-periodic and even, the pairs with a circle end cancel and

    log W = kappa_mean M^2 / 4 - 2 sum_{j<l} (-1)^(l-j) Phi(t_l - t_j)

for the c jumps t_1 < ... < t_c of a loop, M = int X dt its static moment.

TiltedEnsemble keeps the free sample it is given (signs, jump counts
and the flat jump times jumps_flat, one loop after another) and, in the
pass per jump count that weighs the loops, moves a copy of each loop with
c >= 4 jumps to the static-tilted law of its count (StaticTilt, in
moved_flat, which Z reads later): only its static share x of the circle
changes, to y = T(x), which nearly cancels the heavy static factor
exp(kappa_mean M^2 / 4) of its weight, and it carries the Jacobian J of
that change of variables (log_jac).  logw holds one value per loop, the
log W of the loop as the estimator reads it: as drawn where c <= 2, moved
where c >= 4.  Every estimator array (Z, M, the estimator weights and
whatever expectation is given) holds one value per row.  The rows are,
in order:

- the constant +1 and -1 paths, atoms of the free measure, each of mass
  P(0)/2 = 1/(2 cosh(beta eps)) and with the exact log-weight
  log W = kappa_mean beta^2 / 4, whether or not the sample drew a
  constant loop of that sign;
- the nodes of the c = 2 rule (c2_rule), fine level then coarse level
  (C2_LEVELS), each node as two rows, X_0 = +1 and then X_0 = -1;
- the loops with c >= 4 jumps, moved, ascending.

A loop with c = 0 or c = 2 is no sample: it keeps its place in the loop
arrays, but its stratum is read exactly and it has no row.

The estimators are post-stratified by jump count, whose law is exact
(loops.jump_count_pmf): E_free[W v] = sum_s p_s E_free[W v | stratum s].
The strata are:

- the two atoms, mass P(0)/2 each;
- c = 2, mass P(2), read by quadrature.  Given two jumps t_1 < t_2,
  log W depends on ell = t_2 - t_1 alone (|M| = beta - 2 ell, and the pair
  term is 2 Phi(ell)), and Z is a smooth function of (t_1, t_2) on each
  side of t = 0.  Under the free law (t_1, t_2) is uniform on the
  triangle -beta/2 < t_1 < t_2 < beta/2, so E_free[W v | c = 2] is a 2-D
  integral, which c2_rule evaluates on nodes that never straddle t = 0.
  A node row's log W and Z come from the same boundary sums as a loop's;
- runs of adjacent counts c >= 4, merged upwards until each holds
  MIN_STRATUM loops (the leftover at the top joins the last run, which
  takes the mass of every count above it).  A run no loop fell into drops
  out and the other masses are renormalized.

An atom row weighs p_a W_a, a fine node row p_2 w_k W_k / 2 (w_k the
node's weight; a level's weights sum to 1), a coarse node row 0 and a
loop row w_i = W_i J_i p_s / n_s: given its count, a moved loop has the
tilted law, so W J has the free mean of W given the count, whatever the
sample drew.  The atoms and the nodes add no variance;
with d = v - mean, summed over the runs s,

    SE^2 = sum_s [sum_{i in s} (w_i d_i)^2
                  - (sum_{i in s} w_i d_i)^2 / n_s] / (sum w)^2.

The error that expectation returns is SE plus the level gap: the
distance of the mean from the same estimator with the coarse nodes, each
row weighing p_2 w_k W_k / 2, in place of the fine ones.  It bounds the
fine level's quadrature error conservatively, as the two-point
resolvent's delta does its own.  norm_weights, one per loop, is 0 on the
constant loops and on the loops with two jumps.  `ess` is Kish's ESS
(sum w)^2 / sum w^2 of the importance weights w = W J of the n loops
(J = 1 where c <= 2), and max_weight_share the largest w / sum w; the
estimator reads only the loops with c >= 4 of them.

Z is nearly its static part x = kbar_f M / 2, kbar_f = A_f(beta) / beta
the circle mean of K_f, which the estimator can read as a control with
an exact mean.  Given c, a loop's M is X_0 beta (2x - 1), x its static
share of the circle (StaticTilt), so E_free[e^{kappa_mean M^2 / 4} g | c]
is a 1-D integral over x ~ Beta(c/2 + 1, c/2) for an even g of M
(static_levels).  A loop row with
u = w e^{-R} = (p_s / n_s) e^{kappa_mean M^2 / 4} J, its weight with
R = log W - kappa_mean M^2 / 4 taken out, has that mean times p_s / n_s
as the mean of u g, whatever the sample drew: psi = u g less it is a
control of mean zero on every loop row, centred on its own count.  With
phi = w (v - mean) and theta fitted by regressing phi on psi within the
strata, the estimate is mean - theta sum psi / sum w, and its SE that
of phi - theta psi by the formula above (the regression estimator).
The error adds theta times the level gap and the rounding of the control
means to the SE and the c = 2 level gap.

The free measure is invariant under the global spin flip X -> -X: the
initial sign is a fair coin, independent of the jumps.  The flip keeps a
loop's jump times, its stratum and its log-weight (quadratic in X),
negates Z (linear in X), swaps the two atoms and swaps the two rows of
each c = 2 node.  So every estimator of
a loop function v(Z) reads the flip-even part (v(Z) + v(-Z)) / 2 on
every row, the odd part having mean zero: the characteristic function
reads cos(s Z) (against the control cos(s x)), and E~[Z] = 0 exactly.
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
from spinboson.momentum import gauss_legendre_panels
from spinboson.seeds import substream

DEFAULT_CHUNK = 4096
JUMP_SLAB = 1 << 16
MIN_STRATUM = 20          # loops per jump-count stratum, at least
CNUMBER_TOL = 1e-6        # variance bound of cnumber_criterion
# the two levels of the c = 2 rule, fine first: (ratio-4 layers in ell,
# Gauss-Legendre nodes per layer, Gauss-Legendre nodes in u)
C2_LEVELS = ((3, 12, 8), (3, 9, 6))
TILT_GRID = 2048          # StaticTilt's cells, evenly spaced in x
STATIC_ORDER = 16         # Gauss-Legendre nodes per panel of static_levels
CELL_SLAB = 20000         # rows per block of cell_integrals


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


def loop_z_value(loop, kernels, f):
    """Z for a single loop: 1/2 sum_i X_i int_{I_i} K_f(|u|) du."""
    e = loop.boundaries(kernels.beta)
    x = loop.interval_signs()
    total = 0.0 + 0.0j
    for i in range(len(x)):
        total += x[i] * kernels.interval_K_integral(f, 0.0, e[i], e[i + 1])
    return 0.5 * total


def c2_rule(beta, layers, n_ell, n_u):
    """Jump pairs (t_1, t_2), shape (N, 2), and weights summing to 1 of a
    tensor rule for E[h(t_1, t_2) | c = 2] under the free law, whose
    density on -beta/2 < t_1 < t_2 < beta/2 is 2 / beta^2.

    The triangle is cut into four pieces that do not cross t = 0, each
    read in ell = t_2 - t_1 and a fraction u of the range of t_1 given
    ell: t_1 < t_2 < 0 and 0 < t_1 < t_2 (ell < beta/2), and t_1 < 0 < t_2
    with ell < beta/2 or ell > beta/2.  With x = ell on the first three and
    x = beta - ell on the last, x runs over (0, beta/2) on Gauss-Legendre
    panels graded toward x = 0, where Phi is not smooth, by layers of
    ratio 4; u runs over one Gauss-Legendre panel."""
    half = 0.5 * beta
    edges = half * np.concatenate(([0.0], 4.0 ** np.arange(1.0 - layers, 1.0)))
    x, wx = gauss_legendre_panels(edges, n_ell)
    u, wu = gauss_legendre_panels(np.array([0.0, 1.0]), n_u)
    x, u = x[:, None], u[None, :]
    w = (2.0 / beta ** 2) * wx[:, None] * wu[None, :]
    lo = u * (half - x) - half
    # (t_1, t_2, the length of t_1's range) on each piece
    pieces = ((lo, lo + x, half - x),
              (-lo - x, -lo, half - x),
              (x * (u - 1.0), x * u, x),
              (u * x - half, half + x * (u - 1.0), x))
    jumps = np.concatenate([np.stack(np.broadcast_arrays(a, b), -1).reshape(
        -1, 2) for a, b, _ in pieces])
    return jumps, np.concatenate([(w * span).ravel() for *_, span in pieces])


class StaticTilt:
    """Carries loops with c >= 4 jumps to the static-tilted law of their
    count, a block of loops of one count at a time, and returns each moved
    loop's log Jacobian.  static is a beta^2 with a = kappa_mean / 4, so
    that log W = static (2x - 1)^2 + R.

    Of a loop's c + 1 intervals, those of even index carry the sign X_0;
    x, their total length over beta, is Beta(c/2 + 1, c/2) under the free
    law given c (density b), independent of how each sign's total is
    split.  x moves to y = T(x) and each sign's intervals are scaled to
    their new total.  T is piecewise linear between TILT_GRID + 1 knots
    spaced evenly in x, and carries the free CDF of x onto that of
    b(x) e^{static (2x - 1)^2} at the knots, both by the trapezoid rule
    there.  Any monotone T gives
    E[h(x)] = E[h(T(x)) b(T(x)) T'(x) / b(x)] exactly, so the knots set
    only how flat the weights come out: log(b(y) T'(x) / b(x)) is the log
    Jacobian, and W times the Jacobian is nearly e^R times a constant per
    count."""

    def __init__(self, beta, static):
        self.beta, self.static = beta, static
        self._xs = np.linspace(0.0, 1.0, TILT_GRID + 1)
        self._maps = {}

    def _map(self, c):
        """T at the knots for count c, and its log slope per cell."""
        if c not in self._maps:
            xs, k = self._xs, c // 2
            with np.errstate(divide="ignore"):
                lb = k * np.log(xs) + (k - 1) * np.log1p(-xs)
            cdfs = []
            for logd in (lb, lb + self.static * (2.0 * xs - 1.0) ** 2):
                d = np.exp(logd - logd.max())
                cdf = np.concatenate(([0.0], np.cumsum(d[1:] + d[:-1])))
                cdfs.append(cdf / cdf[-1])
            ys = np.interp(cdfs[0], cdfs[1], xs)
            ys[[0, -1]] = 0.0, 1.0
            slope = np.diff(ys) * TILT_GRID
            with np.errstate(divide="ignore"):
                self._maps[c] = ys, slope, np.log(slope)
        return self._maps[c]

    def __call__(self, rows):
        """Move, in place, a (c, m) block of the jump times of m loops, all
        of one count c >= 4, and return their log Jacobians."""
        c = rows.shape[0]
        k = c // 2
        ys, slope, log_slope = self._map(c)
        half = 0.5 * self.beta
        # the interior intervals: odd index (sign -X_0) at d[0::2], even
        # index at d[1::2]; the first and the last interval carry X_0.
        # row_sum adds each loop's intervals in the same order, whatever
        # the block's width
        d = np.diff(rows, axis=0)
        first = rows[0] + half
        plus = row_sum(d[1::2])
        plus += first
        plus += half
        plus -= rows[-1]
        minus = row_sum(d[0::2])
        x = plus / self.beta
        i = np.minimum((x * TILT_GRID).astype(np.intp), TILT_GRID - 1)
        y = ys[i] + (x - self._xs[i]) * slope[i]
        # the scale of each sign's intervals, y / x and (1 - y) / (1 - x),
        # whose logs make up log b(y) - log b(x)
        plus = y * self.beta / plus
        minus = (1.0 - y) * self.beta / minus
        log_jac = k * np.log(plus) + (k - 1) * np.log(minus) + log_slope[i]
        d[0::2] *= minus
        d[1::2] *= plus
        np.multiply(first, plus, out=rows[0])
        rows[0] -= half
        for j in range(c - 1):
            np.add(rows[j], d[j], out=rows[j + 1])
        return log_jac


def static_levels(static, counts):
    """The fine and the coarse level of a nested Gauss-Legendre rule for
    E_free[e^{static y^2} g(y) | c] per even count c >= 2 in counts, with
    y = 2x - 1 = M / (X_0 beta) and x ~ Beta(c/2 + 1, c/2): (shift,
    [(y, d) per level], r), d the (counts, nodes) weights times the
    density of the integrand, taken in log space and scaled by e^{-shift}
    per count, so that the means of g are e^shift (d * g(y)).sum(axis=1).
    The panels in x are graded by ratio 2 toward both ends, down to below
    the width 1 / (4 |static|) of the peak of e^{static y^2} there,
    STATIC_ORDER nodes each; the fine level bisects each coarse panel.
    A fine mean rounds by at most e^shift (r * |g(y)|).sum(axis=1): r is
    d times eps times the magnitudes of the log-space terms at the node
    (k log x, (k - 1) log(1 - x), static y^2, the shift, the lgammas of
    the Beta function) plus log2 of the node count (the pairwise sum)."""
    layers = 2 + math.ceil(math.log2(1.0 + 4.0 * abs(static)))
    edges = 0.5 * np.concatenate(([0.0], 2.0 ** np.arange(1.0 - layers, 1.0)))
    k = np.asarray(counts, dtype=float)[:, None] / 2.0
    lgammas = np.array([[math.lgamma(j + 1.0), math.lgamma(j),
                         math.lgamma(2.0 * j + 1.0)] for j in k[:, 0]]
                       ).reshape(-1, 3)
    log_beta = lgammas[:, 0] + lgammas[:, 1] - lgammas[:, 2]
    shift, levels = None, []
    for e in (np.sort(np.concatenate((edges, 0.5 * (edges[1:] + edges[:-1])))),
              edges):
        h, w = gauss_legendre_panels(e, STATIC_ORDER)
        # x and 1 - x, each exact on the half of (0, 1) nearer its end
        x, x1 = np.concatenate((h, 1.0 - h)), np.concatenate((1.0 - h, h))
        y = x - x1
        terms = (k * np.log(x), (k - 1.0) * np.log(x1), static * y * y)
        logd = terms[0] + terms[1] + terms[2]
        if shift is None:
            shift = logd.max(axis=1)
            size = (sum(np.abs(t) for t in terms)
                    + (np.abs(shift) + np.abs(lgammas).sum(axis=1))[:, None]
                    + math.log2(y.size))
        levels.append((y, np.tile(w, 2) * np.exp(logd - shift[:, None])))
    return (shift - log_beta, levels,
            np.finfo(float).eps * size * levels[0][1])


def _boundary_sums(g, ends, signs, starts, counts, jumps, out):
    """Fill out with -1/2 sum_p d_p g(e_p) per path and return it: the
    paths have initial signs `signs` and jump counts[k] > 0 times, which
    fill the flat array `jumps` one path after another from starts[k] on;
    ends is the circle ends' part -1/2 (g(-beta/2) - g(beta/2)) of a path
    with X_0 = +1, and g returns a new array.  Every jump count c is even:
    the ends have d_0 = X_0 and d_{c+1} = -X_0, and jump j has
    d = 2 (-1)^j X_0."""
    out[...] = ends
    # g runs on slabs of whole paths' jumps: a path starts at an even index,
    # so flat jump k has the sign (-1)^k
    cuts = np.append(np.searchsorted(starts, np.arange(
        0, len(jumps), JUMP_SLAB), "right") - 1, len(counts))
    for i, j in zip(cuts, cuts[1:]):
        if i == j:
            continue
        a = starts[i]
        gj = g(jumps[a:starts[j - 1] + counts[j - 1]])
        gj[1::2] *= -1.0
        out[i:j] += np.add.reduceat(gj, starts[i:j] - a)
    out *= signs
    return out


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

    Built by build_ensemble from a free sample (signs, jump counts, flat
    jump times), which it keeps as given.  The loops with c >= 4 jumps are
    moved to the static tilt into moved_flat, their jump times packed in
    loop order (moved_offsets), each with its log Jacobian (log_jac), so
    an ensemble built from another's arrays is the same ensemble.
    Estimates are pure folds over these arrays, the log-weights, and the
    rows and jump-count strata derived from them (module docstring).
    """

    def __init__(self, params, kernels, signs, counts, jumps_flat,
                 master_seed, chunk_size):
        if np.any(counts & 1):
            raise ValueError("a loop has an odd number of jumps")
        self.params = params
        self.kernels = kernels
        self.signs = signs
        self.counts = counts
        self.master_seed = master_seed
        self.chunk_size = chunk_size
        self.n = len(signs)
        self.hist = np.bincount(counts)      # loops per jump count
        self._z_cache = {}
        # the rows: the +1 and -1 constant paths, the c = 2 nodes of each
        # level with X_0 = +1 and then -1, and the loops with c >= 4
        pmf = jump_count_pmf(params)
        pmf = pmf / pmf.sum()
        # where jump_count_pmf drops P(2) (below 1e-16 of P(0)), no c = 2 rows
        levels = [c2_rule(params.beta, *level) if len(pmf) > 1
                  else (np.empty((0, 2)), np.empty(0))
                  for level in C2_LEVELS]
        self.c2_nodes = tuple(len(w) for _, w in levels)
        n_nodes = sum(self.c2_nodes)
        self._first_loop_row = 2 + 2 * n_nodes
        # each node once, with X_0 = +1: its row with X_0 = -1 has the same
        # log W and the negated boundary sums
        self._nodes = (np.ones(n_nodes, np.int8), np.arange(0, 2 * n_nodes, 2),
                       np.full(n_nodes, 2, np.uint8),
                       np.concatenate([t for t, _ in levels]).ravel())
        sampled = np.flatnonzero(counts >= 4)
        counts4 = counts[sampled].astype(np.min_scalar_type(
            len(self.hist) - 1))
        self.jumps_flat = jumps_flat
        self.moved_offsets = np.concatenate(
            ([0], np.cumsum(counts4, dtype=np.int64)))
        self.moved_flat = np.empty(self.moved_offsets[-1])
        self.log_jac = np.zeros(len(sampled))
        # log W of each loop as the estimator reads it: the atom's
        # kappa_mean beta^2 / 4 (|M| = beta) for a constant loop, the drawn
        # loop's for c = 2, the moved loop's for c >= 4
        beta = params.beta
        static = 0.25 * kernels.kappa_mean * beta ** 2
        self.logw = np.full(self.n, static)
        starts = np.cumsum(counts, dtype=np.intp)
        starts -= counts
        two = np.flatnonzero(counts == 2)
        self.logw[two] = self._log_weights(signs[two], starts[two],
                                           counts[two], jumps_flat)
        loop_m, node_m = np.empty(len(sampled)), np.empty(n_nodes)
        self.logw[sampled] = self._log_weights(
            signs[sampled], starts[sampled], counts4, jumps_flat, moved=True,
            moment=loop_m)
        del starts
        self._loops = (signs[sampled], self.moved_offsets[:-1], counts4)
        node_logw = self._log_weights(*self._nodes, moment=node_m)
        # M per row, signed: the atoms', each node's with X_0 = +1 and then
        # -1 (fine level first), the moved loops'
        n_fine = self.c2_nodes[0]
        loop_m *= self._loops[0]
        self._moment = np.concatenate((
            [beta, -beta], node_m[:n_fine], -node_m[:n_fine],
            node_m[n_fine:], -node_m[n_fine:], loop_m))
        self._moment.flags.writeable = False
        # importance weights W J (J = 1 where c < 4), shifted so the
        # largest is 1
        iw = self.logw.copy()
        iw[sampled] += self.log_jac
        self._top = float(iw.max())
        iw -= self._top
        np.exp(iw, out=iw)
        sum_iw = float(iw.sum())
        self.ess = float(sum_iw ** 2 / np.sum(iw ** 2))
        self.max_weight_share = 1.0 / sum_iw
        if self.ess < 0.01 * self.n:
            warnings.warn(
                f"weight degeneracy: ESS = {self.ess:.1f} of {self.n}",
                RuntimeWarning)
        self._stratify(iw[sampled], counts4,
                       np.exp(node_logw - self._top),
                       np.exp(static - self._top),
                       [w for _, w in levels], pmf)

    def _stratify(self, loop_w, counts, node_w, atom_w, node_weights, pmf):
        """Derive the jump-count strata, and the estimator's weights from
        the importance weights: loop_w (W J) and counts of the loops with
        c >= 4, node_w (W) of the nodes (fine level first), atom_w (W) of
        an atom, and each level's node weights (module docstring).

        Sets weights (p_a W per atom row, p_2 w_k W_k / 2 per fine node
        row, W_i J_i p_s / n_s per loop row, 0 on the coarse node rows), the
        coarse node rows' weights _coarse, _stratum (the stratum of each
        loop row), _sizes (each stratum's number of loops), _scale (the
        factor p_s / n_s of each count, renormalized), sum_w, the
        total weight, and the fine and coarse node rows' sums; pmf is the
        normalized jump-count law."""
        p2 = pmf[1] if len(pmf) > 1 else 0.0
        starts, sizes = [], []
        for c in np.flatnonzero(self.hist[4:]) + 4:
            if not sizes or sizes[-1] >= MIN_STRATUM:
                starts.append(int(c))
                sizes.append(0)
            sizes[-1] += int(self.hist[c])
        if len(sizes) > 1 and sizes[-1] < MIN_STRATUM:
            starts.pop()
            leftover = sizes.pop()
            sizes[-1] += leftover
        # the runs tile the counts 4, 6, ...: the first starts at 4, the
        # last takes every count above it
        top = max(len(self.hist), 2 * len(pmf))
        bounds = [4] + starts[1:] + [top] if starts else []
        masses = [float(pmf[(a + 1) // 2:(b + 1) // 2].sum())
                  for a, b in zip(bounds, bounds[1:])]
        total = pmf[0] + p2 + sum(masses)
        scale = np.zeros(len(self.hist))
        stratum = np.zeros(len(self.hist),
                           np.min_scalar_type(max(len(sizes) - 1, 0)))
        for k, (a, b, p, size) in enumerate(
                zip(bounds, bounds[1:], masses, sizes)):
            scale[a:b] = p / (total * size)
            stratum[a:b] = k
        self._stratum = stratum[counts]
        self._sizes = np.array(sizes, dtype=float)
        self._scale = scale
        n_fine = self.c2_nodes[0]
        # a node row weighs half the node's p_2 w_k W_k, for either sign
        fine, coarse = (np.tile(0.5 * p2 / total * w * x, 2) for w, x in zip(
            node_weights, (node_w[:n_fine], node_w[n_fine:])))
        first = self._first_loop_row
        self._fine_rows = slice(2, 2 + len(fine))
        self._coarse_rows = slice(2 + len(fine), first)
        self.weights = np.zeros(first + len(counts))
        self.weights[:2] = atom_w * 0.5 * pmf[0] / total
        self.weights[self._fine_rows] = fine
        self.weights[first:] = loop_w * scale[counts]
        self._coarse = coarse
        self.sum_w = float(np.sum(self.weights))
        self._sum_fine = float(np.sum(self.weights[self._fine_rows]))
        self._sum_coarse = float(np.sum(self._coarse))

    @property
    def atom_mass(self):
        """The tilted mass of the two constant paths."""
        return float(np.sum(self.weights[:2])) / self.sum_w

    @property
    def norm_weights(self):
        """Each loop's weight in the estimator, normalized so that these
        weights, atom_mass and the c = 2 node rows' mass sum to 1: 0 on a
        constant loop and on a loop with two jumps, which are no sample
        (their strata are read exactly)."""
        w = np.zeros(self.n)
        w[self.counts >= 4] = self.weights[self._first_loop_row:] / self.sum_w
        return w

    # -- grouped geometry ----------------------------------------------------

    def _groups(self, signs, counts, offsets, jumps):
        """Yield (indices, initial signs, boundary matrix) per jump count
        present among the paths of the given arrays."""
        half = 0.5 * self.params.beta
        for c, idx in jump_count_groups(counts):
            bounds = np.pad(jumps[offsets[idx][:, None] + np.arange(c)],
                            ((0, 0), (1, 1)), constant_values=(-half, half))
            yield idx, signs[idx], bounds

    def _row_paths(self):
        """(signs, counts, offsets, flat jumps) of the rows' paths."""
        node_jumps = self._nodes[3]
        cut = 2 * self.c2_nodes[0]
        loops = self.counts >= 4
        counts = np.concatenate(([0, 0], np.full(2 * sum(self.c2_nodes), 2),
                                 self.counts[loops]))
        jumps = np.concatenate((
            np.tile(node_jumps[:cut], 2), np.tile(node_jumps[cut:], 2),
            self.moved_flat))
        signs = np.concatenate([[1, -1]] + [np.repeat([1, -1], n)
                                            for n in self.c2_nodes]
                               + [self.signs[loops]])
        return signs, counts, np.concatenate(([0], np.cumsum(counts))), jumps

    def _log_weights(self, signs, starts, counts, jumps, moved=False,
                     moment=None):
        """log W per path of the given arrays (module docstring; the signs
        do not enter it), in one pass per jump count c over slabs of paths,
        each gathered once as its (c, paths) block of jump times.  With
        moved, the paths are the loops with c >= 4 jumps, in order: each
        block is moved in place by the static tilt (none where kappa_mean
        is 0) and copied into moved_flat, its log Jacobians into log_jac.
        Where moment is given, it receives the static moment M of each
        path (moved, with c >= 4) with X_0 = +1.
        The static term sums each column with alternating signs by reduceat,
        as _boundary_sums does; the pair sum maps a buffer of the block's
        c(c-1)/2 rows of pair differences (lag by lag, the odd lags first;
        about JUMP_SLAB values) by Phi in place and adds each path's values
        row by row in a fixed order, whatever the other paths."""
        beta = self.params.beta
        scale = 0.25 * self.kernels.kappa_mean
        tilt = (StaticTilt(beta, scale * beta ** 2)
                if moved and scale else None)
        phi = self.kernels.phi
        out = np.empty(len(counts))
        for c, idx in jump_count_groups(counts):
            # the odd lags k = 1, 3, ... fill the first n_odd rows
            lags = [*range(1, c, 2), *range(2, c, 2)]
            n_pairs = c * (c - 1) // 2
            n_odd = (c // 2) * ((c + 1) // 2)
            step = max(1, JUMP_SLAB // max(n_pairs, c, 1))
            buf = np.empty(n_pairs * min(step, len(idx)))
            jth = np.arange(c)[:, None]
            for a in range(0, len(idx), step):
                at = idx[a:a + step]
                rows = jumps.take(starts[at] + jth)
                if moved:
                    if tilt is not None:
                        self.log_jac[at] = tilt(rows)
                    self.moved_flat[self.moved_offsets[at] + jth] = rows
                # kappa_mean M^2 / 4, |M| / 2 = |beta / 2 + the alternating
                # jump sum| (beta / 2 on a constant path, as for the atoms);
                # two jumps take one subtraction, reduceat's one addition
                if c == 2:
                    m = rows[0] - rows[1]
                elif c:
                    alt = rows.copy()
                    alt[1::2] *= -1.0
                    m = np.add.reduceat(alt, [0])[0]
                else:
                    m = np.zeros(len(at))
                m += 0.5 * beta
                m *= 2.0
                if moment is not None:
                    moment[at] = m
                np.square(m, out=m)
                m *= scale
                if phi is not None and n_pairs:
                    diffs = buf[:n_pairs * len(at)].reshape(n_pairs, -1)
                    r = 0
                    for k in lags:
                        np.subtract(rows[k:], rows[:-k],
                                    out=diffs[r:r + c - k])
                        r += c - k
                    phi(diffs, out=diffs)
                    np.negative(diffs[:n_odd], out=diffs[:n_odd])
                    m -= 2.0 * row_sum(diffs)
                out[at] = m
        return out

    @property
    def static_moment(self):
        """M = int X dt per row, the static-mode moment, kept from the pass
        that weighs the loops (read-only); log W carries
        kappa_mean M^2 / 4."""
        return self._moment

    # -- estimators ----------------------------------------------------------

    def estimate(self, values, control=None):
        """(mean, SE, gap) of an array with one value per row: the mean
        sum_i w_i v_i / sum w over all rows; the Monte Carlo SE of the
        module docstring, summed over the loop rows (the atoms and the
        nodes add no variance); and the gap, the distance of the mean from
        the same estimator with the coarse c = 2 level in place of the
        fine one.

        control, from static_control, is g(x) per loop row, the exact
        means of u g(x) per count on the fine and the coarse level, and
        the fine means' rounding bound per count: the mean and the SE then
        read psi and theta (module docstring), and the gap adds |theta|
        times the shift of sum psi / sum w from the fine to the coarse
        means plus their rounding.  The error is thus three terms: the SE,
        the c = 2 level gap and theta times the control's level gap.  The
        real and imaginary parts of v are summed as separate float
        arrays, each with its own theta against the same part of psi.
        Since w_i * 1.0 == w_i, an array of ones gives exactly 1 (1+0j for
        complex input), theta = 0 and SE and gap exactly 0.0, so every
        characteristic functional is exactly normalized at s = 0."""
        values = np.asarray(values)
        if len(values) != len(self.weights):
            raise ValueError("expectation takes one value per row")
        parts = ((values.real, values.imag) if np.iscomplexobj(values)
                 else (values,))
        controls = [None] * len(parts)
        if control is not None:
            h, fine_means, coarse_means, rounding = control
            psi = self._static_weights * h - fine_means[self._loops[2]]
            level_gap = np.sum(self.hist * (fine_means - coarse_means))
            rounding = abs(np.sum(self.hist * rounding))
            controls = [(psi.real, abs(level_gap.real) + rounding),
                        (psi.imag, abs(level_gap.imag) + rounding)]
        first, fine = self._first_loop_row, self._fine_rows
        coarse_sum = self.sum_w - self._sum_fine + self._sum_coarse
        means, var, gap = [], 0.0, 0.0
        for x, ctl in zip(parts, controls):
            total = float(np.sum(self.weights * x))
            mean = total / self.sum_w
            coarse = (total - float(np.sum(self.weights[fine] * x[fine]))
                      + float(np.sum(self._coarse * x[self._coarse_rows])))
            err = abs(mean - coarse / coarse_sum)
            wd = x[first:] - mean
            wd *= self.weights[first:]
            if ctl is not None:
                p, level_gap = ctl
                pp = self._centred_dot(p, p)
                theta = self._centred_dot(wd, p) / pp if pp > 0.0 else 0.0
                mean -= theta * float(np.sum(p)) / self.sum_w
                wd -= theta * p
                err += abs(theta) * level_gap / self.sum_w
            means.append(mean)
            gap += err ** 2
            var += self._centred_dot(wd, wd)
        se = math.sqrt(max(var, 0.0)) / self.sum_w
        mean = (np.complex128(complex(*means)) if len(parts) == 2
                else np.float64(means[0]))
        return mean, se, math.sqrt(gap)

    def _centred_dot(self, a, b):
        """sum_i a_i b_i - sum_s A_s B_s / n_s over the loop rows, A_s and
        B_s the sums of a and b over stratum s."""
        sa = np.bincount(self._stratum, a, len(self._sizes))
        sb = sa if b is a else np.bincount(self._stratum, b, len(self._sizes))
        # numpy's own loop: a BLAS dot rounds by its thread count
        return (float(np.einsum("i,i->", a, b))
                - float(np.sum(sa * sb / self._sizes)))

    @cached_property
    def _static_weights(self):
        """u = w e^{-R} per loop row, R = log W - kappa_mean M^2 / 4 the
        pair sum: the loop's weight with only the static term of log W."""
        m = self._moment[self._first_loop_row:]
        u = 0.25 * self.kernels.kappa_mean * m * m
        u += self.log_jac
        u -= self._top
        np.exp(u, out=u)
        u *= self._scale[self._loops[2]]
        return u

    @cached_property
    def _static_rule(self):
        """The counts c >= 4 present, and the levels and rounding weights of
        static_levels for them with M = X_0 beta y at the nodes and weights
        that give the means of u g(x) (module docstring)."""
        beta = self.params.beta
        counts = np.flatnonzero(self.hist[4:]) + 4
        shift, levels, rounding = static_levels(
            0.25 * self.kernels.kappa_mean * beta ** 2, counts)
        factor = (self._scale[counts] * np.exp(shift - self._top))[:, None]
        return (counts, [(beta * y, d * factor) for y, d in levels],
                rounding * factor)

    def static_control(self, f, g):
        """The control of estimate for an even function g of
        x = 1/2 kbar_f M, which Z_f nearly equals, with
        kbar_f = A_f(beta) / beta = 2 A_f(beta / 2) / beta: g(x) per loop
        row and, indexed by count, the exact mean of the control value
        u g(x) of a loop row with c >= 4 jumps (0 at a count no loop has)
        on the fine and on the coarse level of static_levels, and the fine
        mean's rounding bound."""
        half_k = self.kernels.register(f).m_value / self.params.beta
        half_k = half_k if half_k.imag else half_k.real
        counts, ((m, d), (mc, dc)), rounding = self._static_rule
        v = g(half_k * m)
        out = np.zeros((3, len(self.hist)), v.dtype)
        out[:, counts] = ((d * v).sum(axis=1),
                          (dc * g(half_k * mc)).sum(axis=1),
                          (rounding * np.abs(v)).sum(axis=1))
        return g(half_k * self._moment[self._first_loop_row:]), *out

    def expectation(self, values):
        """Post-stratified IS mean of an array with one value per row and
        its error, with no control: the Monte Carlo SE plus the c = 2 level
        gap (estimate)."""
        mean, se, gap = self.estimate(values)
        return mean, se + gap

    def log_partition(self):
        """log Z_beta = log(2 cosh(eps beta)) + log sum_s p_s mean_s(W)."""
        x = self.params.eps * self.params.beta
        # the weights are shifted by the largest log importance weight
        return math.log(2.0 * math.cosh(x)) + self._top + math.log(self.sum_w)

    def _boundary_sum(self, g):
        """-1/2 sum_p d_p g(e_p) per row (Z for g = G)."""
        lo, hi = g(0.5 * self.params.beta * np.array([-1.0, 1.0]))
        ends = -0.5 * (lo - hi)
        first, n_fine = self._first_loop_row, self.c2_nodes[0]
        out = np.empty(first + len(self._loops[0]), ends.dtype)
        # the signs multiply, as in _boundary_sums, zeros included
        np.multiply(ends, np.array([1, -1], np.int8), out=out[:2])
        nodes = _boundary_sums(g, ends, *self._nodes,
                               np.empty(sum(self.c2_nodes), out.dtype))
        k = 2
        for part in (nodes[:n_fine], nodes[n_fine:]):
            out[k:k + len(part)] = part
            np.multiply(part, -1, out=out[k + len(part):k + 2 * len(part)])
            k += 2 * len(part)
        _boundary_sums(g, ends, *self._loops, self.moved_flat, out[first:])
        return out

    def z_values(self, f):
        """Z_{beta,f} per row, cached per f and shared read-only."""
        if f not in self._z_cache:
            a_f = self.kernels.register(f).A
            z = self._boundary_sum(lambda x: np.sign(x) * a_f(np.abs(x)))
            z.flags.writeable = False
            self._z_cache[f] = z
        return self._z_cache[f]

    def spin_factor(self, f):
        """S = E~[exp(-i Z)] with its error: char_function at s = 1."""
        self.char_function(f, 1.0)
        return self._z_cache[("S", f, 1.0)]

    def ell_shift(self, f):
        """The physical-field shift ell = -E~[Z]: exactly 0.0 for every
        test function, Z being odd under the spin flip (module
        docstring)."""
        return 0.0

    def char_function(self, f, s):
        """E~[exp(-i s Z_f)] with its error (estimate's three terms), shaped
        like the real s; each (f, s) is estimated once and cached beside Z.
        Every row reads the flip-even part cos(s Z), a real array when Z is
        real, against the control cos(s x), x = 1/2 kbar_f M."""
        s = np.asarray(s, dtype=float)
        new = [sj for sj in dict.fromkeys(map(float, s.ravel()))
               if ("S", f, sj) not in self._z_cache]
        if new:
            z = self.z_values(f)
            z = z if z.imag.any() else z.real
            for sj in new:
                ctl = self.static_control(f, lambda y: np.cos(sj * y))
                val, se, gap = self.estimate(np.cos(sj * z), ctl)
                self._z_cache[("S", f, sj)] = np.complex128(val), se + gap
        vals = np.empty(s.shape, dtype=complex)
        ses = np.empty(s.shape)
        for j, sj in np.ndenumerate(s):
            vals[j], ses[j] = self._z_cache[("S", f, float(sj))]
        return vals[()], ses[()]

    # -- variance diagnostics ------------------------------------------------

    def cell_integrals(self, edges):
        """Per-row integrals of the path over each grid cell: the (rows,
        n_cells) reference matrix behind the kernel route's oracle."""
        signs, counts, offsets, jumps = self._row_paths()
        out = np.empty((len(signs), len(edges) - 1))
        for idx, x0, bounds in self._groups(signs, counts, offsets, jumps):
            starts = bounds[:, :-1]
            lens = np.diff(bounds, axis=1)
            c = bounds.shape[1] - 2
            xs = x0[:, None] * (-1.0) ** np.arange(c + 1)[None, :]
            for lo in range(0, len(idx), CELL_SLAB):
                hi = min(lo + CELL_SLAB, len(idx))
                clipped = np.clip(
                    edges[None, None, :] - starts[lo:hi, :, None],
                    0.0, lens[lo:hi, :, None])
                cum = np.einsum("ni,nie->ne", xs[lo:hi], clipped)
                out[idx[lo:hi]] = np.diff(cum, axis=1)
        return out

    def _z_moments(self, f):
        """Tilted variance of the real Z of f with its error (cached):
        E~[Z] is 0, so Var~(Z) = E~[Z^2], read against the control x^2,
        x the real part of 1/2 kbar_f M."""
        key = ("moments", f)
        if key not in self._z_cache:
            z = self.z_values(f).real
            var, se, gap = self.estimate(z * z, self.static_control(
                f, lambda x: np.square(x.real)))
            self._z_cache[key] = (float(var), se + gap)
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
            "ess": self.ess,
        }
        return verdict, evidence

    def path_values(self, times):
        """Matrix of path values X_i(t_j) over all loops as drawn (n,
        len(times)): the free sample, not weighted, not moved."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        out = np.empty((self.n, len(times)), dtype=np.int64)
        for idx, x0, bounds in self._groups(self.signs, self.counts,
                                            self.offsets, self.jumps_flat):
            jumps = bounds[:, 1:-1]
            crossings = np.sum(jumps[:, :, None] <= times[None, None, :],
                               axis=1)
            out[idx] = (x0[:, None].astype(np.int64)
                        * np.where(crossings % 2, -1, 1))
        return out

    # -- inspection ----------------------------------------------------------

    @property
    def offsets(self):
        """Where each loop's jump times start in jumps_flat, and where the
        last ends (n + 1 positions): built when read, not held."""
        return np.concatenate(([0], np.cumsum(self.counts, dtype=np.intp)))

    def loop(self, i):
        """Materialize loop i, as drawn, as a SpinLoop."""
        a = int(np.sum(self.counts[:i], dtype=np.intp))
        return SpinLoop(int(self.signs[i]), tuple(
            self.jumps_flat[a:a + int(self.counts[i])]))


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
    del parts
    return TiltedEnsemble(params, kernels, signs, counts, flat,
                          seed, chunk_size)
