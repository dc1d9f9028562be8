"""Beta-periodic thermal covariance kernels and their time antiderivatives.

The scalar self-kernel is

    kappa(tau) = Omega_d * int k^{d-1} |rhohat(k)|^2 omega^{-1}
                 * T_beta(tau, omega) dk,

with the periodic thermal factor

    T_beta(tau, omega) = (e^{-tau w} + e^{-(beta-tau) w}) / (1 - e^{-beta w}),
    tau in [0, beta].

The per-test-function kernel K_f(tau) pairs f against the interaction
direction omega^{-1/2} rho with the same thermal factor.

Time integrals of T_beta are exponentials and are carried out in closed
form (see thermal_antider / thermal_antider2).  The momentum integral runs
on the certified radial rule of spinboson.momentum, graded toward k = 0 by
the integrand's exponent there (the thermal 2/(beta omega) included); each
table fixes its rule once and sums over it at every tabulation node.
Double time integrals of kappa then reduce to differences of the tabulated
second antiderivative Psi, which is the workhorse of the loop-weight
evaluation.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

from spinboson.momentum import (  # QuadratureError is re-exported
    QuadratureError,
    convergent_exponent,
    dispersion,
    radial_integrand,
    refine_rule,
)

# ---------------------------------------------------------------------------
# exact time integrals of the periodic thermal factor
# ---------------------------------------------------------------------------

def thermal_factor(tau, omega, beta):
    """T_beta(tau, omega); broadcasts over tau and omega."""
    denom = -np.expm1(-beta * omega)
    return (np.exp(-tau * omega) + np.exp(-(beta - tau) * omega)) / denom


def thermal_antider(tau, omega, beta):
    """int_0^tau T_beta(v, omega) dv in overflow-free closed form.

    The numerator (1 - e^{-tau w}) + (e^{-(beta-tau) w} - e^{-beta w}) is
    evaluated as -expm1(-tau w) (1 + e^{-(beta-tau) w}), which keeps its
    full relative accuracy as beta w -> 0 (the plain difference of the
    last two terms rounds to 0 once beta w < 1e-16 and loses the tau w it
    should add); dividing by the denominator before omega keeps the value
    finite down to w ~ 1e-300.  At tau = beta the value is 2/omega (the
    full-circle identity).
    """
    denom = -np.expm1(-beta * omega)
    num = -np.expm1(-tau * omega) * (1.0 + np.exp(-(beta - tau) * omega))
    return num / denom / omega


def _expm1mx(x):
    """expm1(x) - x for |x| < 0.1, by its series through x^9."""
    series = np.zeros_like(x)
    term = x * x / 2.0
    for n in range(2, 10):
        series += term
        term = term * x / (n + 1.0)
    return series


def thermal_antider2(u, omega, beta):
    """int_0^u int_0^v T_beta(tau, omega) dtau dv, closed form.

    Two branches: for large arguments the decaying-exponential form is
    overflow-free and is evaluated everywhere; where |x| = |u*omega| < 0.1
    it cancels catastrophically and is overwritten by the rearrangement
    into 4 sinh^2(x/2) minus a product term, evaluated on those elements
    only.
    """
    u = np.asarray(u, dtype=float)
    x = np.asarray(u * omega)
    denom = -np.expm1(-beta * omega)
    num = np.asarray(x * denom + np.expm1(-x)
                     + np.exp(-(beta - u) * omega) - np.exp(-beta * omega))
    small = np.abs(x) < 0.1
    xs = x[small]
    num[small] = (4.0 * np.sinh(0.5 * xs) ** 2
                  - np.broadcast_to(denom, x.shape)[small] * _expm1mx(xs))
    return num / (omega * omega * denom)


# points per slab in the table evaluations, so temporaries stay a few MB
_EVAL_SLAB = 1 << 16


def _hermite_cells(x, y, dy):
    """Coefficients c[k, i] of (x - x_i)^(3-k) of the real cubic Hermite
    cells through (x, y, dy)."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (dy[:-1] + dy[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - dy[:-1]) / dx - t, dy[:-1], y[:-1]))


class UniformHermiteSpline:
    """Cubic Hermite interpolant on a uniform grid x, real or complex.

    Each cell carries the cubic in (x - x_i) that matches the values and
    derivatives at both of its ends; the real and imaginary parts are
    built separately, since a complex value divided by the real cell width
    rounds differently.  The cell is found by arithmetic and evaluated by
    Horner's rule, and the end cells' cubics extrapolate outside the grid.
    """

    def __init__(self, x, y, dy):
        y, dy = np.asarray(y), np.asarray(dy)
        c = _hermite_cells(x, y.real, dy.real)
        if np.iscomplexobj(y) or np.iscomplexobj(dy):
            c = c + 1j * _hermite_cells(x, y.imag, dy.imag)
        self._c, self._x = c, x
        self._n = len(x) - 1
        self._scale = self._n / (x[-1] - x[0])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        out = np.empty(flat.shape, dtype=self._c[0].dtype)
        c0, c1, c2, c3 = self._c
        for lo in range(0, len(flat), _EVAL_SLAB):
            v = flat[lo:lo + _EVAL_SLAB]
            idx = ((v - self._x[0]) * self._scale).astype(np.intp)
            np.clip(idx, 0, self._n - 1, out=idx)
            dx = v - self._x[idx]
            out[lo:lo + _EVAL_SLAB] = (
                (c0[idx] * dx + c1[idx]) * dx + c2[idx]) * dx + c3[idx]
        return out.reshape(x.shape)


class _KernelEntry:
    """Tabulated K_f and its first time antiderivative A_f on [0, beta]."""

    def __init__(self, grid, kvals, avals, dkvals, m_value):
        self.K = UniformHermiteSpline(grid, kvals, dkvals)
        self.A = UniformHermiteSpline(grid, avals, kvals)
        self.m_value = m_value


_CACHE_MAGIC = b"SBKT"
# version 2: Psi tables from the nested, exponent-graded momentum rule;
# version 3: nodal derivatives from the small-omega-exact thermal_antider
_CACHE_VERSION = 3


class ThermalKernelTable:
    """Precomputed kappa, Psi and per-test-function kernels at fixed
    (beta, source).

    Psi(u) = int_0^u int_0^v kappa(tau) dtau dv is tabulated on a uniform
    grid (default 2048 cells, doubled until a refinement check passes) with
    exact nodal derivatives, so interval and double-block integrals of the
    covariance are O(1) spline-difference evaluations.
    """

    def __init__(self, src, beta, n_grid=2048, tol=1e-9, cache_path=None):
        if beta <= 0:
            raise ValueError("inverse temperature must be positive")
        self.src = src
        self.beta = float(beta)
        self.d = src.d
        self.s = src.s
        self.tol = float(tol)
        self._entries = {}
        self._const = None
        # the cache is keyed on the requested grid; n_grid becomes the
        # refined one once the table is tabulated or loaded
        self.n_grid_requested = self.n_grid = n_grid
        if src.is_zero:
            # a vanishing source is the constant table with kappa = 0
            self._const = 0.0
            self.grid = np.linspace(0.0, self.beta, 2)
            return
        k, gw = self._rule(src.as_test_function(), -1.0, (
            (thermal_factor, 0.0), (thermal_factor, 0.5 * self.beta),
            (thermal_antider2, self.beta)), "kappa")
        # kappa's weights are real: rho is paired with itself, unshifted
        self._k, self._gw, self._om = k, gw.real, dispersion(k, self.s)
        if cache_path is not None and self.load_cache(cache_path):
            return
        self._tabulate(n_grid)
        if cache_path is not None:
            self.save_cache(cache_path)

    # -- construction hooks --------------------------------------------------

    @classmethod
    def constant(cls, beta, c0):
        """Test hook: a table whose kappa is the constant c0 (so
        Psi(u) = c0 u^2 / 2 exactly)."""
        obj = cls.__new__(cls)
        obj.beta = float(beta)
        obj.src = None
        obj.d = 3
        obj.s = 1.0
        obj.tol = 0.0
        obj._entries = {}
        obj._const = float(c0)
        obj.n_grid_requested = obj.n_grid = 0
        obj.grid = np.linspace(0.0, beta, 2)
        return obj

    def _rule(self, f, power, probes, label):
        """Momentum rule (k, gw) of f against the source with weight
        omega^power T_beta (kappa: f = rho, power -1; K_f: power -1/2),
        T_beta left out of gw but not out of the grading.  It is refined
        until the probe integrals sum_j gw_j fn(tau, omega_j), one per
        (fn, tau) in ``probes``, agree on two levels; ``label`` names the
        integral in a divergence error."""
        s, beta = self.s, self.beta
        rho = self.src.as_test_function()
        e0 = convergent_exponent(f, rho, power, label, thermal=True)
        integrand = radial_integrand(f, rho)

        def gfun(k):
            return integrand(k) / dispersion(k, s) ** -power

        def probe(k, gw):
            om = dispersion(k, s)
            vals = np.array([gw @ fn(tau, om, beta) for fn, tau in probes])
            return np.concatenate([vals.real, vals.imag])

        k, gw, _ = refine_rule(gfun, f.breakpoints + rho.breakpoints, e0,
                               probe, self.tol)
        return k, gw

    def _tabulate(self, n_grid):
        beta = self.beta
        while True:
            grid = np.linspace(0.0, beta, n_grid + 1)
            psi = self._momentum_sum(thermal_antider2, grid)
            apsi = self._momentum_sum(thermal_antider, grid)
            spline = UniformHermiteSpline(grid, psi, apsi)
            # refinement check at midpoints against exact values
            mids = 0.5 * (grid[:-1] + grid[1:])
            exact = self._momentum_sum(thermal_antider2, mids)
            scale = 1.0 + abs(psi[-1])
            if np.max(np.abs(spline(mids) - exact)) <= self.tol * scale:
                break
            if n_grid >= 1 << 16:
                raise QuadratureError("Psi grid refinement did not converge")
            n_grid *= 2
        self.n_grid = n_grid
        self.grid = grid
        self._psi_vals = psi
        self._apsi_vals = apsi
        self._psi = spline

    def _momentum_sum(self, time_fn, tau):
        """sum_j gw_j * time_fn(tau_i, omega_j) over the momentum rule, for
        tau of any shape.  The flattened tau is walked in slabs, so the
        (tau, k) matrix holds at most 2^22 entries on any grid."""
        gw, om = self._gw, self._om
        tau = np.asarray(tau, dtype=float)
        flat = tau.ravel()
        slab = max(1, (1 << 22) // max(len(om), 1))
        out = np.empty(len(flat))
        for lo in range(0, len(flat), slab):
            out[lo:lo + slab] = time_fn(flat[lo:lo + slab, None], om,
                                        self.beta) @ gw
        return out.reshape(tau.shape)[()]

    # -- scalar kernel -------------------------------------------------------

    def kappa(self, tau):
        """The self-kernel kappa(tau), 0 <= tau <= beta (vectorized)."""
        tau = np.asarray(tau, dtype=float)
        if np.any((tau < -1e-12) | (tau > self.beta + 1e-12)):
            raise ValueError("tau must lie in [0, beta]")
        if self._const is not None:
            return np.broadcast_to(self._const, tau.shape).copy() \
                if tau.ndim else self._const
        out = self._momentum_sum(thermal_factor, tau)
        return out if np.ndim(out) else float(out)

    def Psi(self, u):
        """Second iterated antiderivative of kappa (tabulated spline)."""
        u = np.asarray(u, dtype=float)
        if self._const is not None:
            out = 0.5 * self._const * u ** 2
        else:
            out = self._psi(u)
        return out if out.ndim else float(out)

    def Psi_exact(self, u):
        """Psi by direct momentum quadrature (oracle path, no spline)."""
        if self._const is not None:
            return 0.5 * self._const * np.asarray(u, dtype=float) ** 2
        return self._momentum_sum(thermal_antider2, u)

    def double_block(self, a, b, c, d):
        """Double integral of kappa(|t-s|) over [a,b] x [c,d] via the
        difference-kernel identity."""
        pa = self.Psi(abs(d - a))
        pb = self.Psi(abs(c - a))
        pc = self.Psi(abs(d - b))
        pd = self.Psi(abs(c - b))
        return float(pa - pb - pc + pd)

    # -- per-test-function kernels -------------------------------------------

    def register(self, f):
        """Tabulate K_f and its antiderivative; cached per test function."""
        if self.src is None:
            raise ValueError("constant test tables carry no source")
        entry = self._entries.get(f)
        if entry is not None:
            return entry
        if self._const is not None:
            zeros = np.zeros(2)
            entry = _KernelEntry(self.grid, zeros, zeros, zeros, 0j)
        else:
            if (f.d, f.s) != (self.d, self.s):
                raise ValueError("test function on a different (d, s) space")
            rule = self._rule(f, -0.5, ((thermal_factor, 0.0),
                                        (thermal_antider, self.beta)), "K_f")
            grid = np.linspace(0.0, self.beta, self.n_grid + 1)
            kv, av, dk = self._f_tables(grid, *rule)
            m_value = 0.5 * complex(av[-1])
            entry = _KernelEntry(grid, kv, av, dk, m_value)
        self._entries[f] = entry
        return entry

    def _f_tables(self, grid, k, gw):
        """K_f, A_f and dK_f/dtau on the grid from the rule (k, gw) of
        _rule, with one expm1 per (tau, omega) entry.

        The grid is uniform on [0, beta], so row n - i sits at beta - tau_i
        and its E = expm1(-tau w) stands in for row i's
        e^{-(beta-tau_i) w} - 1.  Rows i <= n/2 are walked in slabs beside
        their mirror rows; with Et, Eb the E of a row and of its mirror,
        and weights [gw2 | gw2 w | gw2 / w] for gw2 = [Re gw, Im gw] /
        (1 - e^{-beta w}),

            K  = sum gw2 (2 + Et + Eb)          (the same on both rows)
            dK = sum gw2 w (Eb - Et)            (odd under the mirror)
            A  = sum gw2 / w (-2 Et - Et Eb)    (thermal_antider's exact
                                                 numerator)

        so each slab costs one 6-column matmul per block and one 2-column
        matmul of the product Et Eb, which both rows share."""
        om = dispersion(k, self.s)
        omc = om[:, None]
        gw2 = (np.stack([gw.real, gw.imag], axis=1)
               / -np.expm1(-self.beta * omc))
        w = np.concatenate([gw2, gw2 * omc, gw2 / omc], axis=1)
        k_const = 2.0 * gw2.sum(axis=0)
        n = len(grid) - 1
        out = np.empty((3, n + 1, 2))
        slab = max(1, _EVAL_SLAB // len(om))
        # the two E blocks are reused across slabs: fresh ones cost a
        # page-faulting allocation each
        buf_t, buf_b = np.empty((2, slab, len(om)))
        neg_om = -om
        for lo in range(0, n // 2 + 1, slab):
            top = np.arange(lo, min(lo + slab, n // 2 + 1))
            bot = n - top
            et = np.multiply(grid[top, None], neg_om, out=buf_t[:len(top)])
            eb = np.multiply(grid[bot, None], neg_om, out=buf_b[:len(top)])
            np.expm1(et, out=et)
            np.expm1(eb, out=eb)
            st, sb = et @ w, eb @ w
            et *= eb
            prod = et @ w[:, 4:]
            out[0, top] = out[0, bot] = k_const + st[:, :2] + sb[:, :2]
            out[2, top] = sb[:, 2:4] - st[:, 2:4]
            out[2, bot] = st[:, 2:4] - sb[:, 2:4]
            out[1, top] = -2.0 * st[:, 4:] - prod
            out[1, bot] = -2.0 * sb[:, 4:] - prod
        return out[..., 0] + 1j * out[..., 1]

    def kernel_K(self, f, t, s_time):
        """K_{f,t}(s) = <f, T_beta(|t-s|) omega m> via the tabulated entry."""
        tau = abs(t - s_time)
        if tau > self.beta:
            raise ValueError("|t - s| exceeds beta")
        return complex(self.register(f).K(tau))

    def interval_K_integral(self, f, t, a, b):
        """int_a^b K_{f,t}(u) du from the tabulated antiderivative."""
        half = 0.5 * self.beta
        eps = 1e-12 * self.beta
        for x in (a, b, t):
            if x < -half - eps or x > half + eps:
                raise ValueError("times must lie in [-beta/2, beta/2]")
        entry = self.register(f)

        def G(u):
            return math.copysign(1.0, u - t) * entry.A(abs(u - t)) \
                if u != t else 0.0

        return complex(G(b) - G(a))

    def m_value(self, f):
        """<f, m> recovered from the exact full-circle identity
        A_f(beta) = 2 <f, m>."""
        return self.register(f).m_value

    # -- identity / caching --------------------------------------------------

    def content_hash(self):
        """Hash of the table's inputs (beta, source, requested grid, tol).

        The refined grid is an output of those inputs and is stored in the
        cache file, so a refined table still hits its cache.
        """
        h = hashlib.sha256()
        h.update(struct.pack("<dqd", self.beta, self.n_grid_requested,
                             self.tol))
        h.update(repr(self.src).encode())
        return h.hexdigest()

    def save_cache(self, path):
        """Write the Psi table as versioned little-endian float64."""
        if self._const is not None:
            raise ValueError("nothing to cache for degenerate tables")
        with open(path, "wb") as fh:
            fh.write(_CACHE_MAGIC)
            fh.write(struct.pack("<I", _CACHE_VERSION))
            fh.write(bytes.fromhex(self.content_hash()))
            fh.write(struct.pack("<qd", self.n_grid, self.beta))
            fh.write(self._psi_vals.astype("<f8").tobytes())
            fh.write(self._apsi_vals.astype("<f8").tobytes())

    def load_cache(self, path):
        """Load a Psi table written by save_cache, on its stored refined
        grid; returns False on any mismatch (wrong magic, version, content
        hash, or a truncated file)."""
        try:
            with open(path, "rb") as fh:
                if fh.read(4) != _CACHE_MAGIC:
                    return False
                (ver,) = struct.unpack("<I", fh.read(4))
                if ver != _CACHE_VERSION:
                    return False
                if fh.read(32) != bytes.fromhex(self.content_hash()):
                    return False
                n, beta = struct.unpack("<qd", fh.read(16))
                if beta != self.beta:
                    return False
                m = n + 1
                body = fh.read(16 * m)
        except (OSError, struct.error):
            return False
        if len(body) != 16 * m:
            return False
        psi = np.frombuffer(body[:8 * m], dtype="<f8")
        apsi = np.frombuffer(body[8 * m:], dtype="<f8")
        self.n_grid = n
        grid = np.linspace(0.0, self.beta, n + 1)
        self.grid = grid
        self._psi_vals = psi.copy()
        self._apsi_vals = apsi.copy()
        self._psi = UniformHermiteSpline(grid, self._psi_vals,
                                         self._apsi_vals)
        return True
