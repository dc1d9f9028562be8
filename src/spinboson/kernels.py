"""Beta-periodic thermal covariance kernels and their time antiderivatives.

The scalar self-kernel is

    kappa(tau) = Omega_d * int k^{d-1} |rhohat(k)|^2 omega^{-1}
                 * T_beta(tau, omega) dk,

with the periodic thermal factor

    T_beta(tau, omega) = (e^{-tau w} + e^{-(beta-tau) w}) / (1 - e^{-beta w}),
    tau in [0, beta].

The per-test-function kernel K_f(tau) pairs f against the interaction
direction omega^{-1/2} rho with the same thermal factor; its time
antiderivative A_f is tabulated, and K_f itself is summed over its
momentum rule where it is read.

Time integrals of T_beta are exponentials and are carried out in closed
form (see thermal_antider / thermal_antider2).  The momentum integral runs
on the certified radial rule of spinboson.momentum, graded toward k = 0 by
the integrand's exponent there (the thermal 2/(beta omega) included); each
table fixes its rule once and sums over it at every tabulation node.
Double time integrals of kappa then reduce to differences of the tabulated
second antiderivative Psi.  The Psi and A_f tables are cubic Hermite
splines on uniform time grids, each sized by one nested refinement
(_refine_table): the grid doubles from 16 cells until a level matches the
next one at its cell midpoints.

Since kappa(tau) = kappa(beta - tau), Psi(beta) = beta Psi'(beta) / 2, and
Phi(u) = Psi(u) - kappa_mean u^2 / 2, with kappa_mean = Psi'(beta) / beta
the circle mean of kappa, is beta-periodic and even.  The Phi spline,
built from the same nodal values, is the workhorse of the loop-weight
evaluation (see spinboson.ensemble); Psi serves the interval-pair blocks.
"""

from __future__ import annotations

import math

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

    def __call__(self, x, out=None):
        """The interpolant at x, of x's shape; ``out`` (C-contiguous, of
        the spline's dtype) receives it in place and may be x itself."""
        x = np.asarray(x, dtype=float)
        if out is None:
            out = np.empty(x.shape, dtype=self._c[0].dtype)
        flat, res = x.ravel(), out.reshape(-1)
        n = min(len(flat), _EVAL_SLAB)
        idx = np.empty(n, dtype=np.intp)
        dx = np.empty(n)
        term = np.empty(n, dtype=res.dtype)
        c0, c1, c2, c3 = self._c
        for lo in range(0, len(flat), _EVAL_SLAB):
            v = flat[lo:lo + _EVAL_SLAB]
            i, d, t = idx[:len(v)], dx[:len(v)], term[:len(v)]
            np.subtract(v, self._x[0], out=d)
            d *= self._scale
            np.copyto(i, d, casting="unsafe")
            # mode "clip" puts points outside the grid in the end cells
            # (and spares take its buffered copy of out)
            np.subtract(v, np.take(self._x[:-1], i, out=d, mode="clip"),
                        out=d)
            # Horner's rule in place; v is read for the last time above,
            # so the result may overwrite it
            o = res[lo:lo + _EVAL_SLAB]
            np.take(c0, i, out=o, mode="clip")
            for c in (c1, c2, c3):
                o *= d
                o += np.take(c, i, out=t, mode="clip")
        return out


class _KernelEntry:
    """A_f, the first time antiderivative of K_f, tabulated on [0, beta],
    and the momentum rule (om, gw) of K_f(tau) = sum gw T_beta(tau, om).

    m_value is <f, m> by the half-circle identity A_f(beta/2) = <f, m>
    (K_f is symmetric about beta/2), read off the A_f spline: a constant
    path's Z at t = 0 is +-A_f(beta/2) from the same spline, so it equals
    +-<f, m> bit for bit."""

    def __init__(self, grid, avals, kvals, om, gw):
        self.A = UniformHermiteSpline(grid, avals, kvals)
        self.om, self.gw = om, gw
        self.m_value = complex(self.A(np.array([0.5 * grid[-1]]))[0])


# cells of the coarsest time grid, and the most a table may refine to
_START_CELLS = 16
_MAX_CELLS = 1 << 16


def _refine_table(beta, nodal, tol):
    """The Hermite table (grid, y, dy) of a function on a uniform grid of
    [0, beta], doubled until it is accurate.

    nodal(tau) gives (y, dy) at points tau that are symmetric under
    tau -> beta - tau.  Each level's new nodes are the midpoints of the
    coarser level's cells, so every node is evaluated once and the new
    nodes are the exact values the coarser spline is checked against:
    the levels agree when they differ there by at most
    tol * (1 + |y(beta)|), and the finer level is returned.
    """
    n = _START_CELLS
    grid = np.linspace(0.0, beta, n + 1)
    y, dy = nodal(grid)
    while n < _MAX_CELLS:
        fine = np.linspace(0.0, beta, 2 * n + 1)
        mid = nodal(fine[1::2])
        err = np.max(np.abs(UniformHermiteSpline(grid, y, dy)(fine[1::2])
                            - mid[0]))
        y, dy = (np.insert(c, np.arange(1, n + 1), m)
                 for c, m in zip((y, dy), mid))
        grid, n = fine, 2 * n
        if err <= tol * (1.0 + abs(y[-1])):
            return grid, y, dy
    raise QuadratureError("time grid refinement did not converge")


class ThermalKernelTable:
    """Precomputed kappa, Psi and per-test-function kernels at fixed
    (beta, source).

    Psi(u) = int_0^u int_0^v kappa(tau) dtau dv is tabulated with exact
    nodal derivatives on the uniform grid that _refine_table sizes (n_grid
    cells), so interval and double-block integrals of the covariance are
    O(1) spline-difference evaluations.  kappa_mean is the circle mean of
    kappa and phi the spline of the periodic part Phi of Psi (see
    _set_psi); on a constant table kappa_mean is the constant and phi is
    None, since Phi vanishes.
    """

    def __init__(self, src, beta, tol=1e-9):
        if beta <= 0:
            raise ValueError("inverse temperature must be positive")
        self.src = src
        self.beta = float(beta)
        self.d = src.d
        self.s = src.s
        self.tol = float(tol)
        self._entries = {}
        if src.is_zero:
            # a vanishing source is the constant table with kappa = 0
            self._set_const(0.0)
            return
        self._const = None
        k, gw = self._rule(src.as_test_function(), -1.0, (
            (thermal_factor, 0.0), (thermal_factor, 0.5 * self.beta),
            (thermal_antider2, self.beta)), "kappa")
        # kappa's weights are real: rho is paired with itself, unshifted
        self._k, self._gw, self._om = k, gw.real, dispersion(k, self.s)
        self._set_psi(*_refine_table(self.beta, lambda tau: (
            self._momentum_sum(thermal_antider2, tau),
            self._momentum_sum(thermal_antider, tau)), self.tol))

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
        obj._set_const(c0)
        return obj

    def _set_const(self, c0):
        self._const = self.kappa_mean = float(c0)
        self.phi = None
        self.n_grid = 1
        self.grid = np.linspace(0.0, self.beta, 2)

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

    def _set_psi(self, grid, psi, apsi):
        """Take the nodal Psi and Psi' on the grid: the Psi spline, the
        circle mean kappa_mean = Psi'(beta) / beta of kappa, and the spline
        of Phi(u) = Psi(u) - kappa_mean u^2 / 2.

        kappa(tau) = kappa(beta - tau) gives Psi(beta) = beta Psi'(beta) / 2,
        so Phi is beta-periodic and even, Phi(beta - u) = Phi(u), and
        vanishes at 0 and beta.  A cubic Hermite cell reproduces the
        quadratic exactly, so the Phi spline is the Psi spline minus
        kappa_mean u^2 / 2 up to rounding.
        """
        self.grid, self.n_grid = grid, len(grid) - 1
        self._psi_vals, self._apsi_vals = psi, apsi
        self._psi = UniformHermiteSpline(grid, psi, apsi)
        self.kappa_mean = float(apsi[-1]) / self.beta
        self.phi = UniformHermiteSpline(
            grid, psi - 0.5 * self.kappa_mean * grid ** 2,
            apsi - self.kappa_mean * grid)

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
        """Tabulate A_f and keep K_f's momentum rule; cached per test
        function."""
        if self.src is None:
            raise ValueError("constant test tables carry no source")
        entry = self._entries.get(f)
        if entry is not None:
            return entry
        if self._const is not None:
            zeros, empty = np.zeros(2), np.zeros(0)
            entry = _KernelEntry(self.grid, zeros, zeros, empty, empty)
        else:
            if (f.d, f.s) != (self.d, self.s):
                raise ValueError("test function on a different (d, s) space")
            k, gw = self._rule(f, -0.5, ((thermal_factor, 0.0),
                                         (thermal_antider, self.beta)), "K_f")
            entry = _KernelEntry(*_refine_table(
                self.beta, lambda tau: self._f_tables(tau, k, gw), self.tol),
                dispersion(k, self.s), gw)
        self._entries[f] = entry
        return entry

    def _f_tables(self, tau, k, gw):
        """A_f and K_f at the ascending points tau, symmetric under
        tau -> beta - tau, from the rule (k, gw) of _rule, with one expm1
        per (tau, omega) entry.

        Row m - 1 - i of the m rows sits at beta - tau_i, so its
        E = expm1(-tau w) stands in for row i's e^{-(beta-tau_i) w} - 1.
        The first half of the rows is walked in slabs beside their mirror
        rows; with Et, Eb the E of a row and of its mirror, and weights
        [gw2 | gw2 / w] for gw2 = [Re gw, Im gw] / (1 - e^{-beta w}),

            K  = sum gw2 (2 + Et + Eb)          (the same on both rows)
            A  = sum gw2 / w (-2 Et - Et Eb)    (thermal_antider's exact
                                                 numerator)

        so each slab costs one 4-column matmul per block and one 2-column
        matmul of the product Et Eb, which both rows share."""
        om = dispersion(k, self.s)
        omc = om[:, None]
        gw2 = (np.stack([gw.real, gw.imag], axis=1)
               / -np.expm1(-self.beta * omc))
        w = np.concatenate([gw2, gw2 / omc], axis=1)
        k_const = 2.0 * gw2.sum(axis=0)
        m = len(tau)
        half = (m + 1) // 2
        out = np.empty((2, m, 2))
        slab = max(1, _EVAL_SLAB // len(om))
        # the two E blocks are reused across slabs: fresh ones cost a
        # page-faulting allocation each
        buf_t, buf_b = np.empty((2, slab, len(om)))
        neg_om = -om
        for lo in range(0, half, slab):
            top = np.arange(lo, min(lo + slab, half))
            bot = m - 1 - top
            et = np.multiply(tau[top, None], neg_om, out=buf_t[:len(top)])
            eb = np.multiply(tau[bot, None], neg_om, out=buf_b[:len(top)])
            np.expm1(et, out=et)
            np.expm1(eb, out=eb)
            st, sb = et @ w, eb @ w
            et *= eb
            prod = et @ w[:, 2:]
            out[0, top] = -2.0 * st[:, 2:] - prod
            out[0, bot] = -2.0 * sb[:, 2:] - prod
            out[1, top] = out[1, bot] = k_const + st[:, :2] + sb[:, :2]
        return out[..., 0] + 1j * out[..., 1]

    def kernel_K(self, f, t, s_time):
        """K_{f,t}(s) = <f, T_beta(|t-s|) omega m>, summed over the entry's
        momentum rule."""
        tau = abs(t - s_time)
        if tau > self.beta:
            raise ValueError("|t - s| exceeds beta")
        entry = self.register(f)
        return complex(thermal_factor(tau, entry.om, self.beta) @ entry.gw)

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
        """<f, m> recovered from the exact half-circle identity
        A_f(beta/2) = <f, m> (see _KernelEntry)."""
        return self.register(f).m_value
