import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, simpson
from scipy.interpolate import CubicHermiteSpline

from spinboson import kernels
from spinboson.kernels import (
    _EVAL_SLAB,
    QuadratureError,
    ThermalKernelTable,
    UniformHermiteSpline,
    thermal_antider,
    thermal_antider2,
    thermal_factor,
)
from spinboson.momentum import (
    RadialProfile,
    SourceProfile,
    TestFunction,
    _bottom_power,
    _tan_rule,
    _theta_edges,
    dispersion,
    m_pairing,
)
from spinboson.state import transported

from conftest import quad_radial

BETA = 1.0


def _gauss_k(k, width=1.0, amplitude=1.0):
    return amplitude * np.exp(-k ** 2 / (2.0 * width ** 2))


def _scipy_cells(x, y, dy):
    c = CubicHermiteSpline(x, y.real, dy.real).c
    if np.iscomplexobj(y) or np.iscomplexobj(dy):
        c = c + 1j * CubicHermiteSpline(x, y.imag, dy.imag).c
    return c


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# closed-form time integrals
# ---------------------------------------------------------------------------

def test_thermal_factor_equal_time_is_coth():
    om = np.array([0.01, 0.5, 3.0, 40.0])
    got = thermal_factor(0.0, om, BETA)
    assert np.allclose(got, 1.0 / np.tanh(0.5 * BETA * om), rtol=1e-14)


def test_full_period_time_integral():
    for om in (1e-4, 0.3, 2.0, 50.0):
        assert thermal_antider(BETA, om, BETA) \
            == pytest.approx(2.0 / om, rel=1e-11)


def test_antiderivatives_against_adaptive_quadrature():
    for om in (1e-3, 0.2, 1.5, 20.0):
        for u in (0.05, 0.37, 0.9):
            ref1, _ = quad(lambda v: thermal_factor(v, om, BETA), 0.0, u)
            assert thermal_antider(u, om, BETA) == pytest.approx(
                ref1, rel=1e-10)
            ref2, _ = quad(lambda v: thermal_antider(v, om, BETA), 0.0, u)
            assert thermal_antider2(u, om, BETA) == pytest.approx(
                ref2, rel=1e-9)


def test_antider2_branch_continuity():
    # the small-x and large-x branches must join smoothly at the switch:
    # the jump across it equals derivative * step to first order
    om = 1.0
    du = 1e-7
    lo = thermal_antider2(0.1 - du, om, BETA)
    hi = thermal_antider2(0.1 + du, om, BETA)
    slope = thermal_antider(0.1, om, BETA)
    assert hi - lo == pytest.approx(2.0 * du * slope, rel=1e-5)


def test_antider_against_mpmath():
    # down to beta w ~ 1e-300, where e^{-(beta-tau) w} - e^{-beta w} rounds
    # to 0 in floating point; the oracle is the textbook closed form, whose
    # differences cancel to about 300 places there, so it carries 330 digits
    mpmath = pytest.importorskip("mpmath")
    omegas = np.logspace(-300.0, 3.0, 304)
    for beta in (1.0, 4.0):
        for frac in (0.0, 0.2, 0.5, 0.975, 1.0):
            tau = frac * beta
            got = thermal_antider(tau, omegas, beta)
            with mpmath.workdps(330):
                b, t = mpmath.mpf(beta), mpmath.mpf(tau)
                ref = np.array([float(
                    (1 - mpmath.exp(-t * w) + mpmath.exp(-(b - t) * w)
                     - mpmath.exp(-b * w)) / (w * (1 - mpmath.exp(-b * w))))
                    for w in map(mpmath.mpf, omegas)])
            assert np.all(np.isfinite(got))
            assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))


def test_antider2_derivative_is_antider():
    # antider2(b) - antider2(a) against a 16-node Gauss-Legendre integral
    # of antider over [a, b]; b - a <= 1/w keeps that rule exact to
    # rounding, and the difference is good to the rounding of its terms
    x, wx = np.polynomial.legendre.leggauss(16)
    for beta in (1.0, 4.0):
        for om in np.logspace(-100.0, 3.0, 27):
            h = min(0.5 * beta, 1.0 / om)
            for a in (0.0, 0.3 * beta, beta - h):
                b = a + h
                v = 0.5 * (a + b) + 0.5 * h * x
                integral = 0.5 * h * (wx @ thermal_antider(v, om, beta))
                lo = thermal_antider2(a, om, beta)
                hi = thermal_antider2(b, om, beta)
                assert abs(hi - lo - integral) \
                    <= 1e-14 * (abs(lo) + abs(hi))


def _expm1mx_both_branches(x):
    x = np.asarray(x, dtype=float)
    xs = np.where(np.abs(x) < 0.1, x, 0.0)
    series = np.zeros_like(xs)
    term = xs * xs / 2.0
    for n in range(2, 10):
        series += term
        term = term * xs / (n + 1.0)
    direct = np.expm1(np.where(np.abs(x) < 700.0, x, 0.0)) - x
    return np.where(np.abs(x) < 0.1, series, direct)


def _antider2_both_branches(u, omega, beta):
    """thermal_antider2 as it was before the small-x branch was masked:
    both branches on every element, one of them discarded by np.where."""
    u = np.asarray(u, dtype=float)
    x = u * omega
    denom = -np.expm1(-beta * omega)
    small = x < 0.1
    xs = np.where(small, x, 0.0)
    num_small = (4.0 * np.sinh(0.5 * xs) ** 2
                 - denom * _expm1mx_both_branches(xs))
    num_large = (x * denom + np.expm1(-x)
                 + np.exp(-(beta - u) * omega) - np.exp(-beta * omega))
    num = np.where(small, num_small, num_large)
    return num / (omega * omega * denom)


@settings(max_examples=60)
@given(beta=st.floats(0.5, 8.0),
       fracs=st.lists(st.just(0.0) | st.floats(1e-6, 1.0), min_size=1,
                      max_size=6),
       exps=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6))
def test_antider2_masked_branch_is_bitwise(beta, fracs, exps):
    # x = u * omega from about 0 to 20, and three omegas that put the
    # largest u just below, on and just above the x = 0.1 switch
    u = beta * np.array(fracs)
    omega = 0.2 / beta * 10.0 ** np.array(exps)
    if u.max() > 0.0:
        w = 0.1 / u.max()
        omega = np.concatenate(
            [omega, [np.nextafter(w, 0.0), w, np.nextafter(w, np.inf)]])
    outer = thermal_antider2(u[:, None], omega, beta)
    paired = np.resize(omega, u.shape)
    flat = thermal_antider2(u, paired, beta)
    assert outer.shape == (len(u), len(omega)) and flat.shape == u.shape
    assert np.all(np.isfinite(outer)) and np.all(np.isfinite(flat))
    for i, ui in enumerate(u):
        for j, wj in enumerate(omega):
            val = thermal_antider2(float(ui), float(wj), beta)
            assert np.ndim(val) == 0
            assert _same_bits(val, outer[i, j])
        val = thermal_antider2(float(ui), float(paired[i]), beta)
        assert _same_bits(val, flat[i])
    # the oracle runs on arrays: numpy's scalar ** 2 calls libm pow, which
    # can round x * x differently from the array square
    assert _same_bits(outer, _antider2_both_branches(u[:, None], omega, beta))
    assert _same_bits(flat, _antider2_both_branches(u, paired, beta))


# ---------------------------------------------------------------------------
# constant and zero tables
# ---------------------------------------------------------------------------

def test_constant_table_hook():
    tab = ThermalKernelTable.constant(2.0, 2.5)
    assert tab.kappa(0.7) == 2.5
    # Psi is the quadratic alone, so Phi vanishes
    assert tab.kappa_mean == 2.5 and tab.phi is None
    u = np.array([0.0, 0.5, 1.3])
    assert np.allclose(tab.Psi(u), 1.25 * u ** 2)
    h = 0.4
    assert tab.double_block(0.0, h, 0.0, h) == pytest.approx(2.5 * h * h)


def test_zero_source_table(zero_table, f_gauss):
    taus = np.linspace(0.0, BETA, 9)
    assert np.all(zero_table.kappa(taus) == 0.0)
    assert np.all(zero_table.Psi(taus) == 0.0)
    assert zero_table.m_value(f_gauss) == 0.0
    assert zero_table.interval_K_integral(f_gauss, 0.0, -0.5, 0.5) == 0.0
    # K_f and A_f vanish exactly
    assert np.all(zero_table.register(f_gauss).A(taus) == 0.0)
    assert zero_table.kernel_K(f_gauss, 0.3, -0.2) == 0.0


# ---------------------------------------------------------------------------
# the self-kernel
# ---------------------------------------------------------------------------

def test_kappa_against_dense_grid(kernel_table):
    # radial integrand 4 pi k e^{-k^2} T_beta(tau, k); smooth at k = 0
    tau = 0.5
    k = np.linspace(1e-9, 40.0, (1 << 15) + 1)
    oracle = simpson(4.0 * math.pi * k * np.exp(-k ** 2)
                     * thermal_factor(tau, k, BETA), x=k)
    assert kernel_table.kappa(tau) == pytest.approx(oracle, rel=1e-7)


def test_kappa_reflection_symmetry(kernel_table):
    taus = np.linspace(0.0, BETA, 33)
    a = kernel_table.kappa(taus)
    b = kernel_table.kappa(BETA - taus)
    assert np.max(np.abs(a - b)) <= 1e-10 * (1.0 + np.max(a))


def test_kappa_positive_and_bounds_checked(kernel_table):
    assert kernel_table.kappa(0.0) > 0.0
    with pytest.raises(ValueError):
        kernel_table.kappa(1.5 * BETA)


@pytest.mark.parametrize("beta", [1.0, 2.0, 4.0, 8.0])
def test_kappa_rule_stays_small(gauss_src, beta):
    # kappa's integrand 4 pi k e^{-k^2} T_beta is analytic at k = 0 (the
    # thermal 2/(beta k) cancels one power of k), so the rule is not mapped
    # and stays within the 512 nodes of the earlier rule
    tab = ThermalKernelTable(gauss_src, beta)
    assert len(tab._k) <= 512
    ref = quad_radial(lambda k: 4.0 * math.pi * k * np.exp(-k ** 2)
                      * thermal_antider2(beta, k, beta)).real
    assert tab.Psi(beta) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("breaks", [(), (1.0,)])
@pytest.mark.parametrize("exponent", [0.0, 2.0, 0.5, -0.4])
def test_theta_edges_are_nested(breaks, exponent):
    q = _bottom_power(exponent)
    # integer exponents are analytic at k = 0 and get no map
    assert (q == 1.0) == (exponent in (0.0, 2.0))
    for level in range(4):
        coarse = _theta_edges(breaks, level)
        fine = _theta_edges(breaks, level + 1)
        assert np.all(np.isin(coarse, fine))
        # every panel is bisected
        assert len(fine) - 1 == 2 * (len(coarse) - 1)
        assert coarse[0] == 0.0 and coarse[-1] == 0.5 * math.pi
        assert np.all(np.diff(coarse) > 0.0)
        assert np.all(np.isin([math.atan(b) for b in breaks], coarse))
        k, w = _tan_rule(coarse, level, q)
        assert k[0] > 0.0 and np.all(np.diff(k) > 0.0) and np.all(w > 0.0)


@settings(max_examples=200)
@given(exponent=st.one_of(st.integers(0, 3).map(float),
                          st.floats(-1.0, 4.0, exclude_min=True,
                                    exclude_max=True)))
def test_bottom_power_makes_the_bottom_panel_polynomial(exponent):
    # theta = theta_1 t^q turns k^e dk into t^{q (1 + e) - 1} dt, a
    # polynomial since q (1 + e) = ceil(1 + e); no map at all where e is a
    # non-negative integer
    q = _bottom_power(exponent)
    if exponent == math.floor(exponent):
        assert q == 1.0
    assert q * (1.0 + exponent) == pytest.approx(math.ceil(1.0 + exponent),
                                                 rel=4e-16)
    # the mapped nodes of the level-2 bottom panel increase inside
    # (0, theta_1); as e -> -1 the smallest of them underflow to 0, where
    # the rule stops (test_kappa_rule_fails_cleanly_near_s_1_5)
    edges = _theta_edges((), 2)
    k, _ = _tan_rule(edges, 2, q)
    theta = np.arctan(k[:4 * 16])
    assert theta[0] >= 0.0 and theta[-1] < edges[4]
    assert np.all(np.diff(theta[theta > 0.0]) > 0.0)
    if q <= 50.0:
        assert theta[0] > 0.0


# ---------------------------------------------------------------------------
# the uniform-grid Hermite evaluator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("complex_values", [False, True])
def test_uniform_spline_matches_cubic_hermite(complex_values):
    rng = np.random.default_rng(13)
    beta, n = 1.7, 64
    h = beta / n
    x = np.linspace(0.0, beta, n + 1)
    y = rng.normal(size=n + 1)
    dy = rng.normal(size=n + 1)
    if complex_values:
        y = y + 1j * rng.normal(size=n + 1)
        dy = dy + 1j * rng.normal(size=n + 1)
    ref_re = CubicHermiteSpline(x, y.real, dy.real)
    ref_im = CubicHermiteSpline(x, y.imag, dy.imag)
    spline = UniformHermiteSpline(x, y, dy)
    assert _same_bits(spline._c, _scipy_cells(x, y, dy))
    # random points over several slabs, every knot, both ends exactly, and
    # extrapolation on either side
    pts = np.concatenate([
        rng.uniform(0.0, beta, 2 * _EVAL_SLAB + 17),
        x,
        [0.0, beta],
        rng.uniform(-3.0 * h, 0.0, 50),
        rng.uniform(beta, beta + 3.0 * h, 50),
    ])
    got = spline(pts)
    want = ref_re(pts) + 1j * ref_im(pts)
    assert np.iscomplexobj(got) == complex_values
    assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))
    # a scalar gives a 0-d result, and array shapes are kept
    for t in (0.0, 0.3 * beta, beta, -h, beta + h):
        val = spline(t)
        ref = ref_re(t) + 1j * ref_im(t)
        assert np.ndim(val) == 0
        assert abs(val - ref) <= 1e-13 * (1.0 + abs(ref))
    assert spline(pts[:12].reshape(3, 4)).shape == (3, 4)


def test_table_spline_cells_match_scipy_exactly(kernel_table, f_gauss):
    tab = kernel_table
    assert _same_bits(tab._psi._c,
                      _scipy_cells(tab.grid, tab._psi_vals, tab._apsi_vals))
    k, gw = _f_rule(tab, f_gauss)
    grid, av, kv = kernels._refine_table(
        tab.beta, lambda tau: tab._f_tables(tau, k, gw), tab.tol)
    entry = tab.register(f_gauss)
    assert _same_bits(entry.A._c, _scipy_cells(grid, av, kv))


# ---------------------------------------------------------------------------
# Psi and double blocks
# ---------------------------------------------------------------------------

def test_psi_shape(kernel_table):
    u = np.linspace(0.0, BETA, 257)
    psi = kernel_table.Psi(u)
    assert psi[0] == 0.0
    assert np.all(np.diff(psi) > 0.0)
    assert np.all(np.diff(psi, 2) >= -1e-12)
    # derivative at 0 vanishes: first increment is O(h^2)
    h = u[1]
    assert psi[1] <= kernel_table.kappa(0.0) * h ** 2


def test_psi_spline_matches_direct_quadrature(kernel_table):
    u = np.array([0.131, 0.478, 0.733, 1.0])
    spline = kernel_table.Psi(u)
    direct = kernel_table.Psi_exact(u)
    assert np.max(np.abs(spline - direct)) <= 1e-8 * (1.0 + direct[-1])


def test_momentum_sum_is_slabbed_for_any_shape(kernel_table, monkeypatch):
    # kappa and Psi_exact walk a 2-D tau in slabs of the flattened array,
    # bit for bit as for the same tau taken 1-D
    from spinboson import kernels
    slab = (1 << 22) // len(kernel_table._om)
    tau = np.linspace(0.0, BETA, 2 * slab + 6).reshape(2, -1)
    sizes = []
    for name in ("thermal_factor", "thermal_antider2"):
        def counted(t, om, beta, fn=getattr(kernels, name)):
            sizes.append(np.size(t))
            return fn(t, om, beta)
        monkeypatch.setattr(kernels, name, counted)
    for method in (kernel_table.kappa, kernel_table.Psi_exact):
        two_d = method(tau)
        assert two_d.shape == tau.shape
        assert _same_bits(two_d.ravel(), method(tau.ravel()))
    assert max(sizes) <= slab and len(sizes) == 12


@pytest.mark.parametrize("beta", [0.5, 1.0, 4.0])
@pytest.mark.parametrize("s", [0.6, 1.0, 1.2, 1.4, 1.44, 1.45, 1.47])
def test_psi_at_beta_closed_form(s, beta):
    # Psi(beta) = beta Omega_d int k^{d-1} |rhohat|^2 omega^-2 dk, which for
    # the d = 3 gaussian source is 2 pi beta A^2 w^{3-2s} Gamma(3/2 - s)
    amp, width = 0.7, 1.3
    src = SourceProfile.gaussian(width=width, amplitude=amp, d=3, s=s)
    table = ThermalKernelTable(src, beta)
    exact = (2.0 * math.pi * beta * amp ** 2 * width ** (3.0 - 2.0 * s)
             * math.gamma(1.5 - s))
    assert table.Psi(beta) == pytest.approx(exact, rel=1e-9)


def _identity_source(kind, s):
    if kind == "gaussian":
        return SourceProfile.gaussian(width=1.0, amplitude=1.0, d=3, s=s)
    return SourceProfile(RadialProfile("power_bump", exponent_at_zero=0.5,
                                       cutoff=2.0), d=3, s=s)


@pytest.mark.parametrize("beta", [0.5, 1.0, 8.0])
@pytest.mark.parametrize("s", [0.6, 1.0, 1.4])
@pytest.mark.parametrize("kind", ["gaussian", "power_bump"])
def test_psi_circle_identity_and_periodic_phi(kind, s, beta):
    # kappa(tau) = kappa(beta - tau) gives Psi(beta) = beta Psi'(beta) / 2,
    # which makes Phi = Psi - kappa_mean u^2 / 2 beta-periodic and even;
    # the log-weights drop every pair with a circle end on that identity
    tab = ThermalKernelTable(_identity_source(kind, s), beta)
    u = np.linspace(0.0, beta, 101)
    psi_beta = tab.Psi(beta)
    assert abs(psi_beta - 0.5 * beta * tab._apsi_vals[-1]) \
        <= 1e-13 * abs(psi_beta)
    assert tab.kappa_mean == tab._apsi_vals[-1] / beta
    scale = tab.tol * (1.0 + psi_beta)
    assert np.max(np.abs(tab.phi(beta - u) - tab.phi(u))) <= scale
    assert abs(tab.phi(0.0)) <= scale and abs(tab.phi(beta)) <= scale
    # the Phi spline is the Psi spline minus the quadratic
    assert np.max(np.abs(tab.phi(u) + 0.5 * tab.kappa_mean * u ** 2
                         - tab.Psi(u))) <= 1e-13 * (1.0 + psi_beta)


def test_double_block_degenerate_and_symmetry(kernel_table):
    assert kernel_table.double_block(0.2, 0.2, -0.1, 0.4) == 0.0
    ab = kernel_table.double_block(0.05, 0.35, -0.45, -0.1)
    ba = kernel_table.double_block(-0.45, -0.1, 0.05, 0.35)
    # same four table values, possibly summed in a different order
    assert ab == pytest.approx(ba, rel=1e-14)


def test_double_block_off_diagonal_oracle(kernel_table):
    # 2-D Simpson over a rectangle away from the |t-s| kink
    a, b, c, d = 0.05, 0.35, 0.45, 0.9
    t = np.linspace(a, b, 257)
    s = np.linspace(c, d, 257)
    vals = kernel_table.kappa(np.abs(t[:, None] - s[None, :]))
    oracle = simpson(simpson(vals, x=s, axis=1), x=t)
    got = kernel_table.double_block(a, b, c, d)
    assert got == pytest.approx(oracle, rel=1e-7)


def test_double_block_diagonal_oracle(kernel_table):
    # diagonal square [0,h]^2 reduces to 2 int_0^h (h - tau) kappa(tau) dtau
    h = 0.3
    tau = np.linspace(0.0, h, 2049)
    oracle = 2.0 * simpson((h - tau) * kernel_table.kappa(tau), x=tau)
    got = kernel_table.double_block(0.0, h, 0.0, h)
    assert got == pytest.approx(oracle, rel=1e-7)


# ---------------------------------------------------------------------------
# per-test-function kernels
# ---------------------------------------------------------------------------

def test_equal_time_coth_identity(kernel_table, f_gauss):
    got = kernel_table.kernel_K(f_gauss, 0.3, 0.3)
    # 4 pi k^2 rho(k) k^{-1/2} coth(beta k / 2) f(k)
    ref = quad_radial(lambda k: 4.0 * math.pi * k ** 1.5 * np.exp(-k ** 2)
                      / np.tanh(0.5 * BETA * k))
    assert got == pytest.approx(ref, rel=1e-8)


def test_full_circle_identity(kernel_table, f_gauss):
    circle = 0.5 * kernel_table.interval_K_integral(
        f_gauss, 0.0, -0.5 * BETA, 0.5 * BETA)
    # <f, m> = 4 pi int k^2 f(k) k^{-3/2} rho(k) dk
    m_val = quad_radial(lambda k: 4.0 * math.pi * k ** 0.5 * np.exp(-k ** 2))
    assert circle.real == pytest.approx(m_val.real, rel=1e-6)
    assert kernel_table.m_value(f_gauss).real \
        == pytest.approx(m_val.real, rel=1e-6)


def test_interval_integral_additivity(kernel_table, f_gauss):
    a, b, c = -0.4, 0.1, 0.45
    whole = kernel_table.interval_K_integral(f_gauss, 0.2, a, c)
    parts = (kernel_table.interval_K_integral(f_gauss, 0.2, a, b)
             + kernel_table.interval_K_integral(f_gauss, 0.2, b, c))
    assert abs(whole - parts) <= 1e-12
    assert kernel_table.interval_K_integral(f_gauss, 0.2, b, b) == 0.0


def test_interval_integral_matches_quadrature(kernel_table, f_gauss):
    a, b, t = -0.3, 0.25, 0.1
    re, _ = quad(lambda u: kernel_table.kernel_K(f_gauss, t, u).real, a, b,
                 points=[t], limit=200)
    got = kernel_table.interval_K_integral(f_gauss, t, a, b)
    assert got.real == pytest.approx(re, rel=1e-8)


def test_low_temperature_kernel_limit(f_gauss, gauss_src):
    # at fixed separation 1, the kernel approaches the e^{-omega} pairing
    # as beta grows; the residual comes from the soft k -> 0 modes and
    # shrinks only like a power of beta (about beta^{-3/2} here), so the
    # beta = 16 gap is a few percent, not exponentially small
    target = quad_radial(lambda k: 4.0 * math.pi * k ** 1.5
                         * np.exp(-k ** 2 - k)).real
    gaps = []
    for beta in (4.0, 8.0, 16.0):
        tab = ThermalKernelTable(gauss_src, beta)
        gaps.append(abs(tab.kernel_K(f_gauss, 0.0, 1.0).real - target)
                    / abs(target))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 5e-2


@pytest.mark.parametrize("mode", ["time", "space"])
@pytest.mark.parametrize("u", [1.0, 8.0, 32.0, 64.0, 128.0])
def test_transported_kernels_match_oracle(kernel_table, mode, u):
    # K(0) and A(beta) = 2 <h, m> of h = f + T_u g; the far rungs need the
    # nested rule (the earlier rule's doubling check accepted a K(0) off by
    # 15% at u = 128)
    f = TestFunction.gaussian(width=1.0, amplitude=1.0)
    g = TestFunction.gaussian(width=1.2, amplitude=0.8)
    h = f + transported(g, mode, u)
    entry = kernel_table.register(h)

    def conj_h(k):
        # the angular integral of conj(hhat) at |k| = k
        gk = _gauss_k(k, 1.2, 0.8)
        if mode == "time":
            gk = gk * np.exp(-1j * u * k)
        else:
            gk = gk * np.sinc(k * u / math.pi)
        return 4.0 * math.pi * (_gauss_k(k) + gk)

    k0 = quad_radial(lambda k: k ** 1.5 * _gauss_k(k) * conj_h(k)
                     / np.tanh(0.5 * BETA * k))
    a_beta = quad_radial(lambda k: 2.0 * k ** 0.5 * _gauss_k(k) * conj_h(k))
    assert abs(kernel_table.kernel_K(h, 0.0, 0.0) - k0) <= 1e-8 * abs(k0)
    assert abs(entry.A(BETA) - a_beta) <= 1e-8 * abs(a_beta)


# s reaches 1.47, close to s = 1.5 where kappa stops being integrable at
# k -> 0; there the momentum rules reach omega ~ 1e-64, and the Psi tables
# stay small only while thermal_antider stays exact at small beta omega (a
# rounded one made the nodal derivatives disagree with the values, and a
# 256-cell grid refined to 32768 cells, about 40 s per table).
# From s = 1.48 on, the kappa rule's mapped nodes take omega^3 below the
# floats and it raises QuadratureError (test_kappa_rule_fails_cleanly).
@settings(max_examples=8)
@given(beta=st.floats(0.5, 4.0), width=st.floats(0.5, 2.0),
       s=st.floats(0.6, 1.47))
def test_table_identities_property(beta, width, s):
    src = SourceProfile.gaussian(width=width, amplitude=1.0, s=s)
    tab = ThermalKernelTable(src, beta)
    taus = np.linspace(0.0, beta, 17)
    kap = tab.kappa(taus)
    assert np.max(np.abs(kap - tab.kappa(beta - taus))) \
        <= 1e-10 * (1.0 + np.max(kap))
    # Psi'' = kappa > 0
    psi = tab.Psi(np.linspace(0.0, beta, 129))
    assert np.all(np.diff(psi, 2) >= -1e-12 * (1.0 + psi[-1]))
    # the full-circle identity A_f(beta) = 2 <f, m>
    f = TestFunction.gaussian(width=1.0, amplitude=1.0, s=s)
    m_val = m_pairing(f, src).value.value
    assert abs(tab.register(f).A(beta) - 2.0 * m_val) \
        <= 1e-8 * abs(m_val)


@pytest.mark.parametrize("beta", [1.0, 4.0])
def test_full_circle_identity_near_the_integrability_edge(beta):
    # at s = 1.4 the rule reaches beta omega ~ 1e-68, where A_f's numerator
    # must keep its tau omega term for A_f(beta) to equal 2 <f, m>
    src = SourceProfile.gaussian(width=1.0, amplitude=1.0, s=1.4)
    tab = ThermalKernelTable(src, beta)
    assert tab.n_grid <= 256
    f = TestFunction.gaussian(width=1.0, amplitude=1.0, s=1.4)
    m_val = m_pairing(f, src).value.value
    assert abs(tab.register(f).A(beta) - 2.0 * m_val) \
        <= 1e-13 * abs(2.0 * m_val)


def _direct_f_tables(tab, tau, k, gw):
    """A_f and K_f at tau by direct momentum sums."""
    om = dispersion(k, tab.s)
    tau = tau[:, None]
    return (thermal_antider(tau, om, tab.beta) @ gw,
            thermal_factor(tau, om, tab.beta) @ gw)


def _f_rule(tab, f):
    return tab._rule(f, -0.5, ((thermal_factor, 0.0),
                               (thermal_antider, tab.beta)), "K_f")


@pytest.mark.parametrize("u, n", [(2.0, 64), (2.0, 65), (128.0, 2048)])
def test_f_tables_match_direct_sums(kernel_table, f_gauss, g_gauss, u, n):
    # an even grid has a centre row that is its own mirror, an odd one has
    # none; the u = 128 rule has 4096 nodes, so 16 rows per slab split the
    # 1025 rows of the half-grid unevenly.  The rows checked include the
    # slab edges, the centre and both ends.
    tab = kernel_table
    k, gw = _f_rule(tab, f_gauss + transported(g_gauss, "time", u))
    slab = _EVAL_SLAB // len(k)
    if u == 128.0:
        assert len(k) == 4096 and (n // 2 + 1) % slab != 0
    grid = np.linspace(0.0, tab.beta, n + 1)
    got = tab._f_tables(grid, k, gw)
    edges = np.array([slab - 1, slab, n // 2 - 1, n // 2, n // 2 + 1])
    rows = np.unique(np.clip(np.concatenate(
        [np.arange(0, n + 1, max(1, n // 64)), edges, n - edges, [n]]), 0, n))
    for g, ref in zip(got, _direct_f_tables(tab, grid[rows], k, gw)):
        assert np.max(np.abs(g[rows] - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("beta", [1.0, 8.0])
def test_tables_meet_tol_at_their_own_midpoints(gauss_src, f_gauss, g_gauss,
                                                beta):
    # the refinement checks the coarser of two levels and keeps the finer;
    # the kept grid must meet tol at its own cell midpoints too, against
    # the direct momentum sums
    tab = ThermalKernelTable(gauss_src, beta)
    mids = 0.5 * (tab.grid[:-1] + tab.grid[1:])
    assert np.max(np.abs(tab.Psi(mids) - tab.Psi_exact(mids))) \
        <= tab.tol * (1.0 + abs(tab.Psi(beta)))
    for h in (f_gauss, f_gauss + transported(g_gauss, "time", 128.0)):
        entry = tab.register(h)
        x = entry.A._x
        mids = 0.5 * (x[:-1] + x[1:])
        a_ref, k_ref = _direct_f_tables(tab, mids, *_f_rule(tab, h))
        assert np.max(np.abs(entry.A(mids) - a_ref)) \
            <= tab.tol * (1.0 + abs(entry.A(beta)))
        # K_f is the momentum sum itself, between the nodes too
        for tau, ref in zip(mids[::5], k_ref[::5]):
            assert abs(tab.kernel_K(h, tau, 0.0) - ref) <= 1e-13 * abs(ref)


# final cells of the Psi grid and of f's A_f grid at the benchmark's source
# and f (gaussians of width 1 and amplitude 1, d = 3, s = 1), as measured
# when the nested refinement replaced the fixed 2048-cell grid
_GRID_CELLS = {1.0: (128, 128), 8.0: (512, 1024)}


@pytest.mark.parametrize("beta", [1.0, 8.0])
def test_table_grids_stay_at_their_measured_sizes(gauss_src, f_gauss,
                                                  g_gauss, beta, monkeypatch):
    tab = ThermalKernelTable(gauss_src, beta)
    psi_cells, a_cells = _GRID_CELLS[beta]
    assert psi_cells / 2 <= tab.n_grid <= 2 * psi_cells
    assert a_cells / 2 <= tab.register(f_gauss).A._n <= 2 * a_cells
    # all levels of register(f + T_128 g) together evaluate each node of
    # the kept grid once, and no more (tau, omega) entries than one pass
    # over the earlier 2049-row grid
    entries = []
    f_tables = ThermalKernelTable._f_tables

    def counted(self, tau, k, gw):
        entries.append(len(tau) * len(k))
        return f_tables(self, tau, k, gw)

    monkeypatch.setattr(ThermalKernelTable, "_f_tables", counted)
    entry = tab.register(f_gauss + transported(g_gauss, "time", 128.0))
    assert len(entries) > 1
    assert sum(entries) == (entry.A._n + 1) * len(entry.gw)
    assert sum(entries) <= 2049 * len(entry.gw)


def test_register_memory_stays_slabbed(gauss_src, f_gauss, g_gauss):
    # the u = 128 rule has 4096 nodes: one unslabbed (2049, 4096) float
    # block alone would be 67 MB
    tab = ThermalKernelTable(gauss_src, BETA, tol=1e-9)
    h = f_gauss + transported(g_gauss, "time", 128.0)
    tracemalloc.start()
    try:
        tab.register(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# ---------------------------------------------------------------------------
# failure paths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", [1.48, 1.49])
def test_kappa_rule_fails_cleanly_near_s_1_5(s):
    # kappa's bottom panel is mapped by q = 25 and 50 here, and its nodes
    # reach omega ~ 1e-108 and 1e-171, where thermal_antider2's
    # omega^2 (1 - e^{-beta omega}) leaves the floats: QuadratureError, and
    # no floating-point warning before it
    src = SourceProfile.gaussian(width=1.3, amplitude=0.7, s=s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="float range"):
            ThermalKernelTable(src, 1.0)


def test_unattainable_tolerance_raises(gauss_src):
    with pytest.raises(QuadratureError):
        ThermalKernelTable(gauss_src, BETA, tol=0.0)
