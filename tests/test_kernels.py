import math

import numpy as np
import pytest
from scipy.integrate import quad, simpson
from scipy.interpolate import CubicHermiteSpline

from spinboson.kernels import (
    _EVAL_SLAB,
    QuadratureError,
    ThermalKernelTable,
    UniformHermiteSpline,
    thermal_antider,
    thermal_antider2,
    thermal_factor,
)
from spinboson.momentum import SourceProfile, m_pairing, source_pairing

BETA = 1.0


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


# ---------------------------------------------------------------------------
# constant and zero tables
# ---------------------------------------------------------------------------

def test_constant_table_hook():
    tab = ThermalKernelTable.constant(2.0, 2.5)
    assert tab.kappa(0.7) == 2.5
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

def test_equal_time_coth_identity(kernel_table, f_gauss, gauss_src):
    got = kernel_table.kernel_K(f_gauss, 0.3, 0.3)
    ref = source_pairing(f_gauss, gauss_src, -0.5,
                         lambda om: 1.0 / np.tanh(0.5 * BETA * om)).value
    assert got == pytest.approx(ref, rel=1e-8)


def test_full_circle_identity(kernel_table, f_gauss, gauss_src):
    circle = 0.5 * kernel_table.interval_K_integral(
        f_gauss, 0.0, -0.5 * BETA, 0.5 * BETA)
    m_val = m_pairing(f_gauss, gauss_src).value.value
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
    target = source_pairing(f_gauss, gauss_src, -0.5,
                            lambda om: np.exp(-om)).value.real
    gaps = []
    for beta in (4.0, 8.0, 16.0):
        tab = ThermalKernelTable(gauss_src, beta)
        gaps.append(abs(tab.kernel_K(f_gauss, 0.0, 1.0).real - target)
                    / abs(target))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 5e-2


# ---------------------------------------------------------------------------
# cache and failure paths
# ---------------------------------------------------------------------------

def test_cache_round_trip(gauss_src, tmp_path):
    path = tmp_path / "kern.bin"
    tab1 = ThermalKernelTable(gauss_src, BETA, n_grid=256, tol=1e-8,
                              cache_path=str(path))
    assert path.exists()
    tab2 = ThermalKernelTable(gauss_src, BETA, n_grid=256, tol=1e-8,
                              cache_path=str(path))
    u = np.linspace(0.0, BETA, 41)
    assert np.array_equal(tab1.Psi(u), tab2.Psi(u))


def test_cache_hits_after_grid_refinement(gauss_src, tmp_path,
                                          monkeypatch):
    # a 16-cell request refines; the cache is keyed on the request and
    # stores the refined grid, so the second build must not tabulate
    path = tmp_path / "kern.bin"
    tab1 = ThermalKernelTable(gauss_src, BETA, n_grid=16,
                              cache_path=str(path))
    assert tab1.n_grid > 16

    def no_tabulate(self, n_grid):
        raise AssertionError("table rebuilt despite a cache file")

    monkeypatch.setattr(ThermalKernelTable, "_tabulate", no_tabulate)
    tab2 = ThermalKernelTable(gauss_src, BETA, n_grid=16,
                              cache_path=str(path))
    assert tab2.n_grid == tab1.n_grid
    assert np.array_equal(tab2.grid, tab1.grid)
    u = np.linspace(0.0, BETA, 41)
    assert np.array_equal(tab1.Psi(u), tab2.Psi(u))


def test_cache_rejects_mismatch(gauss_src, tmp_path):
    path = tmp_path / "kern.bin"
    tab = ThermalKernelTable(gauss_src, BETA, n_grid=256, tol=1e-8)
    tab.save_cache(str(path))
    other = ThermalKernelTable(gauss_src, BETA, n_grid=512, tol=1e-8)
    assert not other.load_cache(str(path))
    path.write_bytes(b"garbage")
    assert not tab.load_cache(str(path))
    assert not tab.load_cache(str(tmp_path / "missing.bin"))


def test_cache_rejects_truncated_file(gauss_src, tmp_path):
    path = tmp_path / "kern.bin"
    tab = ThermalKernelTable(gauss_src, BETA, n_grid=256, tol=1e-8,
                             cache_path=str(path))
    body = path.read_bytes()
    # cut inside the header, inside the Psi values, and before the end
    for cut in (50, len(body) // 2, len(body) - 8):
        path.write_bytes(body[:cut])
        assert not tab.load_cache(str(path))


def test_unattainable_tolerance_raises(gauss_src):
    with pytest.raises(QuadratureError):
        ThermalKernelTable(gauss_src, BETA, tol=0.0)
