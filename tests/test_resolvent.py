import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson
from scipy.special import wofz as scipy_wofz

from spinboson.momentum import (
    RadialProfile,
    SourceProfile,
    TestFunction,
    gauss_kronrod_panels,
)
from spinboson.kernels import ThermalKernelTable
from spinboson.loops import SpinMeasureParams
from spinboson.ensemble import DEFAULT_CHUNK, TiltedEnsemble, build_ensemble
from spinboson.state import StateConfig
from spinboson.resolvent import (
    LAPLACE_RTOL,
    bec_decay_scan,
    ideal_report,
    laplace_gauss,
    resolvent_onepoint,
    resolvent_twopoint,
    wofz,
)

from conftest import loop_rows

BETA = 1.0


@pytest.fixture(scope="module")
def small_ensemble(kernel_table):
    return build_ensemble(SpinMeasureParams(BETA, 1.0), kernel_table, 2000,
                          seed=21)


def test_zero_direction_closed_form(state_cfg, f_gauss):
    rv = resolvent_onepoint(state_cfg, 2.0, f_gauss.scaled(0.0))
    assert rv.value == pytest.approx(-0.5j, abs=rv.error + 1e-10)
    rv_neg = resolvent_onepoint(state_cfg, -2.0, f_gauss.scaled(0.0))
    assert rv_neg.value == pytest.approx(0.5j, abs=rv_neg.error + 1e-10)


def test_norm_bound(state_cfg, f_gauss, g_gauss):
    for lam, f in ((1.0, f_gauss), (-0.5, g_gauss),
                   (3.0, f_gauss + g_gauss)):
        rv = resolvent_onepoint(state_cfg, lam, f)
        assert abs(rv.value) <= 1.0 / abs(lam) + rv.error + 1e-12


def test_conjugation_symmetry(state_cfg, f_gauss):
    plus = resolvent_onepoint(state_cfg, 1.5, f_gauss)
    minus = resolvent_onepoint(state_cfg, -1.5, f_gauss)
    assert minus.value == pytest.approx(np.conj(plus.value), rel=1e-10)


@pytest.mark.parametrize("n0", [0.0, 1e-3])
@pytest.mark.parametrize("lam", [1.0, -0.5])
def test_onepoint_interacting_vs_simpson(gauss_src, kernel_table,
                                         small_ensemble, f_gauss, n0, lam):
    # Z != 0 on every loop: the per-loop closed form against a dense
    # Simpson rule over the ensemble's own characteristic function
    cfg = StateConfig(beta=BETA, eps=1.0, d=3, s=1.0, n0=n0,
                      source=gauss_src, kernels=kernel_table,
                      ensemble=small_ensemble)
    rv = resolvent_onepoint(cfg, lam, f_gauss)
    sgn = math.copysign(1.0, lam)
    q = cfg.q_bec(f_gauss)
    # e^{-|lam| u - q u^2 / 4} < 1e-16 beyond umax
    log_tol = 37.0
    umax = 2.0 * log_tol / (abs(lam) + math.sqrt(lam * lam + q * log_tol))
    u = np.linspace(0.0, umax, (1 << 13) + 1)
    char, _ = small_ensemble.char_function(f_gauss, sgn * u)
    body = np.exp(-abs(lam) * u - 0.25 * q * u * u) * char
    oracle = -1j * sgn * simpson(body, x=u)
    assert rv.value == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("lam", [1.0, -1.5])
def test_onepoint_complex_z_vs_simpson(gauss_src, kernel_table,
                                       small_ensemble, f_gauss, lam):
    # a time-evolved direction has complex Z, whose flipped loop needs its
    # own Faddeeva value: the one-point value is still the Laplace
    # transform of the characteristic function, which reads cos(s Z)
    f = f_gauss.scaled(0.2).time_evolved(0.7)
    z = small_ensemble.z_values(f)
    growth = np.abs(z.imag).max()
    assert 0.1 < growth < 0.8
    cfg = StateConfig(beta=BETA, eps=1.0, d=3, s=1.0, n0=1e-3,
                      source=gauss_src, kernels=kernel_table,
                      ensemble=small_ensemble)
    rv = resolvent_onepoint(cfg, lam, f)
    sgn = math.copysign(1.0, lam)
    q = cfg.q_bec(f)
    # |cos(u Z)| <= cosh(u |Im Z|): the body is below 1e-16 beyond umax
    u = np.linspace(0.0, 37.0 / (abs(lam) - growth), (1 << 14) + 1)
    char, _ = small_ensemble.char_function(f, sgn * u)
    body = np.exp(-abs(lam) * u - 0.25 * q * u * u) * char
    oracle = -1j * sgn * simpson(body, x=u)
    assert rv.value == pytest.approx(oracle, rel=1e-8)


def test_onepoint_free_gas_vs_simpson(free_cfg, f_gauss):
    rv = resolvent_onepoint(free_cfg, 1.0, f_gauss)
    q = free_cfg.q_bec(f_gauss)
    u = np.linspace(0.0, 40.0 / math.sqrt(q), 1 << 14 | 1)
    oracle = -1j * simpson(np.exp(-u - 0.25 * q * u * u), x=u)
    assert rv.value == pytest.approx(oracle, rel=1e-7)


def test_twopoint_zero_directions(state_cfg, f_gauss):
    z = f_gauss.scaled(0.0)
    rv = resolvent_twopoint(state_cfg, 1.0, z, 2.0, z)
    assert rv.value == pytest.approx(-0.5 + 0.0j, abs=rv.error + 1e-8)


@pytest.mark.parametrize("lam, mu", [(1.0, 2.0), (-0.5, -1.5)])
def test_twopoint_zero_second_direction(state_cfg, f_gauss, lam, mu):
    # R(mu, 0) = -i/mu, so the pair reduces to a scaled one-point value and
    # carries at least its Monte Carlo error
    one = resolvent_onepoint(state_cfg, lam, f_gauss)
    two = resolvent_twopoint(state_cfg, lam, f_gauss, mu,
                             f_gauss.scaled(0.0))
    expect = -1j / mu * one.value
    assert two.value == pytest.approx(expect,
                                      abs=two.error + one.error / abs(mu))
    assert two.error >= 0.5 * one.error / abs(mu)


def test_twopoint_norm_bound(state_cfg, f_gauss, g_gauss):
    rv = resolvent_twopoint(state_cfg, 1.0, f_gauss, 2.0, g_gauss)
    assert abs(rv.value) <= 0.5 + rv.error + 1e-12


def test_twopoint_free_gas_vs_simpson(free_cfg, f_gauss):
    rv = resolvent_twopoint(free_cfg, 1.0, f_gauss, 2.0, f_gauss)
    q = free_cfg.q_bec(f_gauss)
    n = 1 << 10 | 1
    u = np.linspace(0.0, 30.0 / math.sqrt(q), n)
    # sigma(f, f) = 0 and the test function is real, so the integrand is
    # the plain Gaussian body with a cross pairing equal to q
    body = np.exp(-0.25 * (q * u[:, None] ** 2 + q * u[None, :] ** 2
                           + 2.0 * q * np.outer(u, u))
                  - u[:, None] - 2.0 * u[None, :])
    oracle = -simpson(simpson(body, x=u, axis=1), x=u)
    assert rv.value == pytest.approx(oracle, rel=1e-6)


@settings(max_examples=20, deadline=None)
@given(lam=st.floats(0.1, 5.0), amp=st.floats(-2.0, 2.0))
def test_onepoint_conjugation_property(small_ensemble, gauss_src,
                                       kernel_table, lam, amp):
    cfg = StateConfig(beta=BETA, eps=1.0, d=3, s=1.0, n0=1e-3,
                      source=gauss_src, kernels=kernel_table,
                      ensemble=small_ensemble)
    f = TestFunction.gaussian(width=1.0, amplitude=amp)
    plus = resolvent_onepoint(cfg, lam, f)
    minus = resolvent_onepoint(cfg, -lam, f)
    assert minus.value == pytest.approx(np.conj(plus.value), rel=1e-12,
                                        abs=1e-15)
    assert minus.error == pytest.approx(plus.error, rel=1e-12)


def test_laplace_gauss_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(5)
    cases = [(complex(rng.uniform(0.01, 50.0), rng.uniform(-50.0, 50.0)),
              float(10.0 ** rng.uniform(-9.0, 3.0))) for _ in range(200)]
    cases += [(complex(rng.uniform(0.01, 50.0), rng.uniform(-50.0, 50.0)), b)
              for b in (0.0, 1e-9) for _ in range(20)]
    # Re a < 0 (lower half-plane of w), reached by the two-point t-integral
    for b in 10.0 ** rng.uniform(-1.0, 2.0, 40):
        cases.append((complex(-rng.uniform(0.0, 5.0) * 2.0 * math.sqrt(b),
                              rng.uniform(-20.0, 20.0)), float(b)))
    for a, b in cases:
        with mpmath.workdps(40):
            ma = mpmath.mpc(a.real, a.imag)
            if b == 0.0:
                exact = complex(1 / ma)
            else:
                r = 2 * mpmath.sqrt(b)
                exact = complex(mpmath.sqrt(mpmath.pi) / r
                                * mpmath.exp((ma / r) ** 2)
                                * mpmath.erfc(ma / r))
        got = complex(laplace_gauss(a, b))
        assert abs(got - exact) <= LAPLACE_RTOL * abs(exact)


def test_wofz_against_scipy():
    # scipy.special.wofz is the Faddeeva oracle that needs no mpmath
    radius = np.logspace(-3.0, 6.0, 400)
    angle = np.linspace(0.0, math.pi, 91)
    upper = (radius[:, None] * np.exp(1j * angle)).ravel()
    x = np.logspace(-3.0, 2.0, 400)
    real = np.concatenate((-x, x)) + 0j
    near_real = (real[:, None]
                 + 1j * np.array([-1e-8, -1e-12, 1e-12, 1e-8])).ravel()
    for z in (upper, real, near_real):
        exact = scipy_wofz(z)
        assert np.all(np.abs(wofz(z) - exact) <= LAPLACE_RTOL * np.abs(exact))

    # Im z in [-5, 0), where a(u) of the two-point t-integral goes when
    # mu < 0: both evaluate 2 exp(-z^2) - w(-z), whose terms cancel near
    # the zeros of w, so the error is measured against their magnitudes
    lower = (np.linspace(-30.0, 30.0, 241)[:, None]
             - 1j * np.linspace(5.0, 0.01, 120)).ravel()
    exact = scipy_wofz(lower)
    scale = 2.0 * np.abs(np.exp(-lower * lower)) + np.abs(scipy_wofz(-lower))
    assert np.all(np.abs(wofz(lower) - exact) <= LAPLACE_RTOL * scale)

    assert wofz(0.0) == pytest.approx(1.0, rel=LAPLACE_RTOL, abs=0.0)
    for z in (upper, near_real, lower):
        np.testing.assert_allclose(wofz(-np.conj(z)), np.conj(wofz(z)),
                                   rtol=1e-15, atol=0.0)
    # any shape in, the same shape out, evaluated in several slabs
    grid = lower[:20000].reshape(100, 200)
    assert wofz(grid).shape == grid.shape
    assert np.array_equal(wofz(grid).ravel(), wofz(lower[:20000]))


def test_scaling_identity(state_cfg, f_gauss):
    base = resolvent_onepoint(state_cfg, 1.0, f_gauss)
    nu = 2.0
    other = resolvent_onepoint(state_cfg, nu, f_gauss.scaled(nu))
    assert nu * other.value == pytest.approx(
        base.value, abs=nu * other.error + base.error + 1e-9)


def test_lambda_zero_rejected(state_cfg, f_gauss):
    with pytest.raises(ValueError):
        resolvent_onepoint(state_cfg, 0.0, f_gauss)
    with pytest.raises(ValueError):
        resolvent_twopoint(state_cfg, 0.0, f_gauss, 1.0, f_gauss)


# ---------------------------------------------------------------------------
# condensate-direction decay
# ---------------------------------------------------------------------------

def test_decay_scan_condensate_direction(free_bec_cfg, f_gauss):
    report = bec_decay_scan(free_bec_cfg, 1.0, f_gauss, (1.0, 2.0, 4.0),
                            threshold=0.5)
    assert report.asserted
    assert report.monotone
    assert report.final_ratio < 0.5
    assert report.q_bec > 1.0


def test_decay_scan_guard_path(free_bec_cfg, f_gauss):
    # a nearly invisible direction: the scan reports but asserts nothing
    report = bec_decay_scan(free_bec_cfg, 1.0, f_gauss.scaled(1e-4),
                            (1.0, 2.0))
    assert not report.asserted
    assert report.q_bec <= 1e-6


def test_decay_scan_reports_failed_verdict(free_bec_cfg, f_gauss):
    # a threshold no scan can meet gives a failed verdict, not an exception
    report = bec_decay_scan(free_bec_cfg, 1.0, f_gauss, (1.0, 2.0, 4.0),
                            threshold=1e-9)
    assert report.asserted and report.monotone
    assert not report.passed


def test_decay_scan_rejects_bad_grid(free_bec_cfg, f_gauss):
    with pytest.raises(ValueError):
        bec_decay_scan(free_bec_cfg, 1.0, f_gauss, (2.0, 1.0))


# ---------------------------------------------------------------------------
# ideal classification report
# ---------------------------------------------------------------------------

def test_ideal_report_all_physical(free_cfg, f_gauss, g_gauss):
    rep = ideal_report(free_cfg, [("f", f_gauss), ("g", g_gauss)])
    assert rep.x_bec_empty
    assert not rep.jir_generators and not rep.outside
    for row in rep.rows:
        assert row.classification == "physical"
        assert row.witness_modulus > row.witness_error > 0.0


def test_ideal_report_condensate(free_bec_cfg, f_gauss):
    rep = ideal_report(free_bec_cfg, [("f", f_gauss)])
    assert not rep.x_bec_empty
    row = rep.rows[0]
    assert row.classification == "bec_generator"
    assert row.decay_summary.startswith("decay ratio")


def test_ideal_report_singular_direction(gauss_src):
    sing_src = SourceProfile(
        RadialProfile("power_bump", exponent_at_zero=-0.4, cutoff=1.0),
        d=3, s=1.0)
    kern = ThermalKernelTable(sing_src, BETA, tol=1e-7)
    ens = build_ensemble(SpinMeasureParams(BETA, 1.0), kern, 1000, seed=0)
    cfg = StateConfig(beta=BETA, eps=1.0, d=3, s=1.0, n0=0.0,
                      source=sing_src, kernels=kern, ensemble=ens)
    bad = TestFunction.power_bump(exponent=-1.2, cutoff=1.0)
    good = TestFunction.gaussian(width=1.0, amplitude=1.0)
    rep = ideal_report(cfg, [("bad", bad), ("good", good)])
    assert rep.jir_generators == ["bad"]
    assert rep.rows[0].classification == "infrared_singular"
    assert rep.rows[1].classification == "physical"


def _n_rows(ens):
    """The rows: the two constant paths, the c = 2 nodes of both levels,
    each with X_0 = +1 and -1, and the loops with c >= 4 jumps."""
    return 2 + 2 * sum(ens.c2_nodes) + int(np.sum(ens.counts >= 4))


def _counted(res_mod, monkeypatch):
    """Faddeeva points per call, and the panels of each two-point level."""
    points, panels = [], []

    def counted_weideman(x, weideman=res_mod._weideman):
        points.append(np.size(x))
        return weideman(x)

    def counted_panels(edges, rule=res_mod.gauss_kronrod_panels):
        panels.append(len(edges) - 1)
        return rule(edges)

    monkeypatch.setattr(res_mod, "_weideman", counted_weideman)
    monkeypatch.setattr(res_mod, "gauss_kronrod_panels", counted_panels)
    return points, panels


def _truncations(res_mod, monkeypatch):
    """The (umax, tail) of each two-point call."""
    cuts = []

    def recorded(*args, real=res_mod._truncation_point):
        cuts.append(real(*args))
        return cuts[-1]

    monkeypatch.setattr(res_mod, "_truncation_point", recorded)
    return cuts


def _on_panels(res_mod, monkeypatch, panels, stretch=1.0):
    """Two-point levels on `panels` equal panels of [0, stretch * umax]."""
    monkeypatch.setattr(
        res_mod, "gauss_kronrod_panels",
        lambda edges: gauss_kronrod_panels(
            np.linspace(0.0, stretch * edges[-1], panels + 1)))


def test_resolvents_evaluate_wofz_once_per_distinct_loop(state_cfg, f_gauss,
                                                         g_gauss,
                                                         monkeypatch):
    # structural guard: the Faddeeva function runs on the two constant paths
    # and the loops with jumps, not on every loop, and the two-point
    # product evaluates it once per Kronrod node: the Gauss sum it is
    # checked against reuses 12 of every 25 nodes.  A same-sign pair, whose
    # cross term damps it, passes on one panel; an opposite-sign pair
    # starts on two
    from spinboson import resolvent as res_mod
    points, panels = _counted(res_mod, monkeypatch)
    ens = state_cfg.ensemble
    rows = _n_rows(ens)
    assert rows < ens.n
    resolvent_onepoint(state_cfg, 0.7, f_gauss)
    assert sum(points) == rows
    points.clear()
    resolvent_twopoint(state_cfg, 0.7, f_gauss, 1.3, g_gauss)
    assert panels == [1]
    assert sum(points) == rows * 25
    points.clear()
    panels.clear()
    resolvent_twopoint(state_cfg, 0.9, f_gauss, -1.7, g_gauss)
    assert panels == [2]
    assert sum(points) == rows * 25 * 2


def test_twopoint_doubling_stays_within_the_first_levels_budget(
        state_cfg, f_gauss, g_gauss, monkeypatch):
    # a tolerance no first level meets forces the panels to double from
    # one: each level evaluates the Faddeeva function once per (Kronrod
    # node, row).  The first level agrees with a 16-panel value on its own
    # [0, umax] within its Kronrod-Gauss gap (they differ by about 2e-17
    # here), and the refined value, whose tolerance also moves the
    # truncation point out, differs from that one by the truncated part,
    # which the first level's tail bounds
    from spinboson import resolvent as res_mod
    ens = state_cfg.ensemble
    lam, mu = 0.7, 1.3
    tol = res_mod.TWOPOINT_TOL
    seen = []

    def expectation(values, real=ens.expectation):
        seen.append(real(values))
        return seen[-1]

    # the first level's K25 and GL12 estimates, then the returned value's
    monkeypatch.setattr(ens, "expectation", expectation)
    cuts = _truncations(res_mod, monkeypatch)
    first = resolvent_twopoint(state_cfg, lam, f_gauss, mu, g_gauss)
    (kron, _), (gauss, _) = seen[:2]
    assert len(seen) == 4 and kron == first.value
    delta = abs(kron - gauss)
    assert 0 < delta <= tol / (lam * mu)
    _, tail = cuts[0]

    points, panels = _counted(res_mod, monkeypatch)
    monkeypatch.setattr(res_mod, "TWOPOINT_TOL", 1e-14)
    forced = resolvent_twopoint(state_cfg, lam, f_gauss, mu, g_gauss)
    assert len(panels) >= 2
    assert panels == [1 << i for i in range(len(panels))]
    assert sum(points) == _n_rows(ens) * 25 * sum(panels)

    monkeypatch.setattr(res_mod, "TWOPOINT_TOL", tol)
    _on_panels(res_mod, monkeypatch, 16)
    many = resolvent_twopoint(state_cfg, lam, f_gauss, mu, g_gauss)
    assert cuts[2] == cuts[0]
    assert abs(many.value - first.value) <= delta
    assert abs(forced.value - many.value) <= tail


@pytest.mark.parametrize("lam, mu, tf, tg", [(1.0, 2.0, 0.0, 0.0),
                                            (0.9, -1.7, 0.0, 0.0),
                                            (-1.0, 0.5, 0.0, 0.0),
                                            (1.0, 2.0, 1.0, 0.0),
                                            (1.0, 0.5, 0.0, 1.0),
                                            (1.0, -0.5, 0.0, 1.0)])
def test_twopoint_tail_bounds_the_truncated_remainder(
        gauss_src, kernel_table, small_ensemble, f_gauss, g_gauss, lam, mu,
        tf, tg, monkeypatch):
    # the part of the u-integral beyond umax, read as 64 panels on
    # [0, 4 umax] less 16 panels on [0, umax], is at most the tail bound
    # that resolvent_twopoint adds to its error.  A time-evolved f or g has
    # complex Z, and |e^{-i s Z}| grows with u or t faster than
    # e^{-|lam| u} or e^{-|mu| t} decays: a bound that took it as 1 was 23
    # times too small at (1, 2) with f evolved
    from spinboson import resolvent as res_mod
    f, g = f_gauss.time_evolved(tf), g_gauss.time_evolved(tg)
    for h, rate, phase in ((f, lam, tf), (g, mu, tg)):
        if phase:
            growth = np.abs(small_ensemble.z_values(h).imag).max()
            assert growth > 4 * abs(rate)
    cfg = StateConfig(beta=BETA, eps=1.0, d=3, s=1.0, n0=1e-3,
                      source=gauss_src, kernels=kernel_table,
                      ensemble=small_ensemble)
    cuts = _truncations(res_mod, monkeypatch)
    values = []
    for panels, stretch in ((16, 1.0), (64, 4.0)):
        _on_panels(res_mod, monkeypatch, panels, stretch)
        values.append(resolvent_twopoint(cfg, lam, f, mu, g).value)
    assert cuts[1] == cuts[0]
    _, tail = cuts[0]
    assert abs(values[1] - values[0]) <= tail


@pytest.mark.parametrize("lam, mu", [(1.0, 2.0), (0.9, -1.7), (-1.0, 0.5)])
def test_twopoint_adjoint_identity(gauss_src, kernel_table, ensemble,
                                   f_gauss, g_gauss, lam, mu):
    # (R(lam, f) R(mu, g))* = R(-mu, g) R(-lam, f): the same loops enter
    # both sides, so they agree within the two quadrature budgets (gap plus
    # tail, each at most (1 + e^-2) TWOPOINT_TOL / (|lam| |mu|)) and the
    # evaluation error, a bound below the Monte Carlo error
    from spinboson.resolvent import TWOPOINT_TOL
    cfg = StateConfig(beta=BETA, eps=1.0, d=3, s=1.0, n0=1e-3,
                      source=gauss_src, kernels=kernel_table,
                      ensemble=ensemble)
    ab = resolvent_twopoint(cfg, lam, f_gauss, mu, g_gauss)
    ba = resolvent_twopoint(cfg, -mu, g_gauss, -lam, f_gauss)
    budget = 2.0 * (1.0 + math.exp(-2.0)) * TWOPOINT_TOL / abs(lam * mu)
    bound = budget + LAPLACE_RTOL * (abs(ab.value) + abs(ba.value))
    assert bound < min(ab.error, ba.error)
    assert abs(np.conj(ab.value) - ba.value) <= bound


class _AllLoops:
    """An ensemble seen loop by loop: Z on the two constant paths and the
    c = 2 node rows and then on all n loops, each loop taking its row (a
    loop with two jumps, which has none, that of the first atom), and every
    estimate read off the rows."""

    def __init__(self, ens):
        self._ens = ens
        first = 2 + 2 * sum(ens.c2_nodes)
        self._rows = np.concatenate((np.arange(first),
                                     np.maximum(loop_rows(ens), 0)))
        self._back = np.concatenate((np.arange(first),
                                     first + np.flatnonzero(ens.counts >= 4)))

    def __getattr__(self, name):
        return getattr(self._ens, name)

    def z_values(self, f):
        return self._ens.z_values(f)[self._rows]

    def expectation(self, values):
        return self._ens.expectation(np.asarray(values)[self._back])


@pytest.mark.filterwarnings("ignore:weight degeneracy")
@pytest.mark.parametrize("kind", ["sampled", "frozen", "n1"])
def test_resolvents_match_the_all_loop_evaluation(gauss_src, kernel_table,
                                                  f_gauss, g_gauss, kind):
    # the per-row sums do not depend on how many rows there are: the
    # closed forms over every loop give the same values and errors (a
    # sample of constant +1 loops, as a frozen spin draws, has the two
    # atom rows only); at 20000 loops the two-point u-sum takes more than
    # one slab
    n = 1 if kind == "n1" else 20000
    if kind == "frozen":
        ens = TiltedEnsemble(SpinMeasureParams(BETA, 1.0), kernel_table,
                             np.ones(n, dtype=np.int8),
                             np.zeros(n, dtype=np.int64), np.empty(0), 5,
                             DEFAULT_CHUNK)
    else:
        ens = build_ensemble(SpinMeasureParams(BETA, 1.0), kernel_table, n,
                             seed=5)

    def values(ensemble):
        cfg = StateConfig(beta=BETA, eps=1.0, d=3, s=1.0, n0=1e-3,
                          source=gauss_src, kernels=kernel_table,
                          ensemble=ensemble)
        return [resolvent_onepoint(cfg, -0.6, f_gauss),
                resolvent_twopoint(cfg, 0.9, f_gauss, -1.7, g_gauss)]

    for a, b in zip(values(ens), values(_AllLoops(ens))):
        assert a.value == b.value and a.error == b.error


def test_scaled_faddeeva_is_the_factor_times_w():
    # e^{log s} w(z): the product of the two where both are finite, to
    # 1e-14 relative, on both half-planes; where exp(-z^2) overflows and
    # the factor underflows the product is still finite
    from spinboson.resolvent import wofz_scaled
    rng = np.random.default_rng(8)
    z = rng.uniform(-6.0, 6.0, 4000) + 1j * rng.uniform(-5.0, 5.0, 4000)
    log_s = rng.uniform(-30.0, 5.0, 4000)
    got = wofz_scaled(z, log_s)
    want = np.exp(log_s) * wofz(z)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
    far = np.array([3.0 - 29.0j, -1.0 - 30.0j, 0.5 - 27.0j])
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.all(np.isfinite(np.exp(-850.0) * wofz(far)))
    assert np.all(np.isfinite(wofz_scaled(far, -850.0)))


def _recorded_errors(ens, monkeypatch):
    """The SE (with the c = 2 gap) of every expectation taken on ens."""
    seen = []

    def expectation(values, real=ens.expectation):
        seen.append(real(values))
        return seen[-1]

    monkeypatch.setattr(ens, "expectation", expectation)
    return seen


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lam, mu, g_scale", [(1.0, -1.0, 1.0),
                                              (0.7, -1.3, 1.0),
                                              (1.0, -1.0, 1.5)])
def test_twopoint_is_finite_for_opposite_parallel_pairs(
        gauss_src, kernel_table, small_ensemble, f_gauss, lam, mu, g_scale):
    # c = -q_ff makes the Schur complement of the two-point Gaussian 0 for
    # g = f, and the Faddeeva reflection meets the node factor in one
    # exponent: value and error are finite, with no RuntimeWarning
    cfg = StateConfig(beta=BETA, eps=1.0, d=3, s=1.0, n0=1e-3,
                      source=gauss_src, kernels=kernel_table,
                      ensemble=small_ensemble)
    rv = resolvent_twopoint(cfg, lam, f_gauss, mu, f_gauss.scaled(g_scale))
    assert np.isfinite(rv.value) and np.isfinite(rv.error)
    assert abs(rv.value) <= 1.0 / abs(lam * mu) + rv.error


@pytest.mark.parametrize("lam, mu", [(1.0, -1.0), (0.7, -1.3), (1.0, 2.0)])
def test_twopoint_meets_the_resolvent_identity(gauss_src, kernel_table,
                                               small_ensemble, f_gauss, lam,
                                               mu, monkeypatch):
    # R(lam, f) R(mu, f) = (R(lam, f) - R(mu, f)) / (i (mu - lam)) holds
    # loop by loop, so on the same sample the two sides differ only by the
    # quadrature and evaluation errors: delta + tail of the two-point
    # value and the evaluation errors of all three, each error less its
    # Monte Carlo part.  The one-point values are imaginary, so the
    # identity's side is real and the two-point real part is compared
    cfg = StateConfig(beta=BETA, eps=1.0, d=3, s=1.0, n0=1e-3,
                      source=gauss_src, kernels=kernel_table,
                      ensemble=small_ensemble)
    seen = _recorded_errors(small_ensemble, monkeypatch)
    two = resolvent_twopoint(cfg, lam, f_gauss, mu, f_gauss)
    budget = two.error - seen[-2][1]
    rhs = 0.0
    for nu, sign in ((lam, 1.0), (mu, -1.0)):
        one = resolvent_onepoint(cfg, nu, f_gauss)
        assert one.value.real == 0.0
        rhs += sign * one.value
        budget += (one.error - seen[-2][1]) / abs(mu - lam)
    rhs /= 1j * (mu - lam)
    assert 0 < budget < two.error
    assert abs(two.value.real - rhs.real) <= budget


@pytest.fixture(scope="module")
def property_state(gauss_src):
    """The state at beta on a 600-loop ensemble, built once per beta."""
    @functools.cache
    def state(beta):
        table = ThermalKernelTable(gauss_src, beta)
        ens = build_ensemble(SpinMeasureParams(beta, 1.0), table, 600,
                             seed=31)
        return StateConfig(beta=beta, eps=1.0, d=3, s=1.0, n0=1e-3,
                           source=gauss_src, kernels=table, ensemble=ens)
    return state


@settings(max_examples=12, deadline=None)
@given(beta=st.sampled_from([0.5, 1.0, 2.0]),
       lam=st.floats(0.2, 3.0).flatmap(
           lambda x: st.sampled_from([x, -x])),
       ratio=st.one_of(st.just(-1.0), st.floats(-3.0, 3.0).filter(
           lambda x: abs(x) > 0.1 and abs(x - 1.0) > 0.05)),
       width_f=st.floats(0.5, 2.0),
       width_g=st.one_of(st.none(), st.floats(0.5, 2.0)))
def test_twopoint_property(property_state, beta, lam, ratio, width_f,
                           width_g):
    # over (lambda, mu = ratio lambda), mu = -lambda included, the widths
    # and beta: the two-point value is finite, within the norm bound, and
    # for g = f meets the resolvent identity on its real part within the
    # errors less their Monte Carlo parts (as in the identity test above)
    cfg = property_state(beta)
    mu = ratio * lam
    f = TestFunction.gaussian(width=width_f, amplitude=1.0)
    g = f if width_g is None else TestFunction.gaussian(width=width_g,
                                                        amplitude=0.8)
    with pytest.MonkeyPatch.context() as mp:
        seen = _recorded_errors(cfg.ensemble, mp)
        two = resolvent_twopoint(cfg, lam, f, mu, g)
        assert np.isfinite(two.value) and np.isfinite(two.error)
        assert abs(two.value) <= 1.0 / abs(lam * mu) + two.error
        if g is not f:
            return
        budget = two.error - seen[-2][1]
        rhs = 0.0
        for nu, sign in ((lam, 1.0), (mu, -1.0)):
            one = resolvent_onepoint(cfg, nu, f)
            rhs += sign * one.value
            budget += (one.error - seen[-2][1]) / abs(mu - lam)
        rhs /= 1j * (mu - lam)
        assert abs(two.value.real - rhs.real) <= budget
