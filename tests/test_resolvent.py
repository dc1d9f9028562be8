import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson

from spinboson.momentum import RadialProfile, SourceProfile, TestFunction
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
    """The rows: the two constant paths plus the loops with jumps."""
    return 2 + int(np.sum(ens.counts > 0))


def _counted(res_mod, monkeypatch):
    """Faddeeva points per call, and the panels of each two-point level."""
    points, panels = [], []

    def counted_wofz(x, wofz=res_mod.wofz):
        points.append(np.size(x))
        return wofz(x)

    def counted_panels(edges, rule=res_mod.gauss_kronrod_panels):
        panels.append(len(edges) - 1)
        return rule(edges)

    monkeypatch.setattr(res_mod, "wofz", counted_wofz)
    monkeypatch.setattr(res_mod, "gauss_kronrod_panels", counted_panels)
    return points, panels


def test_resolvents_evaluate_wofz_once_per_distinct_loop(state_cfg, f_gauss,
                                                         g_gauss,
                                                         monkeypatch):
    # structural guard: the Faddeeva function runs on the two constant paths
    # and the loops with jumps, not on every loop, and the two-point
    # product evaluates it once per Kronrod node: the Gauss sum it is
    # checked against reuses 12 of every 25 nodes
    from spinboson import resolvent as res_mod
    points, panels = _counted(res_mod, monkeypatch)
    ens = state_cfg.ensemble
    rows = _n_rows(ens)
    assert rows < ens.n
    resolvent_onepoint(state_cfg, 0.7, f_gauss)
    assert sum(points) == rows
    points.clear()
    resolvent_twopoint(state_cfg, 0.7, f_gauss, 1.3, g_gauss)
    assert panels == [2]
    assert sum(points) == rows * 25 * 2


def test_twopoint_doubling_stays_within_the_first_levels_budget(
        state_cfg, f_gauss, g_gauss, monkeypatch):
    # a tolerance no first level meets forces the panels to double: each
    # level evaluates the Faddeeva function once per (Kronrod node, row),
    # and the refined value agrees with the first level's
    # within that level's Kronrod-Gauss gap (the tolerance also moves the
    # truncation point; the two values differ by about 4e-17 here)
    from spinboson import resolvent as res_mod
    ens = state_cfg.ensemble
    lam, mu = 0.7, 1.3
    seen = []

    def expectation(values, real=ens.expectation):
        seen.append(real(values))
        return seen[-1]

    # the first level's K25 and GL12 estimates, then the returned value's
    monkeypatch.setattr(ens, "expectation", expectation)
    first = resolvent_twopoint(state_cfg, lam, f_gauss, mu, g_gauss)
    (kron, _), (gauss, _) = seen[:2]
    assert len(seen) == 4 and kron == first.value
    delta = abs(kron - gauss)
    assert 0 < delta <= res_mod.TWOPOINT_TOL / (lam * mu)

    points, panels = _counted(res_mod, monkeypatch)
    monkeypatch.setattr(res_mod, "TWOPOINT_TOL", 1e-14)
    forced = resolvent_twopoint(state_cfg, lam, f_gauss, mu, g_gauss)
    assert len(panels) >= 2
    assert panels == [2 << i for i in range(len(panels))]
    assert sum(points) == _n_rows(ens) * 25 * sum(panels)
    assert abs(forced.value - first.value) <= delta


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
    """An ensemble seen loop by loop: Z on the two constant paths and then
    on all n loops, each loop taking its row, and every estimate read off
    the rows."""

    def __init__(self, ens):
        self._ens = ens
        self._rows = np.concatenate(([0, 1], loop_rows(ens)))
        self._back = np.concatenate(([0, 1], 2 + np.flatnonzero(ens.counts)))

    def __getattr__(self, name):
        return getattr(self._ens, name)

    def z_values(self, f, t_offset=0.0):
        return self._ens.z_values(f, t_offset)[self._rows]

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
