"""End-to-end acceptance battery at the default Monte Carlo scale.

Each numbered block exercises one advertised guarantee of the package
against an independent oracle: transfer-matrix formulas for the spin
loops, dense Simpson grids for the momentum and Laplace integrals,
closed forms for the degenerate couplings, and byte-level comparisons
for reproducibility.
"""

import math
import os

import numpy as np
import pytest
from scipy.integrate import simpson

from spinboson import cli
from spinboson.cluster import cluster_scan, nogo_verdict
from spinboson.ensemble import build_ensemble
from spinboson.kernels import ThermalKernelTable
from spinboson.loops import (
    SpinMeasureParams,
    correlation_trace,
    two_point_oracle,
)
from spinboson.momentum import SourceProfile, TestFunction, m_pairing
from spinboson.resolvent import resolvent_onepoint, resolvent_twopoint
from spinboson.state import StateConfig, charfun

from conftest import flip_even, simpson_radial

N_DEFAULT = 200_000


@pytest.fixture(scope="module")
def acc_free_ensemble(zero_table):
    return build_ensemble(SpinMeasureParams(1.0, 1.0), zero_table,
                          N_DEFAULT, seed=101)


@pytest.fixture(scope="module")
def acc_eps0_ensemble(kernel_table):
    return build_ensemble(SpinMeasureParams(1.0, 0.0), kernel_table,
                          N_DEFAULT, seed=102)


@pytest.fixture(scope="module")
def acc_gauss_ensemble(kernel_table):
    return build_ensemble(SpinMeasureParams(1.0, 1.0), kernel_table,
                          N_DEFAULT, seed=103)


# ---------------------------------------------------------------------------
# 1. spin-loop sampler vs transfer-matrix oracles
# ---------------------------------------------------------------------------

def _projector(sign):
    return np.diag([1.0, 0.0]) if sign > 0 else np.diag([0.0, 1.0])


@pytest.mark.parametrize("eps,beta", [(0.5, 1.0), (1.0, 2.0), (2.0, 1.0)])
def test_acceptance_1_spin_oracles(zero_src, eps, beta):
    params = SpinMeasureParams(beta, eps)
    table = ThermalKernelTable(SourceProfile.zero(d=3, s=1.0), beta)
    ens = build_ensemble(params, table, N_DEFAULT, seed=17)
    n = ens.n

    # jump-count mean
    mean = float(np.mean(ens.counts))
    se = float(np.std(ens.counts) / math.sqrt(n))
    assert abs(mean - eps * beta * math.tanh(eps * beta)) <= 3.0 * se

    # two-point function at the standard fractions
    u0 = -0.25 * beta
    for frac in (0.1, 0.25, 0.5):
        tau = frac * beta
        vals = np.prod(ens.path_values([u0, u0 + tau]), axis=1)
        mc = float(np.mean(vals))
        se = float(np.std(vals) / math.sqrt(n))
        oracle = math.cosh(eps * (beta - 2.0 * tau)) / math.cosh(eps * beta)
        assert abs(mc - oracle) <= 3.0 * se
        assert oracle == pytest.approx(float(two_point_oracle(params, tau)),
                                       rel=1e-12)

    # joint occupation frequencies against the periodic-bridge trace
    t = 0.3 * beta
    x = ens.path_values([u0, u0 + t])
    for s1 in (1, -1):
        for s2 in (1, -1):
            hit = (x[:, 0] == s1) & (x[:, 1] == s2)
            mc = float(np.mean(hit))
            se = float(np.std(hit.astype(float)) / math.sqrt(n))
            oracle = correlation_trace(
                params, [u0, u0 + t], [_projector(s1), _projector(s2)])
            assert abs(mc - oracle) <= 3.0 * se + 1e-12


# ---------------------------------------------------------------------------
# 2. thermal-kernel identities
# ---------------------------------------------------------------------------

def test_acceptance_2_kernel_identities(kernel_table, gauss_src, f_gauss):
    beta = 1.0

    # equal-time value of the per-function kernel is the coth pairing;
    # substituting k = t^2 removes the k^{3/2} kink at the origin
    got = kernel_table.kernel_K(f_gauss, 0.3, 0.3)
    ref = simpson_radial(
        lambda t: 8.0 * math.pi * t ** 4 * np.exp(-t ** 4)
        / np.tanh(0.5 * beta * t ** 2), k_max=7.0)
    assert got.real == pytest.approx(ref, rel=1e-6)

    # half the full-circle integral recovers the static pairing
    circle = 0.5 * kernel_table.interval_K_integral(
        f_gauss, 0.0, -0.5 * beta, 0.5 * beta)
    m_val = m_pairing(f_gauss, gauss_src).value.value
    assert circle.real == pytest.approx(m_val.real, rel=1e-6)

    # reflection symmetry of the self-kernel about beta/2
    taus = np.linspace(0.0, beta, 129)
    kap = kernel_table.kappa(taus)
    refl = kernel_table.kappa(beta - taus)
    assert np.max(np.abs(kap - refl)) <= 1e-10 * (1.0 + np.max(np.abs(kap)))

    # block integrals vs a dense 2-D Simpson grid
    a, b, c, d = 0.05, 0.35, 0.45, 0.9
    t = np.linspace(a, b, 257)
    s = np.linspace(c, d, 257)
    vals = kernel_table.kappa(np.abs(t[:, None] - s[None, :]))
    oracle = simpson(simpson(vals, x=s, axis=1), x=t)
    assert kernel_table.double_block(a, b, c, d) \
        == pytest.approx(oracle, rel=1e-7)


# ---------------------------------------------------------------------------
# 3. free-gas reduction
# ---------------------------------------------------------------------------

def test_acceptance_3_free_gas_reduction(zero_src, zero_table,
                                         acc_free_ensemble, f_gauss):
    n0 = 1e-3
    cfg = StateConfig(beta=1.0, eps=1.0, d=3, s=1.0, n0=n0,
                      source=zero_src, kernels=zero_table,
                      ensemble=acc_free_ensemble)
    q0 = cfg.q0(f_gauss).real
    qn = cfg.q_nonzero(f_gauss).real
    val, se = charfun(cfg, f_gauss, 0.0)
    assert se == 0.0
    assert val == complex(math.exp(-0.25 * (q0 + qn)))

    # both quadratic forms against independent oracles
    qn_oracle = simpson_radial(
        lambda k: 4.0 * math.pi * k ** 2 * np.exp(-k ** 2)
        / np.tanh(0.5 * k))
    assert qn == pytest.approx(qn_oracle, rel=1e-6)
    assert q0 == pytest.approx(2.0 * (2.0 * math.pi) ** 3 * n0, rel=1e-12)


# ---------------------------------------------------------------------------
# 4. degenerate-coupling closed forms
# ---------------------------------------------------------------------------

def test_acceptance_4_eps0_closed_forms(acc_eps0_ensemble, kernel_table,
                                        f_gauss):
    ens = acc_eps0_ensemble
    m = kernel_table.m_value(f_gauss).real
    val, se = ens.spin_factor(f_gauss, 0.0)
    assert val.real == pytest.approx(math.cos(m), abs=3.0 * se)
    assert abs(val.imag) <= 3.0 * se + 1e-12

    rep = ens.variance_two_routes(f_gauss)
    assert rep.var_direct == pytest.approx(m * m, rel=0.05)
    assert rep.var_kernel == pytest.approx(m * m, rel=0.05)

    ok, rows = ens.deviation_bound_check(f_gauss, [0.1, 0.5, 1.0, 2.0])
    assert ok
    for s, lhs, bound, margin in rows:
        assert lhs <= bound and margin >= 0.0


# ---------------------------------------------------------------------------
# 5. modulus bound on a randomized battery
# ---------------------------------------------------------------------------

def test_acceptance_5_modulus_bound_battery(gauss_src):
    rng = np.random.default_rng(2024)
    tables = {beta: ThermalKernelTable(gauss_src, beta)
              for beta in (0.5, 1.0, 2.0)}
    for trial in range(50):
        beta = float(rng.choice([0.5, 1.0, 2.0]))
        eps = float(rng.uniform(0.0, 2.0))
        f = TestFunction.gaussian(width=float(rng.uniform(0.5, 2.0)),
                                  amplitude=float(rng.uniform(-1.5, 1.5)))
        ens = build_ensemble(SpinMeasureParams(beta, eps), tables[beta],
                             4000, seed=3000 + trial)
        val, se = ens.spin_factor(f, 0.0)
        assert abs(val) <= 1.0 + 3.0 * se + 1e-12


# ---------------------------------------------------------------------------
# 6. variance cross-route at scale
# ---------------------------------------------------------------------------

def test_acceptance_6_variance_cross_route(kernel_table, f_gauss):
    ens = build_ensemble(SpinMeasureParams(1.0, 1.0), kernel_table,
                         1_000_000, seed=104)
    rep = ens.variance_two_routes(f_gauss)
    scale = max(abs(rep.var_direct), abs(rep.var_kernel))
    if abs(rep.var_direct - rep.var_kernel) > 0.05 * scale:
        # each path averaged with its spin flip, under which E~[Z] = 0
        z = ens.z_values(f_gauss).real
        _, se = ens.expectation(flip_even(z, lambda x: x ** 2))
        assert abs(rep.var_direct - rep.var_kernel) <= 3.0 * se
    assert not rep.grid_flagged


# ---------------------------------------------------------------------------
# 7. cluster scan and the no-go record
# ---------------------------------------------------------------------------

def test_acceptance_7_nogo_record(zero_src, zero_table, acc_free_ensemble,
                                  f_gauss):
    base = TestFunction.gaussian(width=2.0, amplitude=1.0)
    g = base.scaled(1.0 / base.fhat0().real)   # unit zero mode
    assert f_gauss.fhat0() == 1.0 and g.fhat0() == pytest.approx(1.0)

    n0 = 1e-3
    cfg = StateConfig(beta=1.0, eps=1.0, d=3, s=1.0, n0=n0,
                      source=zero_src, kernels=zero_table,
                      ensemble=acc_free_ensemble)
    report = cluster_scan(cfg, f_gauss, g, "time", (1.0, 2.0, 4.0, 8.0, 16.0))
    assert report.verdict == "moderate"
    v = nogo_verdict(cfg, f_gauss, g, report)
    assert v.contradiction and not v.consistent
    q0fg = cfg.q0(f_gauss, g).real
    assert v.gap == pytest.approx(math.exp(0.5 * q0fg) - 1.0, rel=1e-12)
    assert v.gap == pytest.approx(0.2816, abs=1e-3)

    cfg0 = StateConfig(beta=1.0, eps=1.0, d=3, s=1.0, n0=0.0,
                       source=zero_src, kernels=zero_table,
                       ensemble=acc_free_ensemble)
    report0 = cluster_scan(cfg0, f_gauss, g, "time", (1.0, 4.0, 16.0))
    v0 = nogo_verdict(cfg0, f_gauss, g, report0)
    assert v0.consistent and v0.bec_empty and not v0.contradiction


# ---------------------------------------------------------------------------
# 8. resolvent expectations, bounds, and oracles
# ---------------------------------------------------------------------------

def test_acceptance_8_resolvent_suite(gauss_src, kernel_table,
                                      acc_gauss_ensemble, zero_src,
                                      zero_table, acc_free_ensemble,
                                      f_gauss, g_gauss):
    cfg = StateConfig(beta=1.0, eps=1.0, d=3, s=1.0, n0=0.0,
                      source=gauss_src, kernels=kernel_table,
                      ensemble=acc_gauss_ensemble)

    # vanishing direction
    for lam in (1.0, -3.0, 0.5):
        rv = resolvent_onepoint(cfg, lam, f_gauss.scaled(0.0))
        assert rv.value == pytest.approx(-1j / lam, abs=rv.error + 1e-10)

    # norm bounds over a randomized 20-query battery; the bound check
    # carries the reported error, so a modest quadrature tolerance and a
    # smaller ensemble for the quadratic two-point queries keep the
    # battery fast without weakening the inequality
    rng = np.random.default_rng(77)
    small = build_ensemble(SpinMeasureParams(1.0, 1.0), kernel_table,
                           20000, seed=105)
    cfg_small = StateConfig(beta=1.0, eps=1.0, d=3, s=1.0, n0=0.0,
                            source=gauss_src, kernels=kernel_table,
                            ensemble=small)
    for trial in range(12):
        lam = float(rng.uniform(0.3, 3.0)) * (1 if trial % 2 else -1)
        f = TestFunction.gaussian(width=float(rng.uniform(0.5, 2.0)),
                                  amplitude=float(rng.uniform(-1.5, 1.5)))
        rv = resolvent_onepoint(cfg_small, lam, f)
        assert abs(rv.value) <= 1.0 / abs(lam) + rv.error + 1e-12
    for trial in range(8):
        lam = float(rng.uniform(0.3, 3.0))
        mu = float(rng.uniform(0.3, 3.0)) * (1 if trial % 2 else -1)
        rv = resolvent_twopoint(cfg_small, lam, f_gauss, mu, g_gauss)
        assert abs(rv.value) <= 1.0 / (abs(lam) * abs(mu)) + rv.error + 1e-12

    # scaling relation
    base = resolvent_onepoint(cfg_small, 1.0, f_gauss)
    nu = 2.0
    other = resolvent_onepoint(cfg_small, nu, f_gauss.scaled(nu))
    assert nu * other.value == pytest.approx(
        base.value, abs=nu * other.error + base.error + 1e-9)

    # zero-source one-point against the dense half-line Simpson oracle
    free = StateConfig(beta=1.0, eps=1.0, d=3, s=1.0, n0=0.0,
                       source=zero_src, kernels=zero_table,
                       ensemble=acc_free_ensemble)
    rv = resolvent_onepoint(free, 1.0, f_gauss)
    q = free.q_bec(f_gauss)
    u = np.linspace(0.0, 40.0 / math.sqrt(q), 1 << 14 | 1)
    oracle = -1j * simpson(np.exp(-u - 0.25 * q * u * u), x=u)
    assert rv.value == pytest.approx(oracle, rel=1e-7)


# ---------------------------------------------------------------------------
# 9. condensate-direction decay of the one-point expectation
# ---------------------------------------------------------------------------

def test_acceptance_9_bec_decay(zero_src, zero_table, acc_free_ensemble,
                                f_gauss):
    cfg = StateConfig(beta=1.0, eps=1.0, d=3, s=1.0, n0=1.0,
                      source=zero_src, kernels=zero_table,
                      ensemble=acc_free_ensemble)
    assert f_gauss.fhat0() == 1.0
    q = cfg.q_bec(f_gauss)
    assert q > 2.0 * (2.0 * math.pi) ** 3

    moduli = {}
    for t in (1.0, 4.0):
        rv = resolvent_onepoint(cfg, 1.0, f_gauss.scaled(t))
        a = q * t * t
        u = np.linspace(0.0, 40.0 / math.sqrt(a), 1 << 14 | 1)
        oracle = simpson(np.exp(-u - 0.25 * a * u * u), x=u)
        assert abs(rv.value) == pytest.approx(oracle, rel=1e-7)
        moduli[t] = abs(rv.value)

    # the closed form gives ratio -> 1/t for large q t^2; at t = 4 the
    # exact value is ~0.26, so the assertable threshold is 0.3
    ratio = moduli[4.0] / moduli[1.0]
    assert ratio < 0.3
    assert moduli[4.0] < moduli[1.0]


# ---------------------------------------------------------------------------
# 10. byte-level determinism of the full harness battery
# ---------------------------------------------------------------------------

def _run_battery(config, out):
    for sub in sorted(cli.RUNNERS):
        assert cli.main([sub, "--config", config, "--out", out]) == 0
    csvs, summaries = {}, {}
    for name in sorted(os.listdir(out)):
        path = os.path.join(out, name)
        if name.endswith(".csv"):
            csvs[name] = open(path, "rb").read()
        elif name.endswith("_summary.txt"):
            lines = open(path).read().splitlines()
            assert lines[0].startswith("# generated ")
            summaries[name] = "\n".join(lines[1:])
    return csvs, summaries


def test_acceptance_10_determinism(tmp_path):
    from test_cli import BASE_CONFIG
    config = tmp_path / "cfg.ini"
    config.write_text(BASE_CONFIG)
    c1, s1 = _run_battery(str(config), str(tmp_path / "a"))
    c2, s2 = _run_battery(str(config), str(tmp_path / "b"))
    assert len(c1) == 8
    assert c1 == c2
    assert s1 == s2
