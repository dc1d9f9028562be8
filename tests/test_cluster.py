import math

import numpy as np
import pytest

from spinboson.cluster import cluster_scan, gp_limit_scan, nogo_verdict
from spinboson.ensemble import build_ensemble
from spinboson.loops import SpinMeasureParams
from spinboson.state import StateConfig, charfun

BETA = 1.0
GRID = (1.0, 2.0, 4.0, 8.0, 16.0)


def test_free_gas_without_condensate_is_moderate(free_cfg, f_gauss, g_gauss):
    report = cluster_scan(free_cfg, f_gauss, g_gauss, "time", GRID)
    assert report.verdict == "moderate"
    assert all(r == 1.0 + 0.0j for r in report.spin_ratio)
    assert report.zero_mode_factor == 1.0
    assert abs(report.cross_term[-1]) < 0.05 * abs(report.cross_term[0])
    v = nogo_verdict(free_cfg, f_gauss, g_gauss, report)
    assert v.consistent and not v.contradiction and v.bec_empty


def test_condensate_breaks_factorization(free_bec_cfg, f_gauss, g_gauss):
    # with a condensate and unit-scale zero modes, the two-point
    # functional misses the product by exp(-q0(f,g)/2) at large times
    report = cluster_scan(free_bec_cfg, f_gauss, g_gauss, "time", GRID)
    assert report.verdict == "moderate"      # spin ratio is exactly 1
    q0fg = free_bec_cfg.q0(f_gauss, g_gauss).real
    # divide out the (still visible) thermal cross pairing to isolate the
    # zero-mode defect exactly
    last = abs(report.lhs[-1]) / abs(report.product) \
        * math.exp(0.5 * report.cross_term[-1])
    assert last == pytest.approx(math.exp(-0.5 * q0fg), rel=1e-9)
    v = nogo_verdict(free_bec_cfg, f_gauss, g_gauss, report)
    assert v.contradiction and not v.consistent
    assert v.gap == pytest.approx(math.exp(0.5 * q0fg) - 1.0, rel=1e-12)


def test_invisible_zero_mode_no_contradiction(free_bec_cfg, f_gauss,
                                              g_gauss):
    # cancel the zero modes of two distinct gaussians against each other
    ratio = f_gauss.fhat0().real / g_gauss.fhat0().real
    h = f_gauss + g_gauss.scaled(-ratio)
    report = cluster_scan(free_bec_cfg, h, h, "time", GRID)
    v = nogo_verdict(free_bec_cfg, h, h, report)
    assert v.q0_f <= 1e-12
    assert not v.contradiction and v.bec_empty


def test_spatial_scan_runs(free_cfg, f_gauss, g_gauss):
    report = cluster_scan(free_cfg, f_gauss, g_gauss, "space",
                          (1.0, 2.0, 4.0, 8.0))
    assert report.mode == "space"
    assert report.verdict == "moderate"


def test_scan_rejects_bad_grid(free_cfg, f_gauss):
    with pytest.raises(ValueError):
        cluster_scan(free_cfg, f_gauss, f_gauss, "time", (2.0, 1.0))


def test_two_sign_mixture_closed_form(gauss_src, kernel_table, f_gauss,
                                      g_gauss):
    # at eps = 0 every rung is Gaussian body times the cosine of the
    # two-sign value of Z for the combined test function
    ens = build_ensemble(SpinMeasureParams(BETA, 0.0), kernel_table,
                         2000, seed=3)
    cfg = StateConfig(beta=BETA, eps=0.0, d=3, s=1.0, n0=0.0,
                      source=gauss_src, kernels=kernel_table, ensemble=ens)
    report = cluster_scan(cfg, f_gauss, g_gauss, "time", GRID)
    for i, u in enumerate(report.grid):
        fu = f_gauss + g_gauss.time_evolved(u)
        q = cfg.q_nonzero(fu).real
        c = kernel_table.m_value(fu)
        # Z takes the two values +-<fu, m> (a complex number under time
        # transport), so the balanced mixture of e^{-iZ} is cos<fu, m>
        ref = math.exp(-0.25 * q) * np.cos(c)
        assert report.lhs[i] == pytest.approx(
            ref, abs=4.0 * report.lhs_se[i] + 1e-8)


def test_zero_mode_factor_grid_independent(free_bec_cfg, f_gauss, g_gauss):
    r1 = cluster_scan(free_bec_cfg, f_gauss, g_gauss, "time", (1.0, 4.0))
    r2 = cluster_scan(free_bec_cfg, f_gauss, g_gauss, "time", (2.0, 32.0))
    assert r1.zero_mode_factor == r2.zero_mode_factor


def test_scan_internal_consistency(state_cfg, f_gauss, g_gauss):
    # each rung must equal the independently composed functional
    report = cluster_scan(state_cfg, f_gauss, g_gauss, "time", (1.0, 3.0))
    for u, lhs in zip(report.grid, report.lhs):
        ref, _ = charfun(state_cfg, f_gauss + g_gauss.time_evolved(u), 0.0)
        # same ensemble, same forms: only the zero mode differs, and it
        # vanishes here (n0 = 0)
        assert lhs == pytest.approx(ref, rel=1e-9)


# ---------------------------------------------------------------------------
# the distribution scan
# ---------------------------------------------------------------------------

def test_gp_scan_zero_source(free_cfg, f_gauss):
    seq = [f_gauss.scaled(1.0 / n) for n in (1, 2, 4)]
    report = gp_limit_scan(free_cfg, seq, [0.0, 0.5, 1.0, 2.0])
    assert report.classical
    assert report.a_value == 0.0


def test_gp_scan_two_sign_mixture_not_classical(gauss_src, kernel_table,
                                                f_gauss):
    ens = build_ensemble(SpinMeasureParams(BETA, 0.0), kernel_table,
                         2000, seed=3)
    cfg = StateConfig(beta=BETA, eps=0.0, d=3, s=1.0, n0=0.0,
                      source=gauss_src, kernels=kernel_table, ensemble=ens)
    m = kernel_table.m_value(f_gauss).real
    report = gp_limit_scan(cfg, [f_gauss], [0.0, 0.5 * math.pi / m])
    assert not report.classical
    assert not report.inconclusive
