import math

import numpy as np
import pytest

from spinboson.ensemble import build_ensemble
from spinboson.kernels import ThermalKernelTable
from spinboson.loops import SpinMeasureParams
from spinboson.momentum import (
    RadialProfile,
    SourceProfile,
    TestFunction,
    form_nonzero,
    form_zero,
)
from spinboson.state import (
    DirectionRejected,
    StateConfig,
    charfun,
    charfun_scaled,
    ground_limit_spin_factor,
    transported,
    two_point_charfun,
    van_hove_charfun,
    weyl_matrix,
)

from conftest import simpson_radial

BETA = 1.0


@pytest.fixture(scope="module")
def eps0_cfg(gauss_src, kernel_table):
    params = SpinMeasureParams(BETA, 0.0)
    ens = build_ensemble(params, kernel_table, 2000, seed=3)
    return StateConfig(beta=BETA, eps=0.0, d=3, s=1.0, n0=0.0,
                       source=gauss_src, kernels=kernel_table, ensemble=ens)


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def test_config_consistency_checks(gauss_src, zero_table, free_ensemble):
    with pytest.raises(ValueError):
        StateConfig(beta=BETA, eps=1.0, d=3, s=1.0, n0=0.0,
                    source=gauss_src, kernels=zero_table,
                    ensemble=free_ensemble)


def test_direction_rejection(state_cfg):
    sing_src = SourceProfile(
        RadialProfile("power_bump", exponent_at_zero=-0.4, cutoff=1.0),
        d=3, s=1.0)
    f = TestFunction.power_bump(exponent=-1.2, cutoff=1.0)
    kern = ThermalKernelTable(sing_src, BETA, tol=1e-7)
    ens = build_ensemble(SpinMeasureParams(BETA, 1.0), kern, 1000, seed=0)
    cfg = StateConfig(beta=BETA, eps=1.0, d=3, s=1.0, n0=0.0,
                      source=sing_src, kernels=kern, ensemble=ens)
    with pytest.raises(DirectionRejected) as exc:
        charfun(cfg, f, 0.0)
    assert exc.value.classification.value == "infrared_singular"


# ---------------------------------------------------------------------------
# characteristic functional
# ---------------------------------------------------------------------------

def test_charfun_normalization(state_cfg, f_gauss):
    val, se = charfun(state_cfg, f_gauss.scaled(0.0), 0.0)
    assert val == 1.0 + 0.0j
    assert se == 0.0


def test_free_gas_reduction(free_cfg, f_gauss):
    val, se = charfun(free_cfg, f_gauss, 0.0)
    assert se == 0.0
    q = free_cfg.q_nonzero(f_gauss).real
    assert val == complex(math.exp(-0.25 * q))
    oracle = simpson_radial(
        lambda k: 4.0 * math.pi * k ** 2 * np.exp(-k ** 2)
        / np.tanh(0.5 * k))
    assert q == pytest.approx(oracle, rel=1e-6)


def test_frozen_coupling_reduction(eps0_cfg, f_gauss):
    val, se = charfun(eps0_cfg, f_gauss, 0.0)
    m = eps0_cfg.kernels.m_value(f_gauss).real
    q = eps0_cfg.q_nonzero(f_gauss).real
    ref = math.exp(-0.25 * q) * math.cos(m)
    assert val.real == pytest.approx(ref, abs=3.0 * se + 1e-9)


def test_zero_mode_factor_separates(free_bec_cfg, f_gauss):
    val, _ = charfun(free_bec_cfg, f_gauss, 0.0)
    sval, _ = free_bec_cfg.ensemble.spin_factor(f_gauss, 0.0)
    lhs = -4.0 * (math.log(abs(val)) - math.log(abs(sval)))
    q = free_bec_cfg.q0(f_gauss).real + free_bec_cfg.q_nonzero(f_gauss).real
    assert lhs == pytest.approx(q, rel=1e-10)


def test_charfun_scaled_properties(state_cfg, f_gauss):
    val0, se0 = charfun_scaled(state_cfg, f_gauss, 0.0)
    assert val0 == 1.0 + 0.0j and se0 == 0.0
    # s = 1 reproduces the unscaled functional bit-near
    v1, e1 = charfun_scaled(state_cfg, f_gauss, 1.0)
    v, e = charfun(state_cfg, f_gauss, 0.0)
    assert v1 == v and e1 == e
    # hermitian in s for real test functions
    vp, _ = charfun_scaled(state_cfg, f_gauss, 1.3)
    vm, _ = charfun_scaled(state_cfg, f_gauss, -1.3)
    assert vm == pytest.approx(np.conj(vp), rel=1e-12)


def test_charfun_on_a_2d_grid_is_the_flat_grid_reshaped(state_cfg, f_gauss):
    # values and SEs come back shaped like s, bit for bit the flat grid's
    s = np.array([[0.0, 0.4, -1.1], [2.0, 0.7, 3.3]])
    f = f_gauss.scaled(1.25)
    for fn in (state_cfg.ensemble.char_function,
               lambda f, s: charfun_scaled(state_cfg, f, s)):
        vals, ses = fn(f, s)
        flat_vals, flat_ses = fn(f, s.ravel())
        assert vals.shape == ses.shape == s.shape
        assert vals.tobytes() == flat_vals.reshape(s.shape).tobytes()
        assert ses.tobytes() == flat_ses.reshape(s.shape).tobytes()


def test_charfun_scaled_gaussian_width(free_cfg, f_gauss):
    # with S = 1 the log-modulus is exactly quadratic in s
    q = free_cfg.q_bec(f_gauss)
    for s in (0.5, 1.0, 2.0, 3.0):
        val, _ = charfun_scaled(free_cfg, f_gauss, s)
        assert -4.0 * math.log(abs(val)) / s ** 2 \
            == pytest.approx(q, rel=1e-9)


# ---------------------------------------------------------------------------
# two-point functional
# ---------------------------------------------------------------------------

def test_two_point_trivial_transport(state_cfg, f_gauss, g_gauss):
    ref, ref_se = charfun(state_cfg, f_gauss + g_gauss, 0.0)
    val, se = two_point_charfun(state_cfg, f_gauss, g_gauss, "time", 0.0)
    assert val == ref and se == ref_se
    # vanishing second slot collapses to the one-point functional
    val0, _ = two_point_charfun(state_cfg, f_gauss, g_gauss.scaled(0.0),
                                "time", 0.7)
    one, _ = charfun(state_cfg, f_gauss, 0.0)
    assert val0 == pytest.approx(one, rel=1e-9)


@pytest.mark.parametrize("mode", ["time", "space"])
def test_two_point_is_charfun_of_transported_sum(state_cfg, f_gauss,
                                                 g_gauss, mode):
    # fhat(0) ignores phases and shifts, so the two-point functional is the
    # one-point one of f + T g, bit for bit
    val, se = two_point_charfun(state_cfg, f_gauss, g_gauss, mode, 2.5)
    ref, ref_se = charfun(state_cfg,
                          f_gauss + transported(g_gauss, mode, 2.5))
    assert val == ref and se == ref_se
    assert state_cfg.q0(f_gauss + g_gauss) \
        == state_cfg.q0(f_gauss + transported(g_gauss, mode, 2.5))


def test_two_point_transport_modes(f_gauss):
    assert transported(f_gauss, "time", 2.0).components[0].time_phase == 2.0
    assert transported(f_gauss, "space", 1.5).components[0].shift[0] == 1.5
    with pytest.raises(ValueError):
        transported(f_gauss, "what", 1.0)


def test_two_point_cross_term_decay(free_cfg, f_gauss, g_gauss):
    base = abs(free_cfg.q_nonzero(f_gauss, g_gauss).real)
    far = abs(free_cfg.q_nonzero(
        f_gauss, g_gauss.time_evolved(100.0)).real)
    assert far < 0.05 * base


def test_two_point_zero_mode_uses_untransported_sum(free_bec_cfg, f_gauss,
                                                    g_gauss):
    v1, _ = two_point_charfun(free_bec_cfg, f_gauss, g_gauss, "time", 3.0)
    # recompose independently: q0 on f + g, thermal form on f + Tg
    tg = g_gauss.time_evolved(3.0)
    q = (form_zero(f_gauss + g_gauss, f_gauss + g_gauss, 1e-3).value.real
         + form_nonzero(f_gauss + tg, f_gauss + tg, BETA).value.real)
    assert abs(v1) == pytest.approx(math.exp(-0.25 * q), rel=1e-8)


# ---------------------------------------------------------------------------
# comparator state
# ---------------------------------------------------------------------------

def test_van_hove_basics(state_cfg, f_gauss):
    assert van_hove_charfun(state_cfg, f_gauss, 0.0) == 1.0 + 0.0j
    for s in (0.5, 1.7):
        vh = van_hove_charfun(state_cfg, f_gauss, s)
        free = math.exp(-0.25 * state_cfg.q_bec(f_gauss) * s * s)
        assert abs(vh) == pytest.approx(free, rel=1e-12)


def test_van_hove_equality_iff_deterministic(free_cfg, eps0_cfg, f_gauss):
    # zero source: Z = 0 is deterministic, both functionals coincide
    for s in (0.3, 1.0, 2.0):
        got, se = charfun_scaled(free_cfg, f_gauss, s)
        ref = van_hove_charfun(free_cfg, f_gauss, s)
        assert got == pytest.approx(ref, rel=1e-8)
    assert free_cfg.ensemble.cnumber_criterion(f_gauss)[0]
    # two-sign mixture: unequal at s = pi / (2 <f, m>)
    m = eps0_cfg.kernels.m_value(f_gauss).real
    s_bad = 0.5 * math.pi / m
    got, se = charfun_scaled(eps0_cfg, f_gauss, s_bad)
    ref = van_hove_charfun(eps0_cfg, f_gauss, s_bad)
    assert abs(got - ref) > 10.0 * se
    assert not eps0_cfg.ensemble.cnumber_criterion(f_gauss)[0]


# ---------------------------------------------------------------------------
# low-temperature ladder and positivity
# ---------------------------------------------------------------------------

def test_ground_ladder_zero_source(free_cfg, f_gauss):
    rows, diffs = ground_limit_spin_factor(free_cfg, f_gauss,
                                           (1.0, 2.0), n_loops=1000)
    for _, val, _ in rows:
        assert val == pytest.approx(1.0 + 0.0j, rel=1e-12)
    assert diffs[0] == pytest.approx(0.0, abs=1e-12)


def test_ground_ladder_frozen_coupling(eps0_cfg, f_gauss, gauss_src):
    # the full-period identity makes the two-sign mixture value cos<f,m>
    # at every rung
    rows, _ = ground_limit_spin_factor(eps0_cfg, f_gauss, (1.0, 2.0),
                                       n_loops=2000, seed=1)
    for beta, val, se in rows:
        tab = ThermalKernelTable(gauss_src, beta)
        m = tab.m_value(f_gauss).real
        assert val.real == pytest.approx(math.cos(m), abs=3.0 * se + 1e-8)


def test_weyl_matrix_positive(state_cfg, f_gauss, g_gauss):
    # real-valued directions keep Z real, so the estimated Gram matrix is
    # Hermitian up to round-off and its spectrum tests positivity
    fs = [f_gauss.scaled(0.5), g_gauss, f_gauss.shifted((1.0, 0.0, 0.0))]
    m, max_se = weyl_matrix(state_cfg, fs)
    assert np.allclose(m, m.conj().T, atol=1e-10)
    eigs = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    assert np.all(eigs >= -5.0 * max_se)
