import ast
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import spinboson
from spinboson.momentum import (
    NEG_INF,
    Component,
    DirectionClass,
    DivergentIntegralError,
    QuadratureError,
    RadialProfile,
    SourceProfile,
    TestFunction,
    _gauss_kronrod,
    _leggauss,
    _m_divergence,
    classify_direction,
    convergent_exponent,
    dispersion,
    form_nonzero,
    form_zero,
    gauss_kronrod_panels,
    gauss_legendre_panels,
    inner_product,
    m_pairing,
    pairing_exponents,
    symplectic,
)
from spinboson.state import transported

from conftest import quad_radial, simpson_radial


# ---------------------------------------------------------------------------
# dispersion
# ---------------------------------------------------------------------------

def test_dispersion_values():
    assert dispersion(0.0, 1.0) == 0.0
    assert dispersion(2.0, 1.0) == 2.0
    assert dispersion(3.0, 2.0) == 9.0


def test_dispersion_rejects_bad_args():
    with pytest.raises(ValueError):
        dispersion(1.0, 0.0)
    with pytest.raises(ValueError):
        dispersion(-1.0, 1.0)


# ---------------------------------------------------------------------------
# construction and exponent bookkeeping
# ---------------------------------------------------------------------------

def test_profile_validation():
    with pytest.raises(ValueError):
        RadialProfile("gaussian", width=0.0)
    with pytest.raises(ValueError):
        RadialProfile("power_bump", cutoff=-1.0, exponent_at_zero=0.0)
    with pytest.raises(ValueError):
        RadialProfile("no_such_kind")


def test_exponent_arithmetic():
    f = TestFunction.power_bump(exponent=-0.5, cutoff=2.0)
    assert f.a0 == -0.5
    assert f.a_inf == float("-inf")
    flat = TestFunction.from_profile(RadialProfile("point_source_flat"))
    assert flat.a0 == 0.0
    assert flat.a_inf == 0.0
    # euclidean damping kills the tail exponent
    assert flat.damped(1.0).a_inf == float("-inf")


def test_membership_predicates():
    g = TestFunction.gaussian()
    assert g.in_l1() and g.in_l2()
    flat = TestFunction.from_profile(RadialProfile("point_source_flat"))
    assert not flat.in_l2()
    sing = TestFunction.power_bump(exponent=-3.0, cutoff=1.0)
    assert not sing.in_l1()


def test_algebra_round_trips(f_gauss):
    two_f = f_gauss.scaled(2.0)
    assert two_f.components[0].coeff == 2.0 + 0.0j
    h = f_gauss + f_gauss.scaled(-1.0)
    assert h.fhat0() == 0.0
    assert f_gauss.time_evolved(1.5).components[0].time_phase == 1.5
    assert f_gauss.shifted((1.0, 0.0, 0.0)).components[0].shift == (1.0, 0.0, 0.0)
    assert f_gauss.damped(-2.0).components[0].damp == 2.0


def test_shift_requires_d3():
    with pytest.raises(ValueError):
        TestFunction((Component(RadialProfile("gaussian", width=1.0),
                                shift=(1.0, 0.0)),), d=2)


@pytest.mark.parametrize("d", [1, 2])
def test_unshifted_functions_exist_in_any_dimension(d):
    f = TestFunction.gaussian(d=d)
    bump = TestFunction.power_bump(0.5, d=d)
    rho = SourceProfile.gaussian(d=d, s=0.5).as_test_function()
    for h in (f, bump, rho, f + bump):
        assert all(c.shift == (0.0,) * d for c in h.components)
    # |fhat|^2 = exp(-k^2) over R^d: pi in d = 2, sqrt(pi) in d = 1
    want = math.pi if d == 2 else math.sqrt(math.pi)
    assert inner_product(f, f).value == pytest.approx(want, rel=1e-10)
    with pytest.raises(ValueError, match="only in d = 3"):
        f.shifted((1.0,) + (0.0,) * (d - 1))
    with pytest.raises(ValueError, match="shift dimension mismatch"):
        TestFunction((Component(RadialProfile("gaussian", width=1.0),
                                shift=(1.0, 0.0, 0.0)),), d=d)


# ---------------------------------------------------------------------------
# zero-mode form
# ---------------------------------------------------------------------------

def test_form_zero_values(f_gauss, g_gauss):
    # no condensate, or vanishing zero mode
    assert form_zero(f_gauss, g_gauss, 0.0).value == 0.0
    h = f_gauss + f_gauss.scaled(-1.0)
    assert form_zero(h, g_gauss, 1.0).value == 0.0
    # unit zero modes, unit density
    v = form_zero(f_gauss, f_gauss, 1.0).value
    assert v.imag == 0.0
    assert v.real == pytest.approx(2.0 * (2.0 * math.pi) ** 3, rel=1e-14)


def test_form_zero_invariances(f_gauss, g_gauss):
    base = form_zero(f_gauss, g_gauss, 0.5).value
    # spatial translation and euclidean damping act trivially on k = 0
    assert form_zero(f_gauss, g_gauss.shifted((2.0, -1.0, 0.5)), 0.5).value \
        == base
    assert form_zero(f_gauss.damped(3.0), g_gauss, 0.5).value == base


def test_form_zero_rejections(f_gauss):
    with pytest.raises(ValueError):
        form_zero(f_gauss, f_gauss, -1.0)
    sing = TestFunction.power_bump(exponent=-0.5, cutoff=1.0)
    with pytest.raises(DivergentIntegralError):
        form_zero(sing, f_gauss, 1.0)


# ---------------------------------------------------------------------------
# thermal form
# ---------------------------------------------------------------------------

def test_form_nonzero_against_dense_grid(f_gauss):
    # fhat = e^{-k^2/2}; radial integrand 4 pi k^2 e^{-k^2} coth(k/2)
    oracle = simpson_radial(
        lambda k: 4.0 * math.pi * k ** 2 * np.exp(-k ** 2)
        / np.tanh(0.5 * k))
    got = form_nonzero(f_gauss, f_gauss, beta=1.0)
    assert got.value.imag == pytest.approx(0.0, abs=1e-12)
    assert got.value.real == pytest.approx(oracle, rel=1e-6)


def test_form_nonzero_symmetry_and_positivity(f_gauss, g_gauss):
    fg = form_nonzero(f_gauss, g_gauss, 1.0).value
    gf = form_nonzero(g_gauss, f_gauss, 1.0).value
    assert fg == pytest.approx(np.conj(gf), rel=1e-10)
    assert form_nonzero(f_gauss, f_gauss, 1.0).value.real > 0.0
    # sesquilinearity in the first slot
    alpha = 0.3 + 0.7j
    scaled = form_nonzero(f_gauss.scaled(alpha), g_gauss, 1.0).value
    assert scaled == pytest.approx(np.conj(alpha) * fg, rel=1e-9)


def test_form_nonzero_deep_chemical_potential(f_gauss):
    # coth(beta(omega - mu)/2) -> 1 as mu -> -inf, so the form collapses
    # to the plain L2 norm, here pi^{3/2} in closed form
    got = form_nonzero(f_gauss, f_gauss, beta=1.0, mu=-1e3).value.real
    assert got == pytest.approx(math.pi ** 1.5, rel=1e-6)
    assert inner_product(f_gauss, f_gauss).value.real \
        == pytest.approx(math.pi ** 1.5, rel=1e-10)


def test_form_nonzero_oscillatory_decay(f_gauss, g_gauss):
    base = abs(form_nonzero(f_gauss, g_gauss, 1.0).value)
    far = abs(form_nonzero(f_gauss, g_gauss.time_evolved(50.0), 1.0).value)
    assert far < 0.05 * base


def test_form_nonzero_rejections(f_gauss):
    sing = TestFunction.power_bump(exponent=-1.2, cutoff=1.0)
    with pytest.raises(DivergentIntegralError):
        form_nonzero(sing, sing, 1.0)
    with pytest.raises(ValueError):
        form_nonzero(f_gauss, f_gauss, beta=-1.0)
    with pytest.raises(ValueError):
        form_nonzero(f_gauss, f_gauss, beta=1.0, mu=0.5)


def test_spatial_shift_angular_factor(f_gauss):
    # <f, tau_x f> = 4 pi int k^2 e^{-k^2} sinc(k r) dk at r = |x|
    r = 1.7
    oracle = simpson_radial(
        lambda k: 4.0 * math.pi * k ** 2 * np.exp(-k ** 2)
        * np.sinc(k * r / math.pi))
    got = inner_product(f_gauss, f_gauss.shifted((r, 0.0, 0.0))).value
    assert got.imag == pytest.approx(0.0, abs=1e-12)
    assert got.real == pytest.approx(oracle, rel=1e-6)


# ---------------------------------------------------------------------------
# symplectic form
# ---------------------------------------------------------------------------

def test_symplectic_values(f_gauss, g_gauss):
    assert symplectic(f_gauss, f_gauss) == pytest.approx(0.0, abs=1e-12)
    assert symplectic(f_gauss, g_gauss) == pytest.approx(0.0, abs=1e-12)
    oracle = simpson_radial(
        lambda k: 4.0 * math.pi * k ** 2 * np.exp(-k ** 2) * np.sin(k))
    got = symplectic(f_gauss, f_gauss.time_evolved(1.0))
    assert got == pytest.approx(oracle, rel=1e-6)


def test_symplectic_antisymmetry(f_gauss):
    g = f_gauss.time_evolved(0.7)
    assert symplectic(f_gauss, g) == pytest.approx(
        -symplectic(g, f_gauss), rel=1e-10)


# ---------------------------------------------------------------------------
# m-pairing and source validation
# ---------------------------------------------------------------------------

def test_m_pairing_zero_source(f_gauss, zero_src):
    res = m_pairing(f_gauss, zero_src)
    assert res.in_domain
    assert res.value.value == 0.0


def test_m_pairing_gaussian(f_gauss, gauss_src):
    # radial integrand 4 pi k^{1/2} e^{-k^2}; substitute k = t^2 so the
    # Simpson oracle sees a smooth integrand (8 pi t^2 e^{-t^4})
    oracle = simpson_radial(
        lambda t: 8.0 * math.pi * t ** 2 * np.exp(-t ** 4), k_max=7.0)
    res = m_pairing(f_gauss, gauss_src)
    assert res.in_domain
    assert res.value.value.real == pytest.approx(oracle, rel=1e-6)


def test_m_pairing_tail_divergence():
    # flat test function against a flat source: radial integrand behaves
    # as k^{0.5} at infinity, so the pairing is tagged out of domain
    flat = TestFunction.from_profile(RadialProfile("point_source_flat"))
    src = SourceProfile.point_flat()
    res = m_pairing(flat, src)
    assert not res.in_domain
    assert res.diverging_exponent is not None
    assert res.diverging_exponent >= -1


def test_source_profile_validation():
    # too singular at k = 0 for the omega^{-3/2} pairing
    bad = RadialProfile("power_bump", exponent_at_zero=-1.6, cutoff=1.0)
    with pytest.raises(DivergentIntegralError):
        SourceProfile(bad, d=3, s=1.0)


@pytest.mark.parametrize("a0, s", [(-0.9, 1.4), (-1.2, 1.2)])
def test_source_exponent_tie_is_divergent(a0, s):
    # d - 1 + a0 - 1.5 s is exactly -1 (a log divergence), though its float
    # sum reads -0.9999999999999996 at a0 = -0.9, s = 1.4
    rho = RadialProfile("power_bump", exponent_at_zero=a0, cutoff=1.0)
    with pytest.raises(DivergentIntegralError):
        SourceProfile(rho, d=3, s=s)


# ---------------------------------------------------------------------------
# direction classification
# ---------------------------------------------------------------------------

def test_classify_gaussians(f_gauss, gauss_src):
    assert classify_direction(f_gauss, gauss_src, 1.0) \
        == DirectionClass.BEC_GENERATOR
    assert classify_direction(f_gauss, gauss_src, 0.0) \
        == DirectionClass.PHYSICAL


def test_classify_infrared_singular():
    # f in L1 and L2, but its pairing with omega^{-3/2} rho diverges at
    # k -> 0 (radial exponent -1.1)
    src = SourceProfile(RadialProfile("power_bump", exponent_at_zero=-0.4,
                                      cutoff=1.0), d=3, s=1.0)
    f = TestFunction.power_bump(exponent=-1.2, cutoff=1.0)
    assert f.in_l1() and f.in_l2()
    assert classify_direction(f, src, 0.0) == DirectionClass.INFRARED_SINGULAR


def test_classify_outside(gauss_src):
    flat = TestFunction.from_profile(RadialProfile("point_source_flat"))
    assert classify_direction(flat, gauss_src, 1.0) \
        == DirectionClass.OUTSIDE_D0


def _direction_battery():
    """(f, source) pairs: regular and singular bumps, gaussians, shifted,
    damped and time-evolved functions against regular, singular, flat and
    vanishing sources."""
    fs = [TestFunction.gaussian(),
          TestFunction.gaussian(width=2.0, amplitude=0.7).time_evolved(3.0),
          TestFunction.gaussian().shifted((1.5, 0.0, 0.0)).damped(0.5),
          TestFunction.from_profile(RadialProfile("point_source_flat")),
          TestFunction.from_profile(RadialProfile("point_source_flat"))
          .damped(1.0)]
    fs += [TestFunction.power_bump(exponent=a, cutoff=1.0)
           for a in (-1.2, -0.9, -0.5, 0.0, 1.5)]
    srcs = [SourceProfile.gaussian(),
            SourceProfile.zero(),
            SourceProfile.point_flat(),
            SourceProfile(RadialProfile("power_bump", exponent_at_zero=-0.4,
                                        cutoff=1.0))]
    return [(f, src) for f in fs for src in srcs]


def test_classify_matches_m_pairing_domain():
    # classification decides dom m by exponent arithmetic alone; it must
    # agree with the m-pairing's own verdict on every direction in D0
    verdicts = set()
    for f, src in _direction_battery():
        cls = classify_direction(f, src, 0.0)
        if not (f.in_l1() and f.in_l2()):
            assert cls == DirectionClass.OUTSIDE_D0
            continue
        in_dom = cls != DirectionClass.INFRARED_SINGULAR
        assert in_dom == m_pairing(f, src).in_domain
        verdicts.add(in_dom)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# the exponent rule against the per-integral formulas it replaced
# ---------------------------------------------------------------------------

def _old_exponents(case, d, s, f, g, mu=0.0):
    """(e0, e_inf, raises) as each integral once wrote its own exponent
    arithmetic; e_inf is None where that formula skipped the tail, and
    raises is None where it never raised."""
    fa0, fai, ga0, gai = f.a0, f.a_inf, g.a0, g.a_inf
    tails = fai != NEG_INF and gai != NEG_INF
    if case == "kappa":        # f = g = rho, omega^{-1} T_beta
        e0 = d - 1 + 2 * ga0 - 2 * s
        ei = d - 1 + 2 * gai - s if gai != NEG_INF else None
    elif case == "K_f":        # f against rho, omega^{-1/2} T_beta
        e0 = d - 1 + fa0 + ga0 - 1.5 * s
        ei = d - 1 + fai + gai - 0.5 * s if tails else None
    elif case == "thermal form":   # coth(beta (omega - mu)/2)
        e0 = d - 1 + fa0 + ga0 + (-s if mu == 0.0 else 0.0)
        ei = d - 1 + fai + gai if tails else None
    elif case == "inner product":
        e0 = d - 1 + fa0 + ga0
        ei = d - 1 + fai + gai if tails else None
    elif case == "m":          # f against rho, omega^{-3/2}; tagged, not raised
        e0 = d - 1 + fa0 + ga0 - 1.5 * s
        ei = d - 1 + fai + gai - 1.5 * s if tails else NEG_INF
        return e0, ei, None
    elif case == "source -1/2":    # the CLI's coth identity, mapped as regular
        return d - 1 + fa0 + ga0 - 0.5 * s, None, None
    else:                      # weighted_pairing's unused default
        return d - 1 + fa0 + ga0, None, None
    raises = e0 <= -1 or (ei is not None and ei >= -1)
    return e0, ei, raises


# (case, power, thermal) of the one rule for each former formula
_RULE_ARGS = {
    "kappa": (-1.0, True),
    "K_f": (-0.5, True),
    "inner product": (0.0, False),
    "m": (-1.5, False),
    "source -1/2": (-0.5, False),
    "plain default": (0.0, False),
}


def _exponent_battery(d, s):
    profiles = [RadialProfile("power_bump", exponent_at_zero=a, cutoff=1.0)
                for a in (-1.6, -1.2, -1.0, -0.9, -0.5, 0.0, 0.4)]
    profiles += [RadialProfile("gaussian", width=1.0),
                 RadialProfile("point_source_flat")]
    return [TestFunction((Component(p, shift=(0.0,) * d),), d=d, s=s)
            for p in profiles]


def _exact_exponents(d, s, f, g, power, thermal):
    """pairing_exponents in rational arithmetic on the decimal inputs."""
    def q(x):
        return Fraction(repr(x))
    e0 = d - 1 + q(f.a0) + q(g.a0) + (q(power) - thermal) * q(s)
    if f.a_inf == NEG_INF or g.a_inf == NEG_INF:
        return e0, None
    return e0, d - 1 + q(f.a_inf) + q(g.a_inf) + q(power) * q(s)


def _diverges(e0, ei):
    return e0 <= -1 or (ei is not None and ei >= -1)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("s", [0.3, 0.5, 1.0, 1.4, 2.0])
def test_exponent_rule_matches_old_formulas(d, s):
    # the one rule gives every former caller its old exponents, and its old
    # verdict except at an exact tie at -1 (a log divergence), which the
    # old float sums could misjudge in either direction; there the rule
    # must follow exact arithmetic
    fs = _exponent_battery(d, s)
    verdicts, ties = set(), 0
    for f in fs:
        for g in fs:
            cases = [(c, f if c != "kappa" else g, g, 0.0) for c in _RULE_ARGS]
            cases += [("thermal form", f, g, mu) for mu in (0.0, -0.5)]
            for case, a, b, mu in cases:
                if case == "thermal form":
                    power, thermal = 0.0, mu == 0.0
                else:
                    power, thermal = _RULE_ARGS[case]
                e0, ei = pairing_exponents(a, b, power, thermal)
                old_e0, old_ei, old_raises = _old_exponents(case, d, s, a, b,
                                                            mu)
                assert e0 == pytest.approx(old_e0, abs=1e-12), (case, a, b)
                if old_ei is not None:
                    assert ei == pytest.approx(old_ei, abs=1e-12)
                exact = _exact_exponents(d, s, a, b, power, thermal)
                tie = -1 in exact
                ties += tie
                if old_raises is None:
                    continue
                try:
                    assert convergent_exponent(a, b, power, case,
                                               thermal) == e0
                    raised = False
                except DivergentIntegralError as exc:
                    raised = True
                    assert str(exc).startswith(f"{case} divergent at k")
                assert raised == _diverges(*exact), (case, a, b)
                if not tie:
                    assert raised == old_raises, (case, a, b)
                verdicts.add(raised)
    assert verdicts == {True, False}
    assert ties > 0


def test_source_validation_follows_exact_arithmetic():
    # m and omega m paired with a gaussian decide a source, ties included
    verdicts = set()
    for d in (1, 2, 3):
        for s in (0.3, 0.5, 1.0, 1.2, 1.4, 2.0):
            gauss = TestFunction.gaussian(d=d, s=s)
            for rho in _exponent_battery(d, s):
                bad = any(_exact_exponents(d, s, gauss, rho, p, False)[0]
                          <= -1 for p in (-1.5, -0.5))
                try:
                    SourceProfile(rho.components[0].profile, d=d, s=s)
                    raised = False
                except DivergentIntegralError:
                    raised = True
                assert raised == bad, (d, s, rho)
                verdicts.add(raised)
    assert verdicts == {True, False}


def test_m_divergence_matches_old_formula():
    for d in (1, 2, 3):
        for s in (0.3, 1.0, 1.4, 2.0):
            fs = _exponent_battery(d, s)
            for f in fs:
                for rho in fs:
                    try:
                        src = SourceProfile(rho.components[0].profile, d=d,
                                            s=s)
                    except DivergentIntegralError:
                        continue
                    bad = _m_divergence(f, src)
                    exact = _exact_exponents(d, s, f, rho, -1.5, False)
                    assert (bad is not None) == _diverges(*exact)
                    if -1 in exact:
                        continue
                    e0, ei, _ = _old_exponents("m", d, s, f, rho)
                    old = e0 if e0 <= -1 else (ei if ei >= -1 else None)
                    assert bad == pytest.approx(old, abs=1e-12)


# ---------------------------------------------------------------------------
# the radial rule against QUADPACK
# ---------------------------------------------------------------------------

def _coth(k):
    return 1.0 / np.tanh(0.5 * k)


def _fk(k):
    """Profile of the f_gauss fixture (and of the gauss_src source)."""
    return np.exp(-k ** 2 / 2.0)


def _gk(k):
    """Profile of the g_gauss fixture."""
    return 0.7 * np.exp(-k ** 2 / 8.0)


def _oracle(fn, breakpoints=()):
    """QUADPACK value of the form whose angular-integrated weight is fn."""
    return quad_radial(lambda k: 4.0 * math.pi * k ** 2 * fn(k),
                       breakpoints, tol=1e-14)


def _assert_matches(got, ref, scale=None):
    """1e-10 relative; a cross form <f, T_u g> is measured against its
    Cauchy-Schwarz scale, since its value cancels toward 0 as u grows while
    the quadrature error stays proportional to the integrand."""
    scale = abs(ref) if scale is None else scale
    assert abs(got.value - ref) <= 1e-10 * scale


@pytest.mark.parametrize("order", [12, 16])
def test_gauss_legendre_panels_reuse_one_rule(order):
    # the reference nodes are built once per order and shared read-only;
    # the composite rule stays bit-identical to a fresh leggauss
    edges = np.array([0.0, 0.1, 0.25, 0.7, 1.5])
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    for _ in range(2):
        nodes, weights = gauss_legendre_panels(edges, order)
        assert nodes.tobytes() == (mid + half * x).ravel().tobytes()
        assert weights.tobytes() == (half * w).ravel().tobytes()
        assert nodes.flags.writeable and weights.flags.writeable
    assert _leggauss(order) is _leggauss(order)
    with pytest.raises(ValueError):
        _leggauss(order)[0][0] = 0.0


def test_kronrod_rule_extends_gauss_legendre_12():
    # K25 is exact to degree 3 * 12 + 1 = 37 on [-1, 1], its Gauss weights
    # sit on every other node and reproduce GL12 there, every weight is
    # positive and the rule is symmetric
    x, wk, wg = _gauss_kronrod()
    assert len(x) == 25 and np.all(np.diff(x) > 0)
    for k in range(38):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.dot(wk, x ** k) - exact) <= 1e-14
    xg, wgl = _leggauss(12)
    assert np.max(np.abs(x[1::2] - xg)) <= 1e-15
    assert np.max(np.abs(wg[1::2] - wgl)) <= 1e-15
    assert not wg[0::2].any()
    assert np.all(wk > 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(wk, wk[::-1])
    assert _gauss_kronrod() is _gauss_kronrod()
    with pytest.raises(ValueError):
        _gauss_kronrod()[1][0] = 0.0


def test_gauss_kronrod_panels_embed_the_gauss_legendre_panels():
    # on every panel the Gauss weights are the GL12 composite rule's, and
    # the Kronrod sum integrates a degree-37 polynomial exactly
    edges = np.array([0.0, 0.1, 0.25, 0.7, 1.5])
    nodes, wk, wg = gauss_kronrod_panels(edges)
    gl_nodes, gl_w = gauss_legendre_panels(edges, 12)
    on = wg != 0
    assert np.max(np.abs(nodes[on] - gl_nodes)) <= 1e-15
    assert np.max(np.abs(wg[on] - gl_w)) <= 1e-16
    assert np.dot(wk, nodes ** 37) == pytest.approx(1.5 ** 38 / 38,
                                                    rel=1e-14)


def test_kronrod_rule_is_built_on_first_use():
    code = ("import spinboson.resolvent, spinboson.momentum as m; "
            "print(m._gauss_kronrod.cache_info().currsize)")
    assert _fresh_run(code).strip() == "0"


def test_forms_match_quadpack(f_gauss, g_gauss, gauss_src):
    # the forms of this file, each with its weight for the oracle
    cases = [
        (form_nonzero(f_gauss, f_gauss, 1.0), lambda k: _fk(k) ** 2 * _coth(k)),
        (form_nonzero(f_gauss, g_gauss, 1.0),
         lambda k: _fk(k) * _gk(k) * _coth(k)),
        (form_nonzero(f_gauss, f_gauss, 1.0, mu=-0.3),
         lambda k: _fk(k) ** 2 / np.tanh(0.5 * (k + 0.3))),
        (form_nonzero(f_gauss, g_gauss.time_evolved(50.0), 1.0),
         lambda k: _fk(k) * _gk(k) * np.exp(50j * k) * _coth(k)),
        (inner_product(f_gauss, f_gauss.shifted((1.7, 0.0, 0.0))),
         lambda k: _fk(k) ** 2 * np.sinc(1.7 * k / math.pi)),
        (inner_product(f_gauss, f_gauss.time_evolved(1.0)),
         lambda k: _fk(k) ** 2 * np.exp(1j * k)),
        (m_pairing(f_gauss, gauss_src).value,
         lambda k: _fk(k) ** 2 * k ** -1.5),
    ]
    for got, fn in cases:
        _assert_matches(got, _oracle(fn))
    # a singular bump, k^{-0.9} below its cutoff 1: the bottom panel mapped
    bump = TestFunction.power_bump(exponent=-0.9, cutoff=1.0)
    ref = _oracle(lambda k: (k <= 1.0) * k ** -0.9 * _fk(k) * k ** -1.5,
                  (1.0,))
    _assert_matches(m_pairing(bump, gauss_src).value, ref)


@pytest.mark.parametrize("mode", ["time", "space"])
@pytest.mark.parametrize("u", [1.0, 8.0, 32.0, 64.0, 128.0])
def test_transported_forms_match_quadpack(f_gauss, g_gauss, gauss_src,
                                          mode, u):
    tg = transported(g_gauss, mode, u)
    h = f_gauss + tg

    def phase(k):
        # the angular integral of T_u at |k| = k, over 4 pi
        if mode == "time":
            return np.exp(1j * u * k)
        return np.sinc(u * k / math.pi)

    for form, weight in ((lambda a, b: form_nonzero(a, b, 1.0), _coth),
                         (inner_product, np.ones_like)):
        # |f + T_u g|^2 after the angular integral
        ref = _oracle(lambda k: weight(k) * (
            _fk(k) ** 2 + _gk(k) ** 2 + 2.0 * _fk(k) * _gk(k) * phase(k).real))
        _assert_matches(form(h, h), ref)
        scale = math.sqrt(_oracle(lambda k: weight(k) * _fk(k) ** 2).real
                          * _oracle(lambda k: weight(k) * _gk(k) ** 2).real)
        ref = _oracle(lambda k: weight(k) * _fk(k) * _gk(k) * phase(k))
        _assert_matches(form(f_gauss, tg), ref, scale)
    # <f + T_u g, m> pairs conj(hhat) with the source
    ref = _oracle(lambda k: k ** -1.5 * _fk(k)
                  * (_fk(k) + _gk(k) * np.conj(phase(k))))
    _assert_matches(m_pairing(h, gauss_src).value, ref)


def test_unattainable_form_tolerance_raises(f_gauss, gauss_src):
    with pytest.raises(QuadratureError):
        form_nonzero(f_gauss, f_gauss, 1.0, tol=0.0)
    with pytest.raises(QuadratureError):
        inner_product(f_gauss, f_gauss, tol=0.0)
    with pytest.raises(QuadratureError):
        m_pairing(f_gauss, gauss_src, tol=0.0)


def _imports(names, module):
    return any(n == module or n.startswith(module + ".") for n in names)


def test_src_does_not_import_quadpack():
    # QUADPACK, scipy's splines and scipy.special are the tests' oracles:
    # the package runs every radial integral on its own Gauss-Legendre rule,
    # builds its Hermite cells itself and evaluates the Faddeeva function
    # in numpy, so no module imports scipy at all
    for path in sorted(Path(spinboson.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            assert not _imports(names, "scipy"), \
                f"{path.name} imports {names}"


def _fresh_run(code):
    """stdout of ``code`` run in a fresh interpreter on this package."""
    env = dict(os.environ)
    src = str(Path(spinboson.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_loads_no_scipy():
    code = ("import sys, spinboson, spinboson.cli, spinboson.cluster, "
            "spinboson.resolvent; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    assert _fresh_run(code).strip() == "[]"


def test_state_and_scans_load_no_numpy_ma():
    # np.unique loads numpy.ma (numpy 2.4); nothing in the package uses it
    code = """
import sys
from spinboson.cluster import cluster_scan
from spinboson.momentum import SourceProfile, TestFunction
from spinboson.state import StateConfig
cfg = StateConfig.build(SourceProfile.gaussian(amplitude=0.4), 1.0, 1.0,
                        n0=1e-3, n_loops=2000, seed=1)
f = TestFunction.gaussian()
g = TestFunction.gaussian(width=1.2, amplitude=0.8)
ens = cfg.ensemble
ens.char_function(f, [0.0, 1.0])
ens.variance_two_routes(f, 8)
ens.deviation_bound_check(f, [0.5])
ens.cnumber_criterion(f)
for mode in ("time", "space"):
    cluster_scan(cfg, f, g, mode, (1.0, 2.0))
print(sorted(m for m in sys.modules
             if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""
    assert _fresh_run(code).strip() == "[]"
