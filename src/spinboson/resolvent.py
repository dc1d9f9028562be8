"""Resolvent-algebra expectations in closed form per loop.

One-point expectations use the half-line representation

    psi(R(lambda, f)) = -i * int_0^{sgn(lambda) inf} e^{-lambda s}
                        psi(e^{i s Phi(f)}) ds,

reduced to [0, inf) by s = sgn(lambda) u.  The characteristic functional
is the Gaussian factor exp(-q_bec(f) s^2 / 4) times E~[e^{-i s Z}], and Z
is fixed for each loop, so the u-integral is done per loop:

    psi(R(lambda, f)) = E~[-i sgn L(|lambda| + i sgn Z, q_bec(f) / 4)],

    L(a, b) = int_0^inf e^{-a u - b u^2} du
            = sqrt(pi) / (2 sqrt(b)) * w(i a / (2 sqrt(b))),

with w the Faddeeva function (Poppe & Wijers, ACM TOMS 16, 1990) and
L(a, 0) = 1/a.  Two-point expectations add the Weyl phase
exp(-(i/2) s t sigma(f, g)) and the joint characteristic function, which
is computable from the same ensemble because Z is linear in the test
function; their inner t-integral is the same closed form per loop, which
leaves one u-quadrature.  It runs on an embedded Gauss-Kronrod pair
(momentum.gauss_kronrod_panels): each (u-node, loop) body is evaluated
once, at the 25 Kronrod nodes of each panel, and gives both the K25 sum,
which is returned, and the GL12 sum over the 12 Gauss nodes among them,
whose distance from it is the quadrature error.

The per-loop closed forms run on TiltedEnsemble.z_values, one Z per
row: the two constant paths, then the loops with jumps.  Every value and
its Monte Carlo error is one TiltedEnsemble.expectation of the array
this gives.

The one-point value reads, on every row, the mean over the path and its
global spin flip (Z -> -Z; see spinboson.ensemble).  For real b,
L(conj a, b) = conj L(a, b), so for real Z that mean is
-i sgn Re L(|lambda| + i sgn Z, b): one Faddeeva call per row, and the
Laplace transform of TiltedEnsemble.char_function on the same sample.
The two-point value is left un-averaged: its Weyl phase sigma is not
negated by the flip, so the flipped path's L is not the conjugate of the
path's own, and averaging would cost a second Faddeeva pass over every
(u-node, row) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import wofz

from spinboson.ensemble import row_sum
from spinboson.momentum import gauss_kronrod_panels, symplectic

# relative accuracy of laplace_gauss, pinned against mpmath in the tests
LAPLACE_RTOL = 1e-13

# (u-node x loop) elements per slab of the two-point quadrature
_SLAB = 1 << 19

# panel doubling of the two-point u-quadrature stops when two levels agree
# to this over |lambda| |mu|, which also bounds its truncation tail
TWOPOINT_TOL = 1e-6

# a decay scan is asserted only when q_bec(f) exceeds this floor
DECAY_Q_FLOOR = 1e-6


def laplace_gauss(a, b):
    """L(a, b) = int_0^inf exp(-a u - b u^2) du for complex a and real
    b >= 0 (Re a > 0 when b = 0), elementwise over a."""
    a = np.asarray(a, dtype=complex)
    if b == 0:
        return 1.0 / a
    r = 2.0 * math.sqrt(b)
    return (math.sqrt(math.pi) / r) * wofz(1j * a / r)


def _truncation_point(alam, q, log_tol):
    """Smallest u with alam*u + q*u^2/4 >= log_tol (tail certificate),
    in the form that stays exact as q -> 0."""
    return 2.0 * log_tol / (alam + math.sqrt(alam * alam + q * log_tol))


@dataclass
class ResolventValue:
    value: complex
    error: float


def _estimate(ensemble, h, h_abs, error=0.0):
    """E~[h] with its SE, the evaluation error LAPLACE_RTOL E~[h_abs]
    (h_abs bounds the magnitudes summed into h) and any further error."""
    val, se = ensemble.expectation(h)
    scale, _ = ensemble.expectation(h_abs)
    return ResolventValue(complex(val),
                          float(se + LAPLACE_RTOL * scale + error))


def resolvent_onepoint(cfg, lam, f):
    """Expectation of R(lambda, f) with its Monte Carlo + evaluation
    error."""
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    cfg.require_admissible(f)
    sgn = 1.0 if lam > 0 else -1.0
    b = 0.25 * cfg.q_bec(f)
    ens = cfg.ensemble
    z = ens.z_values(f)
    lap = laplace_gauss(abs(lam) + 1j * sgn * z, b)
    # the flipped loop's L(|lam| - i sgn Z) = conj L(|lam| + i sgn conj Z)
    flip = np.conj(lap if not z.imag.any() else
                   laplace_gauss(abs(lam) + 1j * sgn * np.conj(z), b))
    h = -0.5j * sgn * (lap + flip)
    return _estimate(ens, h, 0.5 * (np.abs(lap) + np.abs(flip)))


def resolvent_twopoint(cfg, lam, f, mu, g):
    """Expectation of R(lambda, f) R(mu, g).

    Per loop the t-integral is L(a(u), q_gg / 4) with s = sgn(lambda) u and

        a(u) = |mu| + sgn(mu) (q_fg s / 2 + i sigma s / 2 + i Z_g);

    the u-integral runs on 2, 4, ... 64 panels of [0, umax], each with
    the 25-point Kronrod extension of GL12, until
    delta = |E~[h_K] - E~[h_G]|, the gap between the K25 sum and the GL12
    sum on the same nodes, is at most TWOPOINT_TOL / (|lambda| |mu|).  The
    K25 value is returned; its error is delta, the truncation tail, the
    Monte Carlo SE and the evaluation error.
    """
    if lam == 0 or mu == 0:
        raise ValueError("lambda and mu must be nonzero")
    cfg.require_admissible(f)
    cfg.require_admissible(g)
    sgn_l = 1.0 if lam > 0 else -1.0
    sgn_m = 1.0 if mu > 0 else -1.0
    al, am = abs(lam), abs(mu)
    qff = cfg.q_bec(f)
    qgg = cfg.q_bec(g)
    qfg = (cfg.q0(f, g).real + cfg.q_nonzero(f, g).real)
    sig = symplectic(f, g)
    ens = cfg.ensemble
    zf = ens.z_values(f)
    zg = ens.z_values(g)

    # the Gaussian of the pair is at least the Schur complement q_s u^2/4
    # for every t, so truncating u at umax leaves a tail below
    # e^{-al umax - q_s umax^2 / 4} / (al am)
    q_s = max(qff - qfg * qfg / qgg if qgg > 0 else qff, 0.0)
    log_tol = -math.log(TWOPOINT_TOL) + 2.0
    umax = _truncation_point(al, q_s, log_tol)
    tail = math.exp(-al * umax - 0.25 * q_s * umax * umax) / (al * am)

    # the slab height is set by all n loops, so each row's u-sum rounds
    # the same however many rows there are
    step = max(1, _SLAB // ens.n)
    panels = 2
    while True:
        u, wk, wg = gauss_kronrod_panels(np.linspace(0.0, umax, panels + 1))
        h = np.zeros(len(zf), dtype=complex)
        h_gauss = np.zeros(len(zf), dtype=complex)
        h_abs = np.zeros(len(zf))
        for lo in range(0, len(u), step):
            uu = u[lo:lo + step, None]
            s = sgn_l * uu
            a = am + sgn_m * (0.5 * qfg * s + 0.5j * sig * s + 1j * zg)
            # in place, so a slab holds no more arrays than one rule's pass
            body = np.exp(-al * uu - 0.25 * qff * uu * uu - 1j * s * zf)
            body *= laplace_gauss(a, 0.25 * qgg)
            h_gauss += row_sum(wg[lo:lo + step, None] * body)
            body *= wk[lo:lo + step, None]
            h += row_sum(body)
            h_abs += row_sum(np.abs(body))
        h *= -sgn_l * sgn_m
        val, _ = ens.expectation(h)
        gauss, _ = ens.expectation(-sgn_l * sgn_m * h_gauss)
        delta = abs(val - gauss)
        if delta <= TWOPOINT_TOL / (al * am) or panels >= 64:
            break
        panels *= 2
    return _estimate(ens, h, h_abs, delta + tail)


@dataclass
class DecayScanReport:
    amplitudes: list
    moduli: list
    errors: list
    q_bec: float
    monotone: bool
    final_ratio: float
    asserted: bool
    passed: bool


def bec_decay_scan(cfg, lam, f, t_grid, threshold=0.1):
    """|psi(R(lambda, t f))| along increasing amplitudes t.

    When q_bec(f) exceeds DECAY_Q_FLOOR, the scan is asserted: it passes when
    the moduli decrease strictly and the final/first ratio is below the
    threshold.  An unasserted scan passes."""
    t_grid = [float(t) for t in t_grid]
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("amplitude grid must be increasing")
    moduli, errors = [], []
    for t in t_grid:
        rv = resolvent_onepoint(cfg, lam, f.scaled(t))
        moduli.append(abs(rv.value))
        errors.append(rv.error)
    monotone = all(b < a for a, b in zip(moduli, moduli[1:]))
    final_ratio = moduli[-1] / moduli[0] if moduli[0] > 0 else math.inf
    qb = cfg.q_bec(f)
    asserted = qb > DECAY_Q_FLOOR
    passed = not asserted or (monotone and final_ratio < threshold)
    return DecayScanReport(t_grid, moduli, errors, qb, monotone,
                           final_ratio, asserted, passed)


@dataclass
class IdealReportRow:
    name: str
    classification: str
    witness_modulus: float
    witness_error: float
    decay_summary: str


@dataclass
class IdealReport:
    rows: list
    jir_generators: list
    outside: list
    x_bec_empty: bool


def ideal_report(cfg, directions):
    """Classify each named direction and attach generator-level evidence.

    directions: sequence of (name, TestFunction).  Physical and
    condensate directions get the witness |psi(R(1, f))| > 0; condensate
    directions additionally get a decay-scan summary.
    """
    rows = []
    jir, outside = [], []
    any_bec = False
    for name, f in directions:
        cls = cfg.classify(f)
        witness_mod = 0.0
        witness_err = 0.0
        decay = ""
        if cls.value in ("physical", "bec_generator"):
            rv = resolvent_onepoint(cfg, 1.0, f)
            witness_mod = abs(rv.value)
            witness_err = rv.error
            if witness_mod <= witness_err:
                decay = "witness consistent with zero"
        if cls.value == "bec_generator":
            any_bec = True
            rep = bec_decay_scan(cfg, 1.0, f, (1.0, 2.0, 4.0),
                                 threshold=1.0)
            decay = (f"decay ratio {rep.final_ratio:.3g} over amplitudes "
                     f"{rep.amplitudes[0]:g}..{rep.amplitudes[-1]:g}")
        elif cls.value == "infrared_singular":
            jir.append(name)
        elif cls.value == "outside_D0":
            outside.append(name)
        rows.append(IdealReportRow(name, cls.value, witness_mod,
                                   witness_err, decay))
    return IdealReport(rows, jir, outside, not any_bec)
