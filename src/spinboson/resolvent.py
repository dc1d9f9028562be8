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

with w the Faddeeva function and L(a, 0) = 1/a.  The module evaluates w
itself, by Weideman's rational approximation with N = 36 terms (J. A. C.
Weideman, "Computation of the complex error function", SIAM J. Numer.
Anal. 31 (1994) 1497-1518):

    w(z) = 2 p(Z) / (L - i z)^2 + pi^{-1/2} / (L - i z),
    Z = (L + i z) / (L - i z),  L = sqrt(N / sqrt(2)),

with p a polynomial of degree N - 1 whose real coefficients come from one
FFT at import, and w(z) = 2 exp(-z^2) - w(-z) for Im z < 0.  Where a
positive factor multiplies w, wofz_scaled takes it into the reflection's
exponent, so that a large exp(-z^2) and a small factor never meet as
inf x 0.

Two-point expectations add the Weyl phase exp(-(i/2) s t sigma(f, g))
and the joint characteristic function, which is computable from the same
ensemble because Z is linear in the test function; their inner
t-integral is the same closed form per loop, which leaves one
u-quadrature.  It runs on an embedded Gauss-Kronrod pair
(momentum.gauss_kronrod_panels): each (u-node, loop) body is evaluated
once, at the 25 Kronrod nodes of each panel, and gives both the K25 sum,
which is returned, and the GL12 sum over the 12 Gauss nodes among them,
whose distance from it, the GL12 sum's error, is reported as a
conservative bound on the K25 value's.  The u-range is cut where a
Mills-type bound on the pair's integrand over the quadrant u, t >= 0
(its Gaussian, less the growth of e^{-i s Z} where Z is complex) falls
below the tolerance, and that bound joins the error.  Where the signs of
lambda and mu make the cross term q_fg damp the pair, the quadrature
starts on one panel, otherwise on two.  The factor common to a u-node's
rows rides in the Faddeeva reflection's exponent (wofz_scaled), which
keeps the value finite where the Schur complement of the pair's Gaussian
vanishes, as for g = f and mu = -lambda.

The per-loop closed forms run on TiltedEnsemble.z_values, one Z per
row: the two constant paths, the c = 2 quadrature nodes and the loops
with c >= 4 jumps.  Every value and its Monte Carlo and c = 2 quadrature
error is one TiltedEnsemble.expectation of the array this gives.

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

from spinboson.ensemble import row_sum
from spinboson.momentum import gauss_kronrod_panels, symplectic

# relative accuracy of laplace_gauss, pinned against mpmath in the tests
LAPLACE_RTOL = 1e-13

# terms of Weideman's approximation of w, and the points per Horner pass,
# which keeps its working arrays in cache
_FADDEEVA_N = 36
_FADDEEVA_SLAB = 8192

# (u-node x loop) elements per slab of the two-point quadrature
_SLAB = 1 << 19

# panel doubling of the two-point u-quadrature stops when the K25 and GL12
# sums agree to this over |lambda| |mu|; e^{-2} times it bounds the
# truncation tail.  It sits below the Monte Carlo error of the two-point
# value at 5e4 loops, beta = 1
TWOPOINT_TOL = 1e-7

# halvings of the bracket of the two-point truncation point
_BISECTIONS = 50

# a decay scan is asserted only when q_bec(f) exceeds this floor
DECAY_Q_FLOOR = 1e-6


def _weideman_coefficients(n):
    """L and the coefficients of 2 p, highest power first, for n terms."""
    m = 2 * n
    ell = math.sqrt(n / math.sqrt(2.0))
    t = ell * np.tan(np.arange(1 - m, m) * (math.pi / (2 * m)))
    f = np.concatenate(([0.0], np.exp(-t * t) * (ell * ell + t * t)))
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return ell, 2.0 * a[n:0:-1]


_W_L, _W_COEFFS = _weideman_coefficients(_FADDEEVA_N)
_RSQRT_PI = 1.0 / math.sqrt(math.pi)


def _weideman(z):
    """w(z) by Weideman's approximation, elementwise over a complex array
    with Im z >= 0."""
    flat = z.ravel()
    out = np.empty(flat.shape, dtype=complex)
    size = min(flat.size, _FADDEEVA_SLAB)
    inv_buf = np.empty(size, dtype=complex)
    big_z_buf = np.empty(size, dtype=complex)
    for lo in range(0, flat.size, _FADDEEVA_SLAB):
        zs = flat[lo:lo + _FADDEEVA_SLAB]
        w = out[lo:lo + len(zs)]
        inv, big_z = inv_buf[:len(zs)], big_z_buf[:len(zs)]
        np.multiply(zs, -1j, out=inv)
        inv += _W_L
        np.divide(1.0, inv, out=inv)             # 1 / (L - i z)
        np.multiply(inv, 2.0 * _W_L, out=big_z)
        big_z -= 1.0                             # (L + i z) / (L - i z)
        np.multiply(big_z, _W_COEFFS[0], out=w)
        w += _W_COEFFS[1]
        for c in _W_COEFFS[2:]:
            w *= big_z
            w += c
        w *= inv
        w += _RSQRT_PI
        w *= inv
    return out.reshape(z.shape)


def wofz(z):
    """Faddeeva function w(z) = exp(-z^2) erfc(-i z), elementwise."""
    return wofz_scaled(z, 0.0)[()]


def wofz_scaled(z, log_scale):
    """e^{log_scale} w(z) elementwise, log_scale real and broadcast against
    z.  On the lower half-plane the reflection takes the factor into its
    exponent, 2 exp(log_scale - z^2) - e^{log_scale} w(-z), so a large
    exp(-z^2) meets a small factor before either can overflow or
    underflow; _weideman sees the upper half-plane only."""
    z = np.asarray(z, dtype=complex)
    lower = z.imag < 0
    out = _weideman(np.where(lower, -z, z))
    out *= np.exp(log_scale)
    if lower.any():
        zl = z[lower]
        log_lower = np.broadcast_to(log_scale, z.shape)[lower]
        out[lower] = 2.0 * np.exp(log_lower - zl * zl) - out[lower]
    return out


def laplace_gauss(a, b):
    """L(a, b) = int_0^inf exp(-a u - b u^2) du for complex a and real
    b >= 0 (Re a > 0 when b = 0), elementwise over a."""
    a = np.asarray(a, dtype=complex)
    if b == 0:
        return 1.0 / a
    r = 2.0 * math.sqrt(b)
    return (math.sqrt(math.pi) / r) * wofz(1j * a / r)


def _truncation_point(al, am, rate_f, rate_g, qff, qgg, c):
    """(umax, tail): where the two-point u-quadrature stops, and a bound
    on the part of the integral it leaves out.

    With s = sgn(lambda) u, t = sgn(mu) v and u, v >= 0, each row's
    integrand is at most

        exp(-rate_f u - rate_g v - (q_ff u^2 + 2 c u v + q_gg v^2) / 4)

    in modulus, where q_gg > 0, c = sgn(lambda) sgn(mu) q_fg, rate_f is
    |lambda| less the largest growth rate sgn(lambda) Im Z_f of
    |e^{-i s Z_f}| over the rows (if positive), and rate_g is |mu| less
    that of Z_g; for real Z they are |lambda| and |mu|.  Its integral over
    u >= U, v >= 0 is at most
    tail(U) = C e^{-a U - q U^2/4} / ((a + q U/2) D(U)), a Mills-type
    bound valid wherever a + q U/2 > 0 and D(U) > 0:

    - c > 0, or c = 0 and rate_g > 0: drop q_gg and bound c u v below by
      c U v: a = rate_f, q = q_ff, C = 1, D = rate_g + c U / 2 (for
      rate_g <= 0, positive once U is past -2 rate_g / c);
    - c < 0 and rate_g > 0: the Schur complement q_s = q_ff - c^2 / q_gg
      bounds the form over every real v: a = rate_f, q = q_s, C = 1,
      D = rate_g;
    - c <= 0 and rate_g <= 0: the v-integral of the Gaussian left beside
      q_s, taken over the whole line: a = rate_f - rate_g c / q_gg,
      q = q_s, C = sqrt(4 pi / q_gg) e^{rate_g^2 / q_gg}, D = 1.

    umax is the smallest U with tail(U) <= eps = e^{-2} TWOPOINT_TOL /
    (|lambda| |mu|), found by bisection on log(tail / eps), which
    decreases in U (and is +inf where a denominator is <= 0, so umax is
    moved out until both are positive): from [0, 1], doubled until its
    top end meets the target.  The top end is returned, so tail <= eps.
    Where no rate or curvature makes the bound finite, umax is that of
    real Z and tail is inf.
    """
    q_s = max(qff - c * c / qgg, 0.0)
    log_c, d1 = 0.0, 0.0
    if rate_g > 0 or c > 0:
        a, q, d0 = rate_f, (qff if c >= 0 else q_s), rate_g
        if c >= 0:
            d1 = 0.5 * c
    else:
        a, q, d0 = rate_f - rate_g * c / qgg, q_s, 1.0
        log_c = 0.5 * math.log(4.0 * math.pi / qgg) + rate_g * rate_g / qgg
    if a <= 0 and q <= 0:
        return _truncation_point(al, am, al, am, qff, qgg, c)[0], math.inf
    log_inv_eps = -math.log(TWOPOINT_TOL) + 2.0 + math.log(al * am)

    def excess(u):
        x, d = a + 0.5 * q * u, d0 + d1 * u
        if x <= 0 or d <= 0:
            return math.inf
        return log_c - a * u - 0.25 * q * u * u - math.log(x * d) + log_inv_eps

    lo, hi = 0.0, 1.0
    while excess(hi) > 0:
        lo, hi = hi, 2.0 * hi
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    return hi, math.exp(excess(hi) - log_inv_eps)


def _growth(z, sgn):
    """max(0, max over rows of sgn Im z): the rate at which
    |e^{-i sgn u z}| may grow with u."""
    if not np.iscomplexobj(z):
        return 0.0
    return max(0.0, float(np.max(sgn * z.imag)))


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

    the u-integral runs on panels of [0, umax], each with the 25-point
    Kronrod extension of GL12, doubling up to 64 panels until
    delta = |E~[h_K] - E~[h_G]|, the gap between the K25 sum and the GL12
    sum on the same nodes, is at most TWOPOINT_TOL / (|lambda| |mu|).
    umax and the truncation tail come from _truncation_point, which bounds
    the pair's Gaussian over the quadrant u, t >= 0 and, for complex Z,
    lowers the rates |lambda| and |mu| by the growth of e^{-i s Z_f} and
    e^{-i t Z_g}.  Where c = sgn(lambda) sgn(mu) q_fg >= 0 the cross term
    damps the pair and the first level has one panel; where c < 0 the
    t-integral grows like e^{(c u)^2 / (4 q_gg)} against e^{-q_ff u^2 / 4}
    and it has two.

    The K25 value is returned; its error is delta, the truncation tail,
    the Monte Carlo SE with the c = 2 level gap, and the evaluation error.
    delta is the error of the GL12 sum, so it is a conservative bound for
    the K25 value it accompanies.  Only g = 0 has q_gg = 0; there
    R(mu, 0) = -i / mu, and the pair is -i / mu times the one-point value,
    with its error over |mu|.
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
    if qgg == 0:
        # only g = 0 has q_gg = 0, and R(mu, 0) = -i / mu
        one = resolvent_onepoint(cfg, lam, f)
        return ResolventValue(-1j / mu * one.value, one.error / am)
    c = sgn_l * sgn_m * (cfg.q0(f, g).real + cfg.q_nonzero(f, g).real)
    sig = symplectic(f, g)
    ens = cfg.ensemble
    zf = ens.z_values(f)
    zg = ens.z_values(g)
    umax, tail = _truncation_point(al, am, al - _growth(zf, sgn_l),
                                   am - _growth(zg, sgn_m), qff, qgg, c)

    # the t-integral is L(a, q_gg / 4) = (sqrt(pi) / r) w(i a / r) with
    # r = sqrt(q_gg), and i a / r = k(u) - (sgn(mu) / r) Z_g
    r = math.sqrt(qgg)
    scale = math.sqrt(math.pi) / r
    zg_r = (sgn_m / r) * zg
    # the slab height is set by all n loops, so each row's u-sum rounds
    # the same however many rows there are
    step = max(1, _SLAB // ens.n)
    panels = 1 if c >= 0 else 2
    while True:
        u, wk, wg = gauss_kronrod_panels(np.linspace(0.0, umax, panels + 1))
        s = sgn_l * u
        k = (1j * (am + 0.5 * c * u) - 0.5 * sgn_m * sig * s) / r
        # the positive factors common to every row, inside the Faddeeva
        # reflection's exponent
        log_node = math.log(scale) - al * u - 0.25 * qff * u * u
        h = np.zeros(len(zf), dtype=complex)
        h_gauss = np.zeros(len(zf), dtype=complex)
        h_abs = np.zeros(len(zf))
        for lo in range(0, len(u), step):
            nodes = slice(lo, lo + step)
            arg = np.subtract.outer(k[nodes], zg_r)
            body = np.multiply.outer(-1j * s[nodes], zf)
            np.exp(body, out=body)
            body *= wofz_scaled(arg, log_node[nodes, None])
            h_gauss += row_sum(wg[nodes, None] * body)
            body *= wk[nodes, None]
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
