"""Momentum-space test functions, sources, and static sesquilinear forms.

Test functions live entirely on the Fourier side.  Each is a finite sum of
components

    fhat_c(k) = coeff * profile(|k|) * exp(i*u*omega(k))
                * exp(-i*k.x) * exp(-t*omega(k)/2),

with omega(k) = |k|^s.  Only three analytic radial families are supported
(gaussian, hard-cutoff power bump, flat point source) so that membership in
L1, L2 and the domain of the m-functional is decidable by exact exponent
arithmetic instead of fragile numerics.

All integrals are reduced to the radial coordinate.  In d = 3 a spatial
shift x contributes the angular factor 4*pi*sin(k*r)/(k*r) with r the
relative shift between the two paired components; in other dimensions only
unshifted components are supported.

Every radial integral, here and in the kernel tables, runs on one
composite Gauss-Legendre rule on k = tan(theta) (refine_rule): panels split
at the profile cutoffs, graded toward k = 0 by the integrand's exact
exponent there, and bisected until two successive levels agree.  That
exponent, and every divergence verdict, comes from one rule
(pairing_exponents).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

NEG_INF = float("-inf")

#: default tolerance of the radial rule for the forms (absolute for values
#: below 1, relative above)
DEFAULT_QUAD_TOL = 1e-10


class DivergentIntegralError(ValueError):
    """Raised when exponent arithmetic declares an integral divergent."""

    def __init__(self, message, exponent=None):
        super().__init__(message)
        self.exponent = exponent


def dispersion(k_mag, s):
    """Dispersion relation |k|^s.  Vectorized in ``k_mag``; requires s > 0."""
    if s <= 0:
        raise ValueError("dispersion exponent must be positive")
    k = np.asarray(k_mag, dtype=float)
    if np.any(k < 0):
        raise ValueError("momentum magnitude must be non-negative")
    out = np.power(k, s)
    return out if out.ndim else float(out)


def sphere_area(d):
    """Surface area of the unit sphere in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass(frozen=True)
class RadialProfile:
    """One of the three analytic radial families.

    kind:
        "gaussian"          -> amplitude * exp(-k^2 / (2 width^2))
        "power_bump"        -> amplitude * k^exponent_at_zero for k <= cutoff, else 0
        "point_source_flat" -> amplitude (constant)
    """

    kind: str
    amplitude: float = 1.0
    width: float | None = None
    exponent_at_zero: float | None = None
    cutoff: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        if self.kind == "gaussian":
            if self.width is None or self.width <= 0:
                raise ValueError("gaussian profile needs width > 0")
        elif self.kind == "power_bump":
            if self.cutoff is None or self.cutoff <= 0:
                raise ValueError("power bump needs cutoff > 0")
            if self.exponent_at_zero is None:
                raise ValueError("power bump needs exponent_at_zero")
        elif self.kind == "point_source_flat":
            pass
        else:
            raise ValueError(f"unknown profile kind {self.kind!r}")

    def value(self, k):
        """Profile value at radial momentum k (vectorized)."""
        k = np.asarray(k, dtype=float)
        if self.kind == "gaussian":
            out = self.amplitude * np.exp(-(k ** 2) / (2.0 * self.width ** 2))
        elif self.kind == "point_source_flat":
            out = np.full_like(k, self.amplitude)
        else:
            a = self.exponent_at_zero
            with np.errstate(divide="ignore"):
                out = np.where(k <= self.cutoff,
                               self.amplitude * np.power(k, a), 0.0)
        return out if out.ndim else float(out)

    @property
    def a0(self):
        """Exact power-law exponent at k -> 0."""
        if self.kind == "power_bump":
            return float(self.exponent_at_zero)
        return 0.0

    @property
    def a_inf(self):
        """Exact power-law exponent at k -> infinity (-inf if compactly
        supported or super-polynomially decaying)."""
        if self.kind == "point_source_flat":
            return 0.0
        return NEG_INF

    @property
    def breakpoints(self):
        return (self.cutoff,) if self.kind == "power_bump" else ()


@dataclass(frozen=True)
class Component:
    """One additive component of a test function (Fourier side)."""

    profile: RadialProfile
    coeff: complex = 1.0 + 0.0j
    time_phase: float = 0.0      # u in exp(i u omega)
    shift: tuple = (0.0, 0.0, 0.0)
    damp: float = 0.0            # t >= 0 in exp(-t omega / 2)

    def __post_init__(self):
        if self.damp < 0:
            raise ValueError("euclidean damping must be >= 0")
        object.__setattr__(self, "coeff", complex(self.coeff))
        object.__setattr__(self, "shift", tuple(float(x) for x in self.shift))


@dataclass(frozen=True)
class TestFunction:
    """Momentum-space test function: a sum of analytic components.

    The asymptotic exponents a0, a_inf of |fhat| at k -> 0 and k -> infinity
    are derived from the components at construction (no cancellation between
    components is assumed).
    """

    components: tuple
    d: int = 3
    s: float = 1.0
    a0: float = field(init=False)
    a_inf: float = field(init=False)

    def __post_init__(self):
        # an unshifted component sits at the origin of any dimension
        comps = tuple(c if any(c.shift) else replace(c, shift=(0.0,) * self.d)
                      for c in self.components)
        if not comps:
            raise ValueError("test function needs at least one component")
        for c in comps:
            if len(c.shift) != self.d:
                raise ValueError("shift dimension mismatch")
            if any(c.shift) and self.d != 3:
                raise ValueError("spatial shifts are supported only in d = 3")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "a0", min(c.profile.a0 for c in comps))
        a_inf = max(
            NEG_INF if c.damp > 0 else c.profile.a_inf for c in comps
        )
        object.__setattr__(self, "a_inf", a_inf)

    # -- simple constructors -------------------------------------------------

    @staticmethod
    def from_profile(profile, d=3, s=1.0, **kw):
        return TestFunction((Component(profile, **kw),), d=d, s=s)

    @staticmethod
    def gaussian(width=1.0, amplitude=1.0, d=3, s=1.0, **kw):
        prof = RadialProfile("gaussian", amplitude=amplitude, width=width)
        return TestFunction((Component(prof, **kw),), d=d, s=s)

    @staticmethod
    def power_bump(exponent, cutoff=1.0, amplitude=1.0, d=3, s=1.0, **kw):
        prof = RadialProfile("power_bump", amplitude=amplitude,
                             exponent_at_zero=exponent, cutoff=cutoff)
        return TestFunction((Component(prof, **kw),), d=d, s=s)

    # -- algebra -------------------------------------------------------------

    def scaled(self, alpha):
        """alpha * f (complex scalar)."""
        comps = tuple(replace(c, coeff=alpha * c.coeff) for c in self.components)
        return TestFunction(comps, d=self.d, s=self.s)

    def __add__(self, other):
        if not isinstance(other, TestFunction):
            return NotImplemented
        if (other.d, other.s) != (self.d, self.s):
            raise ValueError("cannot add test functions with different (d, s)")
        return TestFunction(self.components + other.components, d=self.d, s=self.s)

    def time_evolved(self, u):
        """exp(i u omega) f."""
        comps = tuple(replace(c, time_phase=c.time_phase + u)
                      for c in self.components)
        return TestFunction(comps, d=self.d, s=self.s)

    def shifted(self, x):
        """Spatial translation: fhat -> exp(-i k.x) fhat."""
        x = tuple(float(v) for v in x)
        comps = tuple(
            replace(c, shift=tuple(a + b for a, b in zip(c.shift, x)))
            for c in self.components
        )
        return TestFunction(comps, d=self.d, s=self.s)

    def damped(self, t):
        """Euclidean damping exp(-|t| omega / 2) f."""
        t = abs(float(t))
        comps = tuple(replace(c, damp=c.damp + t) for c in self.components)
        return TestFunction(comps, d=self.d, s=self.s)

    # -- evaluation ----------------------------------------------------------

    def fhat0(self):
        """fhat(0).  Requires a0 >= 0 (finite zero mode)."""
        if self.a0 < 0:
            raise DivergentIntegralError(
                "zero-mode value undefined for a0 < 0", exponent=self.a0)
        return sum(c.coeff * c.profile.value(0.0) for c in self.components)

    @property
    def breakpoints(self):
        """Profile cutoffs of all components."""
        return tuple(b for c in self.components for b in c.profile.breakpoints)

    def radial_factor(self, k, component):
        """Radial part of one component (everything except the shift phase)."""
        c = component
        om = dispersion(k, self.s)
        return (c.coeff * c.profile.value(k)
                * np.exp((1j * c.time_phase - 0.5 * c.damp) * om))

    # -- membership by exponent arithmetic -----------------------------------

    def in_l2(self):
        low = self.d - 1 + 2 * self.a0 > -1
        high = self.a_inf == NEG_INF or self.d - 1 + 2 * self.a_inf < -1
        return low and high

    def in_l1(self):
        low = self.d - 1 + self.a0 > -1
        high = self.a_inf == NEG_INF or self.d - 1 + self.a_inf < -1
        return low and high


@dataclass(frozen=True)
class SourceProfile:
    """Coupling source rho (radial momentum profile) with dimension and
    dispersion exponent.  Derived functions:

        mhat(k)    = omega^{-3/2} rhohat(k)
        omhat(k)   = omega^{-1/2} rhohat(k)    (the interaction direction)
    """

    rho: RadialProfile
    d: int = 3
    s: float = 1.0

    def __post_init__(self):
        if self.s <= 0:
            raise ValueError("dispersion exponent must be positive")
        # m and omega*m must be radially integrable against k^{d-1} when
        # paired with any gaussian (only the k -> 0 end can fail).
        if self.rho.amplitude != 0.0:
            gauss = TestFunction.gaussian(d=self.d, s=self.s)
            for power in (-1.5, -0.5):
                convergent_exponent(gauss, self.rho, power,
                                    "source against a gaussian")

    @property
    def is_zero(self):
        return self.rho.amplitude == 0.0

    def as_test_function(self):
        """rho as a one-component, unshifted test function."""
        return TestFunction.from_profile(self.rho, d=self.d, s=self.s)

    @staticmethod
    def gaussian(width=1.0, amplitude=1.0, d=3, s=1.0):
        return SourceProfile(RadialProfile("gaussian", amplitude=amplitude,
                                           width=width), d=d, s=s)

    @staticmethod
    def zero(d=3, s=1.0):
        return SourceProfile(RadialProfile("gaussian", amplitude=0.0,
                                           width=1.0), d=d, s=s)

    @staticmethod
    def point_flat(amplitude=1.0, d=3, s=1.0):
        return SourceProfile(RadialProfile("point_source_flat",
                                           amplitude=amplitude), d=d, s=s)


@dataclass(frozen=True)
class FormValue:
    """A form value with its absolute error estimate (see refine_rule)."""

    value: complex
    abs_error: float = 0.0

    @property
    def real(self):
        return self.value.real


class DirectionClass(Enum):
    PHYSICAL = "physical"
    INFRARED_SINGULAR = "infrared_singular"
    BEC_GENERATOR = "bec_generator"
    OUTSIDE_D0 = "outside_D0"


# ---------------------------------------------------------------------------
# the radial rule: composite Gauss-Legendre on k = tan(theta)
# ---------------------------------------------------------------------------

class QuadratureError(RuntimeError):
    """Momentum quadrature failed to converge within the panel budget."""


_GL_ORDER = 16
# level-0 panels per theta segment, and the bisections allowed after it
# (1024 panels per segment at the last level)
_BASE_PANELS = 8
_MAX_LEVEL = 7
# deepest grading toward k = 0, so powers of k stay clear of underflow
_MAX_DEPTH = 200
# Gauss order of the embedded Gauss-Kronrod pair (K25 on GL12)
_KRONROD_GAUSS_ORDER = 12


@functools.cache
def _leggauss(order):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order
    and shared read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _on_panels(edges, x, *weights):
    """Nodes x and weights of a rule on [-1, 1], mapped onto every panel
    of the given edges."""
    a = edges[:-1]
    b = edges[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    return (nodes,) + tuple((half[:, None] * w[None, :]).ravel()
                            for w in weights)


def gauss_legendre_panels(edges, order=_GL_ORDER):
    """Composite Gauss-Legendre nodes and weights on the given panel
    edges."""
    return _on_panels(edges, *_leggauss(order))


def _kronrod_recurrence(n):
    """Recurrence coefficients (a, b) of the Jacobi-Kronrod matrix of
    order 2n + 1 for the Legendre weight (Laurie, Math. Comp. 66 (1997)
    1133): its eigenvalues are the 2n + 1 Kronrod nodes, n of them the
    Gauss-Legendre nodes of order n."""
    m3 = (3 * n + 1) // 2 + 1
    a = np.zeros(2 * n + 1)
    b = np.zeros(2 * n + 1)
    b[0] = 2.0
    k = np.arange(1, m3)
    b[1:m3] = k * k / (4.0 * k * k - 1.0)
    s = np.zeros(n // 2 + 2)
    t = np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        l = m - k
        s[k + 1] = np.cumsum((a[k + n + 1] - a[l]) * t[k + 1]
                             + b[k + n + 1] * s[k] - b[l] * s[k + 1])
        s, t = t, s
    j = np.arange(n // 2, -1, -1)
    s[j + 1] = s[j]
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        l = m - k
        j = n - 1 - l
        s[j + 1] = np.cumsum(-(a[k + n + 1] - a[l]) * t[j + 1]
                             - b[k + n + 1] * s[j + 1] + b[l] * s[j + 2])
        j = j[-1]
        k = (m + 1) // 2
        if m % 2 == 0:
            a[k + n + 1] = a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2]) \
                / t[j + 2]
        else:
            b[k + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    return a, b


@functools.cache
def _gauss_kronrod():
    """Nodes of K25, the 25-point Kronrod extension of GL12 on [-1, 1],
    its weights, and the GL12 weights on the same nodes (0 on the
    Kronrod-only ones), built on first use and shared read-only."""
    a, b = _kronrod_recurrence(_KRONROD_GAUSS_ORDER)
    x, v = np.linalg.eigh(np.diag(a) + np.diag(np.sqrt(b[1:]), 1)
                         + np.diag(np.sqrt(b[1:]), -1))
    w = b[0] * v[0] ** 2
    # the rule is symmetric: mirror away the eigensolver's rounding
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    # the Gauss nodes are every other Kronrod node, starting at the second
    wg = np.zeros_like(w)
    wg[1::2] = _leggauss(_KRONROD_GAUSS_ORDER)[1]
    for arr in (x, w, wg):
        arr.flags.writeable = False
    return x, w, wg


def gauss_kronrod_panels(edges):
    """Composite embedded G12/K25 rule on the given panel edges: nodes,
    K25 weights, and GL12 weights on the same nodes (0 on the Kronrod-only
    ones), so one pass over the integrand gives both sums."""
    return _on_panels(edges, *_gauss_kronrod())


def _grading_depth(exponent, tol):
    """Halvings D toward k = 0 for an integrand ~ k^exponent there.

    A non-negative integer exponent is analytic at 0 and needs none; a
    fractional one is graded until the bottom panel's mass, about
    2^{-D(1 + exponent)}, is below tol."""
    if exponent >= 0 and exponent == math.floor(exponent):
        return 0
    if tol <= 0 or exponent <= -1:
        return _MAX_DEPTH
    return min(_MAX_DEPTH,
               max(1, math.ceil(-math.log2(tol) / (1.0 + exponent))))


def _theta_edges(breaks, depth, level):
    """Panel edges in theta on (0, pi/2) at refinement ``level``.

    Level 0 splits (0, pi/2) at the profile cutoffs into _BASE_PANELS
    uniform panels per segment, and grades the bottom panel toward k = 0
    in layers of ratio 4 down to 2^{-depth} of its width (16 nodes
    integrate k^e times a smooth factor on [a, 4a] to about 1e-15).
    Level j bisects every level-0 panel j times, graded layers included,
    so each level's edges contain the previous level's: the rules are
    nested, and two successive levels differ wherever the coarser one is
    unresolved."""
    pts = sorted({math.atan(b) for b in breaks if b})
    segs = np.array([0.0] + [p for p in pts if p < 0.5 * math.pi]
                    + [0.5 * math.pi])
    frac = np.arange(_BASE_PANELS) / _BASE_PANELS
    starts = (segs[:-1, None] + np.diff(segs)[:, None] * frac).ravel()
    graded = starts[1] * 2.0 ** -np.arange(depth, 0, -2.0)
    base = np.concatenate([[0.0], graded, starts[1:], segs[-1:]])
    sub = np.arange(1 << level) / (1 << level)
    fine = (base[:-1, None] + np.diff(base)[:, None] * sub).ravel()
    return np.append(fine, base[-1])


def _tan_rule(edges):
    """Gauss-Legendre nodes and weights on the theta panels, mapped to
    k = tan(theta)."""
    theta, wt = gauss_legendre_panels(edges)
    return np.tan(theta), wt / np.cos(theta) ** 2


def refine_rule(gfun, breaks, exponent, probe, tol):
    """Bisect every panel until the probe vector stabilizes.

    gfun(k) is the integrand, ~ k^exponent at k -> 0 (which sets the
    grading there); probe(k, gw) maps a rule with weights gw = w * gfun(k)
    to a small vector of representative integrals.  Returns (k, gw, err)
    of the finer of the two agreeing levels, err being their largest
    probe difference.  tol = 0 never accepts (probes can agree to the last
    bit by coincidence long before the rule is trustworthy)."""
    depth = _grading_depth(exponent, tol)
    prev = None
    for level in range(_MAX_LEVEL + 1):
        k, w = _tan_rule(_theta_edges(breaks, depth, level))
        gw = w * gfun(k)
        vals = np.atleast_1d(probe(k, gw))
        if prev is not None:
            err = float(np.max(np.abs(vals - prev)))
            if tol > 0 and err <= tol * (1.0 + np.max(np.abs(vals))):
                return k, gw, err
        prev = vals
    raise QuadratureError(
        "momentum rule did not converge within the panel budget")


def angular_factor(d, k, r):
    """Angular integral factor for relative shift r (r = 0: full sphere)."""
    if r == 0.0:
        return sphere_area(d)
    # d == 3 enforced at construction for shifted components
    kr = k * r
    return 4.0 * math.pi * np.sinc(kr / math.pi)


def radial_integrand(f, g):
    """k -> k^{d-1} times the angular integral of conj(fhat) ghat over the
    sphere of radius k, vectorized over k: each component's radial factor
    is formed once, and the pairs at one relative shift share an angular
    factor."""
    if (f.d, f.s) != (g.d, g.s):
        raise ValueError("test functions live on different (d, s) spaces")
    d = f.d
    dist = np.array([[math.dist(cf.shift, cg.shift) for cg in g.components]
                     for cf in f.components])
    shells = [(r, (dist == r).astype(float)) for r in sorted(set(dist.flat))]

    def integrand(k):
        fr = np.conj([f.radial_factor(k, c) for c in f.components])
        gr = np.array([g.radial_factor(k, c) for c in g.components])
        tot = sum(angular_factor(d, k, r) * np.sum(fr * (pairs @ gr), axis=0)
                  for r, pairs in shells)
        return k ** (d - 1) * tot

    return integrand


def pairing_exponents(f, g, power, thermal=False):
    """(e0, e_inf): the exponents at k -> 0 and k -> infinity of the radial
    integrand k^{d-1} |fhat| |ghat| omega^power.  d and s are f's; g may
    be a test function or a radial profile (only its a0, a_inf are read).

    A thermal weight (coth or T_beta, ~ 2/(beta omega) at k -> 0 and
    bounded at infinity) adds -s at k -> 0 only.  e_inf is -inf when
    either function decays faster than any power."""
    d, s = f.d, f.s
    # the exponents are sums of decimal inputs: rounded to 12 places, an
    # exact tie at -1 (a log divergence) reads as -1 whatever the order of
    # the float additions
    e0 = round(d - 1 + f.a0 + g.a0 + (power - 1.0 if thermal else power) * s,
               12)
    if f.a_inf == NEG_INF or g.a_inf == NEG_INF:
        return e0, NEG_INF
    return e0, round(d - 1 + f.a_inf + g.a_inf + power * s, 12)


def convergent_exponent(f, g, power, label, thermal=False):
    """The exponent at k -> 0 of pairing_exponents, which sets the rule's
    grading; raises DivergentIntegralError, naming ``label``, when the
    integral diverges at either end."""
    e0, ei = pairing_exponents(f, g, power, thermal)
    if e0 <= -1:
        raise DivergentIntegralError(
            f"{label} divergent at k -> 0 (exponent {e0})", exponent=e0)
    if ei >= -1:
        raise DivergentIntegralError(
            f"{label} divergent at k -> infinity (exponent {ei})",
            exponent=ei)
    return e0


def weighted_pairing(f, g, weight, exponent, tol=DEFAULT_QUAD_TOL):
    """< f, weight(omega) g > on the certified radial rule.

    ``weight`` maps the dispersion value to a real factor, and
    ``exponent`` is the integrand's exponent at k -> 0, weight included
    (convergent_exponent), which sets the grading there.  The abs_error
    is the difference of the last two rule levels."""
    integrand = radial_integrand(f, g)
    _, gw, err = refine_rule(
        lambda k: integrand(k) * weight(dispersion(k, f.s)),
        f.breakpoints + g.breakpoints, exponent, lambda k, gw: gw.sum(), tol)
    return FormValue(complex(gw.sum()), err)


# ---------------------------------------------------------------------------
# the static forms
# ---------------------------------------------------------------------------

def form_zero(f, g, n0):
    """Zero-mode (condensate) form 2 (2 pi)^d n0 conj(fhat(0)) ghat(0).

    Exact arithmetic; rejects inputs whose zero-mode value is undefined
    (a0 < 0).  For f = g the result is real and >= 0.
    """
    if n0 < 0:
        raise ValueError("condensate density must be >= 0")
    if f.a0 < 0 or g.a0 < 0:
        raise DivergentIntegralError("zero mode undefined for a0 < 0",
                                     exponent=min(f.a0, g.a0))
    if f.d != g.d:
        raise ValueError("dimension mismatch")
    val = 2.0 * (2.0 * math.pi) ** f.d * n0 * np.conj(f.fhat0()) * g.fhat0()
    return FormValue(complex(val), 0.0)


def form_nonzero(f, g, beta, mu=0.0, tol=DEFAULT_QUAD_TOL):
    """Non-zero-mode thermal form < f, coth(beta (omega - mu)/2) g >.

    mu <= 0; the mu = 0 path evaluates the exact coth(beta omega / 2)
    integrand.  Conjugate-symmetric, and real >= 0 on the diagonal.
    """
    if beta <= 0:
        raise ValueError("inverse temperature must be positive")
    if mu > 0:
        raise ValueError("chemical potential must be <= 0")
    # coth(beta (omega - mu)/2) ~ 2/(beta omega) at k -> 0 only at mu = 0
    e0 = convergent_exponent(f, g, 0.0, "thermal form", thermal=mu == 0.0)
    return weighted_pairing(
        f, g, lambda om: 1.0 / np.tanh(0.5 * beta * (om - mu)), e0, tol)


def inner_product(f, g, tol=DEFAULT_QUAD_TOL):
    """Plain L2 inner product < f, g >."""
    e0 = convergent_exponent(f, g, 0.0, "inner product")
    return weighted_pairing(f, g, lambda om: 1.0, e0, tol)


def symplectic(f, g, tol=DEFAULT_QUAD_TOL):
    """Symplectic form sigma(f, g) = Im < f, g >."""
    return inner_product(f, g, tol=tol).value.imag


@dataclass(frozen=True)
class MPairingResult:
    """Result of the m-pairing: either a value or the "not in dom m" tag."""

    in_domain: bool
    value: FormValue | None = None
    diverging_exponent: float | None = None


def _m_divergence(f, src):
    """The exponent at which < f, m > diverges, or None when f is in
    dom m (always, for a vanishing source)."""
    e0, ei = pairing_exponents(f, src.rho, -1.5)
    if src.is_zero or (e0 > -1 and ei < -1):
        return None
    return e0 if e0 <= -1 else ei


def m_pairing(f, src, tol=DEFAULT_QUAD_TOL):
    """< f, m > with mhat = omega^{-3/2} rhohat.

    Divergence (by exponent arithmetic) yields a tagged "not in dom m"
    result instead of an exception.
    """
    bad = _m_divergence(f, src)
    if bad is not None:
        return MPairingResult(False, diverging_exponent=bad)
    if src.is_zero:
        return MPairingResult(True, FormValue(0.0 + 0.0j, 0.0))
    rho = src.as_test_function()
    val = weighted_pairing(f, rho, lambda om: np.power(om, -1.5),
                           pairing_exponents(f, rho, -1.5)[0], tol)
    return MPairingResult(True, val)


def classify_direction(f, src, n0):
    """Direction classification for the ideal-structure bookkeeping.

    outside_D0          : f not in L1 ∩ L2 (zero-mode form undefined)
    infrared_singular   : zero mode fine but the m-pairing diverges
    bec_generator       : physical with positive condensate form
    physical            : everything else

    Exponent arithmetic alone decides; no integral is evaluated.
    """
    if not (f.in_l1() and f.in_l2()):
        return DirectionClass.OUTSIDE_D0
    if _m_divergence(f, src) is not None:
        return DirectionClass.INFRARED_SINGULAR
    if n0 > 0 and form_zero(f, f, n0).value.real > 0:
        return DirectionClass.BEC_GENERATOR
    return DirectionClass.PHYSICAL
