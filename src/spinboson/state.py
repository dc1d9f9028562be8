"""Characteristic functionals of the assembled equilibrium state.

The state is accessed only through Euclidean data:

    psi(W(f)) = exp(-1/4 q0(f) - 1/4 q_{!=0,beta}(f)) * S(f),

where the Gaussian forms come from the momentum module and the spin
factor S is a tilted-ensemble average.  Zero-mode and non-zero-mode
contributions stay separated throughout, which is what the cluster and
no-go diagnostics exploit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from spinboson.ensemble import build_ensemble
from spinboson.kernels import ThermalKernelTable
from spinboson.loops import SpinMeasureParams
from spinboson.momentum import (
    DirectionClass,
    classify_direction,
    form_nonzero,
    form_zero,
    m_pairing,
    symplectic,
)


class DirectionRejected(ValueError):
    """Raised for test functions outside the admissible direction set
    (infrared-singular directions generate the rejected ideal)."""

    def __init__(self, classification, message):
        super().__init__(message)
        self.classification = classification


@dataclass
class StateConfig:
    """Parameter tuple plus the shared kernel table and loop ensemble."""

    beta: float
    eps: float
    d: int
    s: float
    n0: float
    source: object
    kernels: ThermalKernelTable
    ensemble: object
    _q_cache: dict = field(default_factory=dict, repr=False)
    _class_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.kernels.beta != self.beta:
            raise ValueError("kernel table built at a different beta")
        if self.kernels.src is not self.source \
                and self.kernels.src != self.source:
            raise ValueError("kernel table built for a different source")
        if self.ensemble.kernels is not self.kernels:
            raise ValueError("ensemble does not share the kernel table")
        if self.ensemble.params.beta != self.beta \
                or self.ensemble.params.eps != self.eps:
            raise ValueError("ensemble built at different (beta, eps)")

    @classmethod
    def build(cls, source, beta, eps, n0=0.0, n_loops=20000, seed=0, tol=1e-9):
        kernels = ThermalKernelTable(source, beta, tol=tol)
        ens = build_ensemble(SpinMeasureParams(beta, eps), kernels, n_loops,
                             seed)
        return cls(beta=beta, eps=eps, d=source.d, s=source.s, n0=n0,
                   source=source, kernels=kernels, ensemble=ens)

    # -- cached forms --------------------------------------------------------

    def q0(self, f, g=None):
        key = ("q0", f, g)
        if key not in self._q_cache:
            self._q_cache[key] = form_zero(f, g if g is not None else f,
                                           self.n0).value
        return self._q_cache[key]

    def q_nonzero(self, f, g=None):
        key = ("qne", f, g)
        if key not in self._q_cache:
            self._q_cache[key] = form_nonzero(
                f, g if g is not None else f, self.beta).value
        return self._q_cache[key]

    def q_bec(self, f):
        """q0(f,f) + q_{!=0}(f,f), both real on the diagonal."""
        return self.q0(f).real + self.q_nonzero(f).real

    def classify(self, f):
        if f not in self._class_cache:
            self._class_cache[f] = classify_direction(f, self.source, self.n0)
        return self._class_cache[f]

    def require_admissible(self, f):
        c = self.classify(f)
        if c in (DirectionClass.INFRARED_SINGULAR, DirectionClass.OUTSIDE_D0):
            raise DirectionRejected(
                c, f"direction rejected with classification {c.value}")
        return c


def charfun(cfg, f, t=0.0):
    """psi(W(e^{i t omega} f)) as (value, standard error); t damps only
    the Gaussian part (charfun_scaled)."""
    return charfun_scaled(cfg, f, 1.0, t)


def charfun_scaled(cfg, f, s, t=0.0):
    """psi(e^{i s Phi(e^{i t omega} f)}) on a real s-grid:
    exp(-s^2 q / 4) * E~[e^{-isZ_f}], the one Gaussian x spin assembly.
    t damps only the Gaussian part: the loop measure and log W are rotation
    invariant, so Z_{f,t} has the tilted law of Z_f = Z_{f,0}."""
    cfg.require_admissible(f)
    # the zero mode is blind to Euclidean damping (omega(0) = 0)
    qtot = cfg.q0(f).real + cfg.q_nonzero(f.damped(t)).real
    vals, ses = cfg.ensemble.char_function(f, s)
    s = np.asarray(s, dtype=float)
    pref = np.array([math.exp(-0.25 * qtot * sj * sj)
                     for sj in s.ravel()]).reshape(s.shape)
    return pref * vals, pref * ses


def transported(g, mode, amount):
    """Apply the two-point transport: time evolution or spatial shift."""
    if mode == "time":
        return g.time_evolved(amount)
    if mode == "space":
        shift = (amount,) + (0.0,) * (g.d - 1)
        return g.shifted(shift)
    raise ValueError(f"unknown transport mode {mode!r}")


def two_point_charfun(cfg, f, g, mode="time", amount=0.0):
    """psi(W(f) W(T g)) via the substitution f + T g.  The zero mode of
    f + T g is that of the untransported f + g, since fhat(0) ignores
    phases and shifts."""
    tg = transported(g, mode, amount)
    cfg.require_admissible(f)
    cfg.require_admissible(tg)
    return charfun(cfg, f + tg)


def van_hove_charfun(cfg, f, s):
    """The comparator state: same Gaussian body, pure phase interaction."""
    pairing = m_pairing(f, cfg.source)
    if not pairing.in_domain:
        raise DirectionRejected(
            DirectionClass.INFRARED_SINGULAR,
            "van Hove comparator needs f in dom m")
    qtot = cfg.q0(f).real + cfg.q_nonzero(f).real
    c = pairing.value.value.real
    s_arr = np.asarray(s, dtype=float)
    out = np.exp(-0.25 * qtot * s_arr ** 2) * np.exp(-1j * s_arr * c)
    return out if out.ndim else complex(out)


def ground_limit_spin_factor(cfg, f, beta_ladder, n_loops=20000, seed=0):
    """S_{beta,0}(f) along an increasing beta ladder.

    Returns rows (beta, value, se) and the successive differences as a
    convergence diagnostic; no extrapolated limit is asserted.
    """
    betas = list(beta_ladder)
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("beta ladder must be increasing")
    rows = []
    for b in betas:
        ens = StateConfig.build(cfg.source, b, cfg.eps, n_loops=n_loops,
                                seed=seed, tol=cfg.kernels.tol).ensemble
        val, se = ens.spin_factor(f)
        rows.append((b, val, se))
    diffs = [abs(rows[i + 1][1] - rows[i][1]) for i in range(len(rows) - 1)]
    return rows, diffs


def weyl_matrix(cfg, fs):
    """Gram matrix M_jk = psi(W(f_j)* W(f_k)) assembled with the Weyl
    relation W(f)* W(g) = e^{(i/2) sigma(f, g)} W(g - f).

    Returns (M, max standard error); positive semi-definiteness up to
    statistical error is a smoke test of the state.
    """
    k = len(fs)
    m = np.empty((k, k), dtype=complex)
    max_se = 0.0
    for i, fi in enumerate(fs):
        for j, fj in enumerate(fs):
            diff = fj + fi.scaled(-1.0)
            val, se = charfun(cfg, diff, 0.0)
            m[i, j] = np.exp(0.5j * symplectic(fi, fj)) * val
            max_se = max(max_se, se)
    return m, max_se
