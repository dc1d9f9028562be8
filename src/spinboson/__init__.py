"""Numerical laboratory for the finite-temperature spin-boson equilibrium state.

Subpackage map:

- ``momentum``:   momentum-space test functions, sources, static sesquilinear
  forms (zero mode, thermal coth form, m-pairing, symplectic form) and
  direction classification.
- ``kernels``:    beta-periodic thermal covariance kernels, their exact time
  antiderivatives, and the difference-kernel double-block table.
- ``loops``:      the beta-periodic two-state jump process (spin loops),
  sampler and transfer-matrix oracles.
- ``ensemble``:   the tilted (interacting) loop ensemble: FKN log-weights,
  Z random variables, spin factor, shift, and fluctuation diagnostics.
- ``state``:      assembled characteristic functionals of the equilibrium
  state, the van Hove comparator, and the low-temperature ladder.
- ``cluster``:    cluster scans, the moderateness/no-go verdict, GP-limit scan.
- ``resolvent``:  resolvent expectations in per-loop closed forms, norm bounds,
  condensate-direction decay scans, ideal classification report.
- ``seeds``:      deterministic substream derivation for reproducible Monte
  Carlo.
- ``cli``:        configuration-driven experiment harness (the only module
  with I/O side effects).
"""

from spinboson.momentum import (
    RadialProfile,
    Component,
    TestFunction,
    SourceProfile,
    FormValue,
    DirectionClass,
    dispersion,
    form_zero,
    form_nonzero,
    inner_product,
    m_pairing,
    symplectic,
    classify_direction,
)
from spinboson.kernels import ThermalKernelTable
from spinboson.loops import SpinMeasureParams, SpinLoop
from spinboson.ensemble import TiltedEnsemble, build_ensemble
from spinboson.state import StateConfig

__all__ = [
    "RadialProfile",
    "Component",
    "TestFunction",
    "SourceProfile",
    "FormValue",
    "DirectionClass",
    "dispersion",
    "form_zero",
    "form_nonzero",
    "inner_product",
    "m_pairing",
    "symplectic",
    "classify_direction",
    "ThermalKernelTable",
    "SpinMeasureParams",
    "SpinLoop",
    "TiltedEnsemble",
    "build_ensemble",
    "StateConfig",
]
