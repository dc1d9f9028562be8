"""Shared fixtures: one kernel table / ensemble per (source, beta, eps)
scenario, built once per session to keep the suite fast."""

import numpy as np
import pytest
from hypothesis import settings

from spinboson.ensemble import build_ensemble
from spinboson.kernels import ThermalKernelTable
from spinboson.loops import SpinMeasureParams
from spinboson.momentum import SourceProfile, TestFunction
from spinboson.state import StateConfig

# keep pytest from trying to collect the TestFunction dataclass
TestFunction.__test__ = False

# property tests draw the same examples on every run of a given source
# tree (hypothesis also mixes in literals from the project's modules), and
# a slow host cannot fail them on a deadline
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

BETA = 1.0


@pytest.fixture(scope="session")
def gauss_src():
    return SourceProfile.gaussian(width=1.0, amplitude=1.0, d=3, s=1.0)


@pytest.fixture(scope="session")
def zero_src():
    return SourceProfile.zero(d=3, s=1.0)


@pytest.fixture(scope="session")
def f_gauss():
    return TestFunction.gaussian(width=1.0, amplitude=1.0, d=3, s=1.0)


@pytest.fixture(scope="session")
def g_gauss():
    return TestFunction.gaussian(width=2.0, amplitude=0.7, d=3, s=1.0)


@pytest.fixture(scope="session")
def kernel_table(gauss_src):
    return ThermalKernelTable(gauss_src, BETA, tol=1e-9)


@pytest.fixture(scope="session")
def zero_table(zero_src):
    return ThermalKernelTable(zero_src, BETA)


@pytest.fixture(scope="session")
def ensemble(kernel_table):
    params = SpinMeasureParams(BETA, 1.0)
    return build_ensemble(params, kernel_table, 50000, seed=7)


@pytest.fixture(scope="session")
def free_ensemble(zero_table):
    params = SpinMeasureParams(BETA, 1.0)
    return build_ensemble(params, zero_table, 50000, seed=7)


@pytest.fixture(scope="session")
def eps0_ensemble(kernel_table):
    params = SpinMeasureParams(BETA, 0.0)
    return build_ensemble(params, kernel_table, 2000, seed=3)


@pytest.fixture(scope="session")
def state_cfg(gauss_src, kernel_table, ensemble):
    return StateConfig(beta=BETA, eps=1.0, d=3, s=1.0, n0=0.0,
                       source=gauss_src, kernels=kernel_table,
                       ensemble=ensemble)


@pytest.fixture(scope="session")
def free_cfg(zero_src, zero_table, free_ensemble):
    return StateConfig(beta=BETA, eps=1.0, d=3, s=1.0, n0=0.0,
                       source=zero_src, kernels=zero_table,
                       ensemble=free_ensemble)


@pytest.fixture(scope="session")
def free_bec_cfg(zero_src, zero_table, free_ensemble):
    """Zero source with a condensate: the Gaussian body is exact and the
    zero mode is the only interesting term."""
    return StateConfig(beta=BETA, eps=1.0, d=3, s=1.0, n0=1e-3,
                       source=zero_src, kernels=zero_table,
                       ensemble=free_ensemble)


def simpson_radial(fn, k_max=40.0, n=1 << 15):
    """Dense fixed-grid Simpson oracle for radial momentum integrals.

    Starts at a tiny positive k to avoid 0/0 in integrands with removable
    singularities; the omitted sliver is O(k_min^2) and far below the
    tolerances asserted against this oracle.
    """
    from scipy.integrate import simpson
    k = np.linspace(1e-9, k_max, n + 1)
    return simpson(fn(k), x=k)


def quad_radial(fn, breakpoints=(), tol=1e-13):
    """QUADPACK oracle for a complex radial integrand on (0, inf).

    The interval is split at the given profile cutoffs and the last piece
    runs through QUADPACK's tail map; real and imaginary parts are
    integrated separately.  This is the test-side reference for the
    package's Gauss-Legendre momentum rule.
    """
    from scipy.integrate import quad
    edges = [0.0] + sorted({float(b) for b in breakpoints}) + [np.inf]
    total = 0.0 + 0.0j
    for a, b in zip(edges[:-1], edges[1:]):
        for unit in (1.0, 1j):
            part, _ = quad(lambda k: (fn(k) / unit).real, a, b,
                           epsabs=tol, epsrel=tol, limit=2000)
            total += unit * part
    return total


def distinct_rows(ens):
    """Each loop's row in the ensemble's per-distinct-loop arrays, derived
    afresh: a loop with jumps has its own row, and a constant loop the row
    of the first constant loop of its sign."""
    rep = np.arange(ens.n)
    for sign in (1, -1):
        atom = np.flatnonzero((ens.counts == 0) & (ens.signs == sign))
        rep[atom] = atom[:1]
    return np.searchsorted(ens.distinct, rep)
