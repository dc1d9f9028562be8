"""Cluster scans, the moderateness verdict, the no-go record, and the
GP-limit distribution scan.

The discriminating quantity is the spin ratio

    S(f, T g) / (S(f) S(g))

along a transport grid.  A moderate state drives the ratio to 1; a state
whose two-point functional clusters despite a condensate drives it to
exp(Re q0(f, g) / 2) instead.  Both targets coincide when the zero-mode
form vanishes, and the verdict degrades to "inconclusive" when the Monte
Carlo error cannot separate them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from spinboson.state import charfun, transported, two_point_charfun


@dataclass
class ClusterReport:
    mode: str
    grid: list
    lhs: list
    lhs_se: list
    product: complex
    product_se: float
    zero_mode_factor: float
    cross_term: list
    spin_ratio: list
    spin_ratio_se: list
    verdict: str


@dataclass
class NogoVerdict:
    moderate: bool
    q0_f: float
    q0_g: float
    q0_fg: complex
    gap: float
    contradiction: bool
    consistent: bool
    bec_empty: bool
    message: str


def cluster_scan(cfg, f, g, mode="time", grid=(1, 2, 4, 8, 16, 32, 64, 128)):
    """Scan the two-point functional along the transport grid and classify
    the large-separation behavior of the spin ratio."""
    grid = [float(u) for u in grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")

    cf, cf_se = charfun(cfg, f, 0.0)
    cg, cg_se = charfun(cfg, g, 0.0)
    product = cf * cg
    product_se = abs(cf) * cg_se + abs(cg) * cf_se

    zero_mode_factor = math.exp(0.5 * cfg.q0(f, g).real)

    sf, sf_se = cfg.ensemble.spin_factor(f)
    sg, sg_se = cfg.ensemble.spin_factor(g)

    lhs, lhs_se, cross, ratio, ratio_se = [], [], [], [], []
    for u in grid:
        val, se = two_point_charfun(cfg, f, g, mode, u)
        lhs.append(val)
        lhs_se.append(se)
        tg = transported(g, mode, u)
        cross.append(cfg.q_nonzero(f, tg).real)
        s2, s2_se = cfg.ensemble.spin_factor(f + tg)
        denom = sf * sg
        r = s2 / denom
        ratio.append(r)
        ratio_se.append(
            (s2_se + abs(r) * (abs(sg) * sf_se + abs(sf) * sg_se))
            / abs(denom))

    verdict = _classify_ratio(ratio[-1], ratio_se[-1], zero_mode_factor)
    return ClusterReport(mode, grid, lhs, lhs_se, product, product_se,
                         zero_mode_factor, cross, ratio, ratio_se, verdict)


def _classify_ratio(last, se, target):
    gap = abs(target - 1.0)
    floor = 1e-9
    if gap > 0 and se > 0.5 * gap:
        return "inconclusive"
    if abs(last - 1.0) <= 3.0 * se + floor:
        return "moderate"
    if gap > 0 and abs(last - target) <= 3.0 * se + floor:
        return "cluster_with_zero_mode"
    return "neither"


def nogo_verdict(cfg, f, g, report, tol=1e-12):
    """Combine the scan verdict with the zero-mode arithmetic.

    Moderateness together with a condensate direction is contradictory:
    the assembled two-point functional then misses factorization by the
    factor exp(Re q0(f,g)/2), which the record quantifies as a gap.
    """
    q0f = cfg.q0(f).real
    q0g = cfg.q0(g).real
    q0fg = cfg.q0(f, g)
    moderate = report.verdict == "moderate"
    gap = math.exp(0.5 * q0fg.real) - 1.0
    contradiction = moderate and q0f > tol
    if contradiction:
        msg = ("moderateness observed on a condensate direction: "
               f"factorization fails by {gap:.6g}")
    elif moderate:
        msg = "moderate with vanishing zero mode: consistent, X_bec empty"
    else:
        msg = f"verdict {report.verdict!r}: no moderateness claim"
    return NogoVerdict(
        moderate=moderate, q0_f=q0f, q0_g=q0g, q0_fg=q0fg, gap=gap,
        contradiction=contradiction, consistent=not contradiction,
        bec_empty=max(q0f, q0g) <= tol, message=msg)


@dataclass
class GPReport:
    s_grid: list
    a_value: float
    char_values: list          # one array per sequence member
    char_se: list
    gaps: list                 # |char - e^{isa}| per member, per s
    classical: bool
    inconclusive: bool


def gp_limit_scan(cfg, f_sequence, s_grid):
    """Empirical characteristic functions of Z along a test-function
    sequence, compared with the degenerate law e^{isa}, a = -E~[Z] at the
    last member (Levy criterion at grid resolution)."""
    s_grid = [float(s) for s in s_grid]
    ens = cfg.ensemble
    char_values, char_se = [], []
    for fl in f_sequence:
        cfg.require_admissible(fl)
        vals, ses = ens.char_function(fl, s_grid)
        char_values.append(vals)
        char_se.append(ses)
    a = ens.ell_shift(f_sequence[-1])
    target = np.exp(1j * a * np.asarray(s_grid))
    gaps = [np.abs(v - target) for v in char_values]
    last_gap = gaps[-1]
    last_se = char_se[-1]
    classical = bool(np.all(last_gap <= 3.0 * last_se + 1e-9))
    # inconclusive when the errors are too large to resolve a unit-scale
    # departure from degeneracy anywhere on the grid
    inconclusive = bool(np.any(np.asarray(last_se) > 0.2)) and not classical
    return GPReport(s_grid, a, char_values, char_se, gaps, classical,
                    inconclusive)
