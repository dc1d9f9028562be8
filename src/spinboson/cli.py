"""Configuration-driven experiment harness.

INI config, CSV output, deterministic seeding.  Exit codes: 0 success,
1 assertion failure, 2 config or output error, 3 numerical
non-convergence.

Config layout (flat INI)::

    [physical]
    beta = 1.0
    eps = 1.0
    d = 3
    s = 1.0
    n0 = 0.0
    source = gaussian:width=1,amplitude=1   ; or zero / flat:... / bump:...

    [numerics]
    samples = 20000
    seed = 12345
    quad_tol = 1e-9
    variance_grid = 64

    [functions]
    f = gaussian:width=1,amplitude=1

    [experiment]
    ; subcommand-specific keys, see the individual runners

Any other section, and a key in [physical], [numerics] or [experiment]
that no subcommand reads, is a config error.

Results depend only on the config and the seed: the loops are drawn in
fixed chunks from substreams of the seed.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from spinboson import cluster as cluster_mod
from spinboson import resolvent as resolvent_mod
from spinboson import state as state_mod
from spinboson.ensemble import CNUMBER_TOL
from spinboson.kernels import QuadratureError
from spinboson.loops import (
    SpinMeasureParams,
    correlation_trace,
    two_point_oracle,
)
from spinboson.momentum import (
    DivergentIntegralError,
    RadialProfile,
    SourceProfile,
    TestFunction,
    convergent_exponent,
    m_pairing,
    weighted_pairing,
)
from spinboson.state import DirectionRejected, StateConfig


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

# (predicate, requirement) rules of the numeric fields; every value read
# must also be finite
_POSITIVE = (lambda x: x > 0, "positive")
_NON_NEGATIVE = (lambda x: x >= 0, ">= 0")
_NONZERO = (lambda x: x != 0, "nonzero")
_MC_SAMPLES = (lambda n: n >= 1000, ">= 1000 for MC runs")
_SEED = (lambda n: -(1 << 63) <= n < 1 << 63, "a signed 64-bit integer")
_NONEMPTY = (lambda g: len(g) > 0, "a non-empty comma list")
_INCREASING = (lambda g: len(g) > 0 and all(a < b for a, b in zip(g, g[1:])),
               "a non-empty, strictly increasing comma list")


# every key some subcommand reads, by section; [functions] names are free
_KNOWN_KEYS = {
    "physical": ("beta", "eps", "d", "s", "n0", "source"),
    "numerics": ("samples", "seed", "quad_tol", "variance_grid"),
    "experiment": ("s_grid", "grid", "mode", "lambda", "mu",
                   "decay_threshold"),
}


def check_keys(cp):
    """Reject any section, and any key outside [functions], that no
    subcommand reads, so a misspelt or removed name is an error instead of
    a silent default."""
    for section in cp.sections():
        if section not in _KNOWN_KEYS and section != "functions":
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp.options(section):
            if section in _KNOWN_KEYS and key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown config field [{section}] {key}")


def _require(name, value, rule):
    """value, if it obeys rule = (predicate, requirement)."""
    predicate, requirement = rule
    if not predicate(value):
        raise ConfigError(f"{name} must be {requirement}")
    return value


def _finite(kind, raw, name):
    """raw as a finite number of type kind."""
    try:
        value = kind(raw)
        if math.isfinite(value):
            return value
    except (ValueError, OverflowError):
        pass
    raise ConfigError(
        f"{name} = {raw.strip()!r} is not a finite {kind.__name__}")


def _parse_kwargs(body):
    out = {}
    if not body:
        return out
    for item in body.split(","):
        if "=" not in item:
            raise ConfigError(f"malformed profile parameter {item!r}")
        key, val = (x.strip() for x in item.split("=", 1))
        out[key] = _finite(float, val, f"profile parameter {key}")
    return out


def parse_profile(spec):
    """'gaussian:width=1,amplitude=1' | 'bump:exponent=..,cutoff=..' |
    'flat:amplitude=..' | 'zero' -> RadialProfile; any parameter the kind
    does not take is a config error."""
    head, _, body = spec.strip().partition(":")
    kw = _parse_kwargs(body)
    try:
        if head == "zero":
            prof = RadialProfile("gaussian", amplitude=0.0, width=1.0)
        elif head == "gaussian":
            prof = RadialProfile("gaussian",
                                 amplitude=kw.pop("amplitude", 1.0),
                                 width=kw.pop("width", 1.0))
        elif head == "bump":
            prof = RadialProfile("power_bump",
                                 amplitude=kw.pop("amplitude", 1.0),
                                 exponent_at_zero=kw.pop("exponent", 0.0),
                                 cutoff=kw.pop("cutoff", 1.0))
        elif head == "flat":
            prof = RadialProfile("point_source_flat",
                                 amplitude=kw.pop("amplitude", 1.0))
        else:
            raise ConfigError(f"unknown profile kind {head!r}")
    except ValueError as exc:
        raise ConfigError(f"invalid profile {spec!r}: {exc}") from exc
    if kw:
        raise ConfigError(f"unknown parameter {', '.join(sorted(kw))} in "
                          f"profile {spec!r}")
    return prof


def _get_num(cp, section, key, default, kind, rule):
    """[section] key as kind (default when absent), finite and obeying
    rule: the one reader of every numeric field."""
    name = f"config field [{section}] {key}"
    raw = cp.get(section, key, fallback=None)
    if raw is None:
        return default
    return _require(name, _finite(kind, raw, name), rule)


def load_physical(cp):
    beta = _get_num(cp, "physical", "beta", 1.0, float, _POSITIVE)
    eps = _get_num(cp, "physical", "eps", 1.0, float, _NON_NEGATIVE)
    d = _get_num(cp, "physical", "d", 3, int, _POSITIVE)
    s = _get_num(cp, "physical", "s", 1.0, float, _POSITIVE)
    n0 = _get_num(cp, "physical", "n0", 0.0, float, _NON_NEGATIVE)
    try:
        SpinMeasureParams(beta, eps)
    except ValueError as exc:
        raise ConfigError(f"invalid [physical] block: {exc}") from exc
    src_spec = cp.get("physical", "source", fallback="zero")
    try:
        src = SourceProfile(parse_profile(src_spec), d=d, s=s)
    except (ValueError, DivergentIntegralError) as exc:
        raise ConfigError(f"invalid [physical] source: {exc}") from exc
    return beta, eps, d, s, n0, src


def load_functions(cp, d, s):
    """The [functions] section as a dict ordered by name."""
    funcs = {}
    if cp.has_section("functions"):
        for name, spec in cp.items("functions"):
            prof = parse_profile(spec)
            funcs[name] = TestFunction.from_profile(prof, d=d, s=s)
    if not funcs:
        raise ConfigError("config section [functions] declares no functions")
    return dict(sorted(funcs.items()))


def load_f_g(cp, cfg):
    """f and g of a subcommand: the first and the last function by name
    (g = f when only one is declared)."""
    funcs = list(load_functions(cp, cfg.d, cfg.s).values())
    return funcs[0], funcs[-1]


def _mc_settings(cp, args):
    """(samples, seed) of a Monte Carlo run: command line first, then
    [numerics]."""
    samples = _get_num(cp, "numerics", "samples", 20000, int, _MC_SAMPLES) \
        if args.samples is None else \
        _require("--samples", args.samples, _MC_SAMPLES)
    seed = _get_num(cp, "numerics", "seed", 0, int, _SEED) \
        if args.seed is None else _require("--seed", args.seed, _SEED)
    return samples, seed


def build_state(cp, args):
    beta, eps, d, s, n0, src = load_physical(cp)
    samples, seed = _mc_settings(cp, args)
    tol = _get_num(cp, "numerics", "quad_tol", 1e-9, float, _POSITIVE)
    try:
        cfg = StateConfig.build(src, beta, eps, n0=n0, n_loops=samples,
                                seed=seed, tol=tol)
    except DivergentIntegralError as exc:
        raise ConfigError(f"inadmissible physical block: {exc}") from exc
    return cfg


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _fmt(x):
    if isinstance(x, (np.floating, np.complexfloating, np.integer, np.bool_)):
        x = x.item()
    if isinstance(x, (float, complex)):
        return repr(x)
    return str(x)


def write_csv(path, comment, columns, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def write_summary(path, seed, config_hash, ensemble, checks):
    """The run's seed, config hash, weight-degeneracy figures of the
    ensemble (ESS, ESS/N and max_weight_share, the largest normalized
    weight of a sampled loop, the constant paths being read exactly), the
    tilted mass of the two constant paths and checks."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        fh.write(f"seed = {seed}\n")
        fh.write(f"config_hash = {config_hash}\n")
        fh.write(f"ess = {_fmt(ensemble.ess)}\n")
        fh.write(f"ess_frac = {_fmt(ensemble.ess / ensemble.n)}\n")
        fh.write("max_weight_share = "
                 f"{_fmt(ensemble.norm_weights.max())}\n")
        fh.write(f"atom_mass = {_fmt(ensemble.atom_mass)}\n")
        for name, ok in checks:
            fh.write(f"check {name} = {'PASS' if ok else 'FAIL'}\n")
    return all(ok for _, ok in checks)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _projector(sigma):
    return np.diag([1.0, 0.0]) if sigma > 0 else np.diag([0.0, 1.0])


def run_spin_check(cp, args, outdir):
    """Free-measure sampler against the transfer-matrix oracles."""
    beta, eps, d, s, n0, _ = load_physical(cp)
    samples, seed = _mc_settings(cp, args)
    ens = StateConfig.build(SourceProfile.zero(d=d, s=s), beta, eps,
                            n_loops=samples, seed=seed).ensemble
    params = ens.params
    checks, rows = [], []

    def compare(name, sample, oracle):
        # per-loop sample mean against its oracle, within 3 SE
        mc = float(np.mean(sample))
        se = float(np.std(sample) / math.sqrt(ens.n))
        ok = abs(mc - oracle) <= 3.0 * se + 1e-12
        checks.append((name, ok))
        rows.append((name, mc, oracle, se, ok))

    compare("jump_count_mean", ens.counts, eps * beta * math.tanh(eps * beta))

    # two-point function on the standard fractions
    u0 = -0.25 * beta
    for frac in (0.1, 0.25, 0.5):
        tau = frac * beta
        compare(f"two_point_tau_{frac}",
                np.prod(ens.path_values([u0, u0 + tau]), axis=1),
                float(two_point_oracle(params, tau)))

    # transition frequencies at the bridge-corrected oracle
    t = 0.3 * beta
    x = ens.path_values([u0, u0 + t])
    for s1 in (1, -1):
        for s2 in (1, -1):
            compare(f"transition_{s1}_{s2}",
                    ((x[:, 0] == s1) & (x[:, 1] == s2)).astype(float),
                    correlation_trace(params, [u0, u0 + t],
                                      [_projector(s1), _projector(s2)]))

    # jump parity is even by construction
    parity_ok = bool(np.all(ens.counts % 2 == 0))
    checks.append(("jump_parity_even", parity_ok))

    write_csv(os.path.join(outdir, "spin_check.csv"),
              "free spin-loop sampler vs transfer-matrix oracle "
              "(dimensionless)",
              ("quantity", "mc", "oracle", "se", "pass"), rows)
    return checks, ens


def run_kernels(cp, args, outdir):
    """Thermal-kernel identity suite."""
    cfg = build_state(cp, args)
    kern = cfg.kernels
    f, _ = load_f_g(cp, cfg)
    checks = []
    beta = cfg.beta

    taus = np.linspace(0.0, beta, 65)
    kap = np.atleast_1d(kern.kappa(taus))
    psi = np.atleast_1d(kern.Psi(taus))
    sym = float(np.max(np.abs(kap - np.atleast_1d(kern.kappa(beta - taus)))))
    checks.append(("kappa_reflection_symmetry", sym <= 1e-10 * (1 + kap.max())))
    # Psi(beta) = beta Psi'(beta) / 2, on which the log-weights drop every
    # pair with a circle end
    psi_beta = float(kern.Psi(beta))
    checks.append(("psi_circle_identity",
                   abs(psi_beta - 0.5 * beta * beta * kern.kappa_mean)
                   <= 1e-12 * (1.0 + abs(psi_beta))))

    if not cfg.source.is_zero:
        rho = cfg.source.as_test_function()
        eq_form = weighted_pairing(
            f, rho, lambda om: np.power(om, -0.5) / np.tanh(0.5 * beta * om),
            convergent_exponent(f, rho, -0.5, "K_f", thermal=True)).value
        eq_kernel = kern.kernel_K(f, 0.3, 0.3)
        checks.append(("equal_time_coth_identity",
                       abs(eq_kernel - eq_form) <= 1e-8 * abs(eq_form)))

        circle = 0.5 * cfg.ensemble.kernels.interval_K_integral(
            f, 0.0, -0.5 * beta, 0.5 * beta)
        m_val = m_pairing(f, cfg.source).value.value
        checks.append(("full_circle_identity",
                       abs(circle.real - m_val.real)
                       <= 1e-6 * (abs(m_val.real) + 1e-30)))

        second = np.diff(psi, 2)
        checks.append(("psi_convexity", bool(np.all(second >= -1e-12))))

    write_csv(os.path.join(outdir, "kernels.csv"),
              "thermal self-kernel kappa(tau) [energy^2 * time^-?] and "
              "its second time antiderivative Psi on [0, beta]",
              ("tau", "kappa", "Psi"),
              list(zip(taus.tolist(), kap.tolist(), psi.tolist())))
    return checks, cfg.ensemble


def run_charfun(cp, args, outdir):
    s_grid = _grid_from_config(cp, "s_grid", default="0,0.5,1,1.5,2")
    cfg = build_state(cp, args)
    f, _ = load_f_g(cp, cfg)
    vals, ses = state_mod.charfun_scaled(cfg, f, s_grid)
    # charfun_scaled admits only directions in dom m (it rejects the
    # infrared-singular ones), so the comparator is always defined
    vh = state_mod.van_hove_charfun(cfg, f, s_grid)
    rows = [(s, v.real, v.imag, e, w.real, w.imag)
            for s, v, e, w in zip(s_grid, vals, ses, vh)]
    checks = [("charfun_normalized",
               abs(state_mod.charfun_scaled(cfg, f, 0.0)[0] - 1.0) < 1e-12)]
    mod_ok = all(abs(v) <= 1.0 + 3 * e + 1e-9 for v, e in zip(vals, ses))
    checks.append(("charfun_modulus_bound", mod_ok))
    write_csv(os.path.join(outdir, "charfun.csv"),
              "characteristic functional psi(e^{is Phi(f)}) sweep "
              "(dimensionless) with van Hove comparator",
              ("s", "re", "im", "se", "van_hove_re", "van_hove_im"), rows)
    return checks, cfg.ensemble


def _grid_from_config(cp, key, default, rule=_NONEMPTY):
    """[experiment] key as a comma list of finite numbers obeying rule."""
    name = f"config field [experiment] {key}"
    raw = cp.get("experiment", key, fallback=default)
    return _require(name, [_finite(float, x, name)
                           for x in raw.split(",") if x.strip()], rule)


def run_cluster(cp, args, outdir):
    grid = _grid_from_config(cp, "grid", "1,2,4,8,16,32,64,128",
                             _INCREASING)
    cfg = build_state(cp, args)
    f, g = load_f_g(cp, cfg)
    mode = cp.get("experiment", "mode", fallback="time")
    if mode not in ("time", "space"):
        raise ConfigError("config field [experiment] mode must be "
                          "time or space")
    if mode == "space" and cfg.d != 3:
        raise ConfigError("config field [physical] d must be 3 for "
                          "spatial cluster scans")
    report = cluster_mod.cluster_scan(cfg, f, g, mode, grid)
    verdict = cluster_mod.nogo_verdict(cfg, f, g, report)
    rows = []
    for i, u in enumerate(report.grid):
        r = report.spin_ratio[i]
        rows.append((u, report.lhs[i].real, report.lhs[i].imag,
                     report.lhs_se[i], report.cross_term[i],
                     abs(r), math.atan2(r.imag, r.real)))
    rows.append(("verdict", report.verdict, verdict.message, "", "", "", ""))
    write_csv(os.path.join(outdir, "cluster.csv"),
              f"cluster scan ({mode} separation): two-point functional, "
              "thermal cross term, spin ratio",
              ("rung", "re_lhs", "im_lhs", "se", "cross_term",
               "abs_spin_ratio", "arg_spin_ratio"), rows)
    checks = [
        ("cluster_scan_conclusive", report.verdict != "inconclusive"),
        ("nogo_bookkeeping_consistent",
         verdict.contradiction == (verdict.moderate and verdict.q0_f > 1e-12)),
    ]
    return checks, cfg.ensemble


def run_variance(cp, args, outdir):
    n_cells = _get_num(cp, "numerics", "variance_grid", 64, int, _POSITIVE)
    s_grid = _grid_from_config(cp, "s_grid", "0,0.25,0.5,1,2")
    cfg = build_state(cp, args)
    f, _ = load_f_g(cp, cfg)
    rep = cfg.ensemble.variance_two_routes(f, n_cells)
    dev_ok, dev_rows = cfg.ensemble.deviation_bound_check(f, s_grid)
    _, evidence = cfg.ensemble.cnumber_criterion(f)
    checks = [
        ("variance_routes_agree", rep.routes_agree),
        ("variance_grid_converged", not rep.grid_flagged),
        ("deviation_bound", dev_ok),
    ]
    rows = [(s, lhs, bound, margin) for s, lhs, bound, margin in dev_rows]
    rows.append(("var_direct", rep.var_direct, "", ""))
    rows.append(("var_kernel", rep.var_kernel, "", ""))
    var = evidence["var_direct"]
    rows.append(("cnumber", var, CNUMBER_TOL, CNUMBER_TOL - var))
    write_csv(os.path.join(outdir, "variance.csv"),
              "fluctuation diagnostics of the spin random variable Z "
              "(dimensionless)",
              ("s_or_quantity", "lhs_or_value", "bound_or_aux", "margin"),
              rows)
    return checks, cfg.ensemble


def run_resolvent(cp, args, outdir):
    lam = _get_num(cp, "experiment", "lambda", 1.0, float, _NONZERO)
    mu = _get_num(cp, "experiment", "mu", 2.0, float, _NONZERO)
    thresh = _get_num(cp, "experiment", "decay_threshold", 1.0, float,
                      _POSITIVE)
    cfg = build_state(cp, args)
    f, g = load_f_g(cp, cfg)

    rows, checks = [], []
    one = resolvent_mod.resolvent_onepoint(cfg, lam, f)
    bound1 = abs(one.value) <= 1.0 / abs(lam) + one.error
    rows.append(("onepoint", lam, one.value.real, one.value.imag, one.error))
    checks.append(("onepoint_norm_bound", bound1))

    scaled = resolvent_mod.resolvent_onepoint(cfg, 2.0 * lam, f.scaled(2.0))
    ok_scale = abs(scaled.value - 0.5 * one.value) <= \
        scaled.error + 0.5 * one.error + 1e-9
    rows.append(("scaling", 2.0 * lam, scaled.value.real, scaled.value.imag,
                 scaled.error))
    checks.append(("scaling_relation", ok_scale))

    two = resolvent_mod.resolvent_twopoint(cfg, lam, f, mu, g)
    bound2 = abs(two.value) <= 1.0 / (abs(lam) * abs(mu)) + two.error
    rows.append(("twopoint", mu, two.value.real, two.value.imag, two.error))
    checks.append(("twopoint_norm_bound", bound2))

    if cfg.q_bec(f) > resolvent_mod.DECAY_Q_FLOOR:
        rep = resolvent_mod.bec_decay_scan(cfg, lam, f, (1.0, 2.0, 4.0),
                                           threshold=thresh)
        for t, m, e in zip(rep.amplitudes, rep.moduli, rep.errors):
            rows.append(("decay", t, m, "", e))
        checks.append(("bec_decay", rep.passed))

    write_csv(os.path.join(outdir, "resolvent.csv"),
              "resolvent-algebra expectations psi(R(lambda, f)) "
              "(dimensionless) with quadrature+MC error",
              ("quantity", "parameter", "re_or_modulus", "im", "error"), rows)
    return checks, cfg.ensemble


def run_ideals(cp, args, outdir):
    cfg = build_state(cp, args)
    report = resolvent_mod.ideal_report(
        cfg, load_functions(cp, cfg.d, cfg.s).items())
    rows = [(r.name, r.classification, r.witness_modulus, r.witness_error,
             r.decay_summary) for r in report.rows]
    rows.append(("summary", f"J_ir={','.join(report.jir_generators) or '-'}",
                 f"outside={','.join(report.outside) or '-'}",
                 f"x_bec_empty={report.x_bec_empty}", ""))
    write_csv(os.path.join(outdir, "ideals.csv"),
              "direction classification and generator witnesses "
              "(infrared / condensate ideals)",
              ("direction", "class", "witness_modulus", "witness_error",
               "notes"), rows)
    checks = [("witnesses_positive",
               all(r.witness_modulus > r.witness_error
                   for r in report.rows
                   if r.classification in ("physical", "bec_generator")))]
    return checks, cfg.ensemble


def run_gp_scan(cp, args, outdir):
    s_grid = _grid_from_config(cp, "s_grid", "0,0.5,1,2,4")
    cfg = build_state(cp, args)
    seq = list(load_functions(cp, cfg.d, cfg.s).values())
    report = cluster_mod.gp_limit_scan(cfg, seq, s_grid)
    rows = []
    for i, (vals, ses, gaps) in enumerate(
            zip(report.char_values, report.char_se, report.gaps)):
        for s, v, e, gp in zip(report.s_grid, vals, ses, gaps):
            rows.append((i, s, v.real, v.imag, e, gp))
    rows.append(("verdict",
                 "classical" if report.classical else
                 ("inconclusive" if report.inconclusive else "non-classical"),
                 report.a_value, "", "", ""))
    write_csv(os.path.join(outdir, "gp_scan.csv"),
              "characteristic functions of Z along the declared sequence "
              "vs the degenerate law exp(isa)",
              ("member", "s", "re", "im", "se", "gap"), rows)
    checks = [("gp_scan_resolved", not report.inconclusive)]
    return checks, cfg.ensemble


RUNNERS = {
    "spin-check": run_spin_check,
    "kernels": run_kernels,
    "charfun": run_charfun,
    "cluster": run_cluster,
    "variance": run_variance,
    "resolvent": run_resolvent,
    "ideals": run_ideals,
    "gp-scan": run_gp_scan,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="spinboson-lab",
        description="numerical laboratory for the finite-temperature "
                    "spin-boson equilibrium state")
    parser.add_argument("subcommand", choices=sorted(RUNNERS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--out", default="out")
    args = parser.parse_args(argv)

    try:
        cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        read = cp.read(args.config)
        if not read:
            raise ConfigError(f"cannot read config file {args.config}")
        with open(args.config, "rb") as fh:
            config_hash = hashlib.sha256(fh.read()).hexdigest()
        check_keys(cp)
        os.makedirs(args.out, exist_ok=True)
        checks, ensemble = RUNNERS[args.subcommand](cp, args, args.out)
        _, seed = _mc_settings(cp, args)
        summary = os.path.join(
            args.out, f"{args.subcommand.replace('-', '_')}_summary.txt")
        all_pass = write_summary(summary, seed, config_hash, ensemble,
                                 checks)
        return 0 if all_pass else 1
    except (ConfigError, configparser.Error, DirectionRejected,
            DivergentIntegralError) as exc:
        # one line, whatever the message (parser errors span several)
        print(f"config error: {' '.join(str(exc).split())}", file=sys.stderr)
        return 2
    except OSError as exc:
        # the output directory or a result file
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
