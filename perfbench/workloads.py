"""The four benchmark workloads, each with an untraced and a traced form.

Every workload shares one physical setup: beta = 1, eps = 1, d = 3, s = 1,
a Gaussian source (width 1, amplitude 1), f a Gaussian (width 1,
amplitude 1) and g a Gaussian (width 2, amplitude 0.7).  Only the package's
public functions are called, always with workers = 1.

A workload object offers

- ``setup()``: build every ThermalKernelTable the workload needs; this is
  the part of a run that ``setup_s`` charges;
- ``run(ctx, seed, calls)``: the untraced run through the top-level entry
  points;
- ``replay(ctx, seed, calls, spans)``: the traced run, which fills the
  package's caches bottom-up so that each layer's work lands in its own
  span, and whose top-level call keeps only its self time;
- ``checks(out)``: oracle checks on the outputs, as (name, passed) pairs.

``calls`` is a :class:`benchstats.Calls` that counts every call into the
package and every call that raised.  A run returns a dict ``out`` with the
workload's results plus ``ess_frac`` and ``se_S`` of its last ensemble.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from spinboson import (
    SourceProfile,
    SpinMeasureParams,
    StateConfig,
    TestFunction,
    ThermalKernelTable,
    build_ensemble,
)
from spinboson.cluster import cluster_scan, nogo_verdict
from spinboson.ensemble import TiltedEnsemble, DEFAULT_CHUNK
from spinboson.loops import sample_loop_arrays
from spinboson.resolvent import (
    bec_decay_scan,
    resolvent_onepoint,
    resolvent_twopoint,
)
from spinboson.seeds import substream
from spinboson.state import charfun, transported, two_point_charfun

import benchstats

BETA = 1.0
EPS = 1.0
D = 3
S_EXP = 1.0
N_SE = 4.0               # statistical checks allow 4 standard errors
CHARFUN_S = np.linspace(0.0, 4.0, 9)
DEVIATION_S = (0.0, 0.25, 0.5, 1.0, 2.0)   # the CLI's default s-grid
CLUSTER_GRID = (1, 2, 4, 8, 16, 32, 64, 128)


def source():
    return SourceProfile.gaussian(width=1.0, amplitude=1.0, d=D, s=S_EXP)


def test_functions():
    f = TestFunction.gaussian(width=1.0, amplitude=1.0, d=D, s=S_EXP)
    g = TestFunction.gaussian(width=2.0, amplitude=0.7, d=D, s=S_EXP)
    return f, g


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _ensemble(table, beta, n, seed, calls):
    """build_ensemble at workers = 1, with the degeneracy warning recorded
    instead of printed."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return calls.do("build_ensemble", build_ensemble,
                        SpinMeasureParams(beta, EPS), table, n, seed,
                        workers=1)


def _ensemble_traced(table, beta, n, seed, calls, spans):
    """What build_ensemble does at workers = 1, layer by layer: sample each
    chunk from its substream, then attach the FKN weights."""
    params = SpinMeasureParams(beta, EPS)
    n_chunks = (n + DEFAULT_CHUNK - 1) // DEFAULT_CHUNK
    parts = []
    with spans.span("loops.sample"):
        for i in range(n_chunks):
            size = min(DEFAULT_CHUNK, n - i * DEFAULT_CHUNK)
            parts.append(calls.do("sample_loop_arrays", sample_loop_arrays,
                                  params, substream(seed, i), size))
    spans.count("seeds.substreams", n_chunks)
    signs = np.concatenate([p[0] for p in parts])
    counts = np.concatenate([p[1] for p in parts])
    flat = np.concatenate([p[2] for p in parts])
    spans.count("loops.jumps_sampled", int(counts.sum()))
    spans.count("ensemble.psi_pairs", benchstats.psi_pairs(counts))
    with spans.span("ensemble.logw"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ens = calls.do("TiltedEnsemble", TiltedEnsemble, params, table,
                       signs, counts, flat, seed, DEFAULT_CHUNK)
    spans.gauge("ensemble.max_weight_share",
                float(np.max(ens.norm_weights)))
    return ens


def _tables(betas, spans):
    """One ThermalKernelTable per beta, each in its own span."""
    tables = {}
    for b in betas:
        with spans.span("kernels.table_build"):
            tables[b] = ThermalKernelTable(source(), b)
        spans.count("kernels.table_builds", 1)
        spans.count("kernels.psi_cells", tables[b].n_grid)
        # the momentum rule has no public accessor; its size is read only
        spans.count("kernels.momentum_nodes", len(tables[b]._k))
    return tables


def _forms(spans, calls, forms):
    """Fill StateConfig's q-form and class caches: (method, args) pairs."""
    with spans.span("momentum.forms"):
        for method, args in forms:
            calls.do(method.__name__, method, *args)
    spans.count("momentum.forms_calls", len(forms))


def _spin(ens, f, calls):
    res = calls.do("spin_factor", ens.spin_factor, f)
    return {} if res is None else {"S": res[0], "se_S": float(res[1])}


def _jump_check(name, ens):
    """Free-measure jump-count mean against eps*beta*tanh(eps*beta)."""
    n = ens.n
    mean = float(np.mean(ens.counts))
    se = float(np.std(ens.counts) / math.sqrt(n))
    x = EPS * ens.params.beta
    return (name, abs(mean - x * math.tanh(x)) <= N_SE * se + 1e-12)


def _modulus_check(name, val, se):
    return (name, abs(val) <= 1.0 + N_SE * se + 1e-12)


def _variance_agreement(rep, ens, f):
    """The CLI's rule for the two variance routes: 5% relative agreement,
    else agreement within 3 SE of the direct route."""
    scale = max(rep.var_direct, rep.var_kernel, 1e-300)
    if abs(rep.var_direct - rep.var_kernel) <= 0.05 * scale:
        return True
    z = ens.z_values(f).real
    mean, _ = ens.expectation(z)
    _, se = ens.expectation((z - mean.real) ** 2)
    return bool(abs(rep.var_direct - rep.var_kernel) <= 3.0 * se)


def _cfg(table, ens, n0):
    return StateConfig(beta=table.beta, eps=EPS, d=D, s=S_EXP, n0=n0,
                       source=table.src, kernels=table, ensemble=ens)


def _finish(out, ens):
    out.setdefault("logw", []).append(ens.logw)
    out["ess_frac"] = ens.ess / ens.n
    out["jump_checks"] = out.get("jump_checks", []) + [
        _jump_check(f"jump_count_mean_beta{ens.params.beta:g}", ens)]
    return out


# ---------------------------------------------------------------------------
# bulk-1e6
# ---------------------------------------------------------------------------

class Bulk:
    name = "bulk-1e6"
    n = 1_000_000
    measures_speedup = True

    def setup(self, spans):
        return {"table": _tables([BETA], spans)[BETA]}

    def _estimators(self, ens, f, calls, out):
        out.update(_spin(ens, f, calls))
        out["char"] = calls.do("char_function", ens.char_function, f,
                               CHARFUN_S)
        out["deviation"] = calls.do("deviation_bound_check",
                                    ens.deviation_bound_check, f,
                                    DEVIATION_S)

    def run(self, ctx, seed, calls):
        f, _ = test_functions()
        ens = _ensemble(ctx["table"], BETA, self.n, seed, calls)
        out = {"ens": ens}
        calls.do("z_values", ens.z_values, f)
        self._estimators(ens, f, calls, out)
        out["variance"] = calls.do("variance_two_routes",
                                   ens.variance_two_routes, f, 64)
        return _finish(out, ens)

    def replay(self, ctx, seed, calls, spans):
        f, _ = test_functions()
        table = ctx["table"]
        ens = _ensemble_traced(table, BETA, self.n, seed, calls, spans)
        out = {"ens": ens}
        with spans.span("kernels.register"):
            calls.do("register", table.register, f)
        spans.count("kernels.register_calls", 1)
        with spans.span("ensemble.z"):
            calls.do("z_values", ens.z_values, f)
        with spans.span("ensemble.estimators"):
            self._estimators(ens, f, calls, out)
        with spans.span("ensemble.variance"):
            out["variance"] = calls.do("variance_two_routes",
                                       ens.variance_two_routes, f, 64)
        return _finish(out, ens)

    def checks(self, out):
        res = list(out["jump_checks"])
        f, _ = test_functions()
        ens = out["ens"]
        if "S" in out:
            res.append(_modulus_check("spin_factor_modulus", out["S"],
                                      out["se_S"]))
        if out["char"] is not None:
            vals, _ = out["char"]
            res.append(("char_function_at_0", abs(vals[0] - 1.0) <= 1e-12))
        if out["variance"] is not None:
            res.append(("variance_routes_agree",
                        _variance_agreement(out["variance"], ens, f)))
        if out["deviation"] is not None:
            res.append(("deviation_bound", bool(out["deviation"][0])))
        return res


# ---------------------------------------------------------------------------
# ladder-b8
# ---------------------------------------------------------------------------

class Ladder:
    name = "ladder-b8"
    betas = (1.0, 2.0, 4.0, 8.0)
    n = 200_000

    def setup(self, spans):
        return {"tables": _tables(self.betas, spans)}

    def run(self, ctx, seed, calls):
        f, _ = test_functions()
        out = {"rungs": []}
        for b in self.betas:
            ens = _ensemble(ctx["tables"][b], b, self.n, seed, calls)
            out["rungs"].append(_spin(ens, f, calls))
            _finish(out, ens)
        out.update(out["rungs"][-1])
        return out

    def replay(self, ctx, seed, calls, spans):
        f, _ = test_functions()
        out = {"rungs": []}
        for b in self.betas:
            table = ctx["tables"][b]
            ens = _ensemble_traced(table, b, self.n, seed, calls, spans)
            with spans.span("kernels.register"):
                calls.do("register", table.register, f)
            spans.count("kernels.register_calls", 1)
            with spans.span("ensemble.z"):
                calls.do("z_values", ens.z_values, f)
            with spans.span("ensemble.estimators"):
                out["rungs"].append(_spin(ens, f, calls))
            _finish(out, ens)
        out.update(out["rungs"][-1])
        return out

    def checks(self, out):
        res = list(out["jump_checks"])
        for b, r in zip(self.betas, out["rungs"]):
            if r:
                res.append(_modulus_check(
                    f"spin_factor_modulus_beta{b:g}", r["S"], r["se_S"]))
        return res


# ---------------------------------------------------------------------------
# resolvent-5e4
# ---------------------------------------------------------------------------

class Resolvent:
    name = "resolvent-5e4"
    n = 50_000
    n0 = 1e-3
    decay_t = (1.0, 2.0, 4.0)

    def setup(self, spans):
        return {"table": _tables([BETA], spans)[BETA]}

    def _resolvents(self, cfg, f, g, calls, out, spans=None):
        spans = spans or benchstats.NoSpans()
        with spans.span("resolvent.onepoint"):
            out["r_plus"] = calls.do("resolvent_onepoint",
                                     resolvent_onepoint, cfg, 1.0, f)
            out["r_minus"] = calls.do("resolvent_onepoint",
                                      resolvent_onepoint, cfg, -1.0, f)
            # the scaling relation 2 R(2, 2f) = R(1, f)
            out["r_scaled"] = calls.do("resolvent_onepoint",
                                       resolvent_onepoint, cfg, 2.0,
                                       f.scaled(2.0))
        with spans.span("resolvent.twopoint"):
            out["r_two"] = calls.do("resolvent_twopoint", resolvent_twopoint,
                                    cfg, 1.0, f, 2.0, g)
        with spans.span("resolvent.decay"):
            out["decay"] = calls.do("bec_decay_scan", bec_decay_scan, cfg,
                                    1.0, f, self.decay_t, threshold=1.0)

    def _functions(self):
        f, g = test_functions()
        return f, g, [f, g, f.scaled(2.0)] + [f.scaled(t)
                                             for t in self.decay_t[1:]]

    def run(self, ctx, seed, calls):
        f, g, _ = self._functions()
        ens = _ensemble(ctx["table"], BETA, self.n, seed, calls)
        cfg = _cfg(ctx["table"], ens, self.n0)
        out = {}
        out.update(_spin(ens, f, calls))
        self._resolvents(cfg, f, g, calls, out)
        return _finish(out, ens)

    def replay(self, ctx, seed, calls, spans):
        f, g, fs = self._functions()
        table = ctx["table"]
        ens = _ensemble_traced(table, BETA, self.n, seed, calls, spans)
        cfg = _cfg(table, ens, self.n0)
        _forms(spans, calls,
               [(cfg.classify, (h,)) for h in fs]
               + [(cfg.q_bec, (h,)) for h in fs]
               + [(cfg.q0, (f, g)), (cfg.q_nonzero, (f, g))])
        with spans.span("kernels.register"):
            for h in fs:
                calls.do("register", table.register, h)
        spans.count("kernels.register_calls", len(fs))
        with spans.span("ensemble.z"):
            for h in fs:
                calls.do("z_values", ens.z_values, h)
        out = {}
        with spans.span("ensemble.estimators"):
            out.update(_spin(ens, f, calls))
        self._resolvents(cfg, f, g, calls, out, spans)
        return _finish(out, ens)

    def checks(self, out):
        res = list(out["jump_checks"])
        if "S" in out:
            res.append(_modulus_check("spin_factor_modulus", out["S"],
                                      out["se_S"]))
        plus, minus = out.get("r_plus"), out.get("r_minus")
        scaled, two = out.get("r_scaled"), out.get("r_two")
        for key, lam in (("r_plus", 1.0), ("r_minus", 1.0),
                         ("r_scaled", 2.0)):
            rv = out.get(key)
            if rv is not None:
                res.append((f"onepoint_norm_bound_{key}",
                            abs(rv.value) <= 1.0 / lam + rv.error + 1e-12))
        if two is not None:
            res.append(("twopoint_norm_bound",
                        abs(two.value) <= 0.5 + two.error + 1e-12))
        if plus is not None and scaled is not None:
            res.append(("scaling_relation",
                        abs(2.0 * scaled.value - plus.value)
                        <= 2.0 * scaled.error + plus.error + 1e-9))
        if plus is not None and minus is not None:
            res.append(("conjugation_symmetry",
                        abs(minus.value - np.conj(plus.value))
                        <= 1e-10 * abs(plus.value)))
        if out["decay"] is not None:
            rep = out["decay"]
            res.append(("decay_monotone",
                        rep.monotone and rep.final_ratio < 1.0))
        return res


# ---------------------------------------------------------------------------
# cluster-scan
# ---------------------------------------------------------------------------

class Cluster:
    name = "cluster-scan"
    n = 200_000
    n0 = 1e-3
    modes = ("time", "space")

    def setup(self, spans):
        return {"table": _tables([BETA], spans)[BETA]}

    def run(self, ctx, seed, calls):
        f, g = test_functions()
        ens = _ensemble(ctx["table"], BETA, self.n, seed, calls)
        cfg = _cfg(ctx["table"], ens, self.n0)
        out = {"reports": {}, "verdicts": {}}
        for mode in self.modes:
            rep = calls.do("cluster_scan", cluster_scan, cfg, f, g, mode,
                           CLUSTER_GRID)
            out["reports"][mode] = rep
            if rep is not None:
                out["verdicts"][mode] = calls.do("nogo_verdict", nogo_verdict,
                                                 cfg, f, g, rep)
        out.update(_spin(ens, f, calls))
        return _finish(out, ens)

    def replay(self, ctx, seed, calls, spans):
        f, g = test_functions()
        table = ctx["table"]
        ens = _ensemble_traced(table, BETA, self.n, seed, calls, spans)
        cfg = _cfg(table, ens, self.n0)
        out = {"reports": {}, "verdicts": {}}
        for mode in self.modes:
            tgs = [transported(g, mode, float(u)) for u in CLUSTER_GRID]
            fs = [f, g] + [f + tg for tg in tgs]
            # the q-forms and classes cluster_scan and two_point_charfun read
            _forms(spans, calls,
                   [(cfg.classify, (h,)) for h in [f, g] + tgs]
                   + [(cfg.q_bec, (f,)), (cfg.q_bec, (g,)),
                      (cfg.q0, (f, g)), (cfg.q0, (f + g,))]
                   + [(cfg.q_nonzero, a) for tg in tgs
                      for a in ((f + tg,), (f, tg))])
            with spans.span("kernels.register"):
                for h in fs:
                    calls.do("register", table.register, h)
            spans.count("kernels.register_calls", len(fs))
            with spans.span("ensemble.z"):
                for h in fs:
                    calls.do("z_values", ens.z_values, h)
            # the state-layer calls of the scan, with every cache below warm
            with spans.span("state.self"):
                calls.do("charfun", charfun, cfg, f, 0.0)
                calls.do("charfun", charfun, cfg, g, 0.0)
                for u in CLUSTER_GRID:
                    calls.do("two_point_charfun", two_point_charfun, cfg, f,
                             g, mode, float(u))
            with spans.span("cluster.total"):
                rep = calls.do("cluster_scan", cluster_scan, cfg, f, g, mode,
                               CLUSTER_GRID)
                out["reports"][mode] = rep
                if rep is not None:
                    out["verdicts"][mode] = calls.do(
                        "nogo_verdict", nogo_verdict, cfg, f, g, rep)
        with spans.span("ensemble.estimators"):
            out.update(_spin(ens, f, calls))
        return _finish(out, ens)

    def checks(self, out):
        res = list(out["jump_checks"])
        if "S" in out:
            res.append(_modulus_check("spin_factor_modulus", out["S"],
                                      out["se_S"]))
        for mode, v in out["verdicts"].items():
            if v is None:
                continue
            res.append((f"nogo_bookkeeping_{mode}",
                        v.contradiction == (v.moderate and v.q0_f > 1e-12)
                        and v.consistent == (not v.contradiction)))
        return res


WORKLOADS = {w.name: w for w in (Bulk(), Ladder(), Resolvent(), Cluster())}
