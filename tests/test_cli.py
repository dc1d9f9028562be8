import ast
import csv
import inspect
import os
import re

import numpy as np
import pytest

from spinboson import cli
from spinboson.ensemble import CNUMBER_TOL
from spinboson.kernels import QuadratureError, ThermalKernelTable
from spinboson.momentum import TestFunction, form_nonzero

BASE_CONFIG = """\
[physical]
beta = 1.0
eps = 1.0
d = 3
s = 1.0
n0 = 0.001
source = gaussian:width=1,amplitude=0.4

[numerics]
samples = 2000
seed = 42
quad_tol = 1e-9

[functions]
f = gaussian:width=1,amplitude=1
g = gaussian:width=1.2,amplitude=0.8

[experiment]
s_grid = 0,0.5,1,2
grid = 1,2,4,8,16
lambda = 1.0
mu = 2.0
"""

SUBCOMMANDS = sorted(cli.RUNNERS)


@pytest.fixture()
def config_path(tmp_path):
    p = tmp_path / "cfg.ini"
    p.write_text(BASE_CONFIG)
    return str(p)


def _run(sub, config, out, extra=()):
    return cli.main([sub, "--config", config, "--out", out, *extra])


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_subcommands_succeed(sub, config_path, tmp_path):
    out = str(tmp_path / "out")
    assert _run(sub, config_path, out) == 0
    stem = sub.replace("-", "_")
    summary = os.path.join(out, f"{stem}_summary.txt")
    assert os.path.exists(summary)
    text = open(summary).read()
    assert text.startswith("# generated ")
    assert "seed = 42" in text
    assert "config_hash = " in text
    assert "FAIL" not in text
    # weight-degeneracy figures: ESS/N and the largest normalized weight,
    # with ESS = 1 / sum p_i^2 >= 1 / max p_i
    fields = dict(line.split(" = ", 1) for line in text.splitlines()[1:])
    ess = float(fields["ess"])
    ess_frac = float(fields["ess_frac"])
    share = float(fields["max_weight_share"])
    assert ess_frac == pytest.approx(ess / 2000, rel=1e-12)
    assert 0 < ess_frac <= 1
    assert 1 / 2000 <= share <= 1
    assert ess * share >= 1 - 1e-12
    csvs = [f for f in os.listdir(out) if f.endswith(".csv")]
    assert len(csvs) == 1
    body = open(os.path.join(out, csvs[0])).read()
    assert body.startswith("# ")
    assert "np." not in body


def test_negative_beta_is_config_error(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text(BASE_CONFIG.replace("beta = 1.0", "beta = -2.0"))
    code = _run("kernels", str(p), str(tmp_path / "out"))
    assert code == 2
    assert "beta" in capsys.readouterr().err


def test_large_eps_beta_spin_check_runs(tmp_path, capsys):
    # at eps beta = 100 the terms x^{2m}/(2m)! of the jump-count law pass
    # through (2m)! > 1e308, while cosh(eps beta) stays finite
    p = tmp_path / "cold.ini"
    p.write_text(BASE_CONFIG.replace("beta = 1.0", "beta = 100.0")
                 .replace("source = gaussian:width=1,amplitude=0.4",
                          "source = zero"))
    out = tmp_path / "out"
    assert _run("spin-check", str(p), str(out)) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
    assert (out / "spin_check.csv").exists()


def test_overflowing_eps_beta_is_config_error(tmp_path, capsys):
    # cosh(eps beta) overflows a float beyond eps beta ~ 709.8
    p = tmp_path / "bad.ini"
    p.write_text(BASE_CONFIG.replace("beta = 1.0", "beta = 800.0")
                 .replace("source = gaussian:width=1,amplitude=0.4",
                          "source = zero"))
    assert _run("spin-check", str(p), str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert "eps * beta" in err


def test_zero_lambda_is_config_error(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text(BASE_CONFIG.replace("lambda = 1.0", "lambda = 0"))
    code = _run("resolvent", str(p), str(tmp_path / "out"))
    assert code == 2
    assert "lambda" in capsys.readouterr().err


def test_too_few_samples_is_config_error(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text(BASE_CONFIG.replace("samples = 2000", "samples = 500"))
    code = _run("charfun", str(p), str(tmp_path / "out"))
    assert code == 2
    assert "samples" in capsys.readouterr().err


def test_unknown_profile_is_config_error(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text(BASE_CONFIG.replace("gaussian:width=1,amplitude=1",
                                     "mystery:width=1"))
    code = _run("charfun", str(p), str(tmp_path / "out"))
    assert code == 2


@pytest.mark.parametrize("spec", ["flat:amplitude=1",
                                  "bump:exponent=-0.9,cutoff=1"])
def test_inadmissible_test_function_is_config_error(spec, tmp_path, capsys):
    # a rejected direction and a divergent zero mode are config errors,
    # reported on one line rather than as a traceback
    p = tmp_path / "bad.ini"
    p.write_text(BASE_CONFIG.replace("f = gaussian:width=1,amplitude=1",
                                     f"f = {spec}"))
    code = _run("charfun", str(p), str(tmp_path / "out"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("s, code", [("1.0", 2), ("0.5", 0)])
def test_two_dimensional_charfun(s, code, tmp_path, capsys):
    # test functions exist in d = 2: charfun runs, or rejects the physical
    # block (kappa diverges at k -> 0 for s = 1) on one line, and never
    # stops on a traceback
    p = tmp_path / "d2.ini"
    p.write_text(BASE_CONFIG.replace("d = 3", "d = 2")
                 .replace("\ns = 1.0", f"\ns = {s}"))
    assert _run("charfun", str(p), str(tmp_path / "out")) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert err.startswith("config error: ")
        assert err.count("\n") == 1


def test_source_exponent_tie_is_config_error(tmp_path, capsys):
    # k^{-0.9} at s = 1.4: its m-pairing with a gaussian is log-divergent,
    # so the source itself is rejected
    p = tmp_path / "tie.ini"
    p.write_text(BASE_CONFIG.replace("source = gaussian:width=1,amplitude=0.4",
                                     "source = bump:exponent=-0.9,cutoff=1")
                 .replace("\ns = 1.0", "\ns = 1.4"))
    assert _run("charfun", str(p), str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid [physical] source: ")
    assert err.count("\n") == 1


def test_unresolvable_form_is_numerical_non_convergence(tmp_path, capsys):
    # at a time separation of 1e5 the thermal cross form oscillates faster
    # than the radial rule's panel budget can resolve: exit 3 on one line
    p = tmp_path / "far.ini"
    p.write_text(BASE_CONFIG.replace("grid = 1,2,4,8,16", "grid = 1,1e5"))
    assert _run("cluster", str(p), str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical non-convergence: ")
    assert err.count("\n") == 1
    f = TestFunction.gaussian(width=1.0, amplitude=1.0)
    with pytest.raises(QuadratureError):
        form_nonzero(f, f.time_evolved(1e5), 1.0)


def test_failed_decay_scan_is_a_failed_check(tmp_path, capsys):
    # an unmeetable decay threshold fails the bec_decay check (exit 1)
    # instead of escaping as an exception
    p = tmp_path / "strict.ini"
    p.write_text(BASE_CONFIG.replace("mu = 2.0",
                                     "mu = 2.0\ndecay_threshold = 1e-9"))
    out = str(tmp_path / "out")
    assert _run("resolvent", str(p), out) == 1
    summary = open(os.path.join(out, "resolvent_summary.txt")).read()
    assert "check bec_decay = FAIL" in summary
    assert capsys.readouterr().err == ""


def test_missing_config_file(tmp_path, capsys):
    code = _run("charfun", str(tmp_path / "nope.ini"), str(tmp_path / "out"))
    assert code == 2


@pytest.mark.parametrize("where", ["out-is-file", "csv-is-directory"])
def test_unusable_output_path_is_output_error(where, tmp_path, capsys):
    # an output path that cannot be written exits 2 on one line, not on a
    # traceback: the --out directory, a CSV
    out = tmp_path / "out"
    if where == "out-is-file":
        out.write_bytes(b"x")
    else:
        (out / "kernels.csv").mkdir(parents=True)
    p = tmp_path / "cfg.ini"
    p.write_text(BASE_CONFIG)
    assert _run("kernels", str(p), str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def _read_outputs(out):
    csvs = {}
    summaries = {}
    for name in sorted(os.listdir(out)):
        path = os.path.join(out, name)
        if name.endswith(".csv"):
            csvs[name] = open(path, "rb").read()
        elif name.endswith("_summary.txt"):
            lines = open(path).read().splitlines()
            assert lines[0].startswith("# generated ")
            summaries[name] = "\n".join(lines[1:])
    return csvs, summaries


def test_reruns_are_byte_identical(config_path, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for sub in ("charfun", "cluster"):
        assert _run(sub, config_path, out1) == 0
        assert _run(sub, config_path, out2) == 0
    c1, s1 = _read_outputs(out1)
    c2, s2 = _read_outputs(out2)
    assert c1 == c2
    # summaries agree apart from the timestamp line stripped above
    assert s1 == s2


def test_summary_records_the_atom_mass(config_path, tmp_path):
    out = str(tmp_path / "out")
    assert _run("charfun", config_path, out) == 0
    text = open(os.path.join(out, "charfun_summary.txt")).read()
    fields = dict(line.split(" = ", 1) for line in text.splitlines()[1:])
    # the constant paths carry the largest FKN weight, so the tilt can only
    # raise their free mass 1/cosh(eps beta)
    assert 1.0 / np.cosh(1.0) <= float(fields["atom_mass"]) <= 1.0


def test_functions_are_picked_by_name(config_path, tmp_path):
    # every subcommand takes f and g by sorted name, not by declaration
    # order, so declaring g first changes nothing
    swapped = tmp_path / "swapped.ini"
    swapped.write_text(BASE_CONFIG.replace(
        "f = gaussian:width=1,amplitude=1\ng = gaussian:width=1.2,amplitude=0.8",
        "g = gaussian:width=1.2,amplitude=0.8\nf = gaussian:width=1,amplitude=1"))
    assert swapped.read_text() != BASE_CONFIG
    out1, out2 = str(tmp_path / "f_first"), str(tmp_path / "g_first")
    assert _run("charfun", config_path, out1) == 0
    assert _run("charfun", str(swapped), out2) == 0
    assert _read_outputs(out1)[0] == _read_outputs(out2)[0]


def test_seed_flag_overrides_config(config_path, tmp_path):
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert _run("charfun", config_path, out1, ("--seed", "1")) == 0
    assert _run("charfun", config_path, out2, ("--seed", "2")) == 0
    c1, _ = _read_outputs(out1)
    c2, _ = _read_outputs(out2)
    assert c1 != c2


def test_variance_cnumber_row_is_value_bound_margin(config_path, tmp_path):
    # the c-number criterion's row reads like the deviation rows: the
    # tilted variance of Z, the bound CNUMBER_TOL and the margin between
    out = str(tmp_path / "out")
    assert _run("variance", config_path, out) == 0
    lines = open(os.path.join(out, "variance.csv")).read().splitlines()
    rows = {r[0]: r[1:] for r in csv.reader(lines[2:])}
    var, bound, margin = (float(x) for x in rows["cnumber"])
    assert var == float(rows["var_direct"][0]) > 0
    assert bound == CNUMBER_TOL
    assert margin == CNUMBER_TOL - var


def test_kernels_checks_the_psi_circle_identity(config_path, tmp_path,
                                                monkeypatch):
    # the log-weights rest on Psi(beta) = beta Psi'(beta) / 2: a table whose
    # nodal derivatives break it must fail the check
    out = str(tmp_path / "out")
    summary = os.path.join(out, "kernels_summary.txt")
    assert _run("kernels", config_path, out) == 0
    assert "check psi_circle_identity = PASS\n" in open(summary).read()
    set_psi = ThermalKernelTable._set_psi

    def scaled_derivatives(self, grid, psi, apsi):
        set_psi(self, grid, psi, apsi * (1.0 + 1e-9))

    monkeypatch.setattr(ThermalKernelTable, "_set_psi", scaled_derivatives)
    assert _run("kernels", config_path, out) == 1
    assert "check psi_circle_identity = FAIL\n" in open(summary).read()


@pytest.mark.parametrize("sub, old, new, extra", [
    pytest.param("cluster", "grid = 1,2,4,8,16", "grid =", (),
                 id="grid-empty"),
    pytest.param("cluster", "grid = 1,2,4,8,16", "grid = 4,2", (),
                 id="grid-decreasing"),
    pytest.param("spin-check", "eps = 1.0", "eps = nan", (), id="eps-nan"),
    pytest.param("charfun", "", "", ("--seed", str(2 ** 63)),
                 id="seed-flag-2^63"),
    pytest.param("charfun", "seed = 42", f"seed = {2 ** 63}", (),
                 id="seed-2^63"),
    pytest.param("kernels", "beta = 1.0", "beta = nan", (), id="beta-nan"),
    pytest.param("kernels", "beta = 1.0", "beta = inf", (), id="beta-inf"),
    pytest.param("kernels", "quad_tol = 1e-9", "quad_tol = nan", (),
                 id="quad_tol-nan"),
    pytest.param("kernels", "quad_tol = 1e-9", "quad_tol = -1", (),
                 id="quad_tol-negative"),
    pytest.param("variance", "quad_tol = 1e-9",
                 "quad_tol = 1e-9\nvariance_grid = 0", (),
                 id="variance_grid-zero"),
    pytest.param("resolvent", "lambda = 1.0", "lambda = nan", (),
                 id="lambda-nan"),
    pytest.param("charfun", "s_grid = 0,0.5,1,2", "s_grid =", (),
                 id="s_grid-empty"),
    pytest.param("charfun", "s_grid = 0,0.5,1,2", "s_grid = 0,nan", (),
                 id="s_grid-nan"),
    pytest.param("resolvent", "mu = 2.0", "mu = 2.0\ndecay_threshold = 0",
                 (), id="decay_threshold-zero"),
    pytest.param("charfun", "f = gaussian:width=1,amplitude=1",
                 "f = gaussian:width=nan,amplitude=1", (),
                 id="profile-width-nan"),
    pytest.param("kernels", "[physical]\n", "physical\n", (),
                 id="no-section-header"),
    pytest.param("kernels", "source = gaussian:width=1,amplitude=0.4",
                 "source = gaussian:width=1%", (), id="bad-interpolation"),
    pytest.param("charfun", "", "", ("--samples", "0"), id="samples-flag-0"),
    pytest.param("charfun", "", "", ("--samples", "-5"),
                 id="samples-flag-negative"),
])
def test_bad_input_is_config_error(sub, old, new, extra, tmp_path, capsys):
    # every numeric field and flag is read finite and checked against its
    # rule, and unreadable INI is a config error: a bad input exits 2 on
    # one line, never on a traceback, a silent default or another code
    text = BASE_CONFIG.replace(old, new) if old else BASE_CONFIG
    assert (text != BASE_CONFIG) != bool(extra)
    p = tmp_path / "bad.ini"
    p.write_text(text)
    assert _run(sub, str(p), str(tmp_path / "out"), extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    if extra:
        assert extra[0] in err


@pytest.mark.parametrize("line", ["source = gaussian:widht=3",
                                  "source = zero:amplitude=1",
                                  "source = flat:amplitude=1,width=2",
                                  "f = bump:exponent=0,cutof=2"],
                         ids=["widht", "zero", "flat-width", "cutof"])
def test_unknown_profile_parameter_is_config_error(line, tmp_path, capsys):
    # a misspelt parameter is rejected instead of running on its default
    key = line.split(" = ")[0]
    text = re.sub(rf"^{key} = .*$", line, BASE_CONFIG, count=1, flags=re.M)
    assert line in text
    p = tmp_path / "bad.ini"
    p.write_text(text)
    assert _run("charfun", str(p), str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown parameter ")
    assert err.count("\n") == 1
    with pytest.raises(cli.ConfigError):
        cli.parse_profile(line.split(" = ")[1])


@pytest.mark.parametrize("section, old, new", [
    ("physical", "n0 = 0.001", "n0 = 0.001\nbata = 2.0"),
    ("numerics", "quad_tol = 1e-9", "quad_tol = 1e-9\nquad_tl = -1"),
    ("experiment", "lambda = 1.0", "lamda = 0"),
], ids=["physical", "numerics", "experiment"])
def test_unknown_config_key_is_config_error(section, old, new, tmp_path,
                                            capsys):
    # a misspelt or removed key is rejected instead of running on the
    # default of the key it was meant to set
    text = BASE_CONFIG.replace(old, new)
    assert text != BASE_CONFIG
    p = tmp_path / "bad.ini"
    p.write_text(text)
    key = new.split("\n")[-1].split(" = ")[0]
    assert _run("resolvent", str(p), str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err == f"config error: unknown config field [{section}] {key}\n"


@pytest.mark.parametrize("section", ["numeric", "output"])
def test_unknown_config_section_is_config_error(section, tmp_path, capsys):
    # a misspelt section is rejected instead of leaving every key in it at
    # its default, and so is a section that nothing reads
    p = tmp_path / "bad.ini"
    p.write_text(BASE_CONFIG + f"\n[{section}]\nsamples = 1000000\n")
    assert _run("charfun", str(p), str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err == f"config error: unknown config section [{section}]\n"


def test_known_config_keys_are_the_keys_read():
    # the accepted keys are exactly those some subcommand reads
    reads, _ = _keys_read_by_cli()
    known = {(sec, k) for sec, keys in cli._KNOWN_KEYS.items() for k in keys}
    assert known == {r for r in reads if r[0] in cli._KNOWN_KEYS}


def _ini_keys(text):
    """(section, key) pairs declared in an INI layout, comments left out."""
    keys, section = set(), None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
        elif "=" in line and not line.startswith((";", "#")):
            keys.add((section, line.split("=", 1)[0].strip()))
    return keys


def _keys_read_by_cli():
    """(section, key) pairs cli.py reads, and the sections it reads whole,
    from the string arguments of its config calls."""
    reads, whole = set(), set()
    for node in ast.walk(ast.parse(inspect.getsource(cli))):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        args = [a.value for a in node.args
                if isinstance(a, ast.Constant) and isinstance(a.value, str)]
        if name == "items" and len(args) == 1:
            whole.add(args[0])
        elif name == "_grid_from_config":
            reads.add(("experiment", args[0]))
        elif name in ("_get_num", "get", "getboolean") and len(args) >= 2:
            reads.add((args[0], args[1]))
    return reads, whole


def test_documented_config_keys_are_read():
    # every key of the module docstring's layout and of the README example
    # config is read by the CLI: no documented key is silently ignored
    layout = cli.__doc__.split("Config layout (flat INI)::")[1] \
        .split("Results depend")[0]
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir,
                               "README.md"), encoding="utf-8").read()
    example = readme.split("```ini")[1].split("```")[0]
    reads, whole = _keys_read_by_cli()
    for text in (layout, example):
        keys = _ini_keys(text)
        assert ("numerics", "samples") in keys
        unread = {k for k in keys if k not in reads and k[0] not in whole}
        assert not unread
