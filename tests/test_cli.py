import os

import pytest

from spinboson import cli
from spinboson.kernels import QuadratureError
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
tau_grid = 256

[functions]
f = gaussian:width=1,amplitude=1
g = gaussian:width=1.2,amplitude=0.8

[experiment]
s_grid = 0,0.5,1,2
grid = 1,2,4,8,16
lambda = 1.0
mu = 2.0

[output]
directory = out
csv = true
cache = false
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


def test_seed_flag_overrides_config(config_path, tmp_path):
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert _run("charfun", config_path, out1, ("--seed", "1")) == 0
    assert _run("charfun", config_path, out2, ("--seed", "2")) == 0
    c1, _ = _read_outputs(out1)
    c2, _ = _read_outputs(out2)
    assert c1 != c2


def test_kernel_cache_round_trip(tmp_path):
    p = tmp_path / "cfg.ini"
    p.write_text(BASE_CONFIG.replace("cache = false", "cache = true"))
    out = str(tmp_path / "out")
    assert _run("kernels", str(p), out) == 0
    cache_dir = os.path.join(out, "cache")
    files = os.listdir(cache_dir)
    assert len(files) == 1 and files[0].startswith("kernel_")
    # second run reuses the cache and reproduces the csv bytes
    body1 = open(os.path.join(out, "kernels.csv"), "rb").read()
    assert _run("kernels", str(p), out) == 0
    body2 = open(os.path.join(out, "kernels.csv"), "rb").read()
    assert body1 == body2
