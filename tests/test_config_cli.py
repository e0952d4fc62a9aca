import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracbvp import Grid1D, SpinorField, config, save_field_csv
from diracbvp.cli import main, run_command
from diracbvp.config import eval_number, parse_config, sweep_points
from diracbvp.errors import ConfigParseError, DiracBVPError


def write_cfg(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def not_certified(reason, *points):
    """stderr of a solve, or of these sweep points, whose certification
    raised with reason."""
    wheres = ["sweep point %d: " % i for i in points] or [""]
    return "".join("warning: %sconditions not certified: %s\n"
                   % (where, reason) for where in wheres)


# ------------------------------------------------------------ cold start

def test_cli_import_does_not_load_scipy(tmp_path):
    # importing scipy is most of a command's start-up time, and nothing
    # needs it: not the import, and not spectrum's empirical constants.
    # numpy.random (13 ms, 6 MiB) and fractions (4-13 ms) are not needed
    # by spectrum, solve or sweep either
    import diracbvp
    src = os.path.dirname(os.path.dirname(os.path.abspath(diracbvp.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, diracbvp.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"

    cfg_path = write_cfg(tmp_path, "[model]\nn_points = 64\n")
    code = ("import sys; from diracbvp.cli import main; "
            "rc = main(['spectrum', '--config', sys.argv[1], '--out', "
            "sys.argv[2]]); print(rc, 'scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(cfg_path),
                          str(tmp_path / "out")], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["0", "False"]
    assert "c1_emp" in read_json(tmp_path / "out" / "summary.json")

    cfg_path = write_cfg(tmp_path, "[model]\nn_points = 64\n[sweep]\n"
                                   "param = scheme.lambda\nmin = 0\n"
                                   "max = 0.1\ncount = 2\n")
    # the array layers load on first use, in the commands that need them
    code = ("import sys; from diracbvp.cli import main; "
            "print([main([c, '--config', sys.argv[1], '--out', sys.argv[2]]) "
            "for c in ('spectrum', 'solve', 'sweep')], "
            "[m for m in ('scipy', 'numpy.random', 'fractions') "
            "if m in sys.modules], "
            "[m for m in sys.argv[3:] if m not in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code, str(cfg_path),
                          str(tmp_path / "out2")] + list(ARRAY_LAYERS),
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    assert out.strip() == "[0, 0, 0] [] []"


ARRAY_LAYERS = ("numpy", "diracbvp.grids", "diracbvp.operators",
                "diracbvp.spectral", "diracbvp.scheme", "diracbvp.conditions")
# what every command loads before it knows whether it needs arrays
CLI_MODULES = ["diracbvp", "diracbvp.cli", "diracbvp.config",
               "diracbvp.errors", "diracbvp.names"]


def fresh_env():
    """os.environ with PYTHONPATH set to this source tree."""
    import diracbvp
    src = os.path.dirname(os.path.dirname(os.path.abspath(diracbvp.__file__)))
    return dict(os.environ, PYTHONPATH=src)


def run_fresh(code, *args):
    """stdout of `code` run in a new interpreter on this source tree."""
    return subprocess.run([sys.executable, "-c", code] + list(args),
                          env=fresh_env(), check=True, capture_output=True,
                          text=True).stdout


@pytest.mark.parametrize("argv, text, status, modules", [
    (["bootstrap"], "[bootstrap]\nn = 4\n", 0,
     sorted(CLI_MODULES + ["diracbvp.bootstrap"])),
    (["--help"], None, 0, CLI_MODULES),
    (["spectrum"], "[model]\nn_pointz = 6\n", 1, CLI_MODULES),
    (["spectrum"], "[model]\nboundary = moebius\n", 1, CLI_MODULES),
    (["sweep"], "[sweep]\nmin = 0\n", 1, CLI_MODULES),
    (["solve"], "[scheme]\nxi = abc\n", 1, CLI_MODULES),
    (["solve"], "[scheme]\ng = wavelet(3)\n", 1, CLI_MODULES),
    (["sweep"], "[sweep]\nparam = model.boundary\nmin = 0\nmax = 1\n"
                "count = 2\n", 1, CLI_MODULES),
    (["bootstrap"], "[model]\noperator = dirac_2spinor\n"
                    "boundary = antiperiodic\n", 1, CLI_MODULES),
    (["spectrum"], "[model]\noperator = dirac_2spinor\n"
                   "boundary = antiperiodic\n", 1, CLI_MODULES),
    (["solve"], "[run]\noutput_dir = x\n", 1, CLI_MODULES),
    # --out names the config file itself, relative to the working directory
    (["spectrum", "--out", "run.ini"], "[model]\nn_points = 8\n", 1,
     CLI_MODULES),
], ids=["bootstrap", "help", "unknown-key", "bad-boundary", "orphan-sweep",
        "bad-xi", "bad-field", "word-axis", "mismatch-bootstrap",
        "mismatch-spectrum", "run-section", "out-is-a-file"])
def test_paths_without_arrays_load_no_numpy(tmp_path, monkeypatch, argv,
                                            text, status, modules):
    # the module set, not a timing: bootstrap, --help and a refused
    # config or --out never import numpy or an array layer, nor
    # dataclasses and inspect, which the array layers' records need.
    # The case's own flags come last, so its --out wins
    monkeypatch.chdir(tmp_path)
    if text is not None:
        argv = ["--config", str(write_cfg(tmp_path, text)),
                "--out", str(tmp_path / "out")] + argv
    code = ("import sys; from diracbvp.cli import main\n"
            "try:\n    rc = main(sys.argv[1:])\n"
            "except SystemExit as exc:\n    rc = exc.code\n"
            "print(rc, sorted(m for m in sys.modules if m in "
            "('numpy', 'dataclasses', 'inspect') "
            "or m.startswith('diracbvp')))")
    last = run_fresh(code, *argv).strip().splitlines()[-1]
    assert last == "%d %r" % (status, modules)


@pytest.mark.parametrize("command, loaded", [
    ("spectrum", False), ("check", False), ("functional", False),
    ("solve", True), ("sweep", True)])
def test_only_commands_that_iterate_load_the_scheme(tmp_path, command,
                                                    loaded):
    # check certifies from the [scheme] values and the datum g alone:
    # it builds no SchemeConfig
    cfg_path = write_cfg(tmp_path, "[model]\nn_points = 16\n[sweep]\n"
                                   "param = scheme.lambda\nmin = 0\n"
                                   "max = 0.1\ncount = 2\n")
    code = ("import sys; from diracbvp.cli import main; "
            "rc = main(sys.argv[1:]); "
            "print(rc, 'diracbvp.scheme' in sys.modules)")
    out = run_fresh(code, command, "--config", str(cfg_path),
                    "--out", str(tmp_path / "out"))
    assert out.split() == ["0", str(loaded)]


def test_package_exports_load_lazily():
    code = ("import sys, diracbvp; print(sorted(m for m in sys.modules "
            "if m == 'numpy' or m.startswith('diracbvp')))")
    assert run_fresh(code).strip() == "['diracbvp']"
    import diracbvp
    for name in diracbvp.__all__:
        assert getattr(diracbvp, name) is not None
        assert name in dir(diracbvp)
    namespace = {}
    exec("from diracbvp import *", namespace)
    assert set(diracbvp.__all__) <= set(namespace)
    from diracbvp.conditions import MODE_C
    from diracbvp.operators import ANTIPERIODIC
    assert (MODE_C, ANTIPERIODIC) == ("C_final", "antiperiodic")
    assert diracbvp.decompose is diracbvp.spectral.decompose
    with pytest.raises(AttributeError, match="no_such_name"):
        diracbvp.no_such_name


# --------------------------------------------------------------- parsing

def test_defaults():
    cfg = parse_config("")
    assert cfg.values["model"]["operator"] == "scalar_derivative"
    assert cfg.values["model"]["boundary"] == "antiperiodic"
    assert cfg.values["scheme"]["p"] == 4.0
    assert "run" not in cfg.values  # --out alone names the output directory
    assert cfg.sweep is None
    model = cfg.build_model()
    assert model.grid.n_points == 256 and model.grid.length == 1.0


MISMATCHED = [("scalar_derivative", "bag1d"),
              ("dirac_2spinor", "antiperiodic"),
              ("dirac_2spinor", "periodic")]


@pytest.mark.parametrize("command", ["spectrum", "solve", "check", "sweep",
                                     "bootstrap", "functional"])
@pytest.mark.parametrize("operator, boundary", MISMATCHED)
def test_main_operator_mismatch_is_refused_when_read(tmp_path, capsys,
                                                     command, operator,
                                                     boundary):
    # spectrum used to end in "error: dirac_2spinor needs bag1d bc",
    # naming no key, and bootstrap ran the file and exited 0
    cfg_path = write_cfg(tmp_path, "[model]\noperator = %s\nboundary = %s\n"
                                   "n_points = 16\n%s"
                                   % (operator, boundary, AXIS))
    assert main([command, "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: model.operator: %r does not match boundary %r, which "
        "needs %r\n" % (operator, boundary,
                        "dirac_2spinor" if boundary == "bag1d"
                        else "scalar_derivative"))
    assert not (tmp_path / "out").exists()


def test_main_bag1d_runs_without_an_operator_key(tmp_path, capsys):
    # the boundary fixes the operator; this config used to be refused
    cfg_path = write_cfg(tmp_path, "[model]\nboundary = bag1d\n"
                                   "n_points = 16\n")
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert len(read_csv(out / "eigenvalues.csv")) == 1 + 2 * 16 - 2


def test_eval_number():
    assert eval_number("0.05*pi") == pytest.approx(0.15707963267948966)
    assert eval_number("8/3") == pytest.approx(8.0 / 3.0)
    assert eval_number("-2**3") == -8
    assert eval_number("+2") == 2 and eval_number("-+pi") == -math.pi
    assert eval_number("1e-8") == 1e-8
    # ** is evaluated in floating point, so a tower overflows at once
    assert parse_config("[model]\nn_points = 2**10\n").build_model() \
        .grid.n_points == 1024
    with pytest.raises(ConfigParseError, match="out of floating-point range"):
        eval_number("9**9**9")
    with pytest.raises(ConfigParseError):
        eval_number("__import__('os')")
    with pytest.raises(ConfigParseError):
        eval_number("pi(")


def test_real_key_takes_a_complex_value_only_on_the_real_axis():
    assert parse_config("[model]\nlength = 2+0j\n").values["model"][
        "length"] == 2.0
    with pytest.raises(ConfigParseError,
                       match="expected a real number, got '1\\+1j'") as exc:
        parse_config("[model]\nlength = 1+1j\n")
    assert exc.value.key == "model.length"


def test_unknown_key_names_path():
    with pytest.raises(ConfigParseError) as exc:
        parse_config("[scheme]\nlambdaa = 1\n")
    assert exc.value.key == "scheme.lambdaa"
    with pytest.raises(ConfigParseError) as exc:
        parse_config("[schme]\nlambda = 1\n")
    assert exc.value.key == "schme"
    with pytest.raises(ConfigParseError) as exc:
        parse_config("[model]\nboundary = moebius\n")
    assert exc.value.key == "model.boundary"
    with pytest.raises(ConfigParseError) as exc:
        parse_config("[run]\nworkers = 3\n")
    assert exc.value.key == "run"


def test_scheme_values_evaluated():
    cfg = parse_config("[scheme]\nlambda = 0.05*pi\np = 4\ng = exp_mode(1, 0.1)\n")
    scheme_cfg = cfg.build_scheme(*cfg.build_fields(cfg.build_model()))
    assert scheme_cfg.lam == pytest.approx(0.05 * math.pi)
    x = cfg.build_model().grid.points()
    expected = 0.1 * np.exp(1j * np.pi * x)
    assert np.max(np.abs(scheme_cfg.g.values[:, 0] - expected)) < 1e-14
    # f0 defaults to the datum
    assert np.array_equal(scheme_cfg.f0.values, scheme_cfg.g.values)


def test_field_expressions(tmp_path):
    cfg = parse_config("[scheme]\ng = const(2 - 1)\nf0 = zero\n")
    model = cfg.build_model()
    scheme_cfg = cfg.build_scheme(*cfg.build_fields(model))
    assert np.all(scheme_cfg.g.values == 1.0)
    assert np.all(scheme_cfg.f0.values == 0.0)
    # refused when parsed, before any field is built
    with pytest.raises(ConfigParseError, match="'g' only allowed for f0"):
        parse_config("[scheme]\ng = g\n")
    with pytest.raises(ConfigParseError,
                       match="exp_mode takes 1 or 2 arguments"):
        parse_config("[scheme]\ng = exp_mode(1, 2, 3)\n")
    with pytest.raises(ConfigParseError, match="cannot parse field"):
        parse_config("[scheme]\ng = wavelet(3)\n")
    # used to end in "error: [Errno 21] Is a directory", naming no key
    with pytest.raises(ConfigParseError,
                       match=r"^scheme\.f0: sample_file needs a path$"):
        parse_config("[scheme]\nf0 = sample_file('')\n")


@pytest.mark.parametrize("model, scheme", [
    ("", "g = exp_mode(1e308)"), ("", "g = exp_mode(6e307)"),
    ("", "f0 = exp_mode(-1e308)"), ("boundary = periodic\n",
                                    "g = exp_mode(1e308)"),
    ("length = 1e10\n", "g = exp_mode(1e300)"),
    ("", "g = exp_mode(1, 1.5e308 + 1.5e308j)")])
def test_exp_mode_out_of_the_floats_names_its_key(tmp_path, capsys, model,
                                                  scheme):
    # a phase k pi x / L or a value past the floats used to end in numpy
    # warnings (a traceback under -W error) and an error naming no key
    key = "scheme." + scheme.split(" ", 1)[0]
    cfg_path = write_cfg(tmp_path, "[model]\nn_points = 16\n%s[scheme]\n%s\n"
                                   % (model, scheme))
    length = parse_config(cfg_path.read_text()).values["model"]["length"]
    for command in ("solve", "check"):
        assert main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err \
            == ("error: %s: exp_mode's phase or values are out of "
                "floating-point range at model.length = %r\n" % (key, length))


@pytest.mark.parametrize("boundary", ["antiperiodic", "bag1d"])
def test_check_refuses_d_g_out_of_the_floats(tmp_path, capsys, boundary):
    # g = exp_mode(1, 1e308) is finite, but D g, of size pi 1e308 / L, is
    # not: the certificate names scheme.g, with no numpy warning
    cfg_path = write_cfg(tmp_path, "[model]\nboundary = %s\nn_points = 64\n"
                                   "[scheme]\ng = exp_mode(1, 1e308)\n"
                                   % boundary)
    assert main(["check", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err \
        == "error: scheme.g: D g is out of floating-point range\n"


@pytest.mark.parametrize("boundary", ["antiperiodic", "periodic"])
@pytest.mark.parametrize("k", ["1", "-3", "1e300", "2.5e307"])
def test_finite_exp_mode_fields_are_unchanged(boundary, k):
    # the refusal above checks the field; it computes it as before
    cfg = parse_config("[model]\nboundary = %s\nn_points = 16\n[scheme]\n"
                       "g = exp_mode(%s, 0.25)\n" % (boundary, k))
    grid, k = cfg.build_model().grid, int(float(k))
    x = grid.points()
    turn = 2.0 * np.pi if boundary == "periodic" else np.pi
    expected = 0.25 * np.exp(1j * (turn * k * x / grid.length))
    assert np.array_equal(cfg.build_fields(cfg.build_model())[0].values[:, 0],
                          expected)


def test_sample_file_roundtrip(tmp_path):
    grid = Grid1D(1.0, 256)
    rng = np.random.default_rng(5)
    f = SpinorField(grid, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    save_field_csv(f, tmp_path / "g.csv")
    cfg = parse_config("[scheme]\ng = sample_file(g.csv)\n",
                       base_dir=str(tmp_path))
    back = cfg.build_scheme(*cfg.build_fields(cfg.build_model())).g
    assert np.array_equal(back.values, f.values)
    with pytest.raises(ConfigParseError):
        parse_config("[scheme]\ng = sample_file(missing.csv)\n",
                     base_dir=str(tmp_path)).build_fields(cfg.build_model())


def test_sweep_grid():
    cfg = parse_config("[sweep]\nparam = scheme.lambda\nmin = 0\nmax = 1\n"
                       "count = 5\n")
    pts = sweep_points(cfg.sweep)
    assert len(pts) == 5
    assert pts[0] == (0.0,) and pts[-1] == (1.0,)
    cfg2 = parse_config("[sweep]\nparam = scheme.lambda\nmin = 0\nmax = 1\n"
                        "count = 3\nparam2 = scheme.a\nmin2 = 1\nmax2 = 100\n"
                        "count2 = 3\nscale2 = log\n")
    pts2 = sweep_points(cfg2.sweep)
    assert len(pts2) == 9
    assert pts2[1][1] == pytest.approx(10.0)
    with pytest.raises(ConfigParseError):
        parse_config("[sweep]\nparam = scheme.lambda\nmin = 0\nmax = 1\n"
                     "count = 1\n")
    with pytest.raises(ConfigParseError):
        parse_config("[sweep]\nparam = scheme.nope\nmin = 0\nmax = 1\n"
                     "count = 3\n")
    # a key that may be a word or a number is a numeric axis too
    for path in ("constants.c1", "constants.p_a", "scheme.max_iter"):
        assert parse_config("[sweep]\nparam = %s\nmin = 1\nmax = 2\n"
                            "count = 2\n" % path).sweep[0][0] == path


def test_with_override():
    cfg = parse_config("")
    new = cfg.with_override("scheme.lambda", np.float64(0.25))
    assert new.values["scheme"]["lambda"] == 0.25 + 0j
    assert cfg.values["scheme"]["lambda"] == 0j  # original untouched
    # the value goes through its key's parser: an integer key stays int
    assert cfg.with_override("model.n_points", 32.0) \
        .values["model"]["n_points"] == 32
    with pytest.raises(ConfigParseError,
                       match=r"^model\.n_points: expected an integer"):
        cfg.with_override("model.n_points", 32.5)


# ------------------------------------------------------ property: parsing

_NUMBERS = ["0", "1", "-1", "2", "3", "11", "50", "51", "0.5", "-0.5",
            "1e-300", "5e-324", "1e308", "-1.7e308", "1.7e308", "1e400",
            "pi", "-e", "2**10", "10**12", "9**9**9", "1/0", "1e400 - 1e400",
            "2.5", "1j", "3+0j", "0.05*pi", "-" * 1200 + "1"]
_WORDS = ["", "x", "lin", "log", "zero", "g", "const(1)", "exp_mode(1)",
          "exp_mode(1, 0.5)", "exp_mode(1, 2, 3)", "sample_file(g.csv)",
          "auto", "empirical", "formula", "scheme.lambda", "scheme.p",
          "model.n_points", "model.length", "model.bogus", "sweep.min",
          "scheme.g", "antiperiodic", "bag1d", "C_final",
          "[model]", "=", "%", "\\"]
_KEYS = sorted({key for keys in config._SCHEMA.values() for key in keys}
               | {"bogus"})
_VALUES = st.sampled_from(_NUMBERS + _WORDS) | st.text(max_size=8)
_SECTIONS = ["model", "scheme", "constants", "run", "sweep", "bootstrap",
             "functional", "bogus", "DEFAULT"]


def _section_text(name, pairs):
    return "[%s]\n" % name + "".join("%s = %s\n" % kv for kv in pairs)


_SWEEP_AXIS = st.fixed_dictionaries({
    "param": st.sampled_from(["scheme.lambda", "scheme.p", "model.length",
                              "model.n_points", "constants.c1",
                              "constants.c_half", "scheme.nope", "model.boundary",
                              "sweep.count"]),
    "min": st.sampled_from(_NUMBERS), "max": st.sampled_from(_NUMBERS),
    "count": st.sampled_from(["2", "3", "11", "50", "1", "-2", "2.5",
                              "10**12"]),
    "scale": st.sampled_from(["lin", "log", "geo"])})
_CONFIG_TEXTS = st.one_of(
    st.text(max_size=60),
    st.lists(st.tuples(st.sampled_from(_SECTIONS),
                       st.lists(st.tuples(st.sampled_from(_KEYS), _VALUES),
                                max_size=4)), max_size=4)
    .map(lambda sections: "".join(_section_text(*sec) for sec in sections)),
    st.tuples(_SWEEP_AXIS, st.none() | _SWEEP_AXIS).map(
        lambda axes: _section_text(
            "sweep", list(axes[0].items())
            + [(key + "2", val) for key, val in (axes[1] or {}).items()])))


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(text=_CONFIG_TEXTS)
def test_every_config_text_parses_or_is_refused(text):
    try:
        cfg = parse_config(text)
    except ConfigParseError:
        return
    # every value, given or default, has the type its parser returns
    for section, keys in config._SCHEMA.items():
        for key, (parse, default) in keys.items():
            value = cfg.values[section][key]
            if not (value is None and default is None):
                assert isinstance(value, get_type_hints(parse)["return"]), \
                    (section, key, value)
    if cfg.sweep is None or any(axis[3] > 50 for axis in cfg.sweep):
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = sweep_points(cfg.sweep)
    assert grid and all(math.isfinite(v) for point in grid for v in point)


# ---------------------------------------------------- property: commands

# parseable extremes of each numeric key; model.n_points stays <= 64 and
# the integer keys that set a run's length stay small
_REALS = ["0", "5e-324", "-1e-320", "1e-300", "1e-155", "0.5", "1", "8/3",
          "pi", "-1", "1e10", "1e155", "1e300", "1.7e308", "-1.7e308"]
_POSITIVES = [v for v in _REALS if v != "0" and not v.startswith("-")]
_COMPLEXES = _REALS + ["1j", "0.5-0.5j", "1e-320j", "-1e308j", "pi+1e300j"]
_N_POINTS = ["8", "9", "16", "17", "33", "64"]
_MAX_ITERS = ["1", "2", "3", "50", "200"]
_FIELDS = (["zero"] + ["const(%s)" % v for v in _COMPLEXES]
           + ["exp_mode(%s, %s)" % (k, v) for k in ("0", "1", "3", "10**300")
              for v in _REALS])
_COMMAND_KEYS = {
    "model": {"boundary": ["antiperiodic", "periodic", "bag1d"],
              "length": _POSITIVES},
    "scheme": {"lambda": _COMPLEXES, "p": ["2", "8/3", "4", "400", "1e308"],
               "g": _FIELDS, "f0": ["g"] + _FIELDS, "a": _COMPLEXES,
               "xi": _POSITIVES, "lambda_cap": _POSITIVES,
               "max_iter": _MAX_ITERS, "tol_cauchy": _POSITIVES,
               "tol_residual": _POSITIVES},
    "constants": {"n": ["2", "3", "4", "10**6"], "p_a": _REALS,
                  "c_h": _POSITIVES, "big_c_h": _POSITIVES, "iota": _REALS,
                  "k_gn": _POSITIVES, "k_gn2": _POSITIVES,
                  "k_fgn": _POSITIVES, "c1": ["empirical"] + _POSITIVES,
                  "c_half": ["empirical", "formula"] + _POSITIVES,
                  "mode": ["C_final", "B_explicit", "A_raw"]},
    "bootstrap": {"n": ["3", "4", "5", "100"],
                  "p": ["8/3", "3", "2.0000001", "1e308"], "l0": _POSITIVES},
    "functional": {"m": ["1", "3", "10", "10**300"]},
}
_AXIS_VALUES = {"model.n_points": _N_POINTS, "scheme.max_iter": _MAX_ITERS}


def _optional_keys(keys, **required):
    return st.fixed_dictionaries(
        required, optional={key: st.sampled_from(vals)
                            for key, vals in keys.items()})


def _command_axis(param):
    values = st.sampled_from(_AXIS_VALUES.get(param, _REALS))
    return st.fixed_dictionaries({
        "param": st.just(param), "min": values, "max": values,
        "count": st.sampled_from(["2", "3"]),
        "scale": st.sampled_from(["lin", "log"])})


_COMMAND_AXIS = st.sampled_from(
    ["model.length", "model.n_points"]
    + ["scheme." + key for key in sorted(_COMMAND_KEYS["scheme"])
       if key not in ("g", "f0")]
    + ["constants." + key for key in sorted(_COMMAND_KEYS["constants"])
       if key != "mode"]).flatmap(_command_axis)
_COMMAND_SECTIONS = dict(
    {name: _optional_keys(keys) for name, keys in _COMMAND_KEYS.items()},
    model=_optional_keys(_COMMAND_KEYS["model"],
                         n_points=st.sampled_from(_N_POINTS)))
_SWEEP_AXES = st.tuples(_COMMAND_AXIS, st.none() | _COMMAND_AXIS).map(
    lambda axes: dict(list(axes[0].items())
                      + [(key + "2", val)
                         for key, val in (axes[1] or {}).items()]))


def _command_case(command):
    """(command, config text); a sweep always has its [sweep] axes."""
    sections = dict(_COMMAND_SECTIONS)
    if command == "sweep":
        sections["sweep"] = _SWEEP_AXES
    return st.fixed_dictionaries(sections).map(lambda drawn: (command, "".join(
        _section_text(name, sorted(keys.items()))
        for name, keys in drawn.items() if keys)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(["spectrum", "solve", "check", "sweep",
                             "bootstrap", "functional"]).flatmap(_command_case))
# (C3)'s coefficient underflowed to 0, and the threshold divided by it
@example(case=("check",
               "[model]\nboundary = bag1d\nlength = 4\nn_points = 16\n"
               "[scheme]\np = 8/3\ng = const(4)\n[constants]\nn = 2\n"
               "iota = 4\nk_fgn = 1e-300\nc_half = 2\n"))
# the grid spacing underflowed to 0, and the derivative divided by it
@example(case=("solve", "[model]\nboundary = bag1d\nlength = 5e-324\n"
                        "n_points = 16\n"))
def test_every_command_exits_0_or_with_one_error_line(case):
    # cli.main in process, warnings as errors: exit 0 with strict JSON and
    # CSV artifacts, or exit 1 with one error line last on stderr; any
    # other exception escapes and fails the test
    command, text = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = os.path.join(tmp, "run.ini"), os.path.join(tmp, "out")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            status = main([command, "--config", cfg_path, "--out", out])
        lines = err.getvalue().splitlines()
        assert status in (0, 1)
        if status == 1:
            assert lines and lines.pop().startswith("error: ")
        assert all(line.startswith("warning: ") for line in lines)
        if status == 1:
            return
        for name in sorted(os.listdir(out)):
            path = os.path.join(out, name)
            if name.endswith(".json"):
                with open(path, encoding="utf-8") as fh:
                    json.load(fh, parse_constant=_refuse_constant)
            else:
                rows = read_csv(path)
                assert rows and all(len(row) == len(rows[0]) for row in rows)


def _refuse_constant(name):
    raise ValueError("non-finite JSON constant %s" % name)


# ----------------------------------------------------------- subcommands

BASE = """
[model]
n_points = 128

[scheme]
lambda = 0.05*pi
g = exp_mode(1, 0.1)

[constants]
c1 = empirical
c_half = empirical
"""


def test_cmd_spectrum(tmp_path):
    cfg = parse_config(BASE)
    out = tmp_path / "spec"
    assert run_command(cfg, "spectrum", str(out)) == 0
    rows = read_csv(out / "eigenvalues.csv")
    assert rows[0] == ["k", "lambda_k"]
    assert len(rows) == 128  # m = n_points - 1 constrained modes, + header
    summary = read_json(out / "summary.json")
    assert summary["invertible"] is True
    assert abs(summary["lambda1"]) == pytest.approx(math.pi, rel=1e-12)
    assert summary["c1_emp"] > 0.99


def test_cmd_solve(tmp_path):
    cfg = parse_config(BASE)
    out = tmp_path / "solve"
    assert run_command(cfg, "solve", str(out)) == 0
    report = read_json(out / "report.json")
    assert report["verdict"] == "converged"
    assert report["pde_residual"] < 1e-8
    assert set(report) >= {"verdict", "iterations", "pde_residual",
                           "boundary_residual", "bounds_held", "lambda1",
                           "conditions_certified"}
    rows = read_csv(out / "trace.csv")
    assert rows[0] == ["k", "delta_H12D", "ratio", "u_L2", "u_H1",
                       "pde_residual"]
    # header + state 0 + at least one row per effective iteration
    assert len(rows) >= report["iterations"] + 2
    assert float(rows[-1][5]) < 1e-8


def count_calls(monkeypatch, module_name, name):
    """A list that grows by one at each call of module_name.name: the
    function is rebound wherever a loaded diracbvp module binds it, and
    imports made at call time read its module."""
    import importlib
    original = getattr(importlib.import_module(module_name), name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)
    for mod_name, module in list(sys.modules.items()):
        if (mod_name == "diracbvp" or mod_name.startswith("diracbvp.")) \
                and vars(module).get(name) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_solve_computes_each_operand_once(tmp_path, monkeypatch):
    # the seed-0 solve_ladder antiperiodic N = 256 solve of the benchmark.
    # apply_D: decompose's Fourier probe, one D g for the certificate and
    # one D u per state (u_H1 and the residual share it); the run applies
    # no D to g.  nonlinearity: one N(u) per state, in the residual that
    # the next step corrects by.  graph_norm: none, the increment is read
    # off the correction.  lp_norm: u, D u and the residual per
    # state (u_H1 is w1q of the first two), g and D g for the certificate.
    # shifted_spectrum: once per run; step: once per state after the first
    import importlib.util
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "benchmarks", "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    cmd = workloads.make_inputs("solve_ladder", 0, str(tmp_path / "in"))[0]
    assert (cmd.name, cmd.model, cmd.n_points) == ("solve", "antiperiodic",
                                                   256)
    with open(cmd.config, encoding="utf-8") as fh:
        cfg = parse_config(fh.read(), base_dir=str(tmp_path / "in"))
    # scheme imports both names, so its bindings are the ones counted
    shifted = count_calls(monkeypatch, "diracbvp.scheme", "shifted_spectrum")
    steps = count_calls(monkeypatch, "diracbvp.scheme", "step")
    calls = count_calls(monkeypatch, "diracbvp.operators", "apply_D")
    nonlinear = count_calls(monkeypatch, "diracbvp.grids", "nonlinearity")
    graph = count_calls(monkeypatch, "diracbvp.spectral", "graph_norm")
    norms = count_calls(monkeypatch, "diracbvp.grids", "lp_norm")
    assert run_command(cfg, "solve", str(tmp_path / "out")) == 0
    states = len(read_csv(tmp_path / "out" / "trace.csv")) - 1
    assert states == 4
    assert len(calls) == 1 + 1 + states == 6
    assert len(nonlinear) == states == 4
    assert len(graph) == 0
    assert len(norms) == 3 * states + 2 == 14
    assert len(shifted) == 1
    assert len(steps) == states - 1 == 3


def test_certificate_applies_D_once(monkeypatch):
    # Dg_L2 and g_H1T share one D g
    from diracbvp.cli import _prepare
    cfg = parse_config(BASE)
    sd = _prepare(cfg)
    g = cfg.build_fields(sd.operator.spec)[0]
    calls = count_calls(monkeypatch, "diracbvp.operators", "apply_D")
    consts = cfg.build_constants(sd, g)
    assert len(calls) == 1
    assert consts.g_H1T ** 2 == pytest.approx(consts.g_L2T ** 2
                                              + consts.Dg_L2 ** 2, rel=1e-14)


def test_cmd_check(tmp_path, monkeypatch):
    cfg = parse_config(BASE)
    out = tmp_path / "check"
    norms = count_calls(monkeypatch, "diracbvp.grids", "lp_norm")
    monkeypatch.setattr(config.RunConfig, "build_scheme", None)  # not called
    assert run_command(cfg, "check", str(out)) == 0
    assert len(norms) == 2  # g_L2T and Dg_L2; g_H1T is w1q of the two
    payload = read_json(out / "conditions.json")
    assert set(payload["conditions"]) == {"C1", "C2", "C3"}
    assert payload["provenance"]["c1"] == "computed"
    assert payload["provenance"]["c_h"] == "assumed"
    assert payload["c3_lambda_threshold"] > 0
    assert isinstance(payload["certified"], bool)


def test_cmd_check_unit_constants(tmp_path):
    # with unit constants and tiny lambda the C-family certifies
    text = BASE.replace("c1 = empirical", "c1 = 1") \
               .replace("c_half = empirical", "c_half = 1") \
               .replace("lambda = 0.05*pi", "lambda = 0.01")
    out = tmp_path / "check2"
    assert run_command(parse_config(text), "check", str(out)) == 0
    payload = read_json(out / "conditions.json")
    assert payload["certified"] is True
    assert payload["c3_lambda_threshold"] == pytest.approx(
        1.0 / (36.0 * math.sqrt(2.0)), rel=1e-12)


def test_cmd_sweep(tmp_path):
    text = BASE + ("[sweep]\nparam = scheme.lambda\nmin = 0\nmax = 0.5\n"
                   "count = 4\n")
    out = tmp_path / "sweep"
    assert run_command(parse_config(text), "sweep", str(out)) == 0
    rows = read_csv(out / "sweep.csv")
    assert rows[0] == ["index", "scheme.lambda", "verdict", "iterations",
                       "pde_residual", "max_ratio", "certified", "bounds_held"]
    assert len(rows) == 5  # header + 4 points
    assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3"]
    assert rows[1][2] == "converged"  # lambda = 0


def test_cmd_sweep_decomposes_once_per_model(tmp_path, monkeypatch):
    import diracbvp.spectral
    calls = []
    decompose = diracbvp.spectral.decompose

    def counting(op):
        calls.append(op.spec.structure.freqs.size)
        return decompose(op)

    monkeypatch.setattr(diracbvp.spectral, "decompose", counting)
    text = BASE + ("[sweep]\nparam = scheme.lambda\nmin = 0\nmax = 0.3\n"
                   "count = 3\nparam2 = scheme.p\nmin2 = 3\nmax2 = 4\n"
                   "count2 = 2\n")
    assert run_command(parse_config(text), "sweep", str(tmp_path)) == 0
    assert len(read_csv(tmp_path / "sweep.csv")) == 7
    assert calls == [127]


def test_cmd_sweep_model_axis_matches_uncached(tmp_path, monkeypatch):
    # model.length varies on the outer axis, so the cache both misses and
    # hits; emptying it before every point must not change a byte
    import diracbvp.cli
    text = BASE + ("[sweep]\nparam = model.length\nmin = 1\nmax = 1.5\n"
                   "count = 2\nparam2 = scheme.lambda\nmin2 = 0\n"
                   "max2 = 0.2\ncount2 = 2\n")
    cached, uncached = tmp_path / "cached", tmp_path / "uncached"
    assert run_command(parse_config(text), "sweep", str(cached)) == 0
    model_and_fields = diracbvp.cli._model_and_fields

    def emptied(point, cache):
        cache.clear()
        return model_and_fields(point, cache)

    monkeypatch.setattr(diracbvp.cli, "_model_and_fields", emptied)
    assert run_command(parse_config(text), "sweep", str(uncached)) == 0
    assert (cached / "sweep.csv").read_bytes() \
        == (uncached / "sweep.csv").read_bytes()
    assert read_csv(cached / "sweep.csv")[1][1] == "1.0"


def test_cmd_sweep_computes_model_structure_once_per_model(tmp_path,
                                                          monkeypatch):
    # assemble, every apply_D and decompose of a model read the structure
    # it cached
    import diracbvp.operators
    calls = []
    model_structure = diracbvp.operators.model_structure

    def counting(spec):
        calls.append(spec.grid.n_points)
        return model_structure(spec)

    monkeypatch.setattr(diracbvp.operators, "model_structure", counting)
    text = BASE + ("[sweep]\nparam = model.n_points\nmin = 32\nmax = 33\n"
                   "count = 2\nparam2 = scheme.lambda\nmin2 = 0\n"
                   "max2 = 0.3\ncount2 = 3\n")
    assert run_command(parse_config(text), "sweep", str(tmp_path)) == 0
    rows = read_csv(tmp_path / "sweep.csv")
    assert [row[3] for row in rows[1:]] == ["converged"] * 6
    assert calls == [32, 33]


def test_cmd_sweep_reads_sample_file_once_per_size(tmp_path, monkeypatch):
    import diracbvp.grids
    grid = Grid1D(1.0, 32)
    save_field_csv(SpinorField(grid, 0.1 * np.exp(1j * np.pi
                                                  * grid.points())),
                   tmp_path / "g.csv")
    reads = []
    read_field_csv = diracbvp.grids.read_field_csv

    def counting(path, n_points):
        reads.append(n_points)
        return read_field_csv(path, n_points)

    monkeypatch.setattr(diracbvp.grids, "read_field_csv", counting)
    text = BASE.replace("exp_mode(1, 0.1)", "sample_file(g.csv)") \
        .replace("n_points = 128", "n_points = 32")
    sweep = ("[sweep]\nparam = scheme.lambda\nmin = 0\nmax = 0.3\n"
             "count = 4\n")
    cfg_path = write_cfg(tmp_path, text + sweep)
    assert main(["sweep", "--config", str(cfg_path),
                 "--out", str(tmp_path / "lam")]) == 0
    assert reads == [32]
    rows = read_csv(tmp_path / "lam" / "sweep.csv")
    assert [row[2] for row in rows[1:]] == ["converged"] * 4

    # one sweep matches an uncached run of each point: the same data
    point = parse_config(text.replace("lambda = 0.05*pi", "lambda = 0.2"),
                         base_dir=str(tmp_path))
    assert run_command(point, "solve", str(tmp_path / "one")) == 0
    assert read_json(tmp_path / "one" / "report.json")["iterations"] \
        == int(rows[3][3])

    # on a model.n_points axis each size reads the file again: 32 rows
    # fit the first point and not the second
    reads.clear()
    cfg_path = write_cfg(tmp_path, text + sweep.replace(
        "scheme.lambda\nmin = 0\nmax = 0.3\ncount = 4",
        "model.n_points\nmin = 32\nmax = 33\ncount = 2"))
    assert main(["sweep", "--config", str(cfg_path),
                 "--out", str(tmp_path / "size")]) == 0
    assert reads == [32, 33]
    rows = read_csv(tmp_path / "size" / "sweep.csv")
    assert rows[1][2] == "converged"
    assert rows[2][2].startswith("error: ") \
        and rows[2][2].endswith("has 32 rows, grid expects 33")


def test_cmd_sweep_requires_section(tmp_path):
    from diracbvp.errors import DiracBVPError
    with pytest.raises(DiracBVPError):
        run_command(parse_config(BASE), "sweep", str(tmp_path / "x"))


@pytest.mark.parametrize("text", ["[model]\nn_points = 16\n",
                                  "[model]\nn_points = 16\n[sweep]\n"])
def test_main_sweep_without_an_axis_names_sweep_param(tmp_path, capsys, text):
    # no [sweep] section, or an empty one: the missing key is named
    cfg_path = write_cfg(tmp_path, text)
    assert main(["sweep", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: sweep.param: missing")


def test_cmd_bootstrap(tmp_path):
    text = "[bootstrap]\nn = 3\np = 3\nl0 = 6\n"
    out = tmp_path / "boot"
    assert run_command(parse_config(text), "bootstrap", str(out)) == 0
    rows = read_csv(out / "bootstrap.csv")
    assert rows == [["M", "reciprocal"], ["0", repr(1 / 6)], ["1", "0.0"],
                    ["2", repr(-1 / 3)]]
    assert read_json(out / "bootstrap.json") == {"m_star": 2}


@pytest.mark.parametrize("p, l0, step", [("3", "1e-320", 0),
                                          ("3.9999999999", "1e-300", 18)])
def test_bootstrap_refuses_a_reciprocal_out_of_the_floats(tmp_path, p, l0,
                                                          step):
    # 1/l0 = 1e320 at once, or 1e300 growing about threefold a step: one
    # line naming l0 and the step, no traceback, under warnings as errors
    cfg_path = write_cfg(tmp_path, "[bootstrap]\nn = 3\np = %s\nl0 = %s\n"
                         % (p, l0))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "diracbvp.cli", "bootstrap",
         "--config", str(cfg_path), "--out", str(tmp_path / "out")],
        env=fresh_env(), capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (
        1, "error: 1/l^(M) leaves the floating-point range at M = %d for "
           "bootstrap.l0 = %s\n" % (step, l0))


def test_cmd_functional(tmp_path):
    text = BASE + "[functional]\nm = 6\n"
    out = tmp_path / "func"
    assert run_command(parse_config(text), "functional", str(out)) == 0
    rows = read_csv(out / "functional.csv")
    assert rows[0] == ["k", "lambda_k", "F"]
    assert len(rows) == 7
    for row in rows[1:]:
        assert float(row[2]) == pytest.approx(abs(float(row[1])), rel=1e-9)


# ----------------------------------------------------------- determinism

def test_outputs_deterministic(tmp_path):
    text = BASE + ("[sweep]\nparam = scheme.lambda\nmin = 0\nmax = 0.2\n"
                   "count = 3\n")
    dirs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        for command in ("spectrum", "solve", "check", "sweep"):
            run_command(parse_config(text), command, str(out))
        dirs.append(out)
    for name in sorted(os.listdir(dirs[0])):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


# ------------------------------------------------------------ main entry

def test_main_end_to_end(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, BASE)
    out = tmp_path / "cli_out"
    rc = main(["solve", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    assert (out / "report.json").exists()
    # one parser takes the flags before the command too
    first = tmp_path / "flags_first"
    assert main(["--out", str(first), "--config", str(cfg_path),
                 "solve"]) == 0
    assert (first / "report.json").read_bytes() \
        == (out / "report.json").read_bytes()


def test_main_workers_flag(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE + "[sweep]\nparam = scheme.lambda\n"
                                          "min = 0\nmax = 0.2\ncount = 3\n")
    out = tmp_path / "cli_sweep"
    rc = main(["sweep", "--config", str(cfg_path), "--out", str(out),
               "--workers", "2"])
    assert rc == 0
    assert len(read_csv(out / "sweep.csv")) == 4
    with pytest.raises(SystemExit):  # --seed was removed; nothing read it
        main(["sweep", "--config", str(cfg_path), "--out", str(out),
              "--seed", "42"])


def test_main_check_periodic_empirical_names_cause(tmp_path, capsys):
    # the periodic model has a zero mode, so empirical constants cannot be
    # estimated; the error must say so, not blame a missing input
    cfg_path = write_cfg(tmp_path, "[model]\nboundary = periodic\n"
                                   "n_points = 32\n")
    rc = main(["check", "--config", str(cfg_path),
               "--out", str(tmp_path / "chk")])
    assert rc == 1
    assert capsys.readouterr().err.strip() \
        == "error: estimate_constants needs an invertible operator"


def test_main_error_paths(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.ini")]) == 1
    assert "error:" in capsys.readouterr().err
    bad = write_cfg(tmp_path, "[scheme]\nlambda = exec\n", name="bad.ini")
    assert main(["solve", "--config", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_main_out_of_memory_names_n_points(tmp_path, capsys):
    # the first array of 10**15 points (16 PB) exceeds any address space,
    # so its allocation fails at once, whatever the overcommit policy;
    # 10**18 and 10**30 points exceed what a numpy array can hold, and
    # build_model refuses them before numpy's ValueError
    for text, n_points in (("10**15", 10 ** 15), ("10**18", 10 ** 18),
                           ("10**30", int(1e30))):
        for boundary in ("antiperiodic", "periodic", "bag1d"):
            cfg_path = write_cfg(tmp_path, "[model]\nn_points = %s\n"
                                           "boundary = %s\n" % (text, boundary))
            for command in ("spectrum", "solve"):
                assert main([command, "--config", str(cfg_path),
                             "--out", str(tmp_path / "out")]) == 1
                err = capsys.readouterr().err
                assert err.startswith("error: model.n_points = %d: "
                                      % n_points)
                assert err.count("\n") == 1
                if n_points > 10 ** 15:
                    assert err.endswith(" needs %d bytes, more than an "
                                        "array can hold (%d)\n"
                                        % (16 * n_points, sys.maxsize))


def test_main_lanczos_cap_is_an_error(tmp_path, capsys, monkeypatch):
    import diracbvp.spectral
    monkeypatch.setattr(diracbvp.spectral, "LANCZOS_MAX_STEPS", 4)
    cfg_path = write_cfg(tmp_path, "[model]\nn_points = 64\n")
    assert main(["spectrum", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(
        "error: Lanczos did not converge in 4 steps")


def test_main_singular_shift_message_has_plain_numbers(tmp_path, capsys):
    # a = 0 hits the zero mode of the periodic model in the first step
    cfg_path = write_cfg(tmp_path, "[model]\nboundary = periodic\n"
                                   "n_points = 32\n[scheme]\n"
                                   "lambda = 0.01\na = 0\n")
    assert main(["solve", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    # the zero mode also leaves the empirical constants undefined
    warning, err = capsys.readouterr().err.split("\n", 1)
    assert warning + "\n" == not_certified("estimate_constants needs an "
                                           "invertible operator")
    assert err.startswith("error: lambda - a = ")
    assert "np." not in err


@pytest.mark.parametrize("section, key, value", [
    ("scheme", "lambda", "1/0"),
    ("scheme", "lambda", "10.0**400"),
    ("scheme", "a", "(1e200j)**3"),
    ("model", "n_points", "1e400"),
    ("scheme", "max_iter", "1e400 - 1e400"),
    ("scheme", "lambda", "1e308*10"),
    ("scheme", "lambda", "10**400"),
    ("scheme", "lambda", "9**9**9"),
])
def test_main_arithmetic_errors_name_the_key(tmp_path, capsys, section, key,
                                             value):
    cfg_path = write_cfg(tmp_path, "[%s]\n%s = %s\n" % (section, key, value))
    assert main(["solve", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s.%s: " % (section, key))
    assert "Traceback" not in err


AXIS = "[sweep]\nparam = scheme.lambda\nmin = 0\nmax = 0.1\ncount = 2\n"

# a value out of range for every key whose parser checks one
OUT_OF_RANGE = {
    "model.length": "0", "model.n_points": "4", "scheme.p": "1",
    "scheme.xi": "0", "scheme.lambda_cap": "-2",
    "scheme.max_iter": "0", "scheme.tol_cauchy": "0",
    "scheme.tol_residual": "-1e-8", "constants.n": "1",
    "constants.c_h": "0", "constants.big_c_h": "-1", "constants.k_gn": "0",
    "constants.k_gn2": "-1", "constants.k_fgn": "0", "constants.c1": "0",
    "constants.c_half": "-2", "bootstrap.n": "2", "bootstrap.p": "2",
    "bootstrap.l0": "0", "functional.m": "0",
}


def test_out_of_range_cases_cover_every_range():
    ranged = {"%s.%s" % (section, key)
              for section, keys in config._SCHEMA.items()
              for key, (parse, _) in keys.items()
              if hasattr(parse, "__wrapped__")}
    assert ranged == set(OUT_OF_RANGE)


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("section, key", [
    (section, key) for section, keys in config._SCHEMA.items()
    for key in keys])
def test_main_malformed_value_names_the_key(tmp_path, capsys, command,
                                            section, key):
    # every value is parsed before a command starts: a malformed one used
    # to be named after a key the format does not have (constants.C_h for
    # big_c_h), dropped by solve (conditions_certified: null), or written
    # by sweep as an error row per point with exit status 0.  So is a
    # value out of its key's range: big_c_h = -1 was dropped by solve,
    # and p = 1 or n_points = 4 named no key
    out_of_range = OUT_OF_RANGE.get("%s.%s" % (section, key))
    for value in ("", "abc") + ((out_of_range,) if out_of_range else ()):
        text = "[%s]\n%s = %s\n" % (section, key, value)
        cfg_path = write_cfg(tmp_path, text if section == "sweep"
                             else text + AXIS)
        assert main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: %s.%s: " % (section, key))
        if value == out_of_range:
            assert err.startswith("error: %s.%s: must be " % (section, key))
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("suffix", ["", "2"])
@pytest.mark.parametrize("path", ["model.boundary", "scheme.g",
                                  "constants.mode", "run.output_dir",
                                  "sweep.count"])
def test_main_sweep_axis_must_be_a_numeric_key(tmp_path, capsys, path,
                                               suffix):
    # each used to give a row per point: errors, or the same run repeated
    axes = {"": "scheme.lambda", "2": "scheme.p"}
    axes[suffix] = path
    cfg_path = write_cfg(tmp_path, "[sweep]\n" + "".join(
        "param%s = %s\nmin%s = 3\nmax%s = 4\ncount%s = 2\n"
        % (sfx, axis, sfx, sfx, sfx) for sfx, axis in axes.items()))
    assert main(["sweep", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.strip() \
        == "error: sweep.param%s: %r is not a numeric key of [model], " \
           "[scheme] or [constants]" % (suffix, path)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("axes, key, where", [
    ("scale = log\nmin = 0\nmax = 1\ncount = 3\n", "sweep.min",
     "a log axis cannot reach 0"),
    ("scale = log\nmin = 1e-3\nmax = 0\ncount = 3\n", "sweep.max",
     "a log axis cannot reach 0"),
    ("scale = log\nmin = -1\nmax = 0.01\ncount = 3\n", "sweep.min",
     "a log axis needs min and max of one sign, got -1.0 and 0.01"),
    ("min = 0\nmax = 1\ncount = 2\nparam2 = scheme.p\nscale2 = log\n"
     "min2 = 4\nmax2 = -4\ncount2 = 2\n", "sweep.min2", "of one sign"),
    ("min = -1.7e308\nmax = 1.7e308\ncount = 3\n", "sweep.max",
     "out of floating-point range"),
    ("min = 0\nmax = 1\ncount = 10**12\n", "sweep.count",
     "the sweep would have 1000000000000 points, more than the limit "
     "of 100000"),
    ("min = 0\nmax = 1\ncount = 1000\nparam2 = scheme.p\nmin2 = 3\n"
     "max2 = 4\ncount2 = 1000\n", "sweep.count2", "1000000 points"),
    ("max = 1\ncount = 3\n", "sweep.min",
     "missing for axis 'scheme.lambda'"),
    ("min = 0\ncount = 3\n", "sweep.max", "missing for axis"),
    ("min = 0\nmax = 1\n", "sweep.count", "missing for axis"),
    ("min = 0\nmax = 1\ncount = 2\nparam2 = scheme.p\nmin2 = 3\n"
     "max2 = 4\n", "sweep.count2", "missing for axis 'scheme.p'"),
])
def test_main_sweep_axis_errors_name_the_key(tmp_path, capsys, axes, key,
                                             where):
    # each used to end in a traceback, a nan point with exit status 0, or
    # an allocation error blamed on model.n_points
    cfg_path = write_cfg(tmp_path, "[model]\nn_points = 16\n[sweep]\n"
                                   "param = scheme.lambda\n" + axes)
    assert main(["sweep", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: " % key)
    assert where in err
    assert not (tmp_path / "out" / "sweep.csv").exists()


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nn_points = 64\n",
    "[model]\nn_points = 16\n[scheme]\nlambda = 0.1\n"
    "[DEFAULT]\nn_points = 64\n",
])
def test_main_refuses_a_default_section(tmp_path, capsys, text):
    # configparser would merge [DEFAULT] into every section: alone it was
    # ignored (a 256-point run, exit 0), beside others blamed on scheme
    cfg_path = write_cfg(tmp_path, text)
    assert main(["spectrum", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.strip() \
        == "error: DEFAULT: unknown section"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["sweep", "spectrum"])
@pytest.mark.parametrize("axes, key, given", [
    ("min = 0\nmax = 1\ncount = 3\n", "sweep.param",
     "sweep.count, sweep.max, sweep.min"),
    ("param2 = scheme.p\nmin2 = 3\nmax2 = 4\ncount2 = 2\n", "sweep.param",
     "sweep.count2, sweep.max2, sweep.min2, sweep.param2"),
    ("param = scheme.lambda\nmin = 0\nmax = 1\ncount = 2\nscale2 = log\n",
     "sweep.param2", "sweep.scale2"),
])
def test_main_sweep_keys_need_their_param(tmp_path, capsys, command, axes,
                                          key, given):
    # sweep used to say the [sweep] section was missing, and every other
    # command ignored the keys
    cfg_path = write_cfg(tmp_path, "[model]\nn_points = 16\n[sweep]\n" + axes)
    assert main([command, "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.strip() \
        == "error: %s: missing, but %s given" % (key, given)


def test_log_sweep_of_negative_values():
    cfg = parse_config("[sweep]\nparam = scheme.lambda\nscale = log\n"
                       "min = -1\nmax = -100\ncount = 3\n")
    assert [v for (v,) in sweep_points(cfg.sweep)] \
        == pytest.approx([-1, -10, -100])


@pytest.mark.parametrize("value", ["0", "-3"])
def test_main_functional_needs_a_row(tmp_path, capsys, value):
    cfg_path = write_cfg(tmp_path, "[model]\nn_points = 16\n[functional]\n"
                                   "m = %s\n" % value)
    assert main(["functional", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.strip() \
        == "error: functional.m: must be >= 1, got %s" % value
    assert not (tmp_path / "out" / "functional.csv").exists()


@pytest.mark.parametrize("value", ["-" * 3000 + "16", "+".join(["1"] * 3000),
                                   pytest.param("-" * 100000 + "16",
                                                id="minus-100000")])
def test_main_deeply_nested_expression_names_the_key(tmp_path, capsys,
                                                     value):
    # ast.parse and the evaluator both recurse once per nesting level;
    # ast.parse raises MemoryError, not RecursionError, at 100000 levels
    cfg_path = write_cfg(tmp_path, "[model]\nn_points = %s\n" % value)
    assert main(["spectrum", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.strip() \
        == "error: model.n_points: expression nested too deeply"


@pytest.mark.parametrize("text, where", [
    ("x,re_0,im_0\n0.0,1.0,abc\n", "line 2: could not convert"),
    ("", "is empty"),
    ("x,re_0,im_0\n0.0,1.0\n", "line 2 has 2 cells, header has 3"),
])
def test_main_malformed_sample_file(tmp_path, capsys, text, where):
    # pad to the grid's 8 rows so the row-count check passes and the
    # malformed line is reached
    data = tmp_path / "g.csv"
    rows = text.count("\n") - 1
    data.write_text(text + "0.0,1.0,0.0\n" * max(8 - rows, 0)
                    if text else "", encoding="utf-8")
    cfg_path = write_cfg(tmp_path, "[model]\nn_points = 8\n"
                                   "[scheme]\ng = sample_file(g.csv)\n")
    assert main(["solve", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: scheme.g: %s" % data)
    assert where in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["g", "f0"])
@pytest.mark.parametrize("header, row, rows, where", [
    ("x,re_0,im_0", "0.0,1.0,abc", 8, "line 2: could not convert"),
    ("x,re_0,im_0", "0.0,1.0,0.0", 2, "has 2 rows, grid expects 8"),
    ("x,re_0,im_0", "0.0,1.0,nan", 8, "line 2: non-finite value"),
    # re_1 has no im_1: refused, not dropped
    ("x,re_0,im_0,re_1", "0.0,1.0,0.0,2.0", 8,
     "value columns re_0,im_0,re_1 are not re_c, im_c pairs"),
])
def test_main_bad_sample_file_names_its_key(tmp_path, capsys, header, row,
                                            rows, where, key):
    data = tmp_path / "g.csv"
    data.write_text(header + "\n" + (row + "\n") * rows, encoding="utf-8")
    cfg_path = write_cfg(tmp_path, "[model]\nn_points = 8\n"
                                   "[scheme]\n%s = sample_file(g.csv)\n" % key)
    assert main(["solve", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: scheme.%s: %s" % (key, data))
    assert err.count("\n") == 1 and where in err


@pytest.mark.parametrize("command", ["solve", "check"])
def test_main_refuses_a_missing_f0_file(tmp_path, capsys, command):
    # check runs no scheme, but it builds f0 as solve does
    cfg_path = write_cfg(tmp_path, "[model]\nn_points = 8\n[scheme]\n"
                                   "f0 = sample_file(missing.csv)\n")
    assert main([command, "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: scheme.f0: file %r does not " \
        "exist\n" % str(tmp_path / "missing.csv")


@pytest.mark.parametrize("key", ["g", "f0"])
def test_main_sample_file_is_a_directory(tmp_path, capsys, key):
    (tmp_path / "g.csv").mkdir()
    cfg_path = write_cfg(tmp_path, "[model]\nn_points = 8\n"
                                   "[scheme]\n%s = sample_file(g.csv)\n" % key)
    assert main(["solve", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err \
        == "error: scheme.%s: %s: Is a directory\n" % (key, tmp_path / "g.csv")


@pytest.mark.parametrize("command", ["spectrum", "solve", "check",
                                     "functional"])
@pytest.mark.parametrize("length", ["1e-155", "1e-300"])
@pytest.mark.parametrize("model", ["antiperiodic", "periodic", "bag1d"])
def test_main_spectrum_out_of_the_floats(tmp_path, capsys, model, length,
                                         command):
    # 1 + lambda^2 overflows at 1e-155, and D_P itself at 1e-300: each
    # command runs or ends in one error line naming the model's size, with
    # no numpy warning (an error under this suite's filterwarnings)
    cfg_path = write_cfg(tmp_path, "[model]\nboundary = %s\nlength = %s\n"
                                   "n_points = 16\n" % (model, length))
    status = main([command, "--config", str(cfg_path),
                   "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    warning = ""
    if command == "solve" and err.startswith("warning: "):
        warning, err = err.split("\n", 1)
    if status == 0:
        assert err == ""
    else:
        assert status == 1 and err.count("\n") == 1
        assert err.startswith("error: ")
    if model == "periodic" and length == "1e-155":
        # its spectrum stays finite: lambda_1 = 0 ends solve, check and
        # functional
        return
    if command == "functional" and length == "1e-155":
        # F(phi_k) = sqrt(L) |lambda_k| on the antiperiodic modes, of
        # constant modulus, and at most that on bag1d (Hoelder): floats,
        # though |D phi|^2 is not
        assert status == 0
        with open(tmp_path / "out" / "functional.csv", newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows
        for _, lam, f_val in rows:
            bound = math.sqrt(float(length)) * abs(float(lam))
            if model == "antiperiodic":
                assert float(f_val) == pytest.approx(bound, rel=1e-6)
            else:
                assert 0.0 < float(f_val) <= bound * (1.0 + 1e-6)
        return
    # solve runs at 1e-155: its certification, which needs 1 + lambda^2,
    # is advisory, and one warning line says why it is missing
    assert (status == 0) == (command == "solve" and length == "1e-155")
    assert (err or warning + "\n").endswith(
        " at model.length = %r, model.n_points = 16\n" % float(length))


def test_spectrum_probe_residual_names_the_model(tmp_path, capsys):
    # at L = 1e250 the probe residual passes its tolerance, relative to
    # max |lambda|: the refusal names the model as a non-finite one does
    cfg_path = write_cfg(tmp_path, "[model]\nlength = 1e250\n"
                                   "n_points = 16\n")
    assert main(["spectrum", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Fourier probe residual ")
    assert err.endswith(" too large at model.length = 1e+250, "
                        "model.n_points = 16\n")


def test_check_on_a_long_interval_uses_the_true_lambda1(tmp_path):
    # at L = 1e10 lambda_1 = pi/L: |lambda|/|lambda_1| = 0.0318 is past
    # the (C3) threshold 0.0196, so the certificate must fail
    cfg = parse_config("[model]\nboundary = antiperiodic\nlength = 1e10\n"
                       "n_points = 256\n[scheme]\nlambda = 1e-11\n"
                       "g = exp_mode(1, 1e-7)\n[constants]\nc1 = 1\n"
                       "c_half = 1\n")
    assert run_command(cfg, "check", str(tmp_path)) == 0
    report = read_json(tmp_path / "conditions.json")
    assert report["constants"]["lambda1_abs"] \
        == pytest.approx(math.pi * 1e-10, rel=1e-12)
    assert not report["conditions"]["C3"]["satisfied"]
    assert report["certified"] is False


@pytest.mark.parametrize("model", ["antiperiodic", "bag1d"])
def test_interval_models_are_scale_covariant(tmp_path, model):
    # x -> x/L maps the problem on [0, L] to one on [0, 1], and at p = 4
    # u -> L^{-1/2} u maps its solutions: invertibility, lambda_1 L and
    # convergence cannot depend on L
    operator = "dirac_2spinor" if model == "bag1d" else "scalar_derivative"
    unit = None
    for length in (1.0, 1e-3, 1e3, 1e9, 1e12):
        cfg = parse_config(
            "[model]\noperator = %s\nboundary = %s\nlength = %r\n"
            "n_points = 64\n[scheme]\nlambda = 0.5\np = 4\n"
            "g = exp_mode(1, %r)\n[constants]\nc1 = 1\nc_half = 1\n"
            % (operator, model, length, 0.03 * length ** -0.5))
        out = tmp_path / repr(length)
        assert run_command(cfg, "spectrum", str(out)) == 0
        summary = read_json(out / "summary.json")
        assert summary["invertible"] is True
        unit = unit or summary["lambda1"]
        assert summary["lambda1"] * length == pytest.approx(unit, rel=1e-12)
        assert run_command(cfg, "solve", str(out)) == 0
        assert read_json(out / "report.json")["verdict"] == "converged"


def test_main_config_not_utf8(tmp_path, capsys):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_bytes(b"[model]\nn_points = 6\xff4\n")
    assert main(["spectrum", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: not UTF-8 text" % cfg_path)
    assert "Traceback" not in err


def test_main_sample_file_not_utf8(tmp_path, capsys):
    data = tmp_path / "g.csv"
    data.write_bytes(b"x,re_0,im_0\n" + b"0.0,1.0,0.0\n" * 7
                     + b"0.0,1.\xff,0.0\n")
    cfg_path = write_cfg(tmp_path, "[model]\nn_points = 8\n"
                                   "[scheme]\ng = sample_file(g.csv)\n")
    assert main(["solve", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: scheme.g: %s: not UTF-8" % data)
    assert "Traceback" not in err


def test_main_check_writes_strict_json_without_bound(tmp_path):
    # A_raw on a long interval has A >= 1, so there is no contraction bound
    cfg_path = write_cfg(tmp_path, "[model]\nlength = 4\nn_points = 32\n"
                                   "[constants]\nmode = A_raw\n")
    out = tmp_path / "chk"
    assert main(["check", "--config", str(cfg_path), "--out", str(out)]) == 0

    def reject(name):
        raise ValueError("non-finite JSON constant %s" % name)

    with open(out / "conditions.json", encoding="utf-8") as fh:
        payload = json.load(fh, parse_constant=reject)
    assert payload["contraction_bound"] is None


@pytest.mark.parametrize("model, length, n_points",
                         [("bag1d", "5e-324", 16),
                          ("periodic", "1e-320", 65536),
                          ("antiperiodic", "5e-324", 16)])
def test_main_refuses_a_grid_spacing_of_0(tmp_path, capsys, model, length,
                                          n_points):
    # L / (N - 1), or L / N on the circle, underflows to 0: bag1d's
    # derivative divided by it, and periodic's fftfreq took it as d = 0
    cfg_path = write_cfg(tmp_path, "[model]\nboundary = %s\nlength = %s\n"
                                   "n_points = %d\n" % (model, length,
                                                        n_points))
    for command in ("spectrum", "solve", "check", "functional"):
        assert main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err \
            == "error: the grid spacing underflows to 0 at model.length = " \
               "%s, model.n_points = %d\n" % (length, n_points)


def test_sweep_refuses_a_grid_spacing_of_0_as_its_point_row(tmp_path):
    cfg_path = write_cfg(tmp_path, "[model]\nboundary = bag1d\n"
                                   "n_points = 16\n[constants]\nc1 = 2\n"
                                   "c_half = 2\n[sweep]\n"
                                   "param = model.length\nmin = 5e-324\n"
                                   "max = 1\ncount = 2\n")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = read_csv(out / "sweep.csv")
    assert [row[:3] for row in rows[1:]] == [
        ["0", "5e-324", "error: the grid spacing underflows to 0 at "
                        "model.length = 5e-324, model.n_points = 16"],
        ["1", "1.0", "converged"]]


@pytest.mark.parametrize("k_fgn", ["1e-160", "1e-300"])
def test_main_check_reports_an_unbounded_c3_threshold(tmp_path, k_fgn):
    # a tiny K_FGN makes the (C3) coefficient subnormal (1e-160) or 0
    # (1e-300, which ended in a ZeroDivisionError): no lambda breaks (C3)
    cfg_path = write_cfg(tmp_path, "[model]\nboundary = bag1d\nlength = 4\n"
                                   "n_points = 16\n[scheme]\np = 8/3\n"
                                   "g = const(4)\n[constants]\nn = 2\n"
                                   "iota = 4\nk_fgn = %s\nc_half = 2\n"
                                   % k_fgn)
    out = tmp_path / "chk"
    assert main(["check", "--config", str(cfg_path), "--out", str(out)]) == 0
    payload = read_json(out / "conditions.json")
    assert payload["c3_lambda_threshold"] is None
    assert payload["conditions"]["C3"]["satisfied"] is True


def test_main_solve_periodic_shifted(tmp_path):
    # the shifted scheme steps around the zero mode, and the H^{1/2}_D
    # graph norm of the increments is finite on it
    cfg_path = write_cfg(tmp_path, "[model]\nboundary = periodic\n"
                                   "n_points = 64\n[scheme]\nlambda = 0.01\n"
                                   "a = 0.5\ng = exp_mode(1, 0.1)\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = read_json(out / "report.json")
    assert report["verdict"] == "converged"
    assert report["pde_residual"] < 1e-8
    assert report["lambda1"] == 0.0


def test_main_check_periodic_assumed_constants_refused(tmp_path, capsys):
    # the conditions divide by |lambda_1|, which is exactly 0 here
    cfg_path = write_cfg(tmp_path, "[model]\nboundary = periodic\n"
                                   "n_points = 32\n[constants]\nc1 = 2\n"
                                   "c_half = 2\n")
    assert main(["check", "--config", str(cfg_path),
                 "--out", str(tmp_path / "chk")]) == 1
    assert capsys.readouterr().err.strip() \
        == "error: lambda1_abs must be positive"


def test_main_refuses_the_rescale_key(tmp_path, capsys):
    # a rescale R iterates as the shift a/R, so scheme.a is the only key
    cfg_path = write_cfg(tmp_path, "[scheme]\nr = 1\n")
    assert main(["solve", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: scheme.r: unknown key\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model, text, where", [
    ("[model]\n", "x,re_0,im_0\n" + "0.0,1.0,0.0\n" * 2 + "0.0,nan,0.0\n"
     + "0.0,1.0,0.0\n" * 5, "line 4: non-finite value"),
    ("[model]\noperator = dirac_2spinor\nboundary = bag1d\n",
     "x,re_0,im_0\n" + "0.0,1.0,0.0\n" * 8,
     "has 1 components, the model needs 2"),
    ("[model]\n", "x\n" + "0.0\n" * 8, "has 0 components, the model needs 1"),
])
def test_main_sample_file_does_not_fit(tmp_path, capsys, model, text, where):
    # the file parses, but its values cannot be a datum of the model
    data = tmp_path / "g.csv"
    data.write_text(text, encoding="utf-8")
    cfg_path = write_cfg(tmp_path, model + "n_points = 8\n"
                                   "[scheme]\ng = sample_file(g.csv)\n")
    assert main(["solve", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: scheme.g: %s" % data)
    assert where in err


def test_main_sweep_point_out_of_range_is_an_error_row(tmp_path):
    cfg_path = write_cfg(tmp_path, "[model]\nn_points = 16\n[sweep]\n"
                                   "param = scheme.p\nmin = 1\nmax = 4\n"
                                   "count = 4\n")
    assert main(["sweep", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 0
    rows = read_csv(tmp_path / "out" / "sweep.csv")
    assert rows[1][2:] == ["error: scheme.p: must be >= 2, got 1.0", "0",
                           "nan", "nan", "false", "false"]
    assert [row[2] for row in rows[2:]] == ["converged"] * 3


def test_main_sweep_point_out_of_memory_is_an_error_row(tmp_path):
    # the 10**15-point model (16 PB) fails its first allocation at once:
    # its row names its own n_points, and the row before it is kept
    cfg_path = write_cfg(tmp_path, "[model]\nn_points = 64\n[scheme]\n"
                                   "g = exp_mode(1, 0.1)\n[constants]\n"
                                   "c1 = 2\nc_half = 2\n[sweep]\n"
                                   "param = model.n_points\nmin = 64\n"
                                   "max = 1e15\ncount = 2\n")
    assert main(["sweep", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 0
    rows = read_csv(tmp_path / "out" / "sweep.csv")
    assert len(rows) == 3
    assert rows[1][2] == "converged"
    assert rows[2][2].startswith("error: model.n_points = 1000000000000000: ")
    assert rows[2][3:] == ["0", "nan", "nan", "false", "false"]


@pytest.mark.parametrize("constants, message", [
    ("c_half = 2\nc_h = 1e-200", "c_h = 1e-200: c_h ** -4.0 overflows"),
    ("c_half = 2\nk_fgn = 1e200", "K_FGN = 1e+200: K_FGN ** 2 overflows"),
    # the formula overflows to inf, which the spectrum never reads
    ("c_half = formula\niota = 1e200", "kappa = inf is not finite"),
])
def test_main_extreme_constants_fail_certification(tmp_path, capsys,
                                                   constants, message):
    # each used to end in an OverflowError traceback under check, solve
    # and sweep; certification is advisory for solve and sweep
    cfg_path = write_cfg(tmp_path, "[model]\nn_points = 16\n[scheme]\n"
                                   "lambda = 0.1\n[constants]\nc1 = 2\n"
                                   "%s\n%s" % (constants, AXIS))
    out = tmp_path / "out"
    args = ["--config", str(cfg_path), "--out", str(out)]
    assert main(["check"] + args) == 1
    assert capsys.readouterr().err == "error: %s\n" % message
    assert main(["solve"] + args) == 0
    assert read_json(out / "report.json")["conditions_certified"] is None
    assert capsys.readouterr().err == not_certified(message)
    assert main(["sweep"] + args) == 0
    assert [row[6] for row in read_csv(out / "sweep.csv")[1:]] \
        == ["false", "false"]
    assert capsys.readouterr().err == not_certified(message, 0, 1)
    assert main(["spectrum"] + args) == 0
    assert capsys.readouterr().err == ""


def test_c_half_formula_reads_c_h(tmp_path):
    # c_half = formula is 2 c1 c_h^2 iota^2; c_h used to be dropped, so
    # c_h = 2 gave the value of c_h = 1
    c1, c_half = {}, {}
    for c_h in (1, 2):
        text = ("[model]\nn_points = 64\n[constants]\nc_half = formula\n"
                "c_h = %d\n" % c_h)
        out = tmp_path / str(c_h)
        assert run_command(parse_config(text), "check", str(out)) == 0
        constants = read_json(out / "conditions.json")["constants"]
        c1[c_h], c_half[c_h] = constants["c1"], constants["c_half"]
    assert c1[1] == c1[2]
    assert c_half[1] == 2 * c1[1]
    assert c_half[2] == 8 * c1[1]


@pytest.mark.parametrize("n_points, c_h, iota", [
    (256, 1, 1), (256, 2, 0.5), (128, 2, 0.5)])
def test_check_c_half_formula_with_empirical_c1(tmp_path, monkeypatch,
                                                n_points, c_h, iota):
    # formula is 2 c1_emp c_h^2 iota^2, from c1_emp computed once and
    # no c_half_emp
    import diracbvp.spectral
    calls = []
    estimate = diracbvp.spectral.estimate_constants
    monkeypatch.setattr(diracbvp.spectral, "estimate_constants",
                        lambda sd, s: calls.append(s) or estimate(sd, s))
    text = ("[model]\nn_points = %d\n[constants]\nc_half = formula\n"
            "c_h = %r\niota = %r\n" % (n_points, c_h, iota))
    assert run_command(parse_config(text), "check", str(tmp_path)) == 0
    constants = read_json(tmp_path / "conditions.json")["constants"]
    assert constants["c_half"] == 2.0 * constants["c1"] * c_h ** 2 * iota ** 2
    assert calls == [1.0]


def test_check_c_half_formula_with_numeric_c1_runs_no_lanczos(tmp_path,
                                                              monkeypatch):
    # the c1 of the certificate, not c1_emp, and no spectral estimate
    import diracbvp.spectral

    def refuse(sd, s):
        raise AssertionError("a Rayleigh maximum ran")
    monkeypatch.setattr(diracbvp.spectral, "estimate_constants", refuse)
    text = ("[model]\nn_points = 64\n[constants]\nc1 = 3\n"
            "c_half = formula\nc_h = 2\niota = 0.5\n")
    assert run_command(parse_config(text), "check", str(tmp_path)) == 0
    payload = read_json(tmp_path / "conditions.json")
    assert (payload["constants"]["c1"], payload["constants"]["c_half"]) \
        == (3.0, 6.0)
    assert (payload["provenance"]["c1"], payload["provenance"]["c_half"]) \
        == ("assumed", "computed")


@pytest.mark.parametrize("command, constants, runs", [
    ("check", "c1 = empirical\nc_half = formula\n", ["c1_emp"]),
    ("check", "c1 = empirical\nc_half = 3\n", ["c1_emp"]),
    ("check", "c1 = 2\nc_half = empirical\n", ["c_half_emp"]),
    ("check", "c1 = 2\nc_half = 3\n", []),
    ("check", "", ["c1_emp", "c_half_emp"]),
    ("spectrum", "c1 = 2\nc_half = 3\n", ["c1_emp", "c_half_emp"]),
    ("solve", "c1 = empirical\nc_half = formula\n", ["c1_emp"]),
    ("sweep", "", ["c1_emp", "c_half_emp"]),
    ("sweep", "c1 = 2\nc_half = empirical\n", ["c_half_emp"]),
    ("solve", "c1 = 2\nc_half = 3\n", [])])
def test_lanczos_runs_per_command(tmp_path, monkeypatch, command, constants,
                                  runs):
    # each constant runs its Lanczos only when read: by spectrum, or by a
    # certificate whose key says empirical, and once per decomposition,
    # however many sweep points read it; every run enters through
    # estimate_constants(sd, s)
    import diracbvp.spectral
    names, entries = [], []
    lanczos_max = diracbvp.spectral._lanczos_max
    monkeypatch.setattr(diracbvp.spectral, "_lanczos_max",
                        lambda matvec, m, what: names.append(what.split()[0])
                        or lanczos_max(matvec, m, what))
    estimate = diracbvp.spectral.estimate_constants
    monkeypatch.setattr(diracbvp.spectral, "estimate_constants",
                        lambda sd, s: entries.append(s) or estimate(sd, s))
    text = ("[model]\nn_points = 64\n[scheme]\nlambda = 0.5\n"
            "g = const(0.1)\n[constants]\n%s[sweep]\nparam = scheme.lambda\n"
            "min = 0\nmax = 0.5\ncount = 3\n" % constants)
    assert run_command(parse_config(text), command, str(tmp_path)) == 0
    assert names == runs
    assert entries == [{"c1_emp": 1.0, "c_half_emp": 0.5}[n] for n in runs]


def test_c_half_alone_refuses_an_overflowing_model(tmp_path, capsys):
    # 1 + lambda_k^2 overflows, 1 + |lambda_k| does not: c_half_emp is
    # refused as c1_emp is, by one line, before any Lanczos step
    cfg_path = write_cfg(tmp_path, "[model]\nlength = 1e-155\n"
                                   "n_points = 16\n[constants]\nc1 = 2\n"
                                   "c_half = empirical\n")
    assert main(["check", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err \
        == ("error: 1 + lambda_k^2 or 1 + |lambda_k| overflows at "
            "model.length = 1e-155, model.n_points = 16\n")


COMMANDS = ("spectrum", "solve", "check", "sweep", "bootstrap", "functional")


@pytest.mark.parametrize("g, reason", [
    ("const(0.1)", None),
    ("exp_mode(1, 1e308)",
     "scheme.g: D g is out of floating-point range")],
    ids=["const", "overflow"])
def test_commands_under_warnings_as_errors(tmp_path, g, reason):
    # every command in a new interpreter with warnings as errors; a
    # datum whose D g overflows leaves solve and sweep uncertified and
    # check refused, with no numpy warning on the way
    cfg_path = write_cfg(tmp_path, "[model]\nn_points = 64\n[scheme]\n"
                                   "lambda = 0.1\ng = %s\n%s" % (g, AXIS))
    results = {}
    for command in COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "diracbvp.cli", command,
             "--config", str(cfg_path), "--out", str(tmp_path / command)],
            env=fresh_env(), capture_output=True, text=True)
        results[command] = (proc.returncode, proc.stderr)
    expected = dict.fromkeys(COMMANDS, (0, ""))
    if reason:
        expected["check"] = (1, "error: %s\n" % reason)
        expected["solve"] = (0, not_certified(reason))
        expected["sweep"] = (0, not_certified(reason, 0, 1))
    assert results == expected
    certified = read_json(tmp_path / "solve" / "report.json")[
        "conditions_certified"]
    column = [row[6] for row in read_csv(tmp_path / "sweep" / "sweep.csv")]
    if reason:
        assert certified is None and column[1:] == ["false", "false"]
    else:
        assert certified is not None


def test_readme_config_block_parses_to_the_defaults():
    # the block lists every key with its default, bar the example [sweep]
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
    cfg, defaults = parse_config(block), parse_config("").values
    assert set(cfg.values) == set(defaults) and cfg.sweep is not None
    for section in set(defaults) - {"sweep"}:
        assert cfg.values[section] == defaults[section], section


def test_cmd_solve_bound_violated(tmp_path):
    # |g|_L2 = 0.1 exceeds xi = 0.01 from the start, and one step ends
    # the run before it can converge
    text = ("[model]\nn_points = 64\n[scheme]\nmax_iter = 1\nxi = 0.01\n"
            "g = exp_mode(1, 0.1)\n")
    assert run_command(parse_config(text), "solve", str(tmp_path)) == 0
    report = read_json(tmp_path / "report.json")
    assert report["verdict"] == "bound_violated"
    assert report["bounds_held"] is False
    assert len(read_csv(tmp_path / "trace.csv")) == 3  # header, k = 0, 1


OVERFLOW = "[model]\nn_points = 64\n[scheme]\nlambda = 50\np = 400\n"
# p = 400 is past the Hoelder split of the certificate
HOELDER = "p too large for the Hoelder split: p_A - p + 2 <= 0"


@pytest.mark.parametrize("datum", ["2", "3", "1e10"])
def test_main_solve_diverged_writes_strict_json(tmp_path, capsys, datum):
    # |u|^398 overflows: for const(1e10) at state 0, for const(2) at the
    # state after one step, for const(3) in the first increment's norm.
    # Each used to end in "error: field contains non-finite entries" or
    # print numpy's overflow warnings, which the suite raises as errors
    cfg_path = write_cfg(tmp_path, OVERFLOW + "g = const(%s)\n" % datum)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == not_certified(HOELDER)
    assert read_csv(out / "trace.csv")[1][0] == "0"

    def reject(name):
        raise ValueError("non-finite JSON constant %s" % name)

    with open(out / "report.json", encoding="utf-8") as fh:
        report = json.load(fh, parse_constant=reject)
    assert report["verdict"] == "diverged"
    assert report["pde_residual"] is None


def test_main_sweep_overflow_rows_are_diverged(tmp_path, capsys):
    # every point overflows, lambda = 0.5 too; the rows used to read
    # "error: field contains non-finite entries"
    cfg_path = write_cfg(tmp_path, OVERFLOW + "g = const(2)\n[sweep]\n"
                         "param = scheme.lambda\nmin = 0.5\nmax = 50\n"
                         "count = 3\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == not_certified(HOELDER, 0, 1, 2)
    assert [row[2] for row in read_csv(out / "sweep.csv")[1:]] \
        == ["diverged"] * 3


def test_write_json_writes_non_finite_floats_as_null(tmp_path):
    from diracbvp.cli import _write_json
    _write_json(tmp_path / "x.json",
                {"a": math.inf, "b": [1.5, -math.inf, {"c": math.nan}],
                 "d": (np.float64("nan"), 2), "e": True, "f": "inf"})
    assert json.loads((tmp_path / "x.json").read_text(encoding="utf-8")) \
        == {"a": None, "b": [1.5, None, {"c": None}], "d": [None, 2],
            "e": True, "f": "inf"}


@pytest.mark.parametrize("command", ["spectrum", "solve", "check", "sweep",
                                     "bootstrap", "functional"])
def test_main_refuses_the_run_section(tmp_path, capsys, command):
    # its one key, output_dir, duplicated --out
    cfg_path = write_cfg(tmp_path, "[run]\noutput_dir = x\n")
    assert main([command, "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: run: unknown section\n"
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "x").exists()


def test_out_defaults_to_out_in_the_working_directory(tmp_path, monkeypatch):
    cfg_path = write_cfg(tmp_path, "[bootstrap]\nn = 4\n")
    monkeypatch.chdir(tmp_path)
    assert main(["bootstrap", "--config", str(cfg_path)]) == 0
    written = (tmp_path / "out" / "bootstrap.json").read_bytes()
    assert "m_star" in read_json(tmp_path / "out" / "bootstrap.json")
    # an existing ./out is written into, as an existing --out is
    (tmp_path / "out" / "bootstrap.json").unlink()
    assert run_command(parse_config(""), "bootstrap") == 0
    assert (tmp_path / "out" / "bootstrap.json").read_bytes() == written


@pytest.mark.parametrize("out, reason", [
    ("afile", "File exists"), ("", "No such file or directory")])
def test_main_names_out_when_its_directory_cannot_be_made(tmp_path,
                                                          monkeypatch, capsys,
                                                          out, reason):
    # one line naming the flag and its value, not the bare OSError, and
    # the regular file in the way is left as it was
    cfg_path = write_cfg(tmp_path, "[bootstrap]\nn = 4\n")
    (tmp_path / "afile").write_text("kept", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["bootstrap", "--config", str(cfg_path), "--out", out]) == 1
    assert capsys.readouterr() == (
        "", "error: --out %r: cannot make the directory: %s\n" % (out, reason))
    assert (tmp_path / "afile").read_text(encoding="utf-8") == "kept"


def test_run_command_refuses_an_unknown_command(tmp_path):
    with pytest.raises(DiracBVPError, match="unknown command 'plot'"):
        run_command(parse_config(""), "plot", str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_uncertified_run_says_why(tmp_path, capsys):
    # 1 + lambda_1^2 overflows at this length, so the certificate cannot
    # be evaluated: solve and sweep still run, and stderr names the reason
    # (and the sweep point); check, whose output is the certificate, fails
    reason = ("1 + lambda_k^2 or 1 + |lambda_k| overflows at "
              "model.length = 1e-155, model.n_points = 16")
    cfg_path = write_cfg(tmp_path, "[model]\nlength = 1e-155\n"
                                   "n_points = 16\n[scheme]\nlambda = 0.5\n"
                                   "g = const(0.1)\n[sweep]\n"
                                   "param = scheme.lambda\nmin = 0.5\n"
                                   "max = 0.6\ncount = 2\n")
    out = tmp_path / "out"
    args = ["--config", str(cfg_path), "--out", str(out)]
    assert main(["solve"] + args) == 0
    assert read_json(out / "report.json")["conditions_certified"] is None
    assert capsys.readouterr().err == not_certified(reason)
    assert main(["sweep"] + args) == 0
    assert [row[6] for row in read_csv(out / "sweep.csv")[1:]] \
        == ["false", "false"]
    assert capsys.readouterr().err == not_certified(reason, 0, 1)
    assert main(["check"] + args) == 1
    assert capsys.readouterr().err == "error: %s\n" % reason
