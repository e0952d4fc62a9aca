import csv
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracbvp import Grid1D, SpinorField, save_field_csv
from diracbvp.cli import main, run_command
from diracbvp.config import eval_number, parse_config
from diracbvp.errors import ConfigParseError


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
    code = ("import sys; from diracbvp.cli import main; "
            "print([main([c, '--config', sys.argv[1], '--out', sys.argv[2]]) "
            "for c in ('spectrum', 'solve', 'sweep')], "
            "[m for m in ('scipy', 'numpy.random', 'fractions') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code, str(cfg_path),
                          str(tmp_path / "out2")], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[0, 0, 0] []"


# --------------------------------------------------------------- parsing

def test_defaults():
    cfg = parse_config("")
    assert cfg.get("model", "operator") == "scalar_derivative"
    assert cfg.get("model", "boundary") == "antiperiodic"
    assert cfg.get("scheme", "p") == "4"
    assert cfg.workers == 1
    assert "seed" not in cfg.raw["run"]
    assert cfg.output_dir == "out"
    assert cfg.sweep is None
    model = cfg.build_model()
    assert model.grid.n_points == 256 and model.grid.length == 1.0


def test_eval_number():
    assert eval_number("0.05*pi") == pytest.approx(0.15707963267948966)
    assert eval_number("8/3") == pytest.approx(8.0 / 3.0)
    assert eval_number("-2**3") == -8
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


def test_scheme_values_evaluated():
    cfg = parse_config("[scheme]\nlambda = 0.05*pi\np = 4\ng = exp_mode(1, 0.1)\n")
    scheme_cfg = cfg.build_scheme(cfg.build_model())
    assert scheme_cfg.lam == pytest.approx(0.05 * math.pi)
    x = cfg.build_model().grid.points()
    expected = 0.1 * np.exp(1j * np.pi * x)
    assert np.max(np.abs(scheme_cfg.g.values[:, 0] - expected)) < 1e-14
    # f0 defaults to the datum
    assert np.array_equal(scheme_cfg.f0.values, scheme_cfg.g.values)


def test_field_expressions(tmp_path):
    cfg = parse_config("[scheme]\ng = const(2 - 1)\nf0 = zero\n")
    model = cfg.build_model()
    scheme_cfg = cfg.build_scheme(model)
    assert np.all(scheme_cfg.g.values == 1.0)
    assert np.all(scheme_cfg.f0.values == 0.0)
    with pytest.raises(ConfigParseError):
        parse_config("[scheme]\ng = g\n").build_scheme(model)
    with pytest.raises(ConfigParseError):
        parse_config("[scheme]\ng = wavelet(3)\n").build_scheme(model)


def test_sample_file_roundtrip(tmp_path):
    grid = Grid1D(1.0, 256)
    rng = np.random.default_rng(5)
    f = SpinorField(grid, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    save_field_csv(f, tmp_path / "g.csv")
    cfg = parse_config("[scheme]\ng = sample_file(g.csv)\n",
                       base_dir=str(tmp_path))
    back = cfg.build_scheme(cfg.build_model()).g
    assert np.array_equal(back.values, f.values)
    with pytest.raises(ConfigParseError):
        parse_config("[scheme]\ng = sample_file(missing.csv)\n",
                     base_dir=str(tmp_path)).build_scheme(cfg.build_model())


def test_sweep_grid():
    cfg = parse_config("[sweep]\nparam = scheme.lambda\nmin = 0\nmax = 1\n"
                       "count = 5\n")
    pts = cfg.sweep.grid()
    assert len(pts) == 5
    assert pts[0] == (0.0,) and pts[-1] == (1.0,)
    cfg2 = parse_config("[sweep]\nparam = scheme.lambda\nmin = 0\nmax = 1\n"
                        "count = 3\nparam2 = scheme.a\nmin2 = 1\nmax2 = 100\n"
                        "count2 = 3\nscale2 = log\n")
    pts2 = cfg2.sweep.grid()
    assert len(pts2) == 9
    assert pts2[1][1] == pytest.approx(10.0)
    with pytest.raises(ConfigParseError):
        parse_config("[sweep]\nparam = scheme.lambda\nmin = 0\nmax = 1\n"
                     "count = 1\n")
    with pytest.raises(ConfigParseError):
        parse_config("[sweep]\nparam = scheme.nope\nmin = 0\nmax = 1\n"
                     "count = 3\n")


def test_with_override():
    cfg = parse_config("")
    new = cfg.with_override("scheme.lambda", np.float64(0.25))
    assert new.get("scheme", "lambda") == "0.25"
    assert cfg.get("scheme", "lambda") == "0"  # original untouched


# ------------------------------------------------------ property: parsing

_NUMBERS = ["0", "1", "-1", "2", "3", "11", "50", "51", "0.5", "-0.5",
            "1e-300", "5e-324", "1e308", "-1.7e308", "1.7e308", "1e400",
            "pi", "-e", "2**10", "10**12", "9**9**9", "1/0", "1e400 - 1e400",
            "2.5", "1j", "3+0j", "0.05*pi", "-" * 1200 + "1"]
_WORDS = ["", "x", "lin", "log", "zero", "g", "const(1)", "exp_mode(1)",
          "scheme.lambda", "scheme.p", "model.n_points", "model.length",
          "model.bogus", "sweep.min", "antiperiodic", "bag1d", "C_final",
          "[model]", "=", "%", "\\"]
_KEYS = sorted({key for keys in
                [["operator", "boundary", "length", "n_points"],
                 ["lambda", "p", "g", "f0", "a", "r", "max_iter"],
                 ["n", "p_a", "c1", "c_half", "mode"], ["output_dir"],
                 ["param", "min", "max", "count", "scale", "param2", "min2",
                  "max2", "count2", "scale2"], ["m"], ["bogus"]]
                for key in keys})
_VALUES = st.sampled_from(_NUMBERS + _WORDS) | st.text(max_size=8)
_SECTIONS = ["model", "scheme", "constants", "run", "sweep", "bootstrap",
             "functional", "bogus", "DEFAULT"]


def _section_text(name, pairs):
    return "[%s]\n" % name + "".join("%s = %s\n" % kv for kv in pairs)


_SWEEP_AXIS = st.fixed_dictionaries({
    "param": st.sampled_from(["scheme.lambda", "scheme.p", "model.length",
                              "scheme.nope"]),
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
    if cfg.sweep is None or any(axis[3] > 50 for axis in cfg.sweep.axes):
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = cfg.sweep.grid()
    assert grid and all(math.isfinite(v) for point in grid for v in point)


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


def test_cmd_check(tmp_path):
    cfg = parse_config(BASE)
    out = tmp_path / "check"
    assert run_command(cfg, "check", str(out)) == 0
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


def test_cmd_sweep_parallel_matches_serial(tmp_path):
    text = BASE + ("[sweep]\nparam = scheme.lambda\nmin = 0\nmax = 0.3\n"
                   "count = 3\n")
    serial, parallel = tmp_path / "s", tmp_path / "p"
    run_command(parse_config(text), "sweep", str(serial))
    cfg = parse_config(text)
    cfg.raw["run"]["workers"] = "3"
    run_command(cfg, "sweep", str(parallel))
    assert (serial / "sweep.csv").read_bytes() \
        == (parallel / "sweep.csv").read_bytes()


def test_cmd_sweep_decomposes_once_per_model(tmp_path, monkeypatch):
    import diracbvp.spectral
    calls = []
    decompose = diracbvp.spectral.decompose

    def counting(op):
        calls.append(op.n_constrained)
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
    sweep_model = diracbvp.cli._sweep_model

    def emptied(point, cache):
        cache.clear()
        return sweep_model(point, cache)

    monkeypatch.setattr(diracbvp.cli, "_sweep_model", emptied)
    assert run_command(parse_config(text), "sweep", str(uncached)) == 0
    assert (cached / "sweep.csv").read_bytes() \
        == (uncached / "sweep.csv").read_bytes()
    assert read_csv(cached / "sweep.csv")[1][1] == "1.0"


def test_cmd_sweep_computes_fourier_modes_once_per_model(tmp_path,
                                                        monkeypatch):
    # every apply_D and decompose of a model reads the modes it cached
    import diracbvp.operators
    calls = []
    fourier_modes = diracbvp.operators.fourier_modes

    def counting(spec):
        calls.append(spec.grid.n_points)
        return fourier_modes(spec)

    monkeypatch.setattr(diracbvp.operators, "fourier_modes", counting)
    text = BASE + ("[sweep]\nparam = model.n_points\nmin = 32\nmax = 33\n"
                   "count = 2\nparam2 = scheme.lambda\nmin2 = 0\n"
                   "max2 = 0.3\ncount2 = 3\n")
    assert run_command(parse_config(text), "sweep", str(tmp_path)) == 0
    rows = read_csv(tmp_path / "sweep.csv")
    assert [row[3] for row in rows[1:]] == ["converged"] * 6
    assert calls == [32, 33]


def test_cmd_sweep_reads_sample_file_once_per_size(tmp_path, monkeypatch):
    import diracbvp.config
    grid = Grid1D(1.0, 32)
    save_field_csv(SpinorField(grid, 0.1 * np.exp(1j * np.pi
                                                  * grid.points())),
                   tmp_path / "g.csv")
    reads = []
    read_field_csv = diracbvp.config.read_field_csv

    def counting(path, n_points):
        reads.append(n_points)
        return read_field_csv(path, n_points)

    monkeypatch.setattr(diracbvp.config, "read_field_csv", counting)
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


def test_cmd_bootstrap(tmp_path):
    text = "[bootstrap]\nn = 3\np = 3\nl0 = 6\n"
    out = tmp_path / "boot"
    assert run_command(parse_config(text), "bootstrap", str(out)) == 0
    rows = read_csv(out / "bootstrap.csv")
    assert rows[0] == ["M", "reciprocal", "closed_form"]
    assert len(rows) == 4  # header + M = 0, 1, 2
    assert float(rows[1][1]) == pytest.approx(1 / 6)
    meta = read_json(out / "bootstrap.json")
    assert meta["m_star"] == 2
    assert meta["agreement"] == 0.0


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
    # so its allocation fails at once, whatever the overcommit policy
    cfg_path = write_cfg(tmp_path, "[model]\nn_points = 10**15\n")
    assert main(["spectrum", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: model.n_points = 1000000000000000: ")
    assert "Traceback" not in err


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
    err = capsys.readouterr().err
    assert err.startswith("error: R*lambda - a = ")
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


def test_log_sweep_of_negative_values():
    cfg = parse_config("[sweep]\nparam = scheme.lambda\nscale = log\n"
                       "min = -1\nmax = -100\ncount = 3\n")
    assert [v for (v,) in cfg.sweep.grid()] == pytest.approx([-1, -10, -100])


@pytest.mark.parametrize("value", ["0", "-3"])
def test_main_functional_needs_a_row(tmp_path, capsys, value):
    cfg_path = write_cfg(tmp_path, "[model]\nn_points = 16\n[functional]\n"
                                   "m = %s\n" % value)
    assert main(["functional", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.strip() \
        == "error: functional.m: must be >= 1, got %s" % value
    assert not (tmp_path / "out" / "functional.csv").exists()


@pytest.mark.parametrize("value", ["-" * 3000 + "16", "+".join(["1"] * 3000)])
def test_main_deeply_nested_expression_names_the_key(tmp_path, capsys,
                                                     value):
    # ast.parse and the evaluator both recurse once per nesting level
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
    assert err.startswith("error: %s" % data)
    assert where in err
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


def test_main_auto_R_needs_invertible(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, "[model]\nboundary = periodic\n"
                                   "n_points = 32\n[scheme]\nlambda = 0.01\n"
                                   "a = 0.5\nr = auto\n")
    assert main(["solve", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: scheme.R: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("model, text, where", [
    ("[model]\n", "x,re_0,im_0\n" + "0.0,1.0,0.0\n" * 2 + "0.0,nan,0.0\n"
     + "0.0,1.0,0.0\n" * 5, "line 4: non-finite value"),
    ("[model]\noperator = dirac_2spinor\nboundary = bag1d\n",
     "x,re_0,im_0\n" + "0.0,1.0,0.0\n" * 8,
     "has 1 components, the model needs 2"),
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
