"""Tests of the benchmark's own parts: inputs, checks, tracer, refusal.

    PYTHONPATH=src python3 -m pytest benchmarks
"""

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import trace_cli
import workloads
from diracbvp.cli import main as cli_main

HERE = os.path.dirname(os.path.abspath(__file__))
MARGIN = 1e-2  # converged residuals stay this far under tol_residual


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("workload", ["sweep_lambda", "solve_ladder"])
def test_seeded_inputs_converge_with_margin(tmp_path, workload, seed):
    for i, cmd in enumerate(workloads.make_inputs(workload, seed,
                                                  str(tmp_path / "in"))):
        out = str(tmp_path / ("out%d" % i))
        assert cli_main([cmd.name, "--config", cmd.config, "--out", out,
                         "--workers", "1"]) == 0
        assert checks.problems(cmd, out) == []
        if cmd.name == "solve":
            with open(os.path.join(out, "report.json"),
                      encoding="utf-8") as fh:
                residuals = [json.load(fh)["pde_residual"]]
        else:
            with open(os.path.join(out, "sweep.csv"), newline="",
                      encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            assert all(r["verdict"] == "converged" for r in rows)
            residuals = [float(r["pde_residual"]) for r in rows]
        assert max(residuals) < MARGIN * workloads.TOL_RESIDUAL, cmd.label


def test_inputs_depend_only_on_seed(tmp_path):
    def read_all(directory):
        return {path.name: path.read_bytes() for path in directory.iterdir()}

    workloads.make_inputs("solve_ladder", 7, str(tmp_path / "a"))
    workloads.make_inputs("solve_ladder", 7, str(tmp_path / "b"))
    workloads.make_inputs("solve_ladder", 8, str(tmp_path / "c"))
    a = read_all(tmp_path / "a")
    assert a == read_all(tmp_path / "b")
    assert a != read_all(tmp_path / "c")


def test_checks_reject_wrong_artifacts(tmp_path):
    cmd = workloads.Command("solve", "unused.ini", workloads.ANTIPERIODIC,
                            64, 1)
    report = {"verdict": "max_iter_exceeded", "pde_residual": 1e-6,
              "boundary_residual": 0.0}
    (tmp_path / "report.json").write_text(json.dumps(report))
    (tmp_path / "trace.csv").write_text("k,delta_H12D\n0,0.0\n")
    assert len(checks.problems(cmd, str(tmp_path))) == 2

    spec = workloads.Command("spectrum", "unused.ini", workloads.PERIODIC,
                             16, 1)
    vals = checks.analytic_spectrum(workloads.PERIODIC, 16)
    vals[3] *= 1.0 + 1e-5
    (tmp_path / "eigenvalues.csv").write_text(
        "k,lambda_k\n" + "".join("%d,%r\n" % kv for kv in enumerate(vals)))
    (tmp_path / "summary.json").write_text('{"invertible": false}')
    assert checks.problems(spec, str(tmp_path)) == [
        "spectrum off the analytic one by 1.000e-05"]

    sweep = workloads.Command("sweep", "unused.ini",
                              workloads.ANTIPERIODIC, 64, 3)
    header = "index,scheme.lambda,verdict,iterations,pde_residual," \
             "max_ratio,certified,bounds_held\n"
    rows = ["0,0.0,converged,3,1e-12,0.1,true,true\n",
            "1,0.1,error: no estimates supplied,0,nan,nan,false,false\n",
            "2,0.2,max_iter_exceeded,200,1e-06,0.9,false,true\n"]
    (tmp_path / "sweep.csv").write_text(header + "".join(rows))
    assert len(checks.problems(sweep, str(tmp_path))) == 2
    (tmp_path / "sweep.csv").write_text(header + rows[0] * 3)
    assert checks.problems(sweep, str(tmp_path)) == []


@pytest.fixture
def restore_diracbvp():
    """Undo the tracer's rebinding of package functions after the test."""
    import diracbvp.config
    saved = {name: dict(vars(mod)) for name, mod in sys.modules.items()
             if name.startswith("diracbvp")}
    saved_methods = dict(vars(diracbvp.config.RunConfig))
    yield
    for name, namespace in saved.items():
        vars(sys.modules[name]).update(namespace)
    for key, value in saved_methods.items():
        if callable(value):
            setattr(diracbvp.config.RunConfig, key, value)


def test_tracer_wraps_names_where_they_are_called(tmp_path, monkeypatch,
                                                  restore_diracbvp):
    import diracbvp.operators
    import diracbvp.scheme
    layers = dict(trace_cli.LAYERS,
                  **{"gone.layer": [("diracbvp.spectral", "removed_name"),
                                    ("diracbvp.config", "RunConfig.gone")]})
    monkeypatch.setattr(trace_cli, "LAYERS", layers)
    tracer = trace_cli.Tracer()
    tracer.install()
    assert diracbvp.scheme.apply_D is diracbvp.operators.apply_D

    cmd = workloads.make_inputs("solve_ladder", 0, str(tmp_path / "in"))[0]
    assert cli_main([cmd.name, "--config", cmd.config, "--out",
                     str(tmp_path / "out"), "--workers", "1"]) == 0
    assert "gone.layer" not in tracer.totals
    assert tracer.totals["scheme.step"][0] >= 1
    # scheme binds apply_D by name: its calls are counted
    assert tracer.totals["operators.apply_D"][0] > \
        tracer.totals["scheme.step"][0]
    assert tracer.models == {"antiperiodic/256"}
    for calls, self_s in tracer.totals.values():
        assert calls >= 1 and self_s >= 0.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "solve_ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_reported_metrics(tmp_path):
    import run
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)

    (tmp_path / "out").mkdir()
    (tmp_path / "spans.json").write_text(
        '{"import_s": 0.5, "layers": {}, "models": []}')
    cmd = workloads.Command("spectrum", "unused.ini", workloads.BAG1D, 16, 1)
    done = run.Executed(cmd, str(tmp_path / "out"), 1.0, 0, "",
                        str(tmp_path / "spans.json"))
    reported = list(run.layer_metrics([done])) + ["trace.overhead_frac"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, run.unit_of(name)) for name in reported]
    for metric in spec["end_to_end"]:
        assert run.unit_of(metric["name"]) == metric["unit"]
