"""Batch front end: config-driven commands writing CSV/JSON artifacts.

Commands: spectrum, solve, check, sweep, bootstrap, functional.  One
parser takes the command and the flags --config <path>, --out <dir>
(default out), --workers <k>, in any order.  Every config value is
parsed and range-checked before a command starts.  solve, check and
sweep get the decomposed model and the fields g and f0 from
_model_and_fields; solve and every sweep point run _run_scheme.  sweep
runs its points one after another, reusing the model and fields while
consecutive points share the [model] section; --workers is accepted for
compatibility and changes nothing (a [run] section is refused).  A
certificate that raises is a `warning:` line on stderr; a sweep point
that raises, or runs out of memory, is that point's error row.  Outputs
are deterministic for a fixed config; JSON is strict.

Each command imports the array layers it uses when it runs, so
`bootstrap`, `--help`, usage errors and refused configs load no numpy
and no dataclasses; check builds no scheme, and loads no diracbvp.scheme.
"""

import argparse
import csv
import json
import math
import os
import sys

from .config import parse_config, sweep_points
from .errors import ConfigParseError, DiracBVPError


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _strict(obj):
    """obj with each non-finite float, at any depth, replaced by None
    (JSON null): the one place that JSON artifacts are made strict."""
    if isinstance(obj, dict):
        return {key: _strict(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(val) for val in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_strict(payload), fh, sort_keys=True, indent=2,
                  allow_nan=False)
        fh.write("\n")


def _prepare(cfg):
    from . import operators, spectral
    return spectral.decompose(operators.assemble(cfg.build_model()))


def _model_and_fields(cfg, cache):
    """(sd, g, f0): cfg's decomposed model and its fields g and f0, from
    cache while the [model] section repeats (sweep points): sd keeps its
    constant estimates, and no axis changes the fields g and f0."""
    key = tuple(sorted(cfg.values["model"].items()))
    if key not in cache:
        cache.clear()
        sd = _prepare(cfg)
        cache[key] = (sd,) + cfg.build_fields(sd.operator.spec)
    return cache[key]


def cmd_spectrum(cfg, out_dir):
    sd = _prepare(cfg)
    rows = [[k, repr(float(lam))] for k, lam in enumerate(sd.eigenvalues)]
    _write_csv(os.path.join(out_dir, "eigenvalues.csv"), ["k", "lambda_k"],
               rows)
    summary = {"lambda1": sd.lambda1, "invertible": sd.invertible}
    if sd.invertible:
        summary["c1_emp"] = sd.c1_emp
        summary["c_half_emp"] = sd.c_half_emp
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return 0


def _certify(cfg, sd, g):
    from . import conditions
    consts = cfg.build_constants(sd, g)
    mode = cfg.values["constants"]["mode"]
    return conditions.check_conditions(consts, mode), consts


def _run_scheme(cfg, sd, g, f0, where=""):
    """Build cfg's scheme from datum g and start f0, certify it (advisory: an
    error gives None and a `warning:` line, after where) and run it on sd."""
    from . import scheme
    scheme_cfg = cfg.build_scheme(g, f0)
    try:
        certified = _certify(cfg, sd, g)[0].certified
    except DiracBVPError as exc:
        certified = None
        print("warning: %sconditions not certified: %s" % (where, exc),
              file=sys.stderr)
    report = scheme.run(sd, scheme_cfg)
    report.conditions_certified = certified
    return report


def cmd_solve(cfg, out_dir):
    from . import scheme
    report = _run_scheme(cfg, *_model_and_fields(cfg, {}))
    _write_csv(os.path.join(out_dir, "trace.csv"),
               ["k", "delta_H12D", "ratio", "u_L2", "u_H1", "pde_residual"],
               scheme.trace_rows(report))
    _write_json(os.path.join(out_dir, "report.json"), report.to_dict())
    return 0


def cmd_check(cfg, out_dir):
    import dataclasses
    sd, g, _ = _model_and_fields(cfg, {})  # f0 too, so a bad one is refused
    cond_report, consts = _certify(cfg, sd, g)
    payload = cond_report.to_dict()
    payload["constants"] = dataclasses.asdict(consts)
    payload["provenance"] = payload["constants"].pop("provenance")
    _write_json(os.path.join(out_dir, "conditions.json"), payload)
    return 0


def cmd_sweep(cfg, out_dir):
    if cfg.sweep is None:
        raise ConfigParseError("missing, the sweep command needs at least "
                               "one axis", key="sweep.param")
    names = [axis[0] for axis in cfg.sweep]
    header = ["index"] + names + ["verdict", "iterations", "pde_residual",
                                  "max_ratio", "certified", "bounds_held"]
    cache = {}
    rows = []
    for idx, values in enumerate(sweep_points(cfg.sweep)):
        point = cfg
        try:
            for path, val in zip(names, values):
                point = point.with_override(path, val)
            rep = _run_scheme(point, *_model_and_fields(point, cache),
                              where="sweep point %d: " % idx)
            cells = [rep.verdict, rep.iterations, repr(rep.pde_residual),
                     repr(max(rep.ratios, default=0.0)),
                     str(bool(rep.conditions_certified)).lower(),
                     str(bool(rep.bounds_held)).lower()]
        except (DiracBVPError, MemoryError) as exc:
            if isinstance(exc, MemoryError):
                exc = _out_of_memory(point, exc)
            cells = ["error: %s" % exc, 0, "nan", "nan", "false", "false"]
        rows.append([idx] + [repr(float(v)) for v in values] + cells)
    _write_csv(os.path.join(out_dir, "sweep.csv"), header, rows)
    return 0


def cmd_bootstrap(cfg, out_dir):
    from .bootstrap import bootstrap_exponents
    boot = cfg.values["bootstrap"]
    trace = bootstrap_exponents(boot["n"], boot["p"], boot["l0"])
    _write_csv(os.path.join(out_dir, "bootstrap.csv"), ["M", "reciprocal"],
               [[m, repr(rec)] for m, rec in enumerate(trace.reciprocals)])
    _write_json(os.path.join(out_dir, "bootstrap.json"),
                {"m_star": trace.m_star})
    return 0


def cmd_functional(cfg, out_dir):
    from . import conditions, spectral
    n = cfg.values["constants"]["n"]
    sd = _prepare(cfg)
    m = min(cfg.values["functional"]["m"], sd.size)
    rows = []
    for k in range(m):
        phi = spectral.eigenfunction(sd, k)
        f_val = conditions.variational_functional(sd, phi, n)
        rows.append([k, repr(float(sd.eigenvalues[k])), repr(f_val)])
    _write_csv(os.path.join(out_dir, "functional.csv"),
               ["k", "lambda_k", "F"], rows)
    return 0


def _out_of_memory(cfg, exc):
    """A MemoryError of cfg's run as the error naming its model.n_points."""
    return DiracBVPError("model.n_points = %d: %s" % (
        cfg.values["model"]["n_points"], str(exc) or "out of memory"))


_COMMANDS = {"spectrum": cmd_spectrum, "solve": cmd_solve, "check": cmd_check,
             "sweep": cmd_sweep, "bootstrap": cmd_bootstrap,
             "functional": cmd_functional}


def run_command(cfg, command, out_dir="out"):
    """Dispatch a command writing into out_dir; returns the exit status."""
    if command not in _COMMANDS:
        raise DiracBVPError("unknown command %r" % (command,))
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise DiracBVPError("--out %r: cannot make the directory: %s"
                            % (out_dir, exc.strerror or exc)) from exc
    try:
        return _COMMANDS[command](cfg, out_dir)
    except MemoryError as exc:
        raise _out_of_memory(cfg, exc) from exc


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="diracbvp",
        description="Spectral solver for nonlinear Dirac-type boundary "
                    "value problems on 1D model operators.")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default="out")
    parser.add_argument("--workers", type=int, default=None,
                        help="accepted for compatibility; no effect")
    args = parser.parse_args(argv)

    try:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigParseError("%s: not UTF-8 text: %s"
                                   % (args.config, exc)) from exc
        cfg = parse_config(text, base_dir=os.path.dirname(
            os.path.abspath(args.config)))
        return run_command(cfg, args.command, out_dir=args.out)
    except (DiracBVPError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
