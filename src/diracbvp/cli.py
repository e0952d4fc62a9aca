"""Batch front end: config-driven subcommands writing CSV/JSON artifacts.

Subcommands: spectrum, solve, check, sweep, bootstrap, functional.
Common flags: --config <path>, --out <dir>, --workers <k>.  Every
config value is parsed and checked before a command starts.  sweep
evaluates its points one after another, reusing the decomposed model
while consecutive points share the [model] section; --workers (and
run.workers, an integer) is accepted for compatibility and changes
nothing.  Outputs are deterministic for a fixed config.

Each command imports the array layers it uses when it runs, so
`bootstrap`, `--help`, usage errors and refused configs load no numpy.
"""

import argparse
import csv
import dataclasses
import json
import os
import sys

from .config import parse_config
from .errors import ConfigParseError, DiracBVPError


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _json_default(obj):
    # tolerate numpy scalars leaking into report payloads
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError("not JSON serializable: %r" % (obj,))


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=_json_default)
        fh.write("\n")


def _prepare(cfg):
    from . import operators, spectral
    return spectral.decompose(operators.assemble(cfg.build_model()))


def cmd_spectrum(cfg, out_dir):
    from . import spectral
    sd = _prepare(cfg)
    rows = [[k, repr(float(lam))] for k, lam in enumerate(sd.eigenvalues)]
    _write_csv(os.path.join(out_dir, "eigenvalues.csv"), ["k", "lambda_k"],
               rows)
    summary = {"lambda1": sd.lambda1, "invertible": sd.invertible}
    if sd.invertible:
        est = spectral.estimate_constants(
            sd, iota=cfg.values["constants"]["iota"])
        summary["c1_emp"] = est.c1_emp
        summary["c_half_emp"] = est.c_half_emp
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return 0


def _certify(cfg, sd, scheme_cfg):
    from . import conditions
    consts = cfg.build_constants(sd, scheme_cfg)
    mode = cfg.values["constants"]["mode"]
    return conditions.check_conditions(consts, mode), consts


def cmd_solve(cfg, out_dir):
    from . import scheme
    sd = _prepare(cfg)
    model = sd.operator.spec
    scheme_cfg = cfg.build_scheme(model)
    certified = None
    try:
        certified = _certify(cfg, sd, scheme_cfg)[0].certified
    except DiracBVPError:
        pass  # certification is advisory for solve runs
    report = scheme.run(sd, scheme_cfg)
    report.conditions_certified = certified
    _write_csv(os.path.join(out_dir, "trace.csv"),
               ["k", "delta_H12D", "ratio", "u_L2", "u_H1", "pde_residual"],
               scheme.trace_rows(report))
    _write_json(os.path.join(out_dir, "report.json"), report.to_dict())
    return 0


def cmd_check(cfg, out_dir):
    from . import conditions
    sd = _prepare(cfg)
    scheme_cfg = cfg.build_scheme(sd.operator.spec)
    cond_report, consts = _certify(cfg, sd, scheme_cfg)
    payload = cond_report.to_dict()
    payload["constants"] = dataclasses.asdict(consts)
    payload["provenance"] = payload["constants"].pop("provenance")
    payload["c3_lambda_threshold"] = conditions.c3_lambda_threshold(consts)
    _write_json(os.path.join(out_dir, "conditions.json"), payload)
    return 0


def _sweep_model(point, cache):
    """SpectralData of the point's model, from cache when it is the latest.

    cache maps the [model] section of the last point built to its
    SpectralData (and so its memoized constant estimates); it holds one
    entry, dropped before the next model is built.
    """
    key = tuple(sorted(point.values["model"].items()))
    if key not in cache:
        cache.clear()
        cache[key] = _prepare(point)
    return cache[key]


def _sweep_point(cfg, values, cache):
    from . import scheme
    point = cfg
    for (path, *_), val in zip(cfg.sweep.axes, values):
        point = point.with_override(path, val)
    sd = _sweep_model(point, cache)
    scheme_cfg = point.build_scheme(sd.operator.spec)
    certified = False
    try:
        certified = _certify(point, sd, scheme_cfg)[0].certified
    except DiracBVPError:
        pass
    report = scheme.run(sd, scheme_cfg)
    max_ratio = max(report.ratios) if report.ratios else 0.0
    return (report.verdict, report.iterations, report.pde_residual,
            max_ratio, certified, report.bounds_held)


def cmd_sweep(cfg, out_dir):
    if cfg.sweep is None:
        raise ConfigParseError("missing, the sweep command needs at least "
                               "one axis", key="sweep.param")
    names = [axis[0] for axis in cfg.sweep.axes]
    header = ["index"] + names + ["verdict", "iterations", "pde_residual",
                                  "max_ratio", "certified", "bounds_held"]
    cache = {}
    rows = []
    for idx, values in enumerate(cfg.sweep.grid()):
        try:
            verdict, iters, resid, ratio, cert, bounds = \
                _sweep_point(cfg, values, cache)
        except DiracBVPError as exc:
            verdict, iters, resid, ratio, cert, bounds = \
                "error: %s" % exc, 0, float("nan"), float("nan"), False, False
        rows.append([idx] + [repr(float(v)) for v in values]
                    + [verdict, iters, repr(resid), repr(ratio),
                       str(bool(cert)).lower(), str(bool(bounds)).lower()])
    _write_csv(os.path.join(out_dir, "sweep.csv"), header, rows)
    return 0


def cmd_bootstrap(cfg, out_dir):
    from .bootstrap import bootstrap_exponents
    boot = cfg.values["bootstrap"]
    trace = bootstrap_exponents(boot["n"], boot["p"], boot["l0"])
    rows = [[m, repr(rec), repr(cl)] for m, (rec, cl)
            in enumerate(zip(trace.reciprocals, trace.closed_form))]
    _write_csv(os.path.join(out_dir, "bootstrap.csv"),
               ["M", "reciprocal", "closed_form"], rows)
    _write_json(os.path.join(out_dir, "bootstrap.json"),
                {"m_star": trace.m_star,
                 "agreement": trace.agreement()})
    return 0


def cmd_functional(cfg, out_dir):
    from . import conditions, spectral
    m = cfg.values["functional"]["m"]
    if m < 1:
        raise ConfigParseError("must be >= 1, got %d" % m, key="functional.m")
    n = cfg.values["constants"]["n"]
    sd = _prepare(cfg)
    m = min(m, sd.size)
    rows = []
    for k in range(m):
        phi = spectral.eigenfunction(sd, k)
        f_val = conditions.variational_functional(sd, phi, n)
        rows.append([k, repr(float(sd.eigenvalues[k])), repr(f_val)])
    _write_csv(os.path.join(out_dir, "functional.csv"),
               ["k", "lambda_k", "F"], rows)
    return 0


_COMMANDS = {"spectrum": cmd_spectrum, "solve": cmd_solve, "check": cmd_check,
             "sweep": cmd_sweep, "bootstrap": cmd_bootstrap,
             "functional": cmd_functional}


def run_command(cfg, command, out_dir=None):
    """Dispatch a subcommand; returns the process exit status."""
    if command not in _COMMANDS:
        raise DiracBVPError("unknown command %r" % (command,))
    out_dir = out_dir or cfg.values["run"]["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    try:
        return _COMMANDS[command](cfg, out_dir)
    except MemoryError as exc:
        message = str(exc) or "out of memory"
        raise DiracBVPError("model.n_points = %d: %s"
                            % (cfg.values["model"]["n_points"],
                               message)) from exc


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="diracbvp",
        description="Spectral solver for nonlinear Dirac-type boundary "
                    "value problems on 1D model operators.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--out", default=None)
        cmd.add_argument("--workers", type=int, default=None,
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
