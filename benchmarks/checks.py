"""Correctness checks on the artifacts of one CLI command.

`problems(command, out_dir)` returns a list of messages, empty when the
artifacts are correct.  A command whose artifacts fail counts as failed in
the benchmark, exactly like one that exits non-zero.
"""

import csv
import json
import math
import os

from workloads import ANTIPERIODIC, BAG1D, FUNCTIONAL_M, LENGTH, PERIODIC, \
    TOL_RESIDUAL

SPECTRUM_TOL = 1e-6  # acceptance tolerance of the scalar spectra
BOUNDARY_TOL = 1e-8


def _strict(token):
    raise ValueError("non-finite JSON constant %s" % token)


def _json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_strict)


def _csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def analytic_spectrum(model, n_points):
    """Exact eigenvalues of the discrete scalar models, ascending."""
    if model == ANTIPERIODIC:  # modes exp(i (2k+1) pi x / L), m = N - 1
        m = n_points - 1
        ks = range(-(m // 2), m - m // 2)
        return [(2 * k + 1) * math.pi / LENGTH for k in ks]
    if model == PERIODIC:  # the DFT frequencies 2 pi k / L, Nyquist negative
        ks = range(-(n_points // 2), n_points - n_points // 2)
        return [2.0 * math.pi * k / LENGTH for k in ks]
    raise ValueError("no analytic spectrum for %r" % (model,))


def _check_solve(cmd, out):
    report = _json(os.path.join(out, "report.json"))
    found = []
    if report["verdict"] != "converged":
        found.append("verdict %r" % report["verdict"])
    if not report["pde_residual"] < TOL_RESIDUAL:
        found.append("pde_residual %r" % report["pde_residual"])
    if not report["boundary_residual"] <= BOUNDARY_TOL:
        found.append("boundary_residual %r" % report["boundary_residual"])
    header, rows = _csv(os.path.join(out, "trace.csv"))
    if header[:2] != ["k", "delta_H12D"] or not rows:
        found.append("trace.csv malformed")
    return found


def _check_sweep(cmd, out):
    header, rows = _csv(os.path.join(out, "sweep.csv"))
    col = {name: i for i, name in enumerate(header)}
    found = []
    if len(rows) != cmd.points:
        found.append("sweep.csv has %d rows, expected %d"
                     % (len(rows), cmd.points))
    for row in rows:
        # the seeded points all converge; a point that errors or stalls
        # fails the command instead of counting as a finished point
        if not (row[col["verdict"]] == "converged"
                and float(row[col["pde_residual"]]) < TOL_RESIDUAL):
            found.append("row %s: %s, pde_residual %s"
                         % (row[0], row[col["verdict"]],
                            row[col["pde_residual"]]))
        # the test_04b contract: certified points contract
        elif row[col["certified"]] == "true" \
                and not float(row[col["max_ratio"]]) < 1.0:
            found.append("certified row %s: max_ratio %s"
                         % (row[0], row[col["max_ratio"]]))
    return found


def _check_spectrum(cmd, out):
    _, rows = _csv(os.path.join(out, "eigenvalues.csv"))
    vals = [float(r[1]) for r in rows]
    summary = _json(os.path.join(out, "summary.json"))
    size = {ANTIPERIODIC: cmd.n_points - 1, PERIODIC: cmd.n_points,
            BAG1D: 2 * cmd.n_points - 2}[cmd.model]
    if len(vals) != size:
        return ["%d eigenvalues, expected %d" % (len(vals), size)]
    found = []
    if cmd.model != BAG1D:
        worst = max(abs(a - b) / max(abs(b), 1.0) for a, b
                    in zip(sorted(vals), analytic_spectrum(cmd.model,
                                                           cmd.n_points)))
        if not worst <= SPECTRUM_TOL:
            found.append("spectrum off the analytic one by %.3e" % worst)
    invertible = cmd.model != PERIODIC
    if summary["invertible"] is not invertible:
        found.append("invertible is %r" % summary["invertible"])
    if invertible and not (summary["c1_emp"] > 0
                           and summary["c_half_emp"] > 0):
        found.append("empirical constants missing")
    return found


def _check_check(cmd, out):
    payload = _json(os.path.join(out, "conditions.json"))
    found = []
    if not isinstance(payload["certified"], bool):
        found.append("certified is not a boolean")
    if payload["provenance"].get("c1") != "computed":
        found.append("c1 provenance %r" % payload["provenance"].get("c1"))
    return found


def _check_functional(cmd, out):
    _, rows = _csv(os.path.join(out, "functional.csv"))
    if len(rows) != FUNCTIONAL_M:
        return ["functional.csv has %d rows" % len(rows)]
    found = []
    for row in rows:
        lam, f_val = abs(float(row[1])), float(row[2])
        # F = |lambda_k| on plane waves; Hoelder gives F <= |lambda_k|, L = 1
        if cmd.model == ANTIPERIODIC:
            ok = abs(f_val - lam) <= SPECTRUM_TOL * lam
        else:
            ok = 0.0 < f_val <= lam * (1.0 + SPECTRUM_TOL)
        if not ok:
            found.append("F(phi_%s) = %r against |lambda| = %r"
                         % (row[0], f_val, lam))
    return found


_CHECKS = {"solve": _check_solve, "sweep": _check_sweep,
           "spectrum": _check_spectrum, "check": _check_check,
           "functional": _check_functional}


def problems(cmd, out_dir):
    """Messages for every failed check of the command's artifacts."""
    try:
        return _CHECKS[cmd.name](cmd, out_dir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return ["unreadable artifacts: %s: %s" % (type(exc).__name__, exc)]


def iterations(cmd, out_dir):
    """Effective fixed-point iterations recorded in the artifacts."""
    if cmd.name == "solve":
        return int(_json(os.path.join(out_dir, "report.json"))["iterations"])
    if cmd.name == "sweep":
        header, rows = _csv(os.path.join(out_dir, "sweep.csv"))
        col = header.index("iterations")
        return sum(int(r[col]) for r in rows)
    return 0
