"""Seeded inputs and command lists of the benchmark workloads.

Every input is generated here from the workload name and the seed: the INI
configs, and the boundary datum `g` as a `sample_file` CSV in the format
`diracbvp.grids.save_field_csv` writes.  The seed draws `g` and jitters
`lambda`; the models, sizes and commands of a workload never vary.

The data stay in each model's own mode class, with margin below
`tol_residual`.  A random `g` with even (periodic) modes on the antiperiodic
model is not in the range of its constrained operator: the residual floors
near 1e-6 and the solve runs to `max_iter`.  So antiperiodic data use only
the odd half-integer modes exp(i k pi x / L), k odd.  The bag1d residual
grows with amplitude and `lambda` (about 7e-9 at amplitude 0.1 and
lambda = 2), so its data stay at amplitude 0.03 and lambda near 0.5.
"""

import cmath
import math
import os
import random
from dataclasses import dataclass

LENGTH = 1.0
TOL_RESIDUAL = 1e-8  # scheme.tol_residual, written into every config
FUNCTIONAL_M = 10  # functional.m, rows of functional.csv

ANTIPERIODIC = "antiperiodic"
PERIODIC = "periodic"
BAG1D = "bag1d"

_MODEL_KEYS = {
    ANTIPERIODIC: "operator = scalar_derivative\nboundary = antiperiodic\n",
    PERIODIC: "operator = scalar_derivative\nboundary = periodic\n",
    BAG1D: "operator = dirac_2spinor\nboundary = bag1d\n",
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation: `diracbvp <name> --config <config>`."""
    name: str       # spectrum | solve | check | sweep | functional
    config: str     # absolute path of the generated INI file
    model: str      # boundary kind
    n_points: int
    points: int     # parameter points the command finishes

    @property
    def label(self):
        return "%s %s N=%d" % (self.name, self.model, self.n_points)


WORKLOADS = ("sweep_lambda", "solve_ladder", "spectrum_check")


def _odd_mode_field(rng, amplitude):
    """Random antiperiodic datum in odd modes, peak modulus `amplitude`."""
    coeffs = {k: cmath.rect(rng.uniform(0.3, 1.0) / abs(k),
                            rng.uniform(0.0, 2.0 * math.pi))
              for k in (1, -1, 3, -3, 5, -5)}
    return _normalised(
        lambda x: sum(c * cmath.exp(1j * math.pi * k * x / LENGTH)
                      for k, c in coeffs.items()), amplitude)


def _smooth_field(rng, amplitude):
    """Random smooth bag1d datum component from the lowest interval modes."""
    coeffs = {k: cmath.rect(rng.uniform(0.3, 1.0) / (1 + k),
                            rng.uniform(0.0, 2.0 * math.pi))
              for k in (0, 1, 2)}
    return _normalised(
        lambda x: sum(c * cmath.exp(1j * math.pi * k * x / LENGTH)
                      for k, c in coeffs.items()), amplitude)


def _normalised(func, amplitude):
    peak = max(abs(func(LENGTH * j / 256)) for j in range(257))
    return lambda x: func(x) * (amplitude / peak)


def _write_field(path, n_points, components):
    """CSV rows `x,re_0,im_0[,re_1,im_1]` on the interval grid of n_points."""
    header = ["x"]
    for c in range(len(components)):
        header += ["re_%d" % c, "im_%d" % c]
    lines = [",".join(header)]
    for j in range(n_points):
        x = LENGTH * j / (n_points - 1)
        row = [repr(x)]
        for func in components:
            v = complex(func(x))
            row += [repr(v.real), repr(v.imag)]
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _datum(rng, model, n_points, directory, stem):
    """Write a seeded datum CSV for the model; returns the `g` config value."""
    if model == ANTIPERIODIC:
        components = [_odd_mode_field(rng, 0.1)]
    elif model == BAG1D:
        components = [_smooth_field(rng, 0.03), _smooth_field(rng, 0.03)]
    else:
        return "zero"  # periodic enters through `spectrum` only
    name = stem + ".csv"
    _write_field(os.path.join(directory, name), n_points, components)
    return "sample_file(%s)" % name


def _lambda(rng, model):
    base = 0.05 * math.pi if model == ANTIPERIODIC else 0.5
    return repr(base * rng.uniform(0.9, 1.1))


def _config(directory, stem, model, n_points, scheme, constants, extra=""):
    text = ("[model]\n%slength = %r\nn_points = %d\n\n"
            "[scheme]\n%stol_residual = %r\n\n[constants]\n%s\n"
            "[functional]\nm = %d\n%s"
            % (_MODEL_KEYS[model], LENGTH, n_points, scheme, TOL_RESIDUAL,
               constants, FUNCTIONAL_M, extra))
    path = os.path.join(directory, stem + ".ini")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


_EMPIRICAL = "c1 = empirical\nc_half = empirical\n"
_ASSUMED = "c1 = 2\nc_half = 2\n"


def make_inputs(workload, seed, directory):
    """Write the inputs of one workload; returns its command cycle in order."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % (workload,))
    rng = random.Random("%s:%d" % (workload, seed))
    os.makedirs(directory, exist_ok=True)
    commands = []

    def add(name, model, n_points, constants, extra="", points=1):
        stem = "%02d_%s_%s_%d" % (len(commands), name, model, n_points)
        g = _datum(rng, model, n_points, directory, stem)
        scheme = "lambda = %s\ng = %s\n" % (_lambda(rng, model), g)
        path = _config(directory, stem, model, n_points, scheme, constants,
                       extra)
        commands.append(Command(name, path, model, n_points, points))

    if workload == "sweep_lambda":
        sweep_max = 0.01 * rng.uniform(0.9, 1.1)
        add("sweep", ANTIPERIODIC, 256, _EMPIRICAL, points=11,
            extra="\n[sweep]\nparam = scheme.lambda\nmin = 0\nmax = %r\n"
                  "count = 11\n" % sweep_max)
    elif workload == "solve_ladder":
        for n_points in (256, 512, 1024):
            add("solve", ANTIPERIODIC, n_points, _ASSUMED)
        for n_points in (256, 512):
            add("solve", BAG1D, n_points, _ASSUMED)
    else:  # spectrum_check
        for model, n_points in ((ANTIPERIODIC, 512), (PERIODIC, 512),
                                (BAG1D, 256)):
            add("spectrum", model, n_points, _EMPIRICAL)
        for model, n_points in ((ANTIPERIODIC, 512), (BAG1D, 256)):
            add("check", model, n_points, _EMPIRICAL)
            add("functional", model, n_points, _EMPIRICAL)
    return commands
