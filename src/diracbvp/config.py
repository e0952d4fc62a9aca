"""Run configuration parsing for the batch front end.

The format is flat INI-style sections with strictly validated keys.
Numeric values accept arithmetic literals over pi and e ("0.05*pi",
"1e-8", "8/3").  The datum g (and the initial iterate f0) are given by
small closed-form expressions:

    zero
    const(<value>)
    exp_mode(<k>)               # mode exp(i k pi x / L) on intervals,
    exp_mode(<k>, <scale>)      # exp(2 pi i k x / L) on circles
    sample_file(<path>)         # CSV field as written by save_field_csv
    g                           # (f0 only) start from the datum

On rank-2 models the scalar expressions fill component 0.

Parsing and validation import no numpy; the builders import the array
layers when called.
"""

import ast
import cmath
import math
import os
from configparser import ConfigParser
from dataclasses import dataclass, field

from .errors import ConfigParseError
from .names import (ANTIPERIODIC, BAG1D, DIRAC_2SPINOR, MODE_A, MODE_B,
                    MODE_C, PERIODIC, SCALAR_DERIVATIVE)

_EVAL_NAMES = {"pi": math.pi, "e": math.e}
_BINOPS = {ast.Add: lambda a, b: a + b, ast.Sub: lambda a, b: a - b,
           ast.Mult: lambda a, b: a * b, ast.Div: lambda a, b: a / b,
           # in floating point: an integer power is exact and unbounded,
           # so 9**9**9 would run for minutes; a float one overflows at once
           ast.Pow: lambda a, b: (float(a) if isinstance(a, int) else a) ** b}


def eval_number(text, key="<value>"):
    """Evaluate a restricted arithmetic literal (pi-multiples etc.)."""
    try:
        tree = ast.parse(str(text).strip(), mode="eval")
    except SyntaxError as exc:
        raise ConfigParseError("not a numeric expression: %r" % (text,),
                               key=key) from exc
    except RecursionError as exc:
        raise ConfigParseError("expression nested too deeply",
                               key=key) from exc

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value,
                                                         (int, float, complex)):
            return node.value
        if isinstance(node, ast.Name) and node.id in _EVAL_NAMES:
            return _EVAL_NAMES[node.id]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
            return ev(node.operand)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](ev(node.left), ev(node.right))
        raise ConfigParseError("disallowed construct in %r" % (text,), key=key)

    try:
        val = ev(tree)
        # cmath.isfinite raises OverflowError on ints beyond float range
        if not cmath.isfinite(val):
            raise ConfigParseError("%r is not finite" % (text,), key=key)
        return val
    except ZeroDivisionError as exc:
        raise ConfigParseError("division by zero in %r" % (text,),
                               key=key) from exc
    except OverflowError as exc:
        raise ConfigParseError("%r is out of floating-point range" % (text,),
                               key=key) from exc
    except RecursionError as exc:
        raise ConfigParseError("expression nested too deeply",
                               key=key) from exc


def _as_real(text, key):
    val = eval_number(text, key)
    if isinstance(val, complex):
        if abs(val.imag) > 0:
            raise ConfigParseError("expected a real number, got %r" % (text,),
                                   key=key)
        val = val.real
    return float(val)


def _as_int(text, key):
    val = _as_real(text, key)
    if val != int(val):
        raise ConfigParseError("expected an integer, got %r" % (text,), key=key)
    return int(val)


# section -> key -> default (None marks "no default, optional")
_SCHEMA = {
    "model": {"operator": SCALAR_DERIVATIVE, "boundary": ANTIPERIODIC,
              "length": "1.0", "n_points": "256"},
    "scheme": {"lambda": "0", "p": "4", "g": "zero", "f0": "g", "a": "0",
               "r": "1", "xi": "1", "lambda_cap": "1", "max_iter": "200",
               "tol_cauchy": "1e-10", "tol_residual": "1e-8"},
    "constants": {"n": "2", "p_a": None, "c_h": "1", "big_c_h": "1",
                  "iota": "1", "k_gn": "1", "k_gn2": "1", "k_fgn": "1",
                  "c1": "empirical", "c_half": "empirical",
                  "mode": MODE_C},
    "run": {"output_dir": "out", "workers": "1"},
    "sweep": {"param": None, "min": None, "max": None, "count": None,
              "scale": "lin", "param2": None, "min2": None, "max2": None,
              "count2": None, "scale2": "lin"},
    "bootstrap": {"n": "4", "p": "8/3", "l0": "4"},
    "functional": {"m": "10"},
}


@dataclass
class SweepSpec:
    axes: list  # list of (param_path, min, max, count, scale)

    def grid(self):
        """Cartesian product of axis values, row-major in axis order."""
        import numpy as np
        axis_vals = []
        for _, lo, hi, count, scale in self.axes:
            if scale == "log":
                vals = np.geomspace(lo, hi, count)
            else:
                vals = np.linspace(lo, hi, count)
            axis_vals.append(vals)
        if len(axis_vals) == 1:
            return [(v,) for v in axis_vals[0]]
        return [(v1, v2) for v1 in axis_vals[0] for v2 in axis_vals[1]]


@dataclass
class RunConfig:
    raw: dict
    base_dir: str = "."
    sweep: SweepSpec = None
    # resolved sample_file path -> (n_points, values read at that size),
    # shared with every with_override copy: a sweep reads each file once
    _samples: dict = field(default_factory=dict, repr=False, compare=False)

    def get(self, section, key):
        return self.raw[section][key]

    def with_override(self, path, value):
        """Copy with one dotted-path numeric value replaced (sweep axes)."""
        section, key = _split_path(path)
        raw = {s: dict(kv) for s, kv in self.raw.items()}
        raw[section][key] = repr(float(value))
        return RunConfig(raw=raw, base_dir=self.base_dir, sweep=self.sweep,
                         _samples=self._samples)

    # -- builders -----------------------------------------------------

    def build_model(self):
        from .grids import CIRCLE, INTERVAL, Grid1D
        from .operators import BoundaryCondition, ModelSpec
        topo = CIRCLE if self.get("model", "boundary") == PERIODIC else INTERVAL
        grid = Grid1D(length=_as_real(self.get("model", "length"),
                                      "model.length"),
                      n_points=_as_int(self.get("model", "n_points"),
                                       "model.n_points"),
                      topology=topo)
        return ModelSpec(grid=grid,
                         operator_kind=self.get("model", "operator"),
                         bc=BoundaryCondition(self.get("model", "boundary")))

    def build_operator(self):
        from .operators import assemble
        return assemble(self.build_model())

    def _build_field(self, expr, model, key, g=None):
        import numpy as np
        from .grids import CIRCLE, SpinorField
        expr = expr.strip()
        grid, rank = model.grid, model.rank
        if expr == "zero":
            return SpinorField.zero(grid, rank)
        if expr == "g":
            if g is None:
                raise ConfigParseError("'g' only allowed for f0", key=key)
            return g.copy()
        if expr.startswith("const(") and expr.endswith(")"):
            val = eval_number(expr[6:-1], key)
            vals = np.zeros((grid.n_points, rank), dtype=complex)
            vals[:, 0] = val
            return SpinorField(grid, vals)
        if expr.startswith("exp_mode(") and expr.endswith(")"):
            args = expr[9:-1].split(",")
            if len(args) not in (1, 2):
                raise ConfigParseError("exp_mode takes 1 or 2 arguments",
                                       key=key)
            k = _as_int(args[0], key)
            scale = eval_number(args[1], key) if len(args) == 2 else 1.0
            x = grid.points()
            if grid.topology == CIRCLE:
                phase = 2.0 * np.pi * k * x / grid.length
            else:
                phase = np.pi * k * x / grid.length
            vals = np.zeros((grid.n_points, rank), dtype=complex)
            vals[:, 0] = scale * np.exp(1j * phase)
            return SpinorField(grid, vals)
        if expr.startswith("sample_file(") and expr.endswith(")"):
            path = expr[12:-1].strip().strip("'\"")
            if not os.path.isabs(path):
                path = os.path.join(self.base_dir, path)
            if not os.path.exists(path):
                raise ConfigParseError("file %r does not exist" % (path,),
                                       key=key)
            vals = self._read_sample(path, grid.n_points)
            if vals.shape[1] != rank:
                raise ConfigParseError(
                    "%s has %d components, the model needs %d"
                    % (path, vals.shape[1], rank), key=key)
            bad = np.flatnonzero(~np.all(np.isfinite(vals), axis=1))
            if bad.size:
                # line numbers count the header as line 1
                raise ConfigParseError("%s line %d: non-finite value"
                                       % (path, bad[0] + 2), key=key)
            # a copy: the array read is kept for the next sweep point
            return SpinorField(grid, vals.copy())
        raise ConfigParseError("cannot parse field expression %r" % (expr,),
                               key=key)

    def _read_sample(self, path, n_points):
        """read_field_csv(path, n_points), kept per resolved path.

        The file is read again only when the size differs from the last
        read of that path, as on a model.n_points sweep axis.
        """
        resolved = os.path.realpath(path)
        size, vals = self._samples.get(resolved, (None, None))
        if size != n_points:
            vals = read_field_csv(path, n_points)
            self._samples[resolved] = (n_points, vals)
        return vals

    def build_scheme(self, model):
        from .scheme import AUTO, SchemeConfig
        g = self._build_field(self.get("scheme", "g"), model, "scheme.g")
        f0 = self._build_field(self.get("scheme", "f0"), model, "scheme.f0",
                               g=g)
        r_raw = self.get("scheme", "r").strip()
        r_val = AUTO if r_raw == "auto" else _as_real(r_raw, "scheme.R")
        return SchemeConfig(
            lam=complex(eval_number(self.get("scheme", "lambda"),
                                    "scheme.lambda")),
            p=_as_real(self.get("scheme", "p"), "scheme.p"),
            g=g, f0=f0,
            a=complex(eval_number(self.get("scheme", "a"), "scheme.a")),
            R=r_val,
            Xi=_as_real(self.get("scheme", "xi"), "scheme.xi"),
            Lambda_cap=_as_real(self.get("scheme", "lambda_cap"),
                                "scheme.lambda_cap"),
            max_iter=_as_int(self.get("scheme", "max_iter"),
                             "scheme.max_iter"),
            tol_cauchy=_as_real(self.get("scheme", "tol_cauchy"),
                                "scheme.tol_cauchy"),
            tol_residual=_as_real(self.get("scheme", "tol_residual"),
                                  "scheme.tol_residual"))

    def build_constants(self, sd, scheme_cfg):
        """AnalyticConstants from the config plus measured quantities.

        Runs estimate_constants when c1 or c_half asks for empirical or
        formula values.
        """
        from .conditions import AnalyticConstants
        from .grids import lp_norm, w1q_norm
        from .operators import apply_D
        from .spectral import estimate_constants
        n = _as_int(self.get("constants", "n"), "constants.n")
        p_a_raw = self.get("constants", "p_a")
        p_a = None if p_a_raw is None else _as_real(p_a_raw, "constants.p_A")
        provenance = {k: "assumed" for k in
                      ("c_h", "C_h", "K_GN", "K_GN2", "K_FGN")}

        c1_raw = self.get("constants", "c1").strip()
        c_half_raw = self.get("constants", "c_half").strip()
        if c1_raw == "empirical" or c_half_raw in ("empirical", "formula"):
            estimates = estimate_constants(sd, iota=self.iota)
        if c1_raw == "empirical":
            c1, provenance["c1"] = estimates.c1_emp, "computed"
        else:
            c1, provenance["c1"] = _as_real(c1_raw, "constants.c1"), "assumed"
        if c_half_raw == "empirical":
            c_half, provenance["c_half"] = estimates.c_half_emp, "computed"
        elif c_half_raw == "formula":
            c_half, provenance["c_half"] = estimates.c_half_formula, "computed"
        else:
            c_half = _as_real(c_half_raw, "constants.c_half")
            provenance["c_half"] = "assumed"

        model = sd.operator.spec
        dg = apply_D(model, scheme_cfg.g)
        for name in ("lambda1_abs", "Dg_L2", "g_L2T", "g_H1T", "lambda_abs"):
            provenance[name] = "computed"
        return AnalyticConstants(
            n=n, p=scheme_cfg.p, p_A=p_a,
            c_h=_as_real(self.get("constants", "c_h"), "constants.c_h"),
            C_h=_as_real(self.get("constants", "big_c_h"), "constants.C_h"),
            c1=c1, c_half=c_half,
            K_GN=_as_real(self.get("constants", "k_gn"), "constants.K_GN"),
            K_GN2=_as_real(self.get("constants", "k_gn2"), "constants.K_GN2"),
            K_FGN=_as_real(self.get("constants", "k_fgn"), "constants.K_FGN"),
            lambda_abs=abs(scheme_cfg.lam),
            lambda1_abs=abs(sd.lambda1),
            Dg_L2=lp_norm(dg, 2), g_L2T=lp_norm(scheme_cfg.g, 2),
            g_H1T=w1q_norm(scheme_cfg.g, 2),
            Xi=scheme_cfg.Xi, Lambda_cap=scheme_cfg.Lambda_cap,
            provenance=provenance)

    @property
    def iota(self):
        return _as_real(self.get("constants", "iota"), "constants.iota")

    @property
    def condition_mode(self):
        return self.get("constants", "mode")

    @property
    def output_dir(self):
        return self.get("run", "output_dir")

    @property
    def workers(self):
        """run.workers; accepted for compatibility, sweeps run serially."""
        return _as_int(self.get("run", "workers"), "run.workers")


def read_field_csv(path, n_points):
    """grids.read_field_csv, which loads numpy, imported at call time."""
    from . import grids
    return grids.read_field_csv(path, n_points)


def _split_path(path):
    parts = path.split(".")
    if len(parts) != 2 or parts[0] not in _SCHEMA:
        raise ConfigParseError("cannot resolve parameter path", key=path)
    section, key = parts[0], parts[1].lower()
    if key not in _SCHEMA[section]:
        raise ConfigParseError("unknown key", key=path)
    return section, key


def parse_config(text, base_dir="."):
    """Parse configuration text into a validated RunConfig."""
    # no section can be named "\n", so [DEFAULT] is an unknown section
    # like any other, not defaults merged into every section
    parser = ConfigParser(interpolation=None, default_section="\n")
    try:
        parser.read_string(text)
    except Exception as exc:
        raise ConfigParseError("invalid config syntax: %s" % exc) from exc

    raw = {sect: dict(defaults) for sect, defaults in _SCHEMA.items()}
    for sect in parser.sections():
        if sect not in _SCHEMA:
            raise ConfigParseError("unknown section", key=sect)
        for key, value in parser.items(sect):
            if key not in _SCHEMA[sect]:
                raise ConfigParseError("unknown key", key="%s.%s" % (sect, key))
            raw[sect][key] = value

    _validate_enums(raw)
    cfg = RunConfig(raw=raw, base_dir=base_dir)
    given = set(parser["sweep"]) if parser.has_section("sweep") else set()
    cfg.sweep = _parse_sweep(raw["sweep"], given)
    return cfg


def _validate_enums(raw):
    checks = [
        ("model", "operator", (SCALAR_DERIVATIVE, DIRAC_2SPINOR)),
        ("model", "boundary", (ANTIPERIODIC, PERIODIC, BAG1D)),
        ("constants", "mode", (MODE_C, MODE_B, MODE_A)),
        ("sweep", "scale", ("lin", "log")),
        ("sweep", "scale2", ("lin", "log")),
    ]
    for sect, key, allowed in checks:
        val = raw[sect][key]
        if val is not None and val not in allowed:
            raise ConfigParseError("value %r not one of %s" % (val, allowed),
                                   key="%s.%s" % (sect, key))


# most points a sweep may have: at a few ms to seconds a point, more
# would run for days, and sweep.csv is written from rows kept in memory
MAX_SWEEP_POINTS = 10 ** 5


def _parse_sweep(sweep_raw, given):
    """SweepSpec of the [sweep] keys, None when the text gives none.

    given holds the keys the text sets.  Each of them needs param, and
    those of the second axis need param2 as well, so none is ignored.
    """
    axes, points = [], 1
    for suffix in ("", "2"):
        param = sweep_raw["param" + suffix]
        if param is None:
            orphans = sorted(key for key in given if key.endswith(suffix))
            if orphans:
                raise ConfigParseError(
                    "missing, but %s given"
                    % ", ".join("sweep." + key for key in orphans),
                    key="sweep.param" + suffix)
            break
        _split_path(param)  # validates the path
        for req in ("min", "max", "count"):
            if sweep_raw[req + suffix] is None:
                raise ConfigParseError("missing for axis %r" % (param,),
                                       key="sweep.%s%s" % (req, suffix))
        count_key = "sweep.count" + suffix
        count = _as_int(sweep_raw["count" + suffix], count_key)
        if count < 2:
            raise ConfigParseError("axis count must be >= 2", key=count_key)
        points *= count
        if points > MAX_SWEEP_POINTS:
            raise ConfigParseError("the sweep would have %d points, more "
                                   "than the limit of %d"
                                   % (points, MAX_SWEEP_POINTS), key=count_key)
        lo = _as_real(sweep_raw["min" + suffix], "sweep.min" + suffix)
        hi = _as_real(sweep_raw["max" + suffix], "sweep.max" + suffix)
        scale = sweep_raw["scale" + suffix]
        _check_axis_range(lo, hi, scale, suffix)
        axes.append((param, lo, hi, count, scale))
    return SweepSpec(axes=axes) if axes else None


def _check_axis_range(lo, hi, scale, suffix):
    """Refuse endpoints that the axis's spacing cannot take to finite values."""
    if scale == "log":
        for name, val in (("min", lo), ("max", hi)):
            if val == 0.0:
                raise ConfigParseError("a log axis cannot reach 0",
                                       key="sweep.%s%s" % (name, suffix))
        if (lo < 0.0) != (hi < 0.0):
            raise ConfigParseError(
                "a log axis needs min and max of one sign, got %r and %r"
                % (lo, hi), key="sweep.min" + suffix)
    elif not math.isfinite(hi - lo):
        raise ConfigParseError("the span from %r to %r is out of "
                               "floating-point range" % (lo, hi),
                               key="sweep.max" + suffix)
