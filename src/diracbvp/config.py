"""Run configuration parsing for the batch front end.

The format is flat INI-style sections with strictly validated keys.
parse_config converts each value once, by its key's parser in _SCHEMA,
and refuses a malformed one there, named by its key as written.
Numeric values accept arithmetic literals over pi and e ("0.05*pi",
"1e-8", "8/3").  The datum g (and the initial iterate f0) are given by
small closed-form expressions:

    zero
    const(<value>)
    exp_mode(<k>)               # mode exp(i k pi x / L) on intervals,
    exp_mode(<k>, <scale>)      # exp(2 pi i k x / L) on circles
    sample_file(<path>)         # CSV field as written by save_field_csv
    g                           # (f0 only) start from the datum

Parsing reads only their syntax; build_fields makes the fields, and
reads a sample_file, on a model's grid, and build_constants resolves the
[constants] words empirical and formula.  On rank-2 models the scalar
expressions fill component 0.  A key's range (n_points >= 8, p >= 2,
...) is part of its parser; ranges relating two keys are checked where
the values are used, bar one: model.boundary fixes the operator
(names.MODELS), so parse_config fills in model.operator when it is
left out and refuses one that does not match.

Parsing and validation import no numpy; the builders import the array
layers when called.
"""

import ast
import cmath
import functools
import math
import os
import sys
from configparser import ConfigParser

from .errors import ConfigParseError, InvalidFieldError
from .names import (ANTIPERIODIC, CIRCLE, DIRAC_2SPINOR, MODE_A, MODE_B,
                    MODE_C, MODELS, SCALAR_DERIVATIVE)

_EVAL_NAMES = {"pi": math.pi, "e": math.e}
_BINOPS = {ast.Add: lambda a, b: a + b, ast.Sub: lambda a, b: a - b,
           ast.Mult: lambda a, b: a * b, ast.Div: lambda a, b: a / b,
           # in floating point: an integer power is exact and unbounded,
           # so 9**9**9 would run for minutes; a float one overflows at once
           ast.Pow: lambda a, b: (float(a) if isinstance(a, int) else a) ** b}


def eval_number(text, key="<value>"):
    """Evaluate a restricted arithmetic literal (pi-multiples etc.)."""
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
        val = ev(ast.parse(str(text).strip(), mode="eval"))
        # cmath.isfinite raises OverflowError on ints beyond float range
        if not cmath.isfinite(val):
            raise ConfigParseError("%r is not finite" % (text,), key=key)
        return val
    except SyntaxError as exc:
        raise ConfigParseError("not a numeric expression: %r" % (text,),
                               key=key) from exc
    except ZeroDivisionError as exc:
        raise ConfigParseError("division by zero in %r" % (text,),
                               key=key) from exc
    except OverflowError as exc:
        raise ConfigParseError("%r is out of floating-point range" % (text,),
                               key=key) from exc
    except (RecursionError, MemoryError) as exc:  # ast.parse may raise either
        raise ConfigParseError("expression nested too deeply",
                               key=key) from exc


# -- value parsers: (text, key) -> value, raising ConfigParseError(key=key)

def _real(text, key) -> float:
    val = eval_number(text, key)
    if isinstance(val, complex):
        if abs(val.imag) > 0:
            raise ConfigParseError("expected a real number, got %r" % (text,),
                                   key=key)
        val = val.real
    return float(val)


def _int(text, key) -> int:
    val = _real(text, key)
    if val != int(val):
        raise ConfigParseError("expected an integer, got %r" % (text,), key=key)
    return int(val)


def _complex(text, key) -> complex:
    return complex(eval_number(text, key))


def _word(*words):
    """Parser of one of the enumerated words."""
    def parse(text, key) -> str:
        if text not in words:
            raise ConfigParseError("value %r not one of %s" % (text, words),
                                   key=key)
        return text
    return parse


def _real_or(*words):
    """Parser of a real number or one of the words."""
    def parse(text, key) -> float | str:
        return text if text in words else _real(text, key)
    return parse


def _at_least(parse, lo, strict=False):
    """parse, refusing a number below lo (or at lo when strict); _axis
    finds parse as __wrapped__ to tell a numeric key."""
    @functools.wraps(parse)
    def checked(text, key):
        val = parse(text, key)
        if not isinstance(val, str) and (val < lo or strict and val == lo):
            raise ConfigParseError("must be %s %r, got %r" % (
                ">" if strict else ">=", lo, val), key=key)
        return val
    return checked


def _field(text, key) -> tuple:
    """Syntax of a field expression: ("zero",), ("const", value),
    ("exp_mode", k, scale) or ("sample_file", path)."""
    if text == "zero":
        return ("zero",)
    if text.startswith("const(") and text.endswith(")"):
        return ("const", eval_number(text[6:-1], key))
    if text.startswith("exp_mode(") and text.endswith(")"):
        args = text[9:-1].split(",")
        if len(args) not in (1, 2):
            raise ConfigParseError("exp_mode takes 1 or 2 arguments", key=key)
        k = _int(args[0], key)
        return ("exp_mode", k,
                eval_number(args[1], key) if len(args) == 2 else 1.0)
    if text.startswith("sample_file(") and text.endswith(")"):
        path = text[12:-1].strip().strip("'\"")
        if not path:
            raise ConfigParseError("sample_file needs a path", key=key)
        return ("sample_file", path)
    if text == "g":
        raise ConfigParseError("'g' only allowed for f0", key=key)
    raise ConfigParseError("cannot parse field expression %r" % (text,),
                           key=key)


def _start(text, key) -> tuple:
    """_field, or ("g",): start from the datum."""
    return ("g",) if text == "g" else _field(text, key)


def _split_path(path):
    section, _, key = path.partition(".")
    return section, key.lower()


def _axis(text, key) -> str:
    """A sweep axis: the dotted path of a numeric key, kept as written."""
    section, name = _split_path(text)
    parse = _SCHEMA.get(section, {}).get(name, (None,))[0]
    if section not in ("model", "scheme", "constants") \
            or getattr(parse, "__wrapped__", parse) not in _NUMERIC:
        raise ConfigParseError("%r is not a numeric key of [model], [scheme] "
                               "or [constants]" % (text,), key=key)
    return text


_C1 = _real_or("empirical")
_C_HALF = _real_or("empirical", "formula")
_NUMERIC = (_real, _int, _complex, _C1, _C_HALF)
_POS = _at_least(_real, 0, strict=True)

# the keys of a sweep axis, in the order of its tuple in RunConfig.sweep
_AXIS_KEYS = {"param": (_axis, None), "min": (_real, None),
              "max": (_real, None), "count": (_int, None),
              "scale": (_word("lin", "log"), "lin")}
# section -> key -> (parser, default); a default of None marks an optional
# key with no value (parse_config fills in model.operator from the
# boundary)
_SCHEMA = {
    "model": {"operator": (_word(SCALAR_DERIVATIVE, DIRAC_2SPINOR), None),
              "boundary": (_word(*MODELS), ANTIPERIODIC),
              "length": (_POS, 1.0), "n_points": (_at_least(_int, 8), 256)},
    "scheme": {"lambda": (_complex, 0j), "p": (_at_least(_real, 2), 4.0),
               "g": (_field, ("zero",)), "f0": (_start, ("g",)),
               "a": (_complex, 0j), "xi": (_POS, 1.0),
               "lambda_cap": (_POS, 1.0),
               "max_iter": (_at_least(_int, 1), 200),
               "tol_cauchy": (_POS, 1e-10), "tol_residual": (_POS, 1e-8)},
    "constants": {"n": (_at_least(_int, 2), 2), "p_a": (_real, None),
                  "c_h": (_POS, 1.0), "big_c_h": (_POS, 1.0),
                  "iota": (_real, 1.0), "k_gn": (_POS, 1.0),
                  "k_gn2": (_POS, 1.0), "k_fgn": (_POS, 1.0),
                  "c1": (_at_least(_C1, 0, True), "empirical"),
                  "c_half": (_at_least(_C_HALF, 0, True), "empirical"),
                  "mode": (_word(MODE_C, MODE_B, MODE_A), MODE_C)},
    "sweep": {key + suffix: entry for suffix in ("", "2")
              for key, entry in _AXIS_KEYS.items()},
    "bootstrap": {"n": (_at_least(_int, 3), 4),
                  "p": (_at_least(_real, 2, True), 8 / 3),
                  "l0": (_POS, 4.0)},
    "functional": {"m": (_at_least(_int, 1), 10)},
}


class RunConfig:
    """values: section -> key -> value, as its _SCHEMA parser returns it;
    sweep: the axes (param, min, max, count, scale), or None."""

    def __init__(self, values, base_dir=".", sweep=None):
        self.values, self.base_dir, self.sweep = values, base_dir, sweep

    def with_override(self, path, value):
        """Copy with value, run through its key's parser, at path (a
        sweep axis): a non-integer on an integer axis, or a value out of
        the key's range, is refused."""
        section, key = _split_path(path)
        values = {s: dict(kv) for s, kv in self.values.items()}
        values[section][key] = _SCHEMA[section][key][0](repr(float(value)),
                                                        path)
        return RunConfig(values, self.base_dir, self.sweep)

    # -- builders -----------------------------------------------------

    def build_model(self):
        """ModelSpec of [model]; MemoryError, which the CLI reports with
        model.n_points, when one complex sample per point would not fit
        an array: numpy refuses that with a ValueError."""
        from .grids import Grid1D
        from .operators import BoundaryCondition, ModelSpec
        model = self.values["model"]
        if 16 * model["n_points"] > sys.maxsize:
            raise MemoryError("one complex sample per point needs %d bytes, "
                              "more than an array can hold (%d)"
                              % (16 * model["n_points"], sys.maxsize))
        grid = Grid1D(length=model["length"], n_points=model["n_points"],
                      topology=MODELS[model["boundary"]][1])
        return ModelSpec(grid=grid, bc=BoundaryCondition(model["boundary"]))

    def build_fields(self, model):
        """(g, f0): the fields of scheme.g and scheme.f0 on model's grid."""
        scheme = self.values["scheme"]
        g = self._build_field(scheme["g"], model, "scheme.g")
        return g, self._build_field(scheme["f0"], model, "scheme.f0", g=g)

    def _build_field(self, expr, model, key, g=None):
        """The field of a parsed expression (see _field) on model's grid;
        ("g",) is the datum g itself."""
        import numpy as np
        from . import grids
        kind, *args = expr
        grid, rank = model.grid, model.rank
        if kind == "g":
            return g
        if kind == "sample_file":
            path = os.path.join(self.base_dir, args[0])  # unless absolute
            if not os.path.exists(path):
                raise ConfigParseError("file %r does not exist" % (path,),
                                       key=key)
            try:
                vals = grids.read_field_csv(path, grid.n_points)
            except InvalidFieldError as exc:
                raise ConfigParseError(str(exc), key=key) from exc
            except OSError as exc:
                raise ConfigParseError("%s: %s" % (path, exc.strerror or exc),
                                       key=key) from exc
            if vals.shape[1] != rank:
                raise ConfigParseError(
                    "%s has %d components, the model needs %d"
                    % (path, vals.shape[1], rank), key=key)
            return grids.SpinorField(grid, vals)
        vals = np.zeros((grid.n_points, rank), dtype=complex)
        if kind == "const":
            vals[:, 0] = args[0]
        elif kind == "exp_mode":
            k, scale = args
            x = grid.points()
            with np.errstate(over="ignore", invalid="ignore"):
                if grid.topology == CIRCLE:
                    phase = 2.0 * np.pi * k * x / grid.length
                else:
                    phase = np.pi * k * x / grid.length
                vals[:, 0] = scale * np.exp(1j * phase)
            if not np.all(np.isfinite(vals)):
                raise ConfigParseError(
                    "exp_mode's phase or values are out of floating-point "
                    "range at model.length = %r" % grid.length, key=key)
        return grids.SpinorField(grid, vals)

    def build_scheme(self, g, f0):
        """SchemeConfig of the [scheme] values with datum g and start f0."""
        from .scheme import SchemeConfig
        scheme = self.values["scheme"]
        return SchemeConfig(
            lam=scheme["lambda"], p=scheme["p"], g=g, f0=f0,
            a=scheme["a"], Xi=scheme["xi"],
            Lambda_cap=scheme["lambda_cap"], max_iter=scheme["max_iter"],
            tol_cauchy=scheme["tol_cauchy"],
            tol_residual=scheme["tol_residual"])

    def build_constants(self, sd, g):
        """AnalyticConstants from the config plus measured quantities.

        c1 is a number or sd.c1_emp; then c_half is a number,
        sd.c_half_emp or formula, 2 c1 c_h^2 iota^2 with that c1.  Each
        of sd's constants is read, and so computed, only for a key set to
        empirical.  D g is applied once, and g and D g are each measured
        once, under the np.errstate of scheme.run: g_L2T and Dg_L2, and
        g_H1T = grids.w1q of the two; a D g past the floats is an
        InvalidFieldError naming scheme.g.
        """
        import numpy as np
        from .conditions import AnalyticConstants
        from .grids import lp_norm, w1q
        from .operators import apply_D
        consts, scheme = self.values["constants"], self.values["scheme"]
        c1, c_half = consts["c1"], consts["c_half"]
        provenance = {k: "assumed" for k in
                      ("c_h", "C_h", "K_GN", "K_GN2", "K_FGN", "c1", "c_half")}
        if c1 == "empirical":
            c1, provenance["c1"] = sd.c1_emp, "computed"
        if c_half == "empirical":
            c_half = sd.c_half_emp
        elif c_half == "formula":
            c_h, iota = consts["c_h"], consts["iota"]
            c_half = 2.0 * c1 * (c_h * c_h) * (iota * iota)
        if isinstance(consts["c_half"], str):  # empirical or formula
            provenance["c_half"] = "computed"

        with np.errstate(over="ignore", invalid="ignore"):
            try:
                dg = apply_D(sd.operator.spec, g)
            except InvalidFieldError as exc:
                raise InvalidFieldError("scheme.g: D g is out of "
                                        "floating-point range") from exc
            g_l2, dg_l2 = lp_norm(g, 2), lp_norm(dg, 2)
        for name in ("lambda1_abs", "Dg_L2", "g_L2T", "g_H1T", "lambda_abs"):
            provenance[name] = "computed"
        return AnalyticConstants(
            n=consts["n"], p=scheme["p"], p_A=consts["p_a"],
            c_h=consts["c_h"], C_h=consts["big_c_h"], c1=c1, c_half=c_half,
            K_GN=consts["k_gn"], K_GN2=consts["k_gn2"],
            K_FGN=consts["k_fgn"],
            lambda_abs=abs(scheme["lambda"]),
            lambda1_abs=abs(sd.lambda1), Dg_L2=dg_l2, g_L2T=g_l2,
            g_H1T=w1q(g_l2, dg_l2, 2),
            Xi=scheme["xi"], Lambda_cap=scheme["lambda_cap"],
            provenance=provenance)


def parse_config(text, base_dir="."):
    """Parse configuration text into a RunConfig of checked, typed values."""
    # no section can be named "\n", so [DEFAULT] is an unknown section
    # like any other, not defaults merged into every section
    parser = ConfigParser(interpolation=None, default_section="\n")
    try:
        parser.read_string(text)
    except Exception as exc:
        raise ConfigParseError("invalid config syntax: %s" % exc) from exc

    values = {sect: {key: default for key, (_, default) in keys.items()}
              for sect, keys in _SCHEMA.items()}
    for sect in parser.sections():
        if sect not in _SCHEMA:
            raise ConfigParseError("unknown section", key=sect)
        for key, value in parser.items(sect):
            if key not in _SCHEMA[sect]:
                raise ConfigParseError("unknown key", key="%s.%s" % (sect, key))
            values[sect][key] = _SCHEMA[sect][key][0](value,
                                                      "%s.%s" % (sect, key))

    model = values["model"]
    operator = MODELS[model["boundary"]][0]  # the boundary fixes it
    if model["operator"] not in (None, operator):
        raise ConfigParseError("%r does not match boundary %r, which needs %r"
                               % (model["operator"], model["boundary"],
                                  operator), key="model.operator")
    model["operator"] = operator
    given = set(parser["sweep"]) if parser.has_section("sweep") else set()
    return RunConfig(values=values, base_dir=base_dir,
                     sweep=_parse_sweep(values["sweep"], given))


# most points a sweep may have: at a few ms to seconds a point, more
# would run for days, and sweep.csv is written from rows kept in memory
MAX_SWEEP_POINTS = 10 ** 5


def _parse_sweep(sweep, given):
    """RunConfig.sweep of the [sweep] values; None when the text gives none.

    given holds the keys the text sets.  Each of them needs param, and
    those of the second axis need param2 as well, so none is ignored.
    """
    axes, points = [], 1
    for suffix in ("", "2"):
        param, lo, hi, count, scale = (sweep[key + suffix]
                                       for key in _AXIS_KEYS)
        if param is None:
            orphans = sorted(key for key in given if key.endswith(suffix))
            if orphans:
                raise ConfigParseError(
                    "missing, but %s given"
                    % ", ".join("sweep." + key for key in orphans),
                    key="sweep.param" + suffix)
            break
        for req in ("min", "max", "count"):
            if sweep[req + suffix] is None:
                raise ConfigParseError("missing for axis %r" % (param,),
                                       key="sweep.%s%s" % (req, suffix))
        count_key = "sweep.count" + suffix
        if count < 2:
            raise ConfigParseError("axis count must be >= 2", key=count_key)
        points *= count
        if points > MAX_SWEEP_POINTS:
            raise ConfigParseError("the sweep would have %d points, more "
                                   "than the limit of %d"
                                   % (points, MAX_SWEEP_POINTS), key=count_key)
        _check_axis_range(lo, hi, scale, suffix)
        axes.append((param, lo, hi, count, scale))
    return axes or None


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


def sweep_points(axes):
    """Cartesian product of the values of axes (RunConfig.sweep), row-major."""
    import itertools
    import numpy as np
    return list(itertools.product(*(
        (np.geomspace if scale == "log" else np.linspace)(lo, hi, count)
        for _, lo, hi, count, scale in axes)))
