"""Run one diracbvp CLI command with each pipeline layer wrapped in a span.

    python benchmarks/trace_cli.py SPANS.json <command> --config ... --out ...

Everything after SPANS.json is passed to `diracbvp.cli.main` unchanged.  The
wrappers are installed from outside the package, so `src/` carries no
tracing code.  Modules import several layers by name (`scheme` imports
`apply_D`, `nonlinearity`, `lp_norm`; `config` imports `assemble`), so every
binding of a wrapped function in a loaded `diracbvp` module is replaced, not
only the one in its defining module.  Imports made at call time read the
defining module and get the wrapper too.  A name a later version of the
package no longer has is skipped and reports 0 calls.

SPANS.json receives `import_s` (the time of `import diracbvp.cli`), the
calls and self time of every layer, where self time is the span minus the
spans of wrapped calls made inside it, and the distinct
`(boundary, n_points)` models passed to `decompose`.
"""

import functools
import json
import sys
import time

# layer name -> (module, attribute) pairs; "Class.method" patches a class
LAYERS = {
    "operators.assemble": [("diracbvp.operators", "assemble")],
    "operators.apply_D": [("diracbvp.operators", "apply_D")],
    "spectral.decompose": [("diracbvp.spectral", "decompose")],
    "spectral.estimate_constants": [("diracbvp.spectral",
                                     "estimate_constants")],
    "spectral.graph_norm": [("diracbvp.spectral", "graph_norm")],
    "scheme.run": [("diracbvp.scheme", "run")],
    "scheme.step": [("diracbvp.scheme", "step")],
    "scheme.verify_solution": [("diracbvp.scheme", "verify_solution")],
    "grids.nonlinearity": [("diracbvp.grids", "nonlinearity")],
    "grids.norms": [("diracbvp.grids", "lp_norm"),
                    ("diracbvp.grids", "w1q_norm")],
    "conditions.check_conditions": [("diracbvp.conditions",
                                     "check_conditions")],
    "config.parse_config": [("diracbvp.config", "parse_config")],
    "config.build": [("diracbvp.config", "RunConfig.build_model"),
                     ("diracbvp.config", "RunConfig.build_scheme"),
                     ("diracbvp.config", "RunConfig.build_constants")],
}
ROOT = "cli"  # span around diracbvp.cli.main


def _model_key(op):
    spec = getattr(op, "spec", None)
    try:
        return "%s/%d" % (spec.bc.kind, spec.grid.n_points)
    except AttributeError:
        return repr(spec)


class Tracer:
    """Per-layer call counts and self times, kept in memory."""

    def __init__(self):
        self.open_child_s = []  # child time of each open span, innermost last
        self.totals = {}        # layer -> [calls, self_s]
        self.models = set()

    def wrap(self, layer, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            self.open_child_s.append(0.0)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                child = self.open_child_s.pop()
                if self.open_child_s:
                    self.open_child_s[-1] += span
                entry = self.totals.setdefault(layer, [0, 0.0])
                entry[0] += 1
                entry[1] += span - child
                if layer == "spectral.decompose" and args:
                    self.models.add(_model_key(args[0]))
        return traced

    def install(self):
        """Wrap each layer function wherever a diracbvp module binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "diracbvp" or name.startswith("diracbvp.")]
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                module = sys.modules.get(module_name)
                owner_name, _, name = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name \
                    else module
                func = vars(owner).get(name) if owner is not None else None
                if not callable(func):
                    continue
                wrapped = self.wrap(layer, func)
                if owner_name:
                    setattr(owner, name, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is func:
                            setattr(mod, key, wrapped)


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import diracbvp.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.wrap(ROOT, diracbvp.cli.main)(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "layers": tracer.totals,
                       "models": sorted(tracer.models)}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
