"""Spectral solver and verification suite for nonlinear Dirac-type
boundary value problems  D u = lambda |u|^{p-2} u,  P u = P g  on 1D
model operators.

The public names are imported from their modules on first access
(PEP 562), so `import diracbvp` alone loads no numpy.
"""

import importlib

# submodule -> the public names it defines
_EXPORTS = {
    "bootstrap": "BootstrapTrace bootstrap_exponents",
    "conditions": "AnalyticConstants ConditionReport check_conditions "
                  "derive_exponents el_transform estimate_gn_ratio "
                  "variational_functional",
    "grids": "Grid1D SpinorField load_field_csv lp_norm nonlinearity "
             "save_field_csv slobodeckij_norm",
    "operators": "AssembledOperator BoundaryCondition ModelSpec apply_D "
                 "assemble boundary_residual w1q_norm",
    "scheme": "IterationReport IterationState SchemeConfig run scale_problem "
              "step verify_solution",
    "spectral": "SpectralData apply_fractional apply_inverse apply_operator "
                "decompose eigenfunction estimate_constants graph_norm "
                "split_pm",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}
__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError("module 'diracbvp' has no attribute %r" % (name,))
    return getattr(importlib.import_module("." + _HOME[name], __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
