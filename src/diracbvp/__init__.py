"""Spectral solver and verification suite for nonlinear Dirac-type
boundary value problems  D u = lambda |u|^{p-2} u,  P u = P g  on 1D
model operators."""

from .conditions import (AnalyticConstants, BootstrapTrace, ConditionReport,
                         bootstrap_exponents, c3_lambda_threshold,
                         check_conditions, derive_exponents, el_transform,
                         estimate_gn_ratio, variational_functional)
from .grids import (Grid1D, SpinorField, load_field_csv, lp_norm,
                    nonlinearity, save_field_csv, slobodeckij_norm, w1q_norm)
from .operators import (AssembledOperator, BoundaryCondition, ModelSpec,
                        apply_D, assemble, boundary_residual)
from .scheme import (IterationReport, IterationState, SchemeConfig, run,
                     scale_problem, step, verify_solution)
from .spectral import (SpectralData, apply_fractional, apply_inverse,
                       apply_operator, decompose, eigenfunction,
                       estimate_constants, graph_norm, split_pm)

__version__ = "0.1.0"
