"""Solve D u = lambda |u|^{p-2} u with boundary datum g by fixed-point
iteration and verify the limit.

The datum g = beta exp(i pi x) is special: it solves the problem exactly
when lambda = pi beta^{2-p}, which gives a sharp end-to-end check of the
solver, and for small lambda the iteration is a contraction whose
H^{1/2}_D increments shrink geometrically.
"""

import numpy as np

from diracbvp import (BoundaryCondition, Grid1D, ModelSpec, SchemeConfig,
                      SpinorField, assemble, decompose, run, verify_solution)
from diracbvp.scheme import trace_rows


def main():
    grid = Grid1D(1.0, 256)
    spec = ModelSpec(grid, BoundaryCondition("antiperiodic"))
    sd = decompose(assemble(spec))

    g = SpinorField(grid, 0.1 * np.exp(1j * np.pi * grid.points()))
    cfg = SchemeConfig(lam=0.05 * np.pi, p=4, g=g)
    rep = run(sd, cfg)

    print("verdict: %s after %d effective iterations" % (rep.verdict,
                                                         rep.iterations))
    # the rows of trace.csv: ratio = delta_k / delta_{k-1}, from k = 2
    print(" k  |delta|_H12D       ratio")
    for k, delta, ratio, *_ in trace_rows(rep):
        print(" %2d  %.6e   %s" % (k, float(delta),
                                   "%.4f" % float(ratio) if ratio else ""))
    print("PDE residual      = %.3e" % rep.pde_residual)
    print("boundary residual = %.3e" % rep.boundary_residual)

    # the hand-constructed exact solution: lambda = pi beta^{2-p}
    beta = 0.1
    exact_cfg = SchemeConfig(lam=np.pi * beta ** (-2.0), p=4, g=g)
    res, bres = verify_solution(sd, exact_cfg, g)
    print("\nexact solution g = %.1f exp(i pi x) at lambda = pi/beta^2:"
          % beta)
    print("PDE residual = %.3e, boundary residual = %.3e" % (res, bres))


if __name__ == "__main__":
    main()
