"""Sweep lambda, certify each point by the sufficient conditions, and
compare the certificate against the observed contraction.

The condition family (C1)-(C3) gives an explicit smallness threshold on
|lambda| / |lambda_1| under which the fixed-point map is a contraction.
Every certified point must converge with all observed ratios below 1;
uncertified points may still converge (the conditions are sufficient,
not necessary).
"""

import dataclasses

import numpy as np

from diracbvp import (AnalyticConstants, BoundaryCondition, Grid1D, ModelSpec,
                      SchemeConfig, SpinorField, apply_D, assemble,
                      check_conditions, decompose, lp_norm, run, w1q_norm)


def main():
    grid = Grid1D(1.0, 256)
    spec = ModelSpec(grid, BoundaryCondition("antiperiodic"))
    sd = decompose(assemble(spec))

    g = SpinorField(grid, 0.05 * np.exp(1j * np.pi * grid.points()))
    base = AnalyticConstants(n=2, c1=sd.c1_emp, c_half=sd.c_half_emp,
                             lambda1_abs=abs(sd.lambda1),
                             g_L2T=lp_norm(g, 2), g_H1T=w1q_norm(spec, g, 2),
                             Dg_L2=lp_norm(apply_D(spec, g), 2))
    thr = check_conditions(base).c3_lambda_threshold * abs(sd.lambda1)
    print("empirical c1 = %.4f, c_half = %.4f" % (sd.c1_emp, sd.c_half_emp))
    print("certified lambda threshold: %.6f (= %.5f * lambda_1)\n"
          % (thr, thr / abs(sd.lambda1)))

    print(" lambda     certified  verdict     iters  max ratio")
    for lam in np.linspace(0.0, 3.0 * thr, 11):
        cert = check_conditions(
            dataclasses.replace(base, lambda_abs=lam)).certified
        rep = run(sd, SchemeConfig(lam=lam, p=4, g=g))
        max_ratio = max(rep.ratios) if rep.ratios else 0.0
        print(" %.6f   %-9s  %-10s  %4d   %.4f"
              % (lam, cert, rep.verdict, rep.iterations, max_ratio))
        if cert:
            assert rep.verdict == "converged" and max_ratio < 1.0


if __name__ == "__main__":
    main()
