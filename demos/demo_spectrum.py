"""Assemble the three model operators and print their low spectra.

The antiperiodic scalar model on [0, 1] has eigenvalues (2k+1) pi, the
2-spinor interval model with bag-type endpoint projectors has
(2k+1) pi / 2, and the periodic circle model has the integer multiples
of 2 pi / L including a zero mode (so it is not invertible).
"""

import numpy as np

from diracbvp import BoundaryCondition, Grid1D, ModelSpec, assemble, decompose


def show(title, spec, n_eigs=6):
    sd = decompose(assemble(spec))
    print("== %s ==" % title)
    print("  smallest eigenvalues:",
          np.array2string(sd.eigenvalues[:n_eigs], precision=6))
    print("  lambda_1 = %.6f   invertible = %s" % (sd.lambda1, sd.invertible))
    if sd.invertible:  # each computed by estimate_constants when first read
        print("  empirical constants: c1 = %.4f, c_half = %.4f"
              % (sd.c1_emp, sd.c_half_emp))
    print()
    return sd


def main():
    show("antiperiodic scalar, [0,1], N=256",
         ModelSpec(Grid1D(1.0, 256), BoundaryCondition("antiperiodic")))
    show("bag-type 2-spinor, [0,1], N=256",
         ModelSpec(Grid1D(1.0, 256), BoundaryCondition("bag1d")))
    show("periodic scalar, circle of length 2 pi, N=64",
         ModelSpec(Grid1D(2.0 * np.pi, 64, "circle"),
                   BoundaryCondition("periodic")))


if __name__ == "__main__":
    main()
