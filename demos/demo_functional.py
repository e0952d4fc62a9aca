"""Evaluate the variational functional on eigenfunctions.

F(phi) = (int |D phi|^q)^{(n+1)/n} / |int Re <D phi, phi>| with
q = 2n/(n+1) is 0-homogeneous and its value on a normalized
eigenfunction is exactly the eigenvalue modulus, so the table below
reproduces the spectrum without ever diagonalizing "by eye".
"""

from diracbvp import (BoundaryCondition, Grid1D, ModelSpec, assemble,
                      decompose, eigenfunction, variational_functional)


def main():
    spec = ModelSpec(Grid1D(1.0, 256), BoundaryCondition("antiperiodic"))
    sd = decompose(assemble(spec))

    print(" k   lambda_k      F(phi_k)      |diff|")
    for k in range(10):
        phi = eigenfunction(sd, k)
        f_val = variational_functional(sd, phi, n=2)
        lam = sd.eigenvalues[k]
        print(" %2d  % .6f   % .6f   %.2e"
              % (k, lam, f_val, abs(f_val - abs(lam))))

    phi = eigenfunction(sd, 0)
    print("\n0-homogeneity: F(phi) = %.10f, F(7 phi) = %.10f"
          % (variational_functional(sd, phi, n=2),
             variational_functional(sd, 7.0 * phi, n=2)))


if __name__ == "__main__":
    main()
