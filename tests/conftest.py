import numpy as np
import pytest

from diracbvp import (BoundaryCondition, Grid1D, ModelSpec, SpinorField,
                      assemble, decompose)
from diracbvp.grids import derivative
from diracbvp.operators import _antiperiodic_freqs


@pytest.fixture(scope="session")
def anti_spec():
    grid = Grid1D(1.0, 256)
    return ModelSpec(grid, "scalar_derivative", BoundaryCondition("antiperiodic"))


@pytest.fixture(scope="session")
def anti_sd(anti_spec):
    return decompose(assemble(anti_spec))


@pytest.fixture(scope="session")
def anti_spec_128():
    grid = Grid1D(1.0, 128)
    return ModelSpec(grid, "scalar_derivative", BoundaryCondition("antiperiodic"))


@pytest.fixture(scope="session")
def anti_sd_128(anti_spec_128):
    return decompose(assemble(anti_spec_128))


@pytest.fixture(scope="session")
def bag_spec():
    grid = Grid1D(1.0, 128)
    return ModelSpec(grid, "dirac_2spinor", BoundaryCondition("bag1d"))


@pytest.fixture(scope="session")
def bag_sd(bag_spec):
    return decompose(assemble(bag_spec))


@pytest.fixture(scope="session")
def periodic_spec():
    grid = Grid1D(2.0 * np.pi, 64, "circle")
    return ModelSpec(grid, "scalar_derivative", BoundaryCondition("periodic"))


@pytest.fixture(scope="session")
def periodic_sd(periodic_spec):
    return decompose(assemble(periodic_spec))


def mode_field(grid, k=1, scale=1.0):
    """scale * exp(i k pi x / L) as a scalar field."""
    x = grid.points()
    return SpinorField(grid, scale * np.exp(1j * k * np.pi * x / grid.length))


def antiperiodic_modes(grid):
    """Unitary mode matrix U and frequencies mu of the antiperiodic model.

    Columns of U sample exp(i mu_k x)/sqrt(m) at the first m = N-1 grid
    points, in increasing mu; D = -i d/dx acts as U diag(mu) U^H there.
    Dense reference; the package applies D by FFT.
    """
    m = grid.n_points - 1
    x = grid.points()[:m]
    mu = np.fft.fftshift(_antiperiodic_freqs(grid))
    u = np.exp(1j * np.outer(x, mu)) / np.sqrt(m)
    return u, mu


def slobodeckij_form(grid, s):
    """Dense quadratic form Q with  seminorm^2 = sum_c f_c^H Q f_c.

    Q_xy encodes the double integral of |f(x)-f(y)|^2 / d(x,y)^(1+2s)
    with the diagonal excluded and arc distance on circles.  Dense
    reference for grids.slobodeckij_operator.
    """
    x = grid.points()
    w = grid.weights()
    d = np.abs(x[:, None] - x[None, :])
    if grid.topology == "circle":
        d = np.minimum(d, grid.length - d)
    np.fill_diagonal(d, 1.0)  # dummy, diagonal is zeroed below
    kern = (w[:, None] * w[None, :]) / d ** (1.0 + 2.0 * s)
    np.fill_diagonal(kern, 0.0)
    # |f(x)-f(y)|^2 expands to a quadratic form 2*(diag(rowsum) - kern)
    q = -kern
    np.fill_diagonal(q, np.sum(kern, axis=1))
    q *= 2.0
    return q


def derivative_matrix(grid):
    """Dense matrix of grids.derivative, column by column."""
    return derivative(SpinorField(grid, np.eye(grid.n_points))).values


def dense_rayleigh_maxima(sd):
    """c1_emp and c_half_emp from dense standard forms and eigvalsh.

    The denominators I + D_P^2 and I + |D_P| are U diag(d) U^H over the
    eigenvectors U, so each generalized maximum is the largest eigenvalue
    of d^{-1/2} U^H N U d^{-1/2}, N the dense numerator form.
    """
    op = sd.operator
    grid, r = op.spec.grid, op.spec.rank
    vmap, w, u = op.constraint_map, op.weights, sd.eigenvectors
    eye = np.eye(sd.size)
    g = np.kron(derivative_matrix(grid), np.eye(r)) @ vmap
    num1 = eye + g.conj().T @ (w[:, None] * g)
    q = np.kron(slobodeckij_form(grid, 0.5), np.eye(r))
    num_h = eye + vmap.conj().T @ (q @ vmap)
    maxima = []
    for num, d in ((num1, 1.0 + sd.eigenvalues ** 2),
                   (num_h, 1.0 + np.abs(sd.eigenvalues))):
        scale = 1.0 / np.sqrt(d)
        form = scale[:, None] * (u.conj().T @ num @ u) * scale
        maxima.append(np.linalg.eigvalsh(0.5 * (form + form.conj().T))[-1])
    return tuple(maxima)
