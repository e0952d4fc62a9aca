from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import pytest

from diracbvp import (BoundaryCondition, Grid1D, ModelSpec, SpinorField,
                      apply_D, assemble, decompose, nonlinearity, spectral,
                      step)
from diracbvp.errors import NumericalError, ParameterError
from diracbvp.operators import (BAG_P_LEFT, BAG_P_RIGHT, _antiperiodic_freqs,
                                _apply_D_values)
from diracbvp.spectral import _order_spectrum, shifted_spectrum


@pytest.fixture(scope="session")
def anti_spec():
    grid = Grid1D(1.0, 256)
    return ModelSpec(grid, BoundaryCondition("antiperiodic"))


@pytest.fixture(scope="session")
def anti_sd(anti_spec):
    return decompose(assemble(anti_spec))


@pytest.fixture(scope="session")
def anti_spec_128():
    grid = Grid1D(1.0, 128)
    return ModelSpec(grid, BoundaryCondition("antiperiodic"))


@pytest.fixture(scope="session")
def anti_sd_128(anti_spec_128):
    return decompose(assemble(anti_spec_128))


@pytest.fixture(scope="session")
def bag_spec():
    grid = Grid1D(1.0, 128)
    return ModelSpec(grid, BoundaryCondition("bag1d"))


@pytest.fixture(scope="session")
def bag_sd(bag_spec):
    return decompose(assemble(bag_spec))


@pytest.fixture(scope="session")
def periodic_spec():
    grid = Grid1D(2.0 * np.pi, 64, "circle")
    return ModelSpec(grid, BoundaryCondition("periodic"))


@pytest.fixture(scope="session")
def periodic_sd(periodic_spec):
    return decompose(assemble(periodic_spec))


def mode_field(grid, k=1, scale=1.0):
    """scale * exp(i k pi x / L) as a scalar field."""
    x = grid.points()
    return SpinorField(grid, scale * np.exp(1j * k * np.pi * x / grid.length))


def step_field(sd, cfg, u_k):
    """u_{k+1} = from_coeffs(c_{k+1}) + g, with c_{k+1} = scheme.step on
    the operands N(u_k), D g and lambda_j - a that run would give it."""
    c_next = step(sd, cfg, u_k, nonlinearity(u_k, cfg.p),
                  apply_D(sd.operator.spec, cfg.g),
                  shifted_spectrum(sd, cfg.a))
    return sd.from_coeffs(c_next) + cfg.g


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


def apply_D_matrix(spec):
    """Dense matrix of apply_D on flattened fields, column by column."""
    size = spec.grid.n_points * spec.rank
    cols = [apply_D(spec, SpinorField(spec.grid, e.reshape(-1, spec.rank)))
            .values.reshape(-1) for e in np.eye(size)]
    return np.array(cols).T


def random_constrained_field(sd, rng):
    """Random field in the discrete constraint space (unit coefficient scale)."""
    m = sd.size
    c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return sd.operator.embed(c / np.sqrt(2 * m))


def dense_constraint_map(op):
    """The dense N*rank x m constraint map V of an AssembledOperator."""
    cols, vals = op.spec.structure.cols, op.spec.structure.vals
    vmap = np.zeros((cols.size, op.n_constrained), dtype=complex)
    vmap[np.arange(cols.size), cols] = vals
    return vmap


def _check_hermitian(matrix):
    defect = np.max(np.abs(matrix - matrix.conj().T))
    scale = max(np.max(np.abs(matrix)), 1e-300)
    if defect > 1e-12 * scale:
        raise ParameterError(
            "matrix is not Hermitian (defect %.3e)" % defect)
    return matrix


def _compress(op):
    """D_P = sym(V^H W D V): D from _apply_D_values on the columns of V."""
    spec, vmap = op.spec, dense_constraint_map(op)
    n, r = spec.grid.n_points, spec.rank
    # V's rows are point-major, so (N, rank, columns) is a reshape
    dv = _apply_D_values(spec, vmap.reshape(n, r, -1)).reshape(vmap.shape)
    dv *= op.weights[:, None]
    matrix = vmap.conj().T @ dv
    del dv
    # sym in place: one temporary fewer at the memory peak
    matrix += matrix.conj().T
    matrix *= 0.5
    return matrix


def dense_matrix(op):
    """The dense matrix D_P, checked for Hermiticity."""
    return _check_hermitian(_compress(op))


def dense_eigenvectors(sd):
    """The dense eigenvector matrix of a SpectralData, built by FFT."""
    vecs = np.zeros((sd.size, sd.size), dtype=complex)
    vecs[sd.order, np.arange(sd.size)] = 1.0
    vecs = np.fft.ifft(vecs, axis=0, norm="ortho")
    vecs *= sd.operator.spec.structure.phase[:, None]
    return vecs


@dataclass
class DenseSpectralData:
    """decompose_dense's result: stored eigenvectors, dense products.

    Stands in for spectral.SpectralData in the functional calculus and
    estimate_constants, which read only these fields and methods.
    """
    operator: object
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)
    lambda1: float
    invertible: bool

    @property
    def size(self):
        return self.eigenvalues.size

    @cached_property
    def c1_emp(self):
        return spectral._rayleigh_max(self, 1.0)

    @cached_property
    def c_half_emp(self):
        return spectral._rayleigh_max(self, 0.5)

    def to_coeffs(self, f):
        return self._analyze(self.operator.project(f))

    def from_coeffs(self, coeff):
        return self.operator.embed(self._synthesize(coeff))

    def _analyze(self, y):
        return self.eigenvectors.conj().T @ y

    def _synthesize(self, coeff):
        return self.eigenvectors @ coeff


def decompose_dense(op):
    """Dense Hermitian eigendecomposition of D_P, by modulus.

    O(m^3): the reference spectral.decompose is tested against.  Raises
    NumericalError when an eigenpair residual exceeds
    1e-9 * max(max |lambda|, 1).
    """
    matrix = dense_matrix(op)
    try:
        vals, vecs = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigendecomposition failed: %s" % exc) from exc
    order, lambda1, invertible = _order_spectrum(vals)
    vals, vecs = vals[order], vecs[:, order]

    scale = max(np.max(np.abs(vals)), 1.0)
    resid = np.max(np.abs(matrix @ vecs - vecs * vals))
    if resid > 1e-9 * scale:
        raise NumericalError("eigenpair residual %.3e too large" % resid)
    return DenseSpectralData(operator=op, eigenvalues=vals, eigenvectors=vecs,
                             lambda1=lambda1, invertible=invertible)


def dense_rayleigh_maxima(sd):
    """c1_emp and c_half_emp from dense standard forms and eigvalsh.

    The c1 numerator is I + (D V)^H W (D V), D the dense matrix of
    apply_D; the c_half one I + V^H Q V, Q the dense Slobodeckij form.
    The denominators I + D_P^2 and I + |D_P| are U diag(d) U^H over the
    eigenvectors U, so each generalized maximum is the largest eigenvalue
    of d^{-1/2} U^H N U d^{-1/2}, N the dense numerator form.
    """
    op = sd.operator
    grid, r = op.spec.grid, op.spec.rank
    vmap, w, u = dense_constraint_map(op), op.weights, dense_eigenvectors(sd)
    eye = np.eye(sd.size)
    g = apply_D_matrix(op.spec) @ vmap
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


def closed_form_solution(spec, g, lam, p):
    """Nodal values of the exact solution of D u = lam |u|^{p-2} u, P u = P g.

    For the antiperiodic and bag1d models.  |u| is constant along a
    solution, since d|u|^2/dx = 2 Re(u^H u') = 2 lam |u|^{p-2} Re(i u^H S u)
    vanishes with S = 1 (antiperiodic) or sigma_1 (bag1d).  So
    u = exp(i omega S x) a with omega = lam |a|^{p-2}, and for each omega
    the boundary condition is linear in a: a (1 + e^{i omega L}) =
    g(0) + g(L), or w^H u = w^H g at each end, w spanning the range of
    that end's rank-1 projector (a 2 x 2 solve).  |a| is the fixed point
    of r -> |a(lam r^{p-2})|, found by iteration from |g(0)|; it involves
    no grid but the samples of g at the two ends.
    """
    grid = spec.grid
    g0, g_end = g.values[0], g.values[-1]
    bag = spec.bc.kind == "bag1d"
    # the unit vectors spanning the ranges of the two bag projectors
    w_left, w_right = (np.linalg.eigh(proj)[1][:, -1].conj()
                       for proj in (BAG_P_LEFT, BAG_P_RIGHT))

    def coefficient(omega):
        turn = omega * grid.length
        if not bag:
            return (g0 + g_end) / (1.0 + np.exp(1j * turn))
        # w^H exp(i omega sigma_1 L) = cos w^H + i sin (w^H sigma_1)
        rows = [w_left, np.cos(turn) * w_right
                + 1j * np.sin(turn) * w_right[::-1]]
        return np.linalg.solve(rows, [w_left @ g0, w_right @ g_end])

    r = np.linalg.norm(g0)
    for _ in range(200):
        r_prev, r = r, np.linalg.norm(coefficient(lam * r ** (p - 2)))
        if abs(r - r_prev) <= 1e-15 * r:
            break
    else:
        raise AssertionError("the fixed point in |a| did not converge")
    omega = lam * r_prev ** (p - 2)
    a = coefficient(omega)
    x = grid.points()[:, None]
    return np.cos(omega * x) * a \
        + 1j * np.sin(omega * x) * (a[::-1] if bag else a)
