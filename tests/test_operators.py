import numpy as np
import pytest

from conftest import (antiperiodic_modes, apply_D_matrix, decompose_dense,
                      dense_constraint_map, dense_eigenvectors, dense_matrix,
                      mode_field)
from diracbvp import (BoundaryCondition, Grid1D, ModelSpec, SpinorField,
                      apply_D, assemble, boundary_residual)
from diracbvp.operators import derivative_form
from diracbvp.errors import ParameterError


def hermiticity_defect(mat):
    return np.max(np.abs(mat - mat.conj().T))


# ------------------------------------------------------------- assembly

def test_periodic_spectrum_contains_zero(periodic_sd):
    vals = periodic_sd.eigenvalues
    assert np.max(np.abs(np.imag(vals))) == 0  # eigh returns reals
    assert np.min(np.abs(vals)) < 1e-12
    # spectrum of -i d/dx on a circle of length 2 pi is the integers
    ints = np.round(np.sort(vals))
    assert np.max(np.abs(np.sort(vals) - ints)) < 1e-9


def test_antiperiodic_smallest_eigenvalue(anti_sd):
    assert abs(anti_sd.lambda1) == pytest.approx(np.pi, rel=1e-12)


@pytest.mark.parametrize("kind, n_points", [
    ("antiperiodic", 8), ("antiperiodic", 9), ("antiperiodic", 64),
    ("antiperiodic", 257), ("antiperiodic", 1024),
    ("periodic", 8), ("periodic", 9), ("periodic", 64),
    ("bag1d", 8), ("bag1d", 9), ("bag1d", 64),
])
def test_assemble_matches_dense_reference(kind, n_points):
    # assemble compresses apply_D's D; check it against each model's
    # dense matrix formula
    from diracbvp.operators import _sbp_derivative
    if kind == "periodic":
        grid = Grid1D(2.0 * np.pi, n_points, "circle")
    else:
        grid = Grid1D(1.3, n_points)
    op = assemble(ModelSpec(grid, BoundaryCondition(kind)))
    if kind == "antiperiodic":
        u, mu = antiperiodic_modes(grid)
        dense = (u * mu) @ u.conj().T
    elif kind == "periodic":
        xi = 2.0 * np.pi * np.fft.fftfreq(n_points, d=grid.spacing)
        k = np.arange(n_points)
        dft = np.exp(-2j * np.pi * np.outer(k, k) / n_points) \
            / np.sqrt(n_points)  # unitary
        dense = dft.conj().T @ (xi[:, None] * dft)
    else:
        sigma1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        dsbp = _sbp_derivative(np.eye(n_points), grid.spacing)
        dfull = -1j * np.kron(dsbp, sigma1)
        vmap, w = dense_constraint_map(op), op.weights
        compressed = vmap.conj().T @ (w[:, None] * (dfull @ vmap))
        dense = 0.5 * (compressed + compressed.conj().T)
        assert np.array_equal(dense_matrix(op), dense)
        return
    assert np.linalg.norm(dense_matrix(op) - dense) \
        <= 1e-12 * np.linalg.norm(dense)


@pytest.mark.parametrize("n_points", [8, 9, 64, 257])
def test_sbp_identity(n_points):
    # W D + D^T W = e_N e_N^T - e_0 e_0^T: discrete integration by parts.
    # Interior entries cancel exactly; the corners round h/2 * 1/h
    from diracbvp.operators import _sbp_derivative
    grid = Grid1D(1.3, n_points)
    d = _sbp_derivative(np.eye(n_points), grid.spacing)
    w = np.diag(grid.weights())
    boundary = np.zeros((n_points, n_points))
    boundary[-1, -1], boundary[0, 0] = 1.0, -1.0
    assert np.max(np.abs(w @ d + d.T @ w - boundary)) \
        <= 2 * np.finfo(float).eps


def test_bag_hermiticity(bag_spec):
    matrix = dense_matrix(assemble(bag_spec))
    scale = np.max(np.abs(matrix))
    assert hermiticity_defect(matrix) <= 1e-12 * scale


def test_bag_spectrum_near_half_integers():
    spec = ModelSpec(Grid1D(1.0, 512), BoundaryCondition("bag1d"))
    from diracbvp import decompose
    sd = decompose(assemble(spec))
    assert abs(sd.lambda1) == pytest.approx(np.pi / 2, rel=1e-4)


def test_constraint_map_orthonormal(anti_sd, bag_sd, periodic_sd):
    for sd in (anti_sd, bag_sd, periodic_sd):
        op = sd.operator
        vmap = dense_constraint_map(op)
        gram = vmap.conj().T @ (op.weights[:, None] * vmap)
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-12


@pytest.mark.parametrize("kind", ["antiperiodic", "periodic", "bag1d"])
@pytest.mark.parametrize("n_points", [8, 9, 64, 257])
def test_embed_project_match_dense_constraint_map(kind, n_points):
    # the scatter / bincount maps against V and V^H W as dense products
    if kind == "periodic":
        grid = Grid1D(2.0 * np.pi, n_points, "circle")
    else:
        grid = Grid1D(1.3, n_points)
    op = assemble(ModelSpec(grid, BoundaryCondition(kind)))
    vmap, m = dense_constraint_map(op), op.spec.structure.freqs.size
    assert vmap.shape == (n_points * op.spec.rank, m)
    rng = np.random.default_rng(n_points)
    c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    dense = vmap @ c
    assert np.max(np.abs(op.embed(c).values.reshape(-1) - dense)) \
        <= 1e-15 * np.max(np.abs(dense))
    f = SpinorField(grid, rng.standard_normal((n_points, op.spec.rank))
                    + 1j * rng.standard_normal((n_points, op.spec.rank)))
    dense = vmap.conj().T @ (op.weights * f.values.reshape(-1))
    assert np.max(np.abs(op.project(f) - dense)) \
        <= 1e-15 * np.max(np.abs(dense))


def test_incompatible_specs_rejected():
    # the boundary kind fixes the grid topology (names.MODELS)
    gi = Grid1D(1.0, 64)
    gc = Grid1D(1.0, 64, "circle")
    with pytest.raises(ParameterError, match="antiperiodic bc needs a grid "
                                             "of topology 'interval'"):
        ModelSpec(gc, BoundaryCondition("antiperiodic"))
    with pytest.raises(ParameterError, match="^periodic bc needs a grid "
                                             "of topology 'circle'"):
        ModelSpec(gi, BoundaryCondition("periodic"))
    with pytest.raises(ParameterError, match="bag1d bc needs a grid "
                                             "of topology 'interval'"):
        ModelSpec(gc, BoundaryCondition("bag1d"))
    with pytest.raises(ParameterError,
                       match="unknown boundary kind 'moebius'"):
        BoundaryCondition("moebius")


def test_bag_projectors_are_rank_one_and_kill_the_kernel_directions():
    from diracbvp.operators import (BAG_P_LEFT, BAG_P_RIGHT, BAG_V_LEFT,
                                    BAG_V_RIGHT)
    for proj, v in ((BAG_P_LEFT, BAG_V_LEFT), (BAG_P_RIGHT, BAG_V_RIGHT)):
        assert hermiticity_defect(proj) == 0
        assert np.max(np.abs(proj @ proj - proj)) < 1e-15
        assert np.trace(proj).real == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(proj @ v)) < 1e-15


@pytest.mark.parametrize("n_points", [8, 9, 64, 65])
def test_bag_spectrum_closed_form_and_doubling(n_points):
    # D_P is a twisted symmetric shift on m = 2N-2 nodes: eigenvalues
    # cos(2 pi (k + theta)/m)/h, theta = 0 (N even) or 1/2 (N odd), each
    # doubled by the central-difference stencil (fermion doubling)
    from diracbvp import decompose
    grid = Grid1D(1.0, n_points)
    op = assemble(ModelSpec(grid, BoundaryCondition("bag1d")))
    m, h = 2 * n_points - 2, grid.spacing
    theta = 0.0 if n_points % 2 == 0 else 0.5
    closed = np.sort(np.cos(2.0 * np.pi * (np.arange(m) + theta) / m) / h)
    for sd in (decompose(op), decompose_dense(op)):
        vals = np.sort(sd.eigenvalues)
        assert np.max(np.abs(vals - closed)) <= 1e-12 / h
        smallest = np.min(vals[vals > 0])
        assert np.sum(np.abs(vals - smallest) <= 1e-9 / h) == 2
        assert smallest == pytest.approx(np.sin(np.pi / m) / h, rel=1e-12)


@pytest.mark.parametrize("n_points", [8, 9, 64, 65])
def test_bag_constrained_coordinates_follow_the_cycle(n_points):
    # constrained coordinate k couples only to k - 1 and k + 1 (mod m),
    # every edge of modulus 1/(2h)
    grid = Grid1D(1.0, n_points)
    matrix = dense_matrix(assemble(ModelSpec(grid,
                                             BoundaryCondition("bag1d"))))
    m = matrix.shape[0]
    k = np.arange(m)
    gap = (k[None, :] - k[:, None]) % m
    on_cycle = (gap == 1) | (gap == m - 1)
    scale = np.max(np.abs(matrix))
    assert np.max(np.abs(matrix[~on_cycle])) <= 1e-12 * scale
    edges = np.abs(matrix[(k + 1) % m, k])
    assert np.max(np.abs(edges * 2.0 * grid.spacing - 1.0)) <= 1e-12


# -------------------------------------------------------------- apply_D

def test_apply_D_constant_is_zero(anti_spec):
    f = SpinorField(anti_spec.grid, np.full(256, 2.0 - 1.0j))
    out = apply_D(anti_spec, f)
    assert np.max(np.abs(out.values)) < 1e-12


def test_apply_D_mode(anti_spec):
    f = mode_field(anti_spec.grid)
    out = apply_D(anti_spec, f)
    assert np.max(np.abs(out.values - np.pi * f.values)) < 1e-6


def test_apply_D_bag_swaps_components(bag_spec):
    x = bag_spec.grid.points()
    vals = np.column_stack([np.exp(1j * np.pi * x), np.zeros_like(x)])
    out = apply_D(bag_spec, SpinorField(bag_spec.grid, vals))
    expected = np.column_stack([np.zeros_like(x),
                                np.pi * np.exp(1j * np.pi * x)])
    # 2nd-order interior stencil; the endpoint rows are one-sided
    assert np.max(np.abs(out.values[1:-1] - expected[1:-1])) < 5e-3


@pytest.mark.parametrize("n_points", [8, 9, 64, 257, 1024])
def test_apply_D_antiperiodic_matches_dense_modes(n_points):
    # the FFT path against the dense mode-matrix product U diag(mu) U^H,
    # the reference oracle; m = N-1 takes both parities
    grid = Grid1D(1.3, n_points)
    spec = ModelSpec(grid, BoundaryCondition("antiperiodic"))
    rng = np.random.default_rng(n_points)
    v = rng.standard_normal((n_points, 1)) \
        + 1j * rng.standard_normal((n_points, 1))
    u, mu = antiperiodic_modes(grid)
    y = v[:-1] - 0.5 * (v[0] + v[-1])
    d = (u * mu) @ (u.conj().T @ y)
    dense = np.vstack([d, -d[:1]])
    out = apply_D(spec, SpinorField(grid, v)).values
    assert np.linalg.norm(out - dense) <= 1e-12 * np.linalg.norm(dense)


def test_apply_D_bag_second_order():
    # bag1d's D = -i sigma_1 d/dx with the SBP stencil: second order inside,
    # and the one-sided endpoint rows meet sin'' = 0 at x = 0 and x = 1
    errors = []
    for n_points in (128, 256, 512):
        grid = Grid1D(1.0, n_points)
        x = grid.points()
        vals = np.column_stack([np.sin(2 * np.pi * x), np.zeros_like(x)])
        out = apply_D(ModelSpec(grid, BoundaryCondition("bag1d")),
                      SpinorField(grid, vals)).values
        assert np.all(out[:, 0] == 0)
        exact = -2j * np.pi * np.cos(2 * np.pi * x)
        errors.append(np.max(np.abs(out[:, 1] - exact)))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders > 1.9), orders
    assert errors[-1] < 1e-3, errors


@pytest.mark.parametrize("kind", ["antiperiodic", "periodic", "bag1d"])
@pytest.mark.parametrize("n_points", [8, 9, 64, 257])
def test_derivative_form_is_the_dense_form(n_points, kind):
    # V^H derivative_form(V y) = (D V)^H W (D V) y, D the dense matrix of
    # apply_D: the c1 numerator; on bag1d derivative_form is D^H W D itself
    topology = "circle" if kind == "periodic" else "interval"
    spec = ModelSpec(Grid1D(1.3, n_points, topology), BoundaryCondition(kind))
    op = assemble(spec)
    vmap, dmat = dense_constraint_map(op), apply_D_matrix(spec)
    rng = np.random.default_rng(n_points)
    m = op.spec.structure.freqs.size
    y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    v = (vmap @ y).reshape(n_points, spec.rank)
    form = derivative_form(spec, v).reshape(-1)
    dv = dmat @ vmap
    dense = dv.conj().T @ (op.weights * (dv @ y))
    assert np.linalg.norm(op.adjoint(form) - dense) \
        <= 1e-12 * np.linalg.norm(dense)
    if kind == "bag1d":
        full = dmat.conj().T @ (op.weights * (dmat @ v.reshape(-1)))
        assert np.linalg.norm(form - full) <= 1e-12 * np.linalg.norm(full)


def test_apply_D_rank_mismatch(anti_spec):
    f = SpinorField(anti_spec.grid, np.ones((256, 2)))
    with pytest.raises(ParameterError,
                       match="field does not match the model spec"):
        apply_D(anti_spec, f)


def test_matrix_consistent_with_apply_D(anti_sd, bag_sd, periodic_sd):
    # matrix action on a constrained field agrees with the unconstrained
    # operator away from the endpoints, to rounding: the matrix is the
    # compression of apply_D's D
    for sd, skip in ((anti_sd, 1), (bag_sd, 2), (periodic_sd, 0)):
        op = sd.operator
        rng = np.random.default_rng(3)
        c = rng.standard_normal(sd.size) + 1j * rng.standard_normal(sd.size)
        # a smooth field: a low-eigenvalue band
        a = np.zeros(sd.size, dtype=complex)
        a[:8] = c[:8]
        c = dense_eigenvectors(sd) @ a
        f = op.embed(c)
        via_matrix = op.embed(dense_matrix(op) @ c)
        direct = apply_D(op.spec, f)
        interior = slice(skip, f.grid.n_points - skip)
        diff = np.max(np.abs(via_matrix.values[interior]
                             - direct.values[interior]))
        assert diff < 2e-13 * max(1.0, np.max(np.abs(direct.values)))


def test_self_adjointness_pairing(anti_sd, bag_sd, periodic_sd):
    for sd in (anti_sd, bag_sd, periodic_sd):
        matrix = dense_matrix(sd.operator)
        rng = np.random.default_rng(11)
        m = sd.size
        psi = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        phi = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        lhs = np.vdot(phi, matrix @ psi)
        rhs = np.vdot(matrix @ phi, psi)
        assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(psi) \
            * np.linalg.norm(phi) * np.max(np.abs(matrix))


def test_antiperiodic_gap():
    for n in (64, 128):
        spec = ModelSpec(Grid1D(1.0, n), BoundaryCondition("antiperiodic"))
        from diracbvp import decompose
        sd = decompose(assemble(spec))
        assert np.min(np.abs(sd.eigenvalues)) > np.pi / 2


# ---------------------------------------------------- boundary_residual

def test_boundary_residual_examples(anti_spec, anti_sd):
    g = mode_field(anti_spec.grid, scale=0.3)
    assert boundary_residual(anti_spec, g, g) == 0.0
    # adding a discrete kernel element keeps the residual at zero
    kern = anti_sd.operator.embed(np.ones(anti_sd.size))
    assert boundary_residual(anti_spec, g + kern, g) < 1e-12
    one = SpinorField(anti_spec.grid, np.ones(256))
    assert boundary_residual(anti_spec, g + one, g) == pytest.approx(2.0)


def test_boundary_residual_bag(bag_spec, bag_sd):
    grid = bag_spec.grid
    g = SpinorField.zero(grid, 2)
    kern = bag_sd.operator.embed(np.ones(bag_sd.size))
    assert boundary_residual(bag_spec, kern, g) < 1e-12
    bad = SpinorField(grid, np.column_stack([np.ones(grid.n_points),
                                             np.zeros(grid.n_points)]))
    assert boundary_residual(bag_spec, bad, g) > 0.1


def test_boundary_residual_refuses_a_field_of_another_model(anti_spec,
                                                            bag_spec):
    # u and g match each other, not the model: another rank, another grid
    for g in (SpinorField.zero(anti_spec.grid, 2),
              SpinorField.zero(bag_spec.grid, 1)):
        with pytest.raises(ParameterError,
                           match="fields do not match the model spec"):
            boundary_residual(anti_spec, g, g)
