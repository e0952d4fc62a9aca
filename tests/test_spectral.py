import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (_order_spectrum, decompose_dense, dense_eigenvectors,
                      dense_matrix, dense_rayleigh_maxima, mode_field,
                      random_constrained_field)
from diracbvp import (BoundaryCondition, Grid1D, ModelSpec, SchemeConfig,
                      SpectralData, SpinorField, apply_fractional,
                      apply_inverse, apply_operator, assemble, decompose,
                      eigenfunction, estimate_constants, graph_norm, lp_norm,
                      run, slobodeckij_norm, split_pm, step)
from diracbvp.cli import run_command
from diracbvp.config import parse_config
from diracbvp.errors import DiracBVPError, NumericalError, ParameterError
from diracbvp.spectral import (_above_spectrum, _bisect_top,
                               _fixed_unit_vector, _lanczos_max,
                               _last_component, shifted_spectrum)


# ------------------------------------------------------------ decompose

def test_decompose_antiperiodic_moduli(anti_sd):
    moduli = np.abs(anti_sd.eigenvalues[:6])
    expected = np.pi * np.array([1, 1, 3, 3, 5, 5])
    assert np.max(np.abs(moduli - expected) / expected) < 1e-6
    assert anti_sd.invertible


def test_decompose_periodic_flags_zero_mode(periodic_sd):
    assert not periodic_sd.invertible
    assert abs(periodic_sd.lambda1) < 1e-12


def test_decompose_diag():
    vals = np.array([-1.0, 2.0])
    order, lambda1, invertible = _order_spectrum(vals)
    assert lambda1 == -1.0 and invertible
    assert list(vals[order]) == [-1.0, 2.0]


def test_positive_tie_break():
    assert _order_spectrum(np.array([-1.0, 1.0, 2.0]))[1] == 1.0


def test_fourier_spectrum_ties_are_exact():
    # decompose reads lambda1 off eigenvalues[0], positive first on an
    # exact tie, with no near-tie search: so eigenvalues whose moduli
    # agree to 1e-9 must agree to the last bit, on every model, size and
    # length (a dense eigh spectrum does not: its +- pairs differ)
    for kind, n_points, length in itertools.product(
            ("antiperiodic", "periodic", "bag1d"),
            (8, 9, 32, 63, 256, 1001, 4097), (1e-6, 1e-3, 1.0, 1e3, 1e6)):
        grid = Grid1D(length, n_points,
                      "circle" if kind == "periodic" else "interval")
        sd = decompose(assemble(ModelSpec(grid, BoundaryCondition(kind))))
        moduli = np.abs(sd.eigenvalues)  # sorted: adjacent pairs suffice
        near = np.abs(np.diff(moduli)) <= 1e-9 * moduli[1:]
        assert np.array_equal(moduli[1:][near], moduli[:-1][near]), \
            (kind, n_points, length)
        if kind == "periodic":
            assert sd.lambda1 == 0.0 and not sd.invertible
        else:
            assert sd.lambda1 > 0.0 and sd.invertible
        try:
            shifted_spectrum(sd, 0.0)
            singular = False
        except ParameterError:
            singular = True
        assert sd.invertible is not singular


def test_spectral_data_holds_only_what_decompose_computes(anti_sd):
    # lambda1 and invertible are read off the spectrum, not stored
    assert [f.name for f in dataclasses.fields(SpectralData)] \
        == ["operator", "eigenvalues", "order"]
    assert anti_sd.lambda1 == float(anti_sd.eigenvalues[0])
    with pytest.raises(AttributeError):
        anti_sd.lambda1 = 1.0


def test_a_field_off_the_model_is_refused():
    # graph_norm used to apply the model's weights to another grid's
    # samples (2.035), and 65 points or rank 2 ended in a numpy
    # broadcasting ValueError: project, the one gate from fields to
    # coefficients, refuses each as apply_D does
    sd = decompose(assemble(ModelSpec(Grid1D(1.0, 64),
                                      BoundaryCondition("antiperiodic"))))
    shifted = shifted_spectrum(sd, 0.0)
    calls = [lambda f: graph_norm(sd, 0.5, f),
             lambda f: apply_operator(sd, f),
             lambda f: apply_inverse(sd, f),
             lambda f: apply_fractional(sd, 0.5, f),
             lambda f: split_pm(sd, f),
             lambda f: step(sd, f, shifted)]
    fields = [SpinorField.zero(Grid1D(2.0, 64)),
              SpinorField.zero(Grid1D(1.0, 65)),
              SpinorField.zero(Grid1D(1.0, 64), rank=2)]
    for call, f in itertools.product(calls, fields):
        with pytest.raises(ParameterError,
                           match="^field does not match the model spec$"):
            call(f)


@pytest.mark.parametrize("k", [-1, 63, 1.0, "0", None, np.int64(-3)])
def test_eigenfunction_refuses_an_index_off_the_spectrum(k):
    # N = 64 has 63 eigenvalues: -1 used to give the top mode and 63 a
    # bare IndexError
    sd = decompose(assemble(ModelSpec(Grid1D(1.0, 64),
                                      BoundaryCondition("antiperiodic"))))
    with pytest.raises(ParameterError, match=r"integer in 0\.\.62, got "):
        eigenfunction(sd, k)
    assert lp_norm(eigenfunction(sd, np.int64(62)), 2) \
        == pytest.approx(1.0, rel=1e-12)


def test_eigenvector_gram(anti_sd, bag_sd):
    for sd in (anti_sd, bag_sd):
        vecs = dense_eigenvectors(sd)
        gram = vecs.conj().T @ vecs
        assert np.max(np.abs(gram - np.eye(sd.size))) < 1e-10


def test_reconstruction(anti_sd):
    rng = np.random.default_rng(0)
    f = random_constrained_field(anti_sd, rng)
    vecs = dense_eigenvectors(anti_sd)
    a = vecs.conj().T @ anti_sd.operator.project(f)
    back = anti_sd.operator.embed(vecs @ a)
    assert lp_norm(back - f, 2) < 1e-10 * lp_norm(f, 2)


MODELS = ["anti_sd", "periodic_sd", "bag_sd"]


@pytest.mark.parametrize("model", MODELS)
def test_coeff_roundtrip(model, request):
    sd = request.getfixturevalue(model)
    f = random_constrained_field(sd, np.random.default_rng(0))
    back = sd.from_coeffs(sd.to_coeffs(f))
    assert lp_norm(back - f, 2) < 1e-10 * lp_norm(f, 2)


@pytest.mark.parametrize("model", MODELS)
def test_apply_operator_matches_dense_matrix(model, request):
    # the dense reference every structured backend must reproduce
    sd = request.getfixturevalue(model)
    op = sd.operator
    f = random_constrained_field(sd, np.random.default_rng(3))
    ref = op.embed(dense_matrix(op) @ op.project(f))
    assert lp_norm(apply_operator(sd, f) - ref, 2) < 1e-10 * lp_norm(ref, 2)


def model_op(kind, n_points):
    if kind == "periodic":
        grid = Grid1D(2.0 * np.pi, n_points, "circle")
    else:
        grid = Grid1D(1.3, n_points)
    return assemble(ModelSpec(grid, BoundaryCondition(kind)))


def assert_backends_agree(fast, dense, seed):
    """Eigenvalues and every eigenspace-only operation, fast vs dense."""
    assert isinstance(fast, SpectralData)
    scale = np.max(np.abs(dense.eigenvalues))
    # equal moduli may come in either order from eigh
    assert np.max(np.abs(np.sort(fast.eigenvalues)
                         - np.sort(dense.eigenvalues))) <= 1e-12 * scale
    assert fast.invertible == dense.invertible
    assert abs(fast.lambda1 - dense.lambda1) <= 1e-12 * scale

    f = random_constrained_field(dense, np.random.default_rng(seed))

    def close(a, b):
        return lp_norm(a - b, 2) <= 1e-10 * lp_norm(b, 2)

    a = 0.0 if fast.invertible else 0.5
    for sd_op in (apply_operator, lambda sd, g: apply_inverse(sd, g, a=a),
                  lambda sd, g: apply_fractional(sd, 1.0, g)):
        assert close(sd_op(fast, f), sd_op(dense, f))
    assert graph_norm(fast, 0.5, f) \
        == pytest.approx(graph_norm(dense, 0.5, f), rel=1e-10)
    if fast.invertible:
        assert close(apply_fractional(fast, 0.5, f),
                     apply_fractional(dense, 0.5, f))
        for part_fast, part_dense in zip(split_pm(fast, f),
                                         split_pm(dense, f)):
            assert close(part_fast, part_dense)
        for s in (1.0, 0.5):
            assert estimate_constants(fast, s) \
                == pytest.approx(estimate_constants(dense, s), rel=1e-10)


@pytest.mark.parametrize("kind", ["antiperiodic", "periodic"])
@pytest.mark.parametrize("n_points", [8, 9, 64, 256])
def test_fourier_backend_matches_dense(kind, n_points):
    op = model_op(kind, n_points)
    fast, dense = decompose(op), decompose_dense(op)
    assert_backends_agree(fast, dense, n_points)
    assert fast.invertible == (kind == "antiperiodic")

    # eigenfunctions agree up to a unit phase, matched by eigenvalue
    for k in list(range(min(fast.size, 6))) + [fast.size - 1]:
        j = int(np.argmin(np.abs(dense.eigenvalues - fast.eigenvalues[k])))
        phi, psi = eigenfunction(fast, k), eigenfunction(dense, j)
        overlap = np.vdot(psi.values, phi.values)
        phase = overlap / abs(overlap)
        assert lp_norm(phi - psi * phase, 2) <= 1e-10


@pytest.mark.parametrize("n_points", [8, 9, 64, 65, 256, 257])
def test_bag_fourier_backend_matches_dense(n_points):
    op = model_op("bag1d", n_points)
    fast, dense = decompose(op), decompose_dense(op)
    assert_backends_agree(fast, dense, n_points)
    assert fast.invertible

    # every eigenvalue is doubly degenerate (bar +-1/h), so eigenfunctions
    # agree only up to a unitary within each eigenspace: compare the
    # spectral projectors P_fast, P_dense of each eigenspace.  For equal
    # dimensions ||P_fast - P_dense||_2 = ||(I - P_dense) U_fast||_2
    vals, h = fast.eigenvalues, op.spec.grid.spacing
    for lam in np.unique(vals * h):
        mine = np.abs(vals * h - lam) <= 1e-9
        theirs = np.abs(dense.eigenvalues * h - lam) <= 1e-9
        assert mine.sum() == theirs.sum() <= 2
        u, v = dense_eigenvectors(fast)[:, mine], dense.eigenvectors[:, theirs]
        assert np.linalg.norm(u - v @ (v.conj().T @ u), 2) <= 1e-10


# the periodic model's zero mode ends these commands in their own errors
PERIODIC_ERRORS = {"solve": "too close to zero",
                   "check": "needs an invertible operator",
                   "functional": "pairing"}


@pytest.mark.parametrize("kind", ["antiperiodic", "periodic", "bag1d"])
def test_models_never_build_the_matrix(kind, tmp_path, monkeypatch):
    # every command runs on the Fourier backend alone: no dense
    # eigensolver, linear solve or inverse is ever reached
    def refuse(*args, **kwargs):
        raise AssertionError("dense linear algebra on a model")

    for name in ("eigh", "eigvalsh", "eig", "eigvals", "solve", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    operator = "dirac_2spinor" if kind == "bag1d" else "scalar_derivative"
    cfg = parse_config(
        "[model]\noperator = %s\nboundary = %s\nn_points = 64\n"
        "[scheme]\nlambda = 0.01\ng = exp_mode(1, 0.05)\n"
        "[sweep]\nparam = scheme.lambda\nmin = 0\nmax = 0.02\ncount = 2\n"
        "[functional]\nm = 4\n" % (operator, kind))
    for command in ("spectrum", "solve", "check", "sweep", "functional"):
        out = str(tmp_path / command)
        if kind == "periodic" and command in PERIODIC_ERRORS:
            with pytest.raises(DiracBVPError,
                               match=PERIODIC_ERRORS[command]) as exc:
                run_command(cfg, command, out)
            assert not isinstance(exc.value, AssertionError)
        else:
            assert run_command(cfg, command, out) == 0
    if kind != "periodic":
        with open(tmp_path / "solve" / "report.json") as fh:
            assert json.load(fh)["verdict"] == "converged"


@pytest.mark.parametrize("kind", ["antiperiodic", "periodic", "bag1d"])
def test_fourier_probe_catches_a_corrupt_transform(kind, monkeypatch):
    # a transform with the wrong DFT sign maps each frequency to its mirror
    def mirrored(self, y):
        phase = self.operator.spec.structure.phase
        return np.fft.ifft(phase.conj() * y, norm="ortho")[self.order]

    monkeypatch.setattr(SpectralData, "_analyze", mirrored)
    with pytest.raises(NumericalError, match="probe residual"):
        decompose(model_op(kind, 64))


# --------------------------------------------------------- apply_inverse

def test_inverse_on_eigenfunction(anti_sd, anti_spec):
    f = mode_field(anti_spec.grid)
    out = apply_inverse(anti_sd, f)
    assert np.max(np.abs(out.values - f.values / np.pi)) < 1e-9


def test_inverse_composition(anti_sd):
    rng = np.random.default_rng(1)
    f = random_constrained_field(anti_sd, rng)
    df = anti_sd.operator.embed(
        dense_matrix(anti_sd.operator) @ anti_sd.operator.project(f))
    back = apply_inverse(anti_sd, df)
    assert lp_norm(back - f, 2) <= 1e-9 * lp_norm(f, 2)


def test_inverse_diag(anti_sd):
    # eigenvalues pi and -3 pi: each coefficient divided by its own
    lam = anti_sd.eigenvalues
    phi, psi = eigenfunction(anti_sd, 0), eigenfunction(anti_sd, 3)
    assert (lam[0], lam[3]) == pytest.approx((np.pi, -3.0 * np.pi))
    out = apply_inverse(anti_sd, phi + psi)
    assert lp_norm(out - (phi * (1.0 / lam[0]) + psi * (1.0 / lam[3])), 2) \
        < 1e-12


def test_inverse_near_singular_shift(anti_sd, periodic_sd):
    for k in (0, 3):
        with pytest.raises(ParameterError,
                           match="too close to zero at eigenvalue"):
            apply_inverse(anti_sd, eigenfunction(anti_sd, k),
                          a=anti_sd.eigenvalues[k] + 1e-12)
    rng = np.random.default_rng(2)
    f = random_constrained_field(periodic_sd, rng)
    zero_mode = r"^lambda - a = 0j too close to zero at eigenvalue 0\.0"
    with pytest.raises(ParameterError, match=zero_mode) as exc:
        apply_inverse(periodic_sd, f)  # zero mode, a = 0
    assert "np." not in str(exc.value)
    # a away from the spectrum works even without invertibility
    out = apply_inverse(periodic_sd, f, a=0.5j)
    assert np.isfinite(out.values).all()


def test_singular_shift_guard_is_relative_on_a_long_interval():
    # at L = 1e12 every eigenvalue is below 1e-8: a shift 1e-6 of lambda_3
    # away is regular, one 1e-12 of it away is singular, for apply_inverse
    # and scheme.run alike
    sd = decompose(assemble(ModelSpec(Grid1D(1e12, 256),
                                      BoundaryCondition("antiperiodic"))))
    lam3 = sd.eigenvalues[3]
    g = mode_field(sd.operator.spec.grid, scale=1e-7)
    for rel, singular in ((1e-12, True), (1e-6, False)):
        a = lam3 * (1.0 + rel)
        cfg = SchemeConfig(lam=0.5, p=4.0, g=g, a=a)
        for call in (lambda: apply_inverse(sd, g, a=a).values,
                     lambda: run(sd, cfg).u.values):
            if singular:
                with pytest.raises(ParameterError,
                                   match="too close to zero at eigenvalue"):
                    call()
            else:
                assert np.all(np.isfinite(call()))


def test_inverse_operator_norm_bound(anti_sd):
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = random_constrained_field(anti_sd, rng)
        assert lp_norm(apply_inverse(anti_sd, f), 2) <= \
            lp_norm(f, 2) / abs(anti_sd.lambda1) + 1e-10


# ------------------------------------------------------ apply_fractional

def test_fractional_single_mode(anti_sd, anti_spec):
    f = mode_field(anti_spec.grid)
    out = apply_fractional(anti_sd, 0.5, f)
    assert np.max(np.abs(out.values - np.sqrt(np.pi) * f.values)) < 1e-9


def test_fractional_semigroup(anti_sd):
    rng = np.random.default_rng(4)
    f = random_constrained_field(anti_sd, rng)
    twice = apply_fractional(anti_sd, 0.5, apply_fractional(anti_sd, 0.5, f))
    once = apply_fractional(anti_sd, 1.0, f)
    assert lp_norm(twice - once, 2) <= 1e-10 * lp_norm(once, 2)


def test_fractional_equals_signed_split(anti_sd):
    rng = np.random.default_rng(5)
    f = random_constrained_field(anti_sd, rng)
    fp, fm = split_pm(anti_sd, f)
    op = anti_sd.operator
    matrix = dense_matrix(op)
    apply_mat = lambda u: op.embed(matrix @ op.project(u))
    signed = apply_mat(fp) - apply_mat(fm)
    out = apply_fractional(anti_sd, 1.0, f)
    assert lp_norm(signed - out, 2) <= 1e-10 * lp_norm(out, 2)


def test_fractional_errors(periodic_sd):
    rng = np.random.default_rng(6)
    f = random_constrained_field(periodic_sd, rng)
    with pytest.raises(ParameterError, match="fractional power 0.5 of a "
                                             "non-invertible operator"):
        apply_fractional(periodic_sd, 0.5, f)
    for s in (0.0, 1.5):
        with pytest.raises(ParameterError, match="s must lie in"):
            apply_fractional(periodic_sd, s, f)
        with pytest.raises(ParameterError, match="s must lie in"):
            graph_norm(periodic_sd, s, f)


# -------------------------------------------------------------- split_pm

def test_split_on_eigenfunction(anti_sd, anti_spec):
    f = mode_field(anti_spec.grid)  # positive eigenvalue pi
    fp, fm = split_pm(anti_sd, f)
    assert lp_norm(fm, 2) < 1e-10
    assert lp_norm(fp - f, 2) < 1e-10


def test_split_pythagoras(anti_sd):
    rng = np.random.default_rng(7)
    f = random_constrained_field(anti_sd, rng)
    fp, fm = split_pm(anti_sd, f)
    total = lp_norm(f, 2) ** 2
    parts = lp_norm(fp, 2) ** 2 + lp_norm(fm, 2) ** 2
    assert parts == pytest.approx(total, rel=1e-10)
    assert lp_norm(fp + fm - f, 2) < 1e-10


def test_split_diag(anti_sd):
    # eigenvalues -pi and 3 pi: one eigenfunction on each side
    phi, psi = eigenfunction(anti_sd, 1), eigenfunction(anti_sd, 2)
    assert anti_sd.eigenvalues[1] < 0 < anti_sd.eigenvalues[2]
    fp, fm = split_pm(anti_sd, phi + psi)
    assert lp_norm(fp - psi, 2) < 1e-12 and lp_norm(fm - phi, 2) < 1e-12


def test_split_needs_invertibility(periodic_sd):
    rng = np.random.default_rng(8)
    with pytest.raises(ParameterError, match=r"zero eigenvalue present, "
                                             r"\+/- split undefined"):
        split_pm(periodic_sd, random_constrained_field(periodic_sd, rng))


def test_split_commutes_with_fractional(anti_sd):
    rng = np.random.default_rng(9)
    f = random_constrained_field(anti_sd, rng)
    fp, _ = split_pm(anti_sd, f)
    a = apply_fractional(anti_sd, 0.5, fp)
    b = split_pm(anti_sd, apply_fractional(anti_sd, 0.5, f))[0]
    assert lp_norm(a - b, 2) <= 1e-10 * lp_norm(f, 2)


# ------------------------------------------------------------ graph_norm

def test_graph_norm_eigenfunction(anti_sd, anti_spec):
    f = mode_field(anti_spec.grid)  # unit L2 norm, eigenvalue pi
    expected = np.sqrt(1.0 + np.pi)
    assert graph_norm(anti_sd, 0.5, f) == pytest.approx(expected, rel=1e-10)
    z = SpinorField.zero(anti_spec.grid)
    assert graph_norm(anti_sd, 0.5, z) == 0.0


def test_graph_norm_parseval(anti_sd):
    rng = np.random.default_rng(10)
    f = random_constrained_field(anti_sd, rng)
    direct = graph_norm(anti_sd, 0.5, f) ** 2
    via = lp_norm(f, 2) ** 2 + lp_norm(apply_fractional(anti_sd, 0.5, f), 2) ** 2
    assert direct == pytest.approx(via, rel=1e-10)


# ---------------------------------------------------- estimate_constants

def test_estimate_constants_antiperiodic(anti_sd, anti_spec):
    # the maximum dominates the quotient of each single eigenfunction;
    # on exponential modes that quotient is about (1+lam^2)/(1+lam^2) = 1
    f = mode_field(anti_spec.grid)
    from diracbvp import w1q_norm
    quotient = w1q_norm(anti_spec, f, 2) ** 2 / (1.0 + np.pi ** 2)
    assert anti_sd.c1_emp >= quotient - 1e-12
    assert anti_sd.c1_emp >= 0.99
    assert anti_sd.c_half_emp > 0


def test_estimate_constants_refuses_s_outside_0_1(anti_sd):
    # no Lanczos runs for an order outside (0, 1], whose error would
    # name c_half_emp
    for s in (0.0, -0.5, 2.0):
        with pytest.raises(ParameterError, match="s must lie in"):
            estimate_constants(anti_sd, s)


def test_estimate_constants_computed_once_per_decomposition(anti_spec_128,
                                                           monkeypatch):
    import diracbvp.spectral
    from diracbvp import assemble
    calls = []
    estimate = diracbvp.spectral.estimate_constants

    def counting(sd, s):
        calls.append((sd, s))
        return estimate(sd, s)

    monkeypatch.setattr(diracbvp.spectral, "estimate_constants", counting)
    sd = decompose(assemble(anti_spec_128))
    first = (sd.c1_emp, sd.c_half_emp)
    assert (sd.c1_emp, sd.c_half_emp) == first
    assert calls == [(sd, 1.0), (sd, 0.5)]
    # a new decomposition of the same model computes them afresh
    again = decompose(assemble(anti_spec_128))
    assert (again.c1_emp, again.c_half_emp) == first
    assert len(calls) == 4


@pytest.mark.parametrize("kind", ["antiperiodic", "bag1d"])
@pytest.mark.parametrize("n_points", [8, 9, 64, 65, 256, 257])
def test_estimate_constants_match_dense_standard_form(kind, n_points):
    # Lanczos on products against eigvalsh of the dense standard forms
    sd = decompose(model_op(kind, n_points))
    c1, c_half = dense_rayleigh_maxima(sd)
    assert sd.c1_emp == pytest.approx(c1, rel=1e-10)
    assert sd.c_half_emp == pytest.approx(c_half, rel=1e-10)


@pytest.mark.parametrize("n_points", [33, 64, 257, 512])
def test_c1_emp_is_one_on_the_antiperiodic_model(n_points):
    # the numerator measures psi' with D itself, and D V = V D_P: the c1
    # standard form is the identity, as in the continuum
    spec = ModelSpec(Grid1D(1.0, n_points), BoundaryCondition("antiperiodic"))
    assert decompose(assemble(spec)).c1_emp \
        == pytest.approx(1.0, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("n_points, c1_emp", [
    (33, 48.7376584), (65, 97.4818655), (129, 194.967010),
    (257, 389.935661)])
def test_bag_c1_emp_grows_like_n(n_points, c1_emp):
    # the SBP boundary rows, not the doubler modes, set c1 with D's own
    # stencil: about 1.52 N at L = 1
    spec = ModelSpec(Grid1D(1.0, n_points), BoundaryCondition("bag1d"))
    assert decompose(assemble(spec)).c1_emp \
        == pytest.approx(c1_emp, rel=1e-8)


def test_c_half_emp_refines_like_n_to_the_minus_half():
    # nested grids, L = 1: each doubling shrinks the increment of
    # c_half_emp by about 2^(-1/2) (0.708 measured)
    values = []
    for n_points in (65, 129, 257, 513):
        spec = ModelSpec(Grid1D(1.0, n_points),
                         BoundaryCondition("antiperiodic"))
        values.append(decompose(assemble(spec)).c_half_emp)
    steps = np.diff(values)
    assert np.all(steps > 0)
    ratios = steps[1:] / steps[:-1]
    assert np.all((0.68 <= ratios) & (ratios <= 0.74))


def test_lanczos_cap_raises(monkeypatch):
    # too few steps to converge: an error, never an unconverged constant,
    # naming the constant and the grid size
    import diracbvp.spectral
    # c1_emp: its bag1d standard form is I plus a rank-2 term, whose top
    # eigenvalue Lanczos finds at step 2, so one step is too few
    monkeypatch.setattr(diracbvp.spectral, "LANCZOS_MAX_STEPS", 1)
    with pytest.raises(NumericalError, match="did not converge in 1 steps "
                       r"for c1_emp at model\.n_points = 64 \(residual"):
        estimate_constants(decompose(model_op("bag1d", 64)), 1.0)
    # c1_emp converges within 40 steps at this size, c_half_emp does not
    monkeypatch.setattr(diracbvp.spectral, "LANCZOS_MAX_STEPS", 40)
    with pytest.raises(NumericalError, match="did not converge in 40 steps "
                       r"for c_half_emp at model\.n_points = 64 \("):
        estimate_constants(decompose(model_op("antiperiodic", 64)), 0.5)


@pytest.mark.parametrize("k", [1, 2, 7, 64, 137])
def test_top_ritz_pair_matches_eigh(k):
    # theta and s by the recurrences against LAPACK on the dense tridiagonal
    rng = np.random.default_rng(k)
    for scale in (1e-3, 1.0, 1e4):
        alpha = scale * rng.uniform(0.5, 3.0, k)
        beta = scale * rng.uniform(1e-3, 1.0, k - 1)
        vals, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1)
                                    + np.diag(beta, -1))
        a, b = alpha.tolist(), beta.tolist()
        b2 = [x * x for x in b]
        theta = _bisect_top(a, b, b2)
        s = _last_component(a, b, b2, theta)
        assert theta == pytest.approx(vals[-1], rel=1e-14)
        assert abs(s) == pytest.approx(abs(vecs[-1, -1]), rel=1e-9, abs=1e-14)


@pytest.mark.parametrize("m", [1, 2, 7, 64])
def test_lanczos_max_on_known_spectra(m):
    # diagonal maps with spread, square-root and top-clustered spectra,
    # each also with its top pair 1e-6 apart.  With no reorthogonalization
    # there is no exit at step m: m = 2 and 7 stop at their first check,
    # step 8, and the harder spectra of m = 64 run past m steps too
    spectra = [np.geomspace(0.1, 10.0, m), 1.0 + np.sqrt(np.linspace(0, 1, m)),
               2.0 - np.geomspace(1.0, 1e-6, m)]
    for d in spectra[:3 if m > 1 else 0]:
        pair = d.copy()
        pair[-2] = pair[-1] * (1.0 - 1e-6)
        spectra.append(pair)
    steps = []
    for d in spectra:
        calls = []

        def matvec(x):
            calls.append(1)
            return d * x
        theta = _lanczos_max(matvec, m, "a test spectrum")
        assert theta == pytest.approx(d.max(), rel=1e-12)
        steps.append(len(calls))
    if m > 1:
        assert max(steps) > m


def test_lanczos_memory_does_not_grow_with_the_steps():
    # two vectors and scratch for the products, not a basis of 200-400
    # stored vectors
    import tracemalloc
    sd = decompose(model_op("antiperiodic", 2048))
    tracemalloc.start()
    try:
        for s in (1.0, 0.5):
            estimate_constants(sd, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 16 * sd.size


def test_fixed_unit_vector_is_splitmix64():
    # whole-array uint64 arithmetic against the scalar recurrence
    def splitmix64(j):
        mask = (1 << 64) - 1
        z = j * 0x9E3779B97F4A7C15 & mask
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ z >> 27) * 0x94D049BB133111EB & mask
        return z ^ z >> 31

    def unif(word):
        return (word + 0.5) * 2.0 ** -32 - 0.5
    ref = np.array([unif(w >> 32) + 1j * unif(w & 0xFFFFFFFF)
                    for w in map(splitmix64, range(1, 101))])
    ref /= np.linalg.norm(ref)
    assert np.max(np.abs(_fixed_unit_vector(100) - ref)) < 1e-15
    for m in (1, 7, 1000):
        z = _fixed_unit_vector(m)
        assert z.shape == (m,) and np.all(np.isfinite(z))
        assert np.linalg.norm(z) == pytest.approx(1.0, rel=1e-14)
        assert _fixed_unit_vector(m).tobytes() == z.tobytes()


def sturm_count(a, b2, sigma, pivmin):
    """Negative pivots of T - sigma I, each clamped as dlaebz does."""
    count, d = 0, a[0] - sigma
    for i in range(len(a)):
        if i:
            d = a[i] - sigma - b2[i - 1] / d
        if abs(d) < pivmin:
            d = -pivmin
        count += d < 0.0
    return count


def test_above_spectrum_is_the_full_sturm_count():
    rng = np.random.default_rng(3)
    alpha, beta = rng.uniform(-2.0, 2.0, 40), rng.uniform(0.1, 1.0, 39)
    vals = np.linalg.eigvalsh(np.diag(alpha) + np.diag(beta, 1)
                              + np.diag(beta, -1))
    shifts = np.concatenate([vals - 1e-9, vals + 1e-9, [-10.0, 10.0]])
    for sigma in shifts:
        assert _above_spectrum(alpha.tolist(), (beta ** 2).tolist(), sigma,
                               1e-300) == (np.sum(vals < sigma) == 40)


def test_above_spectrum_clamps_a_zero_pivot():
    # [[0, 1], [1, 0]] at sigma = 0: the first pivot is exactly 0, taken
    # as -pivmin, so the count stays that of the eigenvalues -1 and 1;
    # at sigma = 1 the last pivot is exactly 0, so 1 counts as below.
    # diag(0, -1) at sigma = 0: a zero pivot, then a negative one, so an
    # exit on the zero pivot would answer wrongly
    for sigma, above in ((-1.5, False), (0.0, False), (1.0, True),
                         (1.5, True)):
        assert _above_spectrum([0.0, 0.0], [1.0], sigma, 1e-300) is above
    assert _above_spectrum([0.0, -1.0], [0.0], 0.0, 1e-300) is True


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 2)),
                min_size=1, max_size=12),
       st.one_of(st.integers(-4, 4).map(float),
                 st.floats(-8.0, 8.0), st.integers(0, 11)))
def test_above_spectrum_is_the_sturm_count_on_random_tridiagonals(rows,
                                                                  sigma):
    # small integer entries give exact zero pivots, first, inner and
    # last; an int sigma picks an eigenvalue of T.  The predicate must
    # return exactly when the full count reaches len(a)
    a = [float(x) for x, _ in rows]
    b2 = [float(y * y) for _, y in rows[1:]]
    if isinstance(sigma, int):
        vals = np.linalg.eigvalsh(np.diag(a) + np.diag(np.sqrt(b2), 1)
                                  + np.diag(np.sqrt(b2), -1))
        sigma = float(vals[sigma % len(a)])
    pivmin = float(np.finfo(float).tiny) * max(b2 + [1.0])
    assert _above_spectrum(a, b2, sigma, pivmin) \
        == (sturm_count(a, b2, sigma, pivmin) == len(a))


def test_estimate_constants_calls_no_lapack(monkeypatch):
    # threaded BLAS under LAPACK made the Lanczos checks slow and erratic
    sd = decompose(model_op("antiperiodic", 256))

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK call in estimate_constants")
    for name in ("eigvalsh", "eigh", "solve", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert sd.c1_emp > 1.0 and sd.c_half_emp > 1.0


# ------------------------------------------- fractional regularity ratio

def test_slobodeckij_graph_ratio_stable(anti_sd, anti_sd_128):
    maxima = []
    for sd in (anti_sd_128, anti_sd):
        rng = np.random.default_rng(42)
        best = 0.0
        for _ in range(100):
            f = random_constrained_field(sd, rng)
            best = max(best, slobodeckij_norm(f, 0.5) ** 2
                       / graph_norm(sd, 0.5, f) ** 2)
        maxima.append(best)
    assert maxima[1] <= 2.0 * maxima[0]
    assert maxima[0] <= 2.0 * maxima[1]
