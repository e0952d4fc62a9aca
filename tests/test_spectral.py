import numpy as np
import pytest

from conftest import dense_rayleigh_maxima, mode_field
from diracbvp import (AssembledOperator, BoundaryCondition, Grid1D,
                      ModelSpec, SchemeConfig, SpinorField, apply_fractional,
                      apply_inverse, apply_operator, assemble, decompose,
                      eigenfunction, estimate_constants, graph_norm, lp_norm,
                      run, slobodeckij_norm, split_pm)
from diracbvp.errors import (ConfigurationError, NearSingularError,
                             NumericalError, ParameterError,
                             SingularPowerError, UndefinedSplittingError)
from diracbvp.spectral import (FourierSpectralData, _count_below,
                               _fixed_unit_vector, _lanczos_max,
                               _top_ritz_pair, decompose_dense,
                               random_constrained_field)


@pytest.fixture(scope="module")
def diag_sd():
    return decompose(AssembledOperator.from_matrix(np.diag([-1.0, 2.0])))


# ------------------------------------------------------------ decompose

def test_decompose_antiperiodic_moduli(anti_sd):
    moduli = np.abs(anti_sd.eigenvalues[:6])
    expected = np.pi * np.array([1, 1, 3, 3, 5, 5])
    assert np.max(np.abs(moduli - expected) / expected) < 1e-6
    assert anti_sd.invertible


def test_decompose_periodic_flags_zero_mode(periodic_sd):
    assert not periodic_sd.invertible
    assert abs(periodic_sd.lambda1) < 1e-12


def test_decompose_diag(diag_sd):
    assert diag_sd.lambda1 == -1.0
    assert list(diag_sd.eigenvalues) == [-1.0, 2.0]


def test_positive_tie_break():
    sd = decompose(AssembledOperator.from_matrix(np.diag([-1.0, 1.0, 2.0])))
    assert sd.lambda1 == 1.0


def test_eigenvector_gram(anti_sd, bag_sd):
    for sd in (anti_sd, bag_sd):
        gram = sd.eigenvectors.conj().T @ sd.eigenvectors
        assert np.max(np.abs(gram - np.eye(sd.size))) < 1e-10


def test_reconstruction(anti_sd):
    rng = np.random.default_rng(0)
    f = random_constrained_field(anti_sd, rng)
    a = anti_sd.eigenvectors.conj().T @ anti_sd.operator.project(f)
    back = anti_sd.operator.embed(anti_sd.eigenvectors @ a)
    assert lp_norm(back - f, 2) < 1e-10 * lp_norm(f, 2)


MODELS = ["anti_sd", "periodic_sd", "bag_sd"]


@pytest.mark.parametrize("model", MODELS)
def test_coeff_roundtrip(model, request):
    sd = request.getfixturevalue(model)
    f = random_constrained_field(sd, np.random.default_rng(0))
    back = sd.from_coeffs(sd.to_coeffs(f))
    assert lp_norm(back - f, 2) < 1e-10 * lp_norm(f, 2)
    raw = sd.operator.project(f)
    assert np.max(np.abs(sd.from_coeffs(sd.to_coeffs(raw), raw) - raw)) \
        < 1e-10 * np.max(np.abs(raw))


@pytest.mark.parametrize("model", MODELS)
def test_apply_operator_matches_dense_matrix(model, request):
    # the dense reference every structured backend must reproduce
    sd = request.getfixturevalue(model)
    op = sd.operator
    f = random_constrained_field(sd, np.random.default_rng(3))
    ref = op.embed(op.matrix @ op.project(f))
    assert lp_norm(apply_operator(sd, f) - ref, 2) < 1e-10 * lp_norm(ref, 2)
    raw = op.project(f)
    assert np.max(np.abs(apply_operator(sd, raw) - op.matrix @ raw)) \
        < 1e-10 * np.max(np.abs(op.matrix @ raw))


def model_op(kind, n_points):
    if kind == "periodic":
        grid = Grid1D(2.0 * np.pi, n_points, "circle")
    else:
        grid = Grid1D(1.3, n_points)
    operator = "dirac_2spinor" if kind == "bag1d" else "scalar_derivative"
    return assemble(ModelSpec(grid, operator, BoundaryCondition(kind)))


def assert_backends_agree(fast, dense, seed):
    """Eigenvalues and every eigenspace-only operation, fast vs dense."""
    assert isinstance(fast, FourierSpectralData)
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
        for c_fast, c_dense in zip(estimate_constants(fast),
                                   estimate_constants(dense)):
            assert c_fast == pytest.approx(c_dense, rel=1e-10)


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
        u, v = fast.eigenvectors[:, mine], dense.eigenvectors[:, theirs]
        assert np.linalg.norm(u - v @ (v.conj().T @ u), 2) <= 1e-10


@pytest.mark.parametrize("kind", ["antiperiodic", "periodic", "bag1d"])
def test_models_never_build_the_matrix(kind, monkeypatch):
    def refuse(*args):
        raise AssertionError("dense operator work on a grid-backed model")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(AssembledOperator, "matrix", property(refuse))
    monkeypatch.setattr(AssembledOperator, "constraint_map", property(refuse))
    monkeypatch.setattr(FourierSpectralData, "eigenvectors",
                        property(refuse))
    sd = decompose(model_op(kind, 64))
    f = random_constrained_field(sd, np.random.default_rng(0))
    apply_inverse(sd, f, a=0.5)
    graph_norm(sd, 0.5, f)
    if sd.invertible:
        estimate_constants(sd)
        report = run(sd, SchemeConfig(lam=0.01, p=4, g=0.05 * f))
        assert report.verdict == "converged"


@pytest.mark.parametrize("kind", ["antiperiodic", "periodic", "bag1d"])
def test_fourier_probe_catches_a_corrupt_transform(kind, monkeypatch):
    # a transform with the wrong DFT sign maps each frequency to its mirror
    def mirrored(self, y):
        z = self.phase.conj() * y[self.perm]
        return np.fft.ifft(z, norm="ortho")[self.order]

    monkeypatch.setattr(FourierSpectralData, "_analyze", mirrored)
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
        anti_sd.operator.matrix @ anti_sd.operator.project(f))
    back = apply_inverse(anti_sd, df)
    assert lp_norm(back - f, 2) <= 1e-9 * lp_norm(f, 2)


def test_inverse_diag(diag_sd):
    out = apply_inverse(diag_sd, np.array([1.0, 1.0]))
    assert np.allclose(out, [-1.0, 0.5])


def test_inverse_near_singular_shift(diag_sd, periodic_sd):
    with pytest.raises(NearSingularError):
        apply_inverse(diag_sd, np.ones(2), a=2.0 + 1e-12)
    rng = np.random.default_rng(2)
    f = random_constrained_field(periodic_sd, rng)
    with pytest.raises(NearSingularError) as exc:
        apply_inverse(periodic_sd, f)  # zero mode, a = 0
    assert "np." not in str(exc.value)
    # a away from the spectrum works even without invertibility
    out = apply_inverse(periodic_sd, f, a=0.5j)
    assert np.isfinite(out.values).all()


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
    apply_mat = lambda u: op.embed(op.matrix @ op.project(u))
    signed = apply_mat(fp) - apply_mat(fm)
    out = apply_fractional(anti_sd, 1.0, f)
    assert lp_norm(signed - out, 2) <= 1e-10 * lp_norm(out, 2)


def test_fractional_errors(periodic_sd):
    rng = np.random.default_rng(6)
    f = random_constrained_field(periodic_sd, rng)
    with pytest.raises(SingularPowerError):
        apply_fractional(periodic_sd, 0.5, f)
    with pytest.raises(ParameterError):
        apply_fractional(periodic_sd, 1.5, f)


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


def test_split_diag(diag_sd):
    fp, fm = split_pm(diag_sd, np.array([1.0, 1.0]))
    assert np.allclose(fp, [0.0, 1.0]) and np.allclose(fm, [1.0, 0.0])


def test_split_needs_invertibility(periodic_sd):
    rng = np.random.default_rng(8)
    with pytest.raises(UndefinedSplittingError):
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
    est = estimate_constants(anti_sd)
    # the maximum dominates the quotient of each single eigenfunction;
    # on exponential modes that quotient is about (1+lam^2)/(1+lam^2) = 1
    f = mode_field(anti_spec.grid)
    from diracbvp import w1q_norm
    quotient = w1q_norm(f, 2) ** 2 / (1.0 + np.pi ** 2)
    assert est.c1_emp >= quotient - 1e-12
    assert est.c1_emp >= 0.99
    assert est.c_half_emp > 0
    assert est.c_half_formula == pytest.approx(2.0 * est.c1_emp, rel=1e-14)


def test_estimate_constants_formula_plugin(anti_sd):
    est = estimate_constants(anti_sd, c_h=2.0, iota=0.5)
    assert est.c_half_formula == pytest.approx(
        2.0 * est.c1_emp * 4.0 * 0.25, rel=1e-14)


def test_estimate_constants_computed_once_per_decomposition(anti_spec_128,
                                                           monkeypatch):
    import diracbvp.spectral
    from diracbvp import assemble
    calls = []
    maxima = diracbvp.spectral._rayleigh_maxima

    def counting(sd):
        calls.append(sd)
        return maxima(sd)

    monkeypatch.setattr(diracbvp.spectral, "_rayleigh_maxima", counting)
    sd = decompose(assemble(anti_spec_128))
    first = estimate_constants(sd)
    second = estimate_constants(sd, c_h=2.0, iota=0.5)
    assert calls == [sd]
    assert (second.c1_emp, second.c_half_emp) == (first.c1_emp,
                                                  first.c_half_emp)
    assert second.c_half_formula == 2.0 * first.c1_emp * 2.0 ** 2 * 0.5 ** 2
    # a new decomposition of the same model computes them afresh
    assert estimate_constants(decompose(assemble(anti_spec_128))) == first
    assert len(calls) == 2


@pytest.mark.parametrize("kind", ["antiperiodic", "bag1d"])
@pytest.mark.parametrize("n_points", [8, 9, 64, 65, 256, 257])
def test_estimate_constants_match_dense_standard_form(kind, n_points):
    # Lanczos on products against eigvalsh of the dense standard forms
    sd = decompose(model_op(kind, n_points))
    est = estimate_constants(sd)
    c1, c_half = dense_rayleigh_maxima(sd)
    assert est.c1_emp == pytest.approx(c1, rel=1e-10)
    assert est.c_half_emp == pytest.approx(c_half, rel=1e-10)


def test_lanczos_cap_raises(monkeypatch):
    # too few steps to converge: an error, never an unconverged constant
    import diracbvp.spectral
    monkeypatch.setattr(diracbvp.spectral, "LANCZOS_MAX_STEPS", 4)
    with pytest.raises(NumericalError, match="did not converge in 4 steps"):
        estimate_constants(decompose(model_op("antiperiodic", 64)))


@pytest.mark.parametrize("k", [1, 2, 7, 64, 137])
def test_top_ritz_pair_matches_eigh(k):
    # the recurrences against LAPACK on the dense tridiagonal
    rng = np.random.default_rng(k)
    for scale in (1e-3, 1.0, 1e4):
        alpha = scale * rng.uniform(0.5, 3.0, k)
        beta = scale * rng.uniform(1e-3, 1.0, k - 1)
        vals, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1)
                                    + np.diag(beta, -1))
        theta, s = _top_ritz_pair(alpha, beta)
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
        theta = _lanczos_max(matvec, m)
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
        estimate_constants(sd)
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


def test_count_below_is_the_sturm_count():
    rng = np.random.default_rng(3)
    alpha, beta = rng.uniform(-2.0, 2.0, 40), rng.uniform(0.1, 1.0, 39)
    vals = np.linalg.eigvalsh(np.diag(alpha) + np.diag(beta, 1)
                              + np.diag(beta, -1))
    shifts = np.concatenate([vals - 1e-9, vals + 1e-9, [-10.0, 10.0]])
    for sigma in shifts:
        assert _count_below(alpha.tolist(), (beta ** 2).tolist(), sigma,
                            1e-300) == np.sum(vals < sigma)


def test_estimate_constants_calls_no_lapack(monkeypatch):
    # threaded BLAS under LAPACK made the Lanczos checks slow and erratic
    sd = decompose(model_op("antiperiodic", 256))

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK call in estimate_constants")
    for name in ("eigvalsh", "eigh", "solve", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refuse)
    est = estimate_constants(sd)
    assert est.c1_emp > 1.0 and est.c_half_emp > 1.0


def test_estimate_constants_needs_grid(diag_sd):
    with pytest.raises(ConfigurationError):
        estimate_constants(diag_sd)


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
