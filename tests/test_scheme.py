import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (dense_matrix, mode_field, random_constrained_field,
                      step_field)
from diracbvp import (BoundaryCondition, Grid1D, ModelSpec, SchemeConfig,
                      SpinorField, apply_D, assemble, decompose, graph_norm,
                      lp_norm, nonlinearity, run, scale_problem, step,
                      verify_solution, w1q_norm)
from diracbvp import scheme
from diracbvp.errors import ParameterError
from diracbvp.scheme import trace_rows
from diracbvp.spectral import shifted_spectrum


def base_config(grid, lam=0.05 * np.pi, scale=0.1, **kw):
    return SchemeConfig(lam=lam, p=4, g=mode_field(grid, scale=scale), **kw)


# ------------------------------------------------------------ validation

def test_config_validation(anti_spec):
    g = mode_field(anti_spec.grid)
    with pytest.raises(ParameterError):
        SchemeConfig(lam=0.0, p=1.5, g=g)
    with pytest.raises(ParameterError):
        SchemeConfig(lam=0.0, p=4, g=g, max_iter=0)
    with pytest.raises(ParameterError):
        SchemeConfig(lam=0.0, p=4, g=g, tol_cauchy=0.0)
    for caps in ({"Xi": 0.0}, {"Lambda_cap": -1.0}):
        with pytest.raises(ParameterError, match="Xi and Lambda_cap"):
            SchemeConfig(lam=0.0, p=4, g=g, **caps)


# ------------------------------------------------------------------ step

def test_linear_case_single_step(anti_sd, anti_spec):
    cfg = base_config(anti_spec.grid, lam=0.0)
    u1 = step_field(anti_sd, cfg, cfg.g)
    res, bres = verify_solution(anti_sd, cfg, u1)
    assert res <= 1e-8
    assert bres <= 1e-12


def test_zero_datum_stays_zero(anti_sd, anti_spec):
    z = SpinorField.zero(anti_spec.grid)
    cfg = SchemeConfig(lam=0.3, p=4, g=z, f0=z)
    rep = run(anti_sd, cfg)
    assert all(st.l2t_norm == 0.0 for st in rep.states)
    assert lp_norm(rep.u, 2) == 0.0


def test_step_near_singular_shift(anti_sd, anti_spec):
    cfg = base_config(anti_spec.grid, a=np.pi)  # eigenvalue of D_P
    with pytest.raises(ParameterError, match=r"^lambda - a = .* too close "
                                             r"to zero at eigenvalue"):
        step_field(anti_sd, cfg, cfg.g)
    with pytest.raises(ParameterError, match=r"^lambda - a = .* too close "
                                             r"to zero at eigenvalue"):
        run(anti_sd, cfg)


def test_periodic_needs_shift(periodic_sd):
    grid = periodic_sd.operator.spec.grid
    g = SpinorField(grid, 0.1 * np.exp(2j * np.pi * grid.points() / grid.length))
    with pytest.raises(ParameterError, match=r"^lambda - a = 0j too close "
                                             r"to zero at eigenvalue 0\.0"):
        step_field(periodic_sd, SchemeConfig(lam=0.0, p=4, g=g), g)
    # shifted off the spectrum the step goes through
    u1 = step_field(periodic_sd, SchemeConfig(lam=0.0, p=4, g=g, a=0.5), g)
    assert np.isfinite(u1.values).all()


@pytest.mark.parametrize("model, a", [("anti", 1.0), ("anti", 0.5j),
                                      ("periodic", 0.5)])
def test_step_matches_the_two_transform_formula(request, model, a):
    # step corrects c_k by the residual r_k = D u_k - lambda N(u_k) alone.
    # The dense reference solves the Picard map with D g and a utilde_k
    # apart, (D_P - a) y_{k+1} = P(lambda N(u_k) - D g) - a y_k, in the
    # constrained coordinates y, on an iterate with P u_k = P g: the two
    # agree there, and the correction is y_{k+1} - y_k
    sd = request.getfixturevalue(model + "_sd")
    op = sd.operator
    grid = op.spec.grid
    x = grid.points() / grid.length
    k = 1 if model == "anti" else 2
    g = SpinorField(grid, 0.1 * np.exp(1j * k * np.pi * x))
    u_k = g + 0.05 * random_constrained_field(sd, np.random.default_rng(3))
    cfg = SchemeConfig(lam=0.3, p=4, g=g, a=a)
    y_k = op.project(u_k - g)
    rhs = op.project(cfg.lam * nonlinearity(u_k, cfg.p)
                     - apply_D(op.spec, g)) - a * y_k
    ref = op.embed(np.linalg.solve(dense_matrix(op) - a * np.eye(sd.size),
                                   rhs) - y_k)
    r_k = apply_D(op.spec, u_k) - cfg.lam * nonlinearity(u_k, cfg.p)
    got = sd.from_coeffs(step(sd, r_k, sd.eigenvalues - a))
    assert lp_norm(got - ref, 2) <= 1e-12 * lp_norm(ref, 2)


# ------------------------------------------------------------------- run

def test_lambda_zero_run(anti_sd, anti_spec):
    rep = run(anti_sd, base_config(anti_spec.grid, lam=0.0))
    assert rep.verdict == "converged"
    assert rep.iterations == 1
    assert rep.pde_residual <= 1e-8
    assert rep.boundary_residual <= 1e-12


def test_contraction_run(anti_sd, anti_spec):
    cfg = base_config(anti_spec.grid)
    rep = run(anti_sd, cfg)
    assert rep.verdict == "converged"
    assert all(r < 1.0 for r in rep.ratios)
    assert rep.bounds_held
    assert rep.lambda1 == anti_sd.lambda1
    # the last iterate is a fixed point of the Picard map to within the
    # Cauchy tolerance: step's correction there, in coefficients
    u = rep.u
    r = apply_D(anti_spec, u) - cfg.lam * nonlinearity(u, cfg.p)
    assert np.linalg.norm(step(anti_sd, r, anti_sd.eigenvalues - cfg.a)) \
        < cfg.tol_cauchy


def test_divergence_at_large_lambda(anti_sd, anti_spec):
    # scan upward: the empirical blow-up threshold must sit above the
    # certified region (which is around |lambda|/|lambda_1| ~ 1e-2 here)
    verdicts = {}
    for lam in (0.05 * np.pi, np.pi, 500 * np.pi):
        rep = run(anti_sd, base_config(anti_spec.grid, lam=lam, max_iter=60))
        verdicts[lam] = rep.verdict
    assert verdicts[0.05 * np.pi] == "converged"
    assert verdicts[500 * np.pi] in ("diverged", "max_iter_exceeded")


def test_overflowing_datum_diverges_from_state_0(anti_sd, anti_spec):
    # the derivative of g and |g|^2 g leave the floats: state 0 is still
    # recorded with those norms as inf, and the first step ends the run,
    # before the shift is checked (a = pi is an eigenvalue of D_P)
    for a in (0.0, np.pi):
        rep = run(anti_sd, base_config(anti_spec.grid, scale=1e308, a=a))
        assert rep.verdict == "diverged"
        assert len(rep.states) == 1
        assert rep.states[0].h1t_norm == rep.states[0].pde_residual == np.inf


def test_blow_up_cap_skips_state_0():
    # the L2 cap 10 max(Xi, Lambda_cap, 1) = 10 judges the iterates, not
    # the start: at lambda = 0 one step solves the linear problem from
    # f0 = const(100), so the run converges, with its bounds not held.
    # State 0 is f0 projected onto the space the map acts on
    spec = ModelSpec(Grid1D(1.0, 64), BoundaryCondition("antiperiodic"))
    cfg = SchemeConfig(lam=0.0, p=4, g=mode_field(spec.grid, scale=0.1),
                       f0=SpinorField(spec.grid, np.full(64, 100.0 + 0j)))
    sd = decompose(assemble(spec))
    rep = run(sd, cfg)
    start = cfg.g + sd.from_coeffs(sd.to_coeffs(cfg.f0 - cfg.g))
    assert rep.states[0].l2t_norm == lp_norm(start, 2) > 10.0
    assert (rep.verdict, rep.iterations, rep.bounds_held) \
        == ("converged", 1, False)
    assert all(st.l2t_norm < 1e-12 for st in rep.states[1:])


def test_overflowing_nonlinearity_keeps_u_H1(anti_sd, anti_spec):
    # |u|^398 u leaves the floats but D u does not: state 0 keeps its
    # u_H1, and the first step, which needs N(u_0), ends the run whatever
    # the shift
    for a in (0.0, np.pi):
        cfg = SchemeConfig(lam=0.5, p=400, a=a,
                           g=mode_field(anti_spec.grid, scale=0.1),
                           f0=mode_field(anti_spec.grid, scale=10.0))
        rep = run(anti_sd, cfg)
        assert rep.verdict == "diverged"
        assert len(rep.states) == 1
        assert rep.states[0].pde_residual == np.inf
        assert rep.states[0].h1t_norm \
            == w1q_norm(anti_spec, cfg.f0, 2) < np.inf


def test_huge_start_reports_an_infinite_boundary_residual(bag_sd, bag_spec):
    # |u - g| ~ 1e300 at the endpoints, in the component that the bag
    # condition leaves free, so the projected start keeps it: the
    # boundary residual's norm overflows to inf inside the run's error
    # state, with no warning
    x = bag_spec.grid.points()
    g = SpinorField(bag_spec.grid, 0.1 * np.outer(np.exp(1j * np.pi * x),
                                                  [1.0, 0.5j]))
    f0 = SpinorField(bag_spec.grid, 1e300 * np.outer(
        np.exp(101j * np.pi * x), [1.0, 0.0]))
    rep = run(bag_sd, SchemeConfig(lam=0.5, p=2, g=g, f0=f0))
    assert rep.verdict == "diverged"
    assert rep.boundary_residual == np.inf


@pytest.mark.parametrize("f0", ["g", 0.05])
def test_state_0_is_the_projected_start(anti_sd, anti_spec, monkeypatch, f0):
    # run starts from g + from_coeffs(to_coeffs(f0 - g)): with f0 = g (or
    # no f0) that is g to the bit, and const(0.05), which lies off the
    # antiperiodic constraint space, is projected onto it
    starts = []
    measure = scheme._measure

    def spy(spec, cfg, k, u, delta, prev):
        if k == 0:
            starts.append(u)
        return measure(spec, cfg, k, u, delta, prev)
    monkeypatch.setattr(scheme, "_measure", spy)
    g = mode_field(anti_spec.grid, scale=0.1)
    if f0 == "g":
        for start in (g, None):
            run(anti_sd, SchemeConfig(lam=0.5, p=4, g=g, f0=start))
        assert [u.values.tobytes() for u in starts] == [g.values.tobytes()] * 2
        return
    f0 = SpinorField(anti_spec.grid, np.full(256, f0 + 0j))
    run(anti_sd, SchemeConfig(lam=0.5, p=4, g=g, f0=f0))
    projected = g + anti_sd.from_coeffs(anti_sd.to_coeffs(f0 - g))
    assert starts[0].values.tobytes() == projected.values.tobytes()
    assert np.max(np.abs(f0.values - projected.values)) > 0.01


@pytest.mark.parametrize("model, f0", [("anti", None), ("anti", 0.05),
                                       ("bag", None)])
def test_increment_is_the_graph_norm_of_the_difference(request, model, f0):
    # run reads the increment off the coefficients of utilde; it must be
    # the H^{1/2}_D graph norm of u_{k+1} - u_k, the last iterates of runs
    # of k and k + 1 steps.  The antiperiodic datum const(0.3) has P g != 0,
    # so its solution is not u = 0; f0 = const(0.05) lies off the
    # antiperiodic constraint space
    sd = request.getfixturevalue(model + "_sd")
    spec = sd.operator.spec
    x = spec.grid.points() / spec.grid.length
    if model == "anti":
        g = SpinorField(spec.grid, np.full(x.size, 0.3 + 0j))
    else:
        g = SpinorField(spec.grid, 0.1 * np.outer(np.exp(1j * np.pi * x),
                                                  [1.0, 0.5j]))
    if f0 is not None:
        f0 = SpinorField(spec.grid, np.full(x.size, f0 + 0j))
    cfg = SchemeConfig(lam=2.0, p=4, g=g, f0=f0, tol_residual=1e-300)
    iterates = [g if f0 is None else f0] + [
        run(sd, dataclasses.replace(cfg, max_iter=k)).u for k in range(1, 9)]
    states = run(sd, dataclasses.replace(cfg, max_iter=8)).states
    checked = 0
    for k in range(1, 9):
        if states[k].delta_norm_H12D > 1e-6:
            ref = graph_norm(sd, 0.5, iterates[k] - iterates[k - 1])
            assert states[k].delta_norm_H12D == pytest.approx(ref, rel=1e-9)
            checked += 1
    assert checked >= 3


@pytest.mark.parametrize("model", ["anti", "bag"])
@pytest.mark.parametrize("max_iter", [1, 2, 3, 4])
def test_state_norms_are_the_public_measures(request, model, max_iter):
    # a state's u_H1 and pde_residual share one D u, and must still equal
    # w1q_norm and verify_solution on the same iterate, to the bit
    sd = request.getfixturevalue(model + "_sd")
    spec = sd.operator.spec
    x = spec.grid.points() / spec.grid.length
    g = SpinorField(spec.grid, 0.1 * np.outer(np.exp(1j * np.pi * x),
                                              [1.0, 0.5j][:spec.rank]))
    # no residual passes tol_residual, so each run ends at max_iter
    cfg = SchemeConfig(lam=0.5, p=4, g=g, max_iter=max_iter,
                       tol_residual=1e-300)
    rep = run(sd, cfg)
    assert len(rep.states) == max_iter + 1
    last = rep.states[-1]
    assert last.h1t_norm == w1q_norm(spec, rep.u, 2)
    assert last.pde_residual == verify_solution(sd, cfg, rep.u)[0]


def test_converged_limit_solves_equation(anti_sd, anti_spec):
    cfg = base_config(anti_spec.grid)
    rep = run(anti_sd, cfg)
    assert rep.verdict == "converged"
    res, bres = verify_solution(anti_sd, cfg, rep.u)
    assert res < cfg.tol_residual
    assert bres < 1e-10



@functools.lru_cache(maxsize=None)
def _symmetry_model(kind, n):
    """The decomposed model of kind on n points, built once per test run."""
    circle = kind == "periodic"
    grid = Grid1D(2.0 * np.pi if circle else 1.0, n,
                  "circle" if circle else "interval")
    return decompose(assemble(ModelSpec(grid, BoundaryCondition(kind))))


def symmetry_spread(base, other, image):
    """(max |u' - image(u)| / max(1, max |u|), the largest gap of a state's
    increment or norm over 1 + its u_H1) for runs base (u) and other (u')."""
    u = base.u.values
    spread_u = np.max(np.abs(other.u.values - image(u))) \
        / max(1.0, np.max(np.abs(u)))
    spread_norms = max(
        abs(getattr(b, name) - getattr(a, name)) / (1.0 + a.h1t_norm)
        for a, b in zip(base.states, other.states)
        for name in ("delta_norm_H12D", "l2t_norm", "h1t_norm",
                     "pde_residual"))
    return spread_u, spread_norms


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["antiperiodic", "bag1d", "periodic"]),
       n=st.sampled_from([33, 64, 129]), p=st.sampled_from([3.0, 4.0]),
       modulus=st.floats(0.05, 1.0), angle=st.floats(0.0, 2.0 * np.pi),
       alpha=st.floats(0.1, 6.2), k=st.integers(0, 2),
       slope=st.floats(-0.2, 0.2), a=st.sampled_from([0.0, 0.5]))
def test_runs_keep_the_gauge_and_reflection_symmetries(kind, n, p, modulus,
                                                       angle, alpha, k,
                                                       slope, a):
    # D, P and N(u) = |u|^{p-2} u commute with u -> e^{i alpha} u, so the
    # datum e^{i alpha} g gives the iterates e^{i alpha} u_k.  On the
    # interval models D[conj u(L - .)] = conj((D u)(L - .)), and the bag
    # projectors swap under conjugation, so conj g(L - .) with conj(lambda)
    # gives conj u_k(L - .).  Both hold through every step, to rounding:
    # report.u, each state's increment and norms, and the verdict.  The
    # datum has P g != 0 (its slope term), and each run takes up to 200
    # steps.  The periodic model needs a shift; a = lambda / (2 |lambda|)
    # lets its zero mode contract.  A diverging run amplifies rounding by
    # its growth, so |lambda| <= 1 keeps the draw below blow-up.  Over 300
    # draws of this strategy the two spreads stayed below 1.3e-14 and
    # 2.6e-14; the bounds are about 8 times those
    sd = _symmetry_model(kind, n)
    grid = sd.operator.spec.grid
    x = grid.points() / grid.length
    turn = 2.0 if kind == "periodic" else 1.0
    vec = np.array([1.0, 0.5j])[:sd.operator.spec.rank]
    g = SpinorField(grid, np.outer(0.3 * np.exp(1j * turn * k * np.pi * x)
                                   + slope * x, vec))
    lam = modulus * np.exp(1j * angle)
    if kind == "periodic":
        a = 0.5 * lam / modulus
    cfg = SchemeConfig(lam=lam, p=p, g=g, a=a)
    base = run(sd, cfg)
    phase = np.exp(1j * alpha)
    cases = [(dataclasses.replace(cfg, g=phase * g), lambda u: phase * u)]
    if kind != "periodic":
        cases.append((dataclasses.replace(
            cfg, lam=np.conj(lam), g=SpinorField(grid, g.values[::-1].conj())),
            lambda u: u[::-1].conj()))
    for other_cfg, image in cases:
        other = run(sd, other_cfg)
        assert (other.verdict, len(other.states)) \
            == (base.verdict, len(base.states))
        spread_u, spread_norms = symmetry_spread(base, other, image)
        assert spread_u <= 1e-13
        assert spread_norms <= 2e-13

# ------------------------------------------------------- exact solution

def exact_config(grid, beta=0.1, n_points=None):
    g = mode_field(grid, scale=beta)
    lam = np.pi * beta ** (2.0 - 4.0)
    return SchemeConfig(lam=lam, p=4, g=g, Xi=10.0, Lambda_cap=10.0)


def test_exact_solution_residual(anti_sd, anti_spec):
    cfg = exact_config(anti_spec.grid)
    res, bres = verify_solution(anti_sd, cfg, cfg.g)
    assert res <= 1e-6
    assert bres == 0.0


def test_trivial_function_fails_boundary(anti_sd, anti_spec):
    # a constant datum has Pg != 0, so u = 0 violates the boundary condition
    g = SpinorField(anti_spec.grid, np.full(256, 0.1 + 0j))
    cfg = SchemeConfig(lam=0.05 * np.pi, p=4, g=g)
    zero = SpinorField.zero(anti_spec.grid)
    _, bres = verify_solution(anti_sd, cfg, zero)
    assert bres > 0.1


# -------------------------------------------------- shifted stationarity

def test_stationarity_under_shift(anti_sd, anti_spec):
    cfg = exact_config(anti_spec.grid)
    rep = run(anti_sd, cfg)
    assert rep.verdict == "converged"
    u_star = rep.u
    for a in (1.0, 0.5j, -2.0):
        shifted = dataclasses.replace(cfg, a=a, f0=u_star)
        u1 = step_field(anti_sd, shifted, u_star)
        assert lp_norm(u1 - u_star, 2) <= 10 * cfg.tol_cauchy


# --------------------------------------------------------- scale_problem

def test_scale_identity(anti_spec):
    cfg = base_config(anti_spec.grid)
    same = scale_problem(cfg, 1.0)
    assert same.lam == cfg.lam
    assert lp_norm(same.g - cfg.g, 2) == 0.0


def test_scale_factor(anti_spec):
    cfg = base_config(anti_spec.grid)
    scaled = scale_problem(cfg, 16.0)
    assert scaled.lam == pytest.approx(16.0 * cfg.lam)
    assert lp_norm(scaled.g - 0.25 * cfg.g, 2) < 1e-15
    assert scaled.Xi == pytest.approx(0.25 * cfg.Xi)


def test_scale_requires_p_above_two(anti_spec):
    cfg = SchemeConfig(lam=0.1, p=2, g=mode_field(anti_spec.grid))
    with pytest.raises(ParameterError, match="scaling is undefined at p = 2"):
        scale_problem(cfg, 2.0)
    with pytest.raises(ParameterError):
        scale_problem(base_config(anti_spec.grid), -1.0)


def test_scaling_equivariance_stepwise(anti_sd, anti_spec):
    cfg = base_config(anti_spec.grid, f0=mode_field(anti_spec.grid, scale=0.1),
                      max_iter=8, tol_cauchy=1e-300)
    # a run keeps its last iterate only: compare u_k of runs of k steps
    for k in range(1, 9):
        cfg_k = dataclasses.replace(cfg, max_iter=k)
        base = run(anti_sd, cfg_k)
        for alpha in (0.25, 4.0, 16.0):
            scaled = run(anti_sd, scale_problem(cfg_k, alpha))
            fac = alpha ** (-0.5)
            ref = lp_norm(scaled.u, 2)
            diff = lp_norm(scaled.u - fac * base.u, 2)
            assert diff <= 1e-10 * max(ref, 1e-300)


# ------------------------------------------------------------- reporting

def test_trace_and_report_serialization(anti_sd, anti_spec):
    rep = run(anti_sd, base_config(anti_spec.grid))
    rows = trace_rows(rep)
    assert len(rows) == len(rep.states)
    assert rows[0][0] == 0 and rows[0][2] == ""  # no ratio at step 0
    payload = rep.to_dict()
    assert payload["verdict"] == "converged"
    assert set(payload) == {"verdict", "iterations", "pde_residual",
                            "boundary_residual", "bounds_held", "lambda1"}


def test_bound_violation_flagged(anti_sd, anti_spec):
    # tiny caps: the run converges but the bounds flag must trip
    cfg = base_config(anti_spec.grid, Xi=1e-6, Lambda_cap=1e-6)
    rep = run(anti_sd, cfg)
    assert not rep.bounds_held


def test_run_memory_does_not_grow_with_the_iterations():
    # the states hold scalars and the report the last iterate: 200 steps
    # must not keep 200 fields of N points
    import tracemalloc
    spec = ModelSpec(Grid1D(1.0, 4097), BoundaryCondition("antiperiodic"))
    sd = decompose(assemble(spec))
    g = SpinorField(spec.grid, np.full(spec.grid.n_points, 0.3 + 0j))
    cfg = SchemeConfig(lam=2.0, p=4, g=g, max_iter=200)
    tracemalloc.start()
    try:
        rep = run(sd, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Cauchy-converged, but the residual floors above tol_residual
    assert rep.verdict == "max_iter_exceeded"
    assert len(rep.states) == 201
    assert peak < 32 * 16 * spec.grid.n_points
