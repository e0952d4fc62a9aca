"""End-to-end acceptance checks for the full verification suite.

Each test exercises one headline property of the solver at its stated
tolerance: spectral fidelity, functional-calculus identities, the linear
base case, certified contraction, the hand-constructed exact solution,
scaling equivariance, shifted-scheme stationarity, bootstrap arithmetic,
condition arithmetic, the variational functional, the stability of
the fractional-regularity ratio under grid refinement, and the order at
which solutions converge to a closed-form answer.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import (closed_form_solution, dense_eigenvectors, dense_matrix,
                      mode_field, random_constrained_field)
from diracbvp import (AnalyticConstants, BoundaryCondition, Grid1D, ModelSpec,
                      SchemeConfig, apply_fractional, apply_inverse, assemble,
                      bootstrap_exponents, c3_lambda_threshold,
                      check_conditions, decompose, estimate_constants,
                      graph_norm, lp_norm, run, scale_problem,
                      slobodeckij_norm, split_pm, step, variational_functional,
                      verify_solution)
from diracbvp.config import parse_config


def test_01_spectral_fidelity():
    start = time.monotonic()
    spec = ModelSpec(Grid1D(1.0, 256), BoundaryCondition("antiperiodic"))
    sd = decompose(assemble(spec))
    moduli = np.sort(np.abs(sd.eigenvalues))[:10:2]
    expected = np.pi * np.array([1.0, 3.0, 5.0, 7.0, 9.0])
    # eigenvalues come in +/- pairs; every second sorted modulus is one level
    assert np.max(np.abs(moduli - expected) / expected) < 1e-6
    assert time.monotonic() - start < 5.0


def test_02_functional_calculus_identities(anti_sd):
    op = anti_sd.operator
    matrix = dense_matrix(op)
    rng = np.random.default_rng(2024)
    for _ in range(100):
        f = random_constrained_field(anti_sd, rng)
        absf = apply_fractional(anti_sd, 1.0, f)
        half_twice = apply_fractional(anti_sd, 0.5,
                                      apply_fractional(anti_sd, 0.5, f))
        assert lp_norm(half_twice - absf, 2) <= 1e-10 * lp_norm(absf, 2)
        df = op.embed(matrix @ op.project(f))
        assert lp_norm(apply_inverse(anti_sd, df) - f, 2) <= 1e-9 * lp_norm(f, 2)
        fp, fm = split_pm(anti_sd, f)
        total = lp_norm(fp, 2) ** 2 + lp_norm(fm, 2) ** 2
        assert total == pytest.approx(lp_norm(f, 2) ** 2, rel=1e-10)


def test_03_linear_base_case(anti_sd, anti_spec):
    cfg = SchemeConfig(lam=0.0, p=4, g=mode_field(anti_spec.grid, scale=0.1))
    rep = run(anti_sd, cfg)
    assert rep.verdict == "converged"
    assert rep.iterations == 1
    assert rep.pde_residual <= 1e-8
    assert rep.boundary_residual <= 1e-12


def test_04_certified_contraction(anti_sd, anti_spec):
    start = time.monotonic()
    est = estimate_constants(anti_sd)
    lam1 = abs(anti_sd.lambda1)
    base = AnalyticConstants(n=2, c1=est.c1_emp, c_half=est.c_half_emp,
                             lambda1_abs=lam1)
    lam_max = 0.95 * c3_lambda_threshold(base) * lam1
    g = mode_field(anti_spec.grid, scale=0.05)
    from diracbvp import apply_D, w1q_norm
    dg_l2 = lp_norm(apply_D(anti_spec, g), 2)
    certified_points = 0
    for lam in np.linspace(0.0, lam_max, 11):
        consts = dataclasses.replace(base, lambda_abs=lam,
                                     g_L2T=lp_norm(g, 2),
                                     g_H1T=w1q_norm(anti_spec, g, 2),
                                     Dg_L2=dg_l2)
        rep_cond = check_conditions(consts)
        rep = run(anti_sd, SchemeConfig(lam=lam, p=4, g=g))
        if rep_cond.certified:
            certified_points += 1
            assert rep.verdict == "converged"
            assert rep.iterations <= 200
            assert all(r < 1.0 for r in rep.ratios)
            assert rep.pde_residual <= 1e-7
    assert certified_points >= 1
    assert time.monotonic() - start < 60.0


def test_05_exact_solution_residual():
    spec = ModelSpec(Grid1D(1.0, 512), BoundaryCondition("antiperiodic"))
    sd = decompose(assemble(spec))
    beta, p = 0.1, 4.0
    g = mode_field(spec.grid, scale=beta)
    cfg = SchemeConfig(lam=np.pi * beta ** (2.0 - p), p=p, g=g)
    res, bres = verify_solution(sd, cfg, g)
    assert res <= 1e-6
    assert bres <= 1e-12


def test_06_scaling_equivariance(anti_sd, anti_spec):
    cfg = SchemeConfig(lam=0.05 * np.pi, p=4,
                       g=mode_field(anti_spec.grid, scale=0.1),
                       f0=mode_field(anti_spec.grid, scale=0.1),
                       max_iter=8, tol_cauchy=1e-300)
    # a run keeps its last iterate only: compare u_k of runs of k steps
    for k in range(1, 9):
        cfg_k = dataclasses.replace(cfg, max_iter=k)
        base = run(anti_sd, cfg_k)
        for alpha in (0.25, 4.0, 16.0):
            scaled = run(anti_sd, scale_problem(cfg_k, alpha))
            fac = alpha ** (-0.5)
            assert len(scaled.states) == len(base.states)
            ref = max(lp_norm(scaled.u, 2), 1e-300)
            assert lp_norm(scaled.u - fac * base.u, 2) <= 1e-10 * ref


def test_07_shifted_stationarity(anti_sd, anti_spec):
    cfg = SchemeConfig(lam=0.05 * np.pi, p=4,
                       g=mode_field(anti_spec.grid, scale=0.1))
    rep = run(anti_sd, cfg)
    assert rep.verdict == "converged"
    u_star = rep.u
    shifted = dataclasses.replace(cfg, a=1.0, f0=u_star)
    u1 = step(anti_sd, shifted, u_star)
    assert lp_norm(u1 - u_star, 2) <= 10.0 * cfg.tol_cauchy


def test_08_bootstrap_arithmetic():
    tr = bootstrap_exponents(4, "8/3", 4)
    expected = [1 / 4, 1 / 6, 1 / 36, -11 / 54]
    assert len(tr.reciprocals) == 4
    assert np.max(np.abs(np.array(tr.reciprocals) - expected)) <= 1e-12
    assert tr.m_star == 3
    assert tr.agreement() <= 1e-12
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(3, 9))
        cap = (2 * n - 2) / (n - 2)
        p = round(float(rng.uniform(2.01, cap - 0.01)), 4)
        l0 = round(float(rng.uniform(0.2, 30.0)), 4)
        assert bootstrap_exponents(n, p, l0).agreement() <= 1e-12


def test_09_condition_arithmetic():
    consts = AnalyticConstants(n=2, p_A=4.0)
    rep = check_conditions(consts)
    assert abs(rep.kappa - 6.0) <= 1e-12
    hand = 1.0 / (6.0 * 2.0 ** 1.5 * 3.0)
    assert abs(c3_lambda_threshold(consts) - hand) <= 1e-12


def test_10_variational_functional(anti_sd):
    op, vecs = anti_sd.operator, dense_eigenvectors(anti_sd)
    for k in range(10):
        phi = op.embed(vecs[:, k])
        val = variational_functional(anti_sd, phi, n=2)
        assert abs(val - abs(anti_sd.eigenvalues[k])) <= 1e-8
        for c in (0.5, 3.0):
            scaled = variational_functional(anti_sd, c * phi, n=2)
            assert scaled == pytest.approx(val, rel=1e-10)


def test_11_fractional_regularity_stability(anti_sd, anti_sd_128):
    maxima = []
    for sd in (anti_sd_128, anti_sd):
        rng = np.random.default_rng(7)
        best = 0.0
        for _ in range(100):
            f = random_constrained_field(sd, rng)
            best = max(best, slobodeckij_norm(f, 0.5) ** 2
                       / graph_norm(sd, 0.5, f) ** 2)
        maxima.append(best)
    assert maxima[1] <= 2.0 * maxima[0]
    assert maxima[0] <= 2.0 * maxima[1]


def test_04b_certified_sweep_cli(tmp_path):
    # the same certification path through the batch front end
    start = time.monotonic()
    from diracbvp.cli import run_command
    text = """
[scheme]
g = exp_mode(1, 0.05)

[constants]
c1 = empirical
c_half = empirical

[sweep]
param = scheme.lambda
min = 0
max = 0.01
count = 11
"""
    out = tmp_path / "sweep"
    assert run_command(parse_config(text), "sweep", str(out)) == 0
    import csv
    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 12
    for row in rows[1:]:
        if row[6] == "true":  # certified points must contract
            assert row[2] == "converged"
            assert float(row[5]) < 1.0
    assert time.monotonic() - start < 60.0


@pytest.mark.parametrize("kind, g, min_order, max_error", [
    # second order: the SBP stencil's error
    ("bag1d", "exp_mode(1, 0.3)", 1.9, 5e-8),
    # first order: P g != 0, and the Fourier D_P floors the residual
    ("antiperiodic", "const(0.3)", 0.95, 5e-5),
])
def test_12_solution_converges_to_the_closed_form(kind, g, min_order,
                                                  max_error):
    # the last state's u_H1 against the closed form's: |u| = |a| and
    # |u'| = omega |a| along the solution, omega = lambda |a|^{p-2}
    errors, h1_errors = [], []
    for n_points in (65, 129, 257, 513):
        cfg = parse_config(
            "[model]\nboundary = %s\nn_points = %d\n[scheme]\nlambda = 2\n"
            "p = 4\ng = %s\ntol_cauchy = 1e-13\nmax_iter = 100\n"
            % (kind, n_points, g))
        spec = cfg.build_model()
        scheme_cfg = cfg.build_scheme(*cfg.build_fields(spec))
        rep = run(decompose(assemble(spec)), scheme_cfg)
        assert rep.states[-1].delta_norm_H12D < 1e-13
        exact = closed_form_solution(spec, scheme_cfg.g, 2.0, 4.0)
        errors.append(np.max(np.linalg.norm(rep.u.values - exact, axis=1)))
        a_abs = np.linalg.norm(exact[0])
        omega = 2.0 * a_abs ** 2
        h1_exact = a_abs * np.sqrt(spec.grid.length * (1.0 + omega ** 2))
        h1_errors.append(abs(rep.states[-1].h1t_norm - h1_exact))
    # h halves at each step: N - 1 doubles
    for errs in (errors, h1_errors):
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= min_order), orders
        assert errs[-1] < max_error, errs
