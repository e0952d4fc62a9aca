import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import dense_eigenvectors, mode_field
from diracbvp import (AnalyticConstants, BoundaryCondition, ModelSpec,
                      assemble, bootstrap_exponents, check_conditions,
                      decompose, eigenfunction, el_transform,
                      estimate_gn_ratio, variational_functional)
from diracbvp.conditions import MODE_A, MODE_B, MODE_C, derive_exponents
from diracbvp.errors import ParameterError
from diracbvp.grids import Grid1D, SpinorField


# ------------------------------------------------------------- exponents

def test_exponents_n2_defaults():
    consts = AnalyticConstants(n=2)  # p = p_A = 4
    theta_a, theta_b, p_b, kappa = derive_exponents(consts)
    assert theta_a == pytest.approx(0.5)
    assert theta_b == pytest.approx(1.0)
    assert p_b == pytest.approx(4.0)
    assert kappa == pytest.approx(2.0 * (consts.p - 1.0))  # unit constants


def test_exponents_n3():
    consts = AnalyticConstants(n=3)  # p = p_A = 3
    theta_a, theta_b, p_b, kappa = derive_exponents(consts)
    assert theta_a == pytest.approx(0.5)
    assert theta_b == pytest.approx(1.0)
    assert p_b == pytest.approx(3.0)
    assert kappa == pytest.approx(4.0)


def test_exponents_respond_to_constants():
    base = AnalyticConstants(n=2)
    doubled = AnalyticConstants(n=2, c_half=2.0)
    k0 = derive_exponents(base)[3]
    k1 = derive_exponents(doubled)[3]
    assert k1 == pytest.approx(k0 * 2.0 ** derive_exponents(base)[1])


def test_parameter_validation():
    with pytest.raises(ParameterError):
        AnalyticConstants(n=1)
    with pytest.raises(ParameterError):
        AnalyticConstants(n=3, p_A=2.5)  # below 2n/(n-1) = 3
    with pytest.raises(ParameterError):
        AnalyticConstants(n=3, p_A=7.0)  # above 2n/(n-2) = 6
    with pytest.raises(ParameterError):
        AnalyticConstants(n=2, c1=0.0)
    with pytest.raises(ParameterError):
        AnalyticConstants(n=2, lambda_abs=-1.0)
    AnalyticConstants(n=2, p_A=100.0)  # n = 2: no upper cap
    with pytest.raises(ParameterError):
        # Hoelder split degenerates when p exceeds p_A + 2
        derive_exponents(AnalyticConstants(n=2, p=7.0, p_A=4.0))


# ------------------------------------------------------------ conditions

def test_trivial_data_certifies_everywhere():
    consts = AnalyticConstants(n=2, lambda_abs=0.0)
    for mode in (MODE_C, MODE_B):
        rep = check_conditions(consts, mode)
        assert rep.certified, mode
        assert rep.B == 0.0
        assert rep.contraction_bound == 0.0
    # A_raw needs a spectral gap above 1 for A = 1/|lambda_1| < 1
    rep = check_conditions(AnalyticConstants(n=2, lambda_abs=0.0,
                                             lambda1_abs=2.0), MODE_A)
    assert rep.certified
    assert rep.A == 0.5 and rep.B == 0.0


def test_c3_threshold_value_unit_constants():
    consts = AnalyticConstants(n=2)
    thr = check_conditions(consts).c3_lambda_threshold
    assert thr == pytest.approx(1.0 / (36.0 * math.sqrt(2.0)), rel=1e-14)


def test_c3_sharp_at_threshold():
    thr = check_conditions(AnalyticConstants(n=2)).c3_lambda_threshold
    lam1 = np.pi
    below = AnalyticConstants(n=2, lambda_abs=0.999 * thr * lam1,
                              lambda1_abs=lam1)
    above = AnalyticConstants(n=2, lambda_abs=1.001 * thr * lam1,
                              lambda1_abs=lam1)
    assert check_conditions(below, MODE_C).conditions["C3"]["satisfied"]
    assert not check_conditions(above, MODE_C).conditions["C3"]["satisfied"]


@pytest.mark.parametrize("mode", [MODE_C, MODE_B, MODE_A])
def test_c3_threshold_decides_c3_in_every_mode(mode):
    # the reported threshold is the (C3) verdict itself: C3 holds exactly
    # when |lambda|/|lambda_1| lies below it, in whichever mode it is read.
    # K_FGN = 1e-300 underflows the (C3) coefficient: no lambda breaks C3
    spread = [dict(n=2), dict(n=3), dict(n=2, c_half=4.0, c_h=0.5),
              dict(n=2, K_FGN=3.0, K_GN2=2.0, C_h=1.5), dict(n=4, p_A=3.5),
              dict(n=2, lambda1_abs=0.2),
              dict(n=3, lambda1_abs=40.0, K_FGN=1e-3),
              dict(n=2, K_FGN=1e-300)]
    verdicts = []
    for kwargs in spread:
        thr = check_conditions(AnalyticConstants(**kwargs),
                               mode).c3_lambda_threshold
        assert (thr == math.inf) == (kwargs.get("K_FGN") == 1e-300)
        for lam in np.geomspace(1e-4, 10.0, 41):
            consts = AnalyticConstants(**kwargs, lambda_abs=lam)
            ratio = lam / consts.lambda1_abs
            if abs(ratio / thr - 1.0) <= 1e-9:
                continue
            assert check_conditions(consts, mode).c3_lambda_threshold == thr
            c3 = check_conditions(consts, MODE_C).conditions["C3"]
            assert c3["satisfied"] == (ratio < thr)
            verdicts.append(c3["satisfied"])
    assert len(verdicts) > 200 and set(verdicts) == {True, False}


def test_c_mode_norm_caps():
    # a large datum breaks C1/C2 even at lambda = 0
    consts = AnalyticConstants(n=2, lambda_abs=0.0, g_L2T=1.5)
    rep = check_conditions(consts, MODE_C)
    assert not rep.conditions["C1"]["satisfied"]
    assert not rep.certified
    consts2 = AnalyticConstants(n=2, lambda_abs=0.0, g_H1T=1.5)
    assert not check_conditions(consts2, MODE_C).conditions["C2"]["satisfied"]


def test_b_mode_uses_caps():
    # the same datum passes once the caps Xi, Lambda are enlarged
    consts = AnalyticConstants(n=2, lambda_abs=0.0, g_L2T=1.5, g_H1T=1.5,
                               Xi=2.0, Lambda_cap=2.0)
    rep = check_conditions(consts, MODE_B)
    assert rep.certified
    assert rep.A == 0.5 and rep.eps == 0.5


def test_a_mode_failure_flagged_not_raised():
    # |lambda_1| = 1/2 makes A = 2 >= 1: no contraction, eps < 0
    consts = AnalyticConstants(n=2, lambda_abs=0.1, lambda1_abs=0.5)
    rep = check_conditions(consts, MODE_A)
    assert rep.A == pytest.approx(2.0)
    assert rep.eps == pytest.approx(-1.0)
    assert rep.contraction_bound == math.inf
    assert not rep.conditions["A4"]["satisfied"]
    assert not rep.certified


def test_a_mode_certifies_small_lambda():
    consts = AnalyticConstants(n=2, lambda_abs=1e-3, lambda1_abs=np.pi,
                               g_L2T=0.1, g_H1T=0.1)
    rep = check_conditions(consts, MODE_A)
    assert rep.certified
    assert rep.contraction_bound < 1.0


def test_condition_monotone_in_lambda():
    lhs = [check_conditions(AnalyticConstants(n=2, lambda_abs=lam),
                            MODE_C).conditions["C3"]["lhs"]
           for lam in (0.0, 0.005, 0.01, 0.02)]
    assert lhs == sorted(lhs)


def test_report_serialization():
    rep = check_conditions(AnalyticConstants(n=2, lambda_abs=0.01), MODE_C)
    d = rep.to_dict()
    assert set(d) == {"mode", "conditions", "theta_A", "theta_B", "p_B",
                      "kappa", "A", "B", "eps", "contraction_bound",
                      "c3_lambda_threshold", "certified"}
    assert d["mode"] == MODE_C
    assert set(d["conditions"]) == {"C1", "C2", "C3"}
    assert d["certified"] == rep.certified
    for payload in d["conditions"].values():
        assert set(payload) == {"lhs", "rhs", "satisfied", "strict"}
    with pytest.raises(ParameterError):
        check_conditions(AnalyticConstants(n=2), mode="D_bogus")


# ------------------------------------------------------------- bootstrap

def test_bootstrap_documented_example():
    tr = bootstrap_exponents(3, 3, 6)
    # 1/l = 0 (u in W^{1,n}, which misses L^inf) takes one more step
    assert tr.reciprocals == [1 / 6, 0.0, -1 / 3]
    assert tr.m_star == 2


def test_bootstrap_subcritical_example():
    tr = bootstrap_exponents(3, 2.5, 4)
    assert tr.reciprocals == pytest.approx([1 / 4, 1 / 24, -13 / 48])
    assert tr.m_star == 2


def test_bootstrap_fixed_point_never_terminates():
    # l0 = n(p-2) is the fixed point of the affine recursion
    tr = bootstrap_exponents(3, 3, 3)
    assert tr.m_star is None
    assert len(tr.reciprocals) == 65
    assert all(v == tr.reciprocals[0] for v in tr.reciprocals)


def test_bootstrap_validation():
    with pytest.raises(ParameterError):
        bootstrap_exponents(2, 3, 6)
    with pytest.raises(ParameterError):
        bootstrap_exponents(3, 2, 6)
    with pytest.raises(ParameterError):
        bootstrap_exponents(3, 4, 6)  # p at the admissible cap (2n-2)/(n-2)
    with pytest.raises(ParameterError):
        bootstrap_exponents(3, 3, 0)


def test_bootstrap_random_triples_agree():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(3, 8))
        cap = (2 * n - 2) / (n - 2)
        p = round(float(rng.uniform(2.05, cap - 0.05)), 3)
        l0 = round(float(rng.uniform(0.5, 20.0)), 3)
        tr = bootstrap_exponents(n, p, l0)  # checked against the closed form
        if tr.m_star is not None:
            assert tr.reciprocals[tr.m_star] < 0
            assert all(v >= 0 for v in tr.reciprocals[:tr.m_star])


# ------------------------------------------------------------ functional

def test_functional_recovers_eigenvalues(anti_sd, anti_spec):
    op, vecs = anti_sd.operator, dense_eigenvectors(anti_sd)
    for k in (0, 2, 4):
        phi = op.embed(vecs[:, k])
        val = variational_functional(anti_sd, phi, n=2)
        assert val == pytest.approx(abs(anti_sd.eigenvalues[k]), rel=1e-10)


def test_functional_zero_homogeneous(anti_sd, anti_spec):
    phi = mode_field(anti_spec.grid) + 0.3 * mode_field(anti_spec.grid, k=3)
    base = variational_functional(anti_sd, phi, n=2)
    for c in (0.1, 5.0, 2.0j):
        assert variational_functional(anti_sd, c * phi, n=2) \
            == pytest.approx(base, rel=1e-12)


def test_functional_degenerate_pairing(anti_sd, anti_spec):
    # equal-weight +pi and -pi modes cancel the pairing exactly
    vecs = dense_eigenvectors(anti_sd)
    phi = anti_sd.operator.embed(vecs[:, 0] + vecs[:, 1])
    with pytest.raises(ParameterError,
                       match=r"pairing \|int Re<D phi, phi>\| = .* too small"):
        variational_functional(anti_sd, phi, n=2)
    with pytest.raises(ParameterError):
        variational_functional(anti_sd, mode_field(anti_spec.grid), n=1)


@pytest.mark.parametrize("length", [1e13, 1e15])
def test_functional_on_a_long_interval(length):
    # F is 0-homogeneous, and so is its pairing test: on [0, L] the
    # normalized mode phi_0 gives F = sqrt(L) |lambda_0| however small
    # the pairing itself is
    sd = decompose(assemble(ModelSpec(Grid1D(length, 64),
                                      BoundaryCondition("antiperiodic"))))
    value = variational_functional(sd, eigenfunction(sd, 0), n=2)
    assert value == pytest.approx(math.sqrt(length) * abs(sd.eigenvalues[0]),
                                  rel=1e-10)


def test_el_transform_on_eigenfunction(anti_sd, anti_spec):
    # D phi = pi phi with |phi| = 1 pointwise, so Psi = pi^{q-1} phi
    phi = mode_field(anti_spec.grid)
    q = 4.0 / 3.0
    psi = el_transform(anti_sd, phi, q)
    expected = np.pi ** (q - 1.0) * phi.values
    assert np.max(np.abs(psi.values - expected)) < 1e-9


def test_el_transform_zero_field(anti_sd, anti_spec):
    z = SpinorField.zero(anti_spec.grid)
    psi = el_transform(anti_sd, z, 4.0 / 3.0)
    assert np.all(psi.values == 0)


# -------------------------------------------------------------- GN ratio

def _constant_field_ratios(grid):
    """(first, second) of the constant field at n = 2, p = p_A = 4: the
    closed form L^{1/r - 1/q}, q = 4/3, r = 12 and r = 4."""
    return (grid.length ** (1.0 / 12.0 - 0.75),
            grid.length ** (0.25 - 0.75))


def test_gn_ratio_dominates_constant_trial():
    # the constant field is the first trial: at L = 1 every norm in the
    # quotient is 1, and at L = 0.01 no bump beats its closed form
    # L^{1/r - 1/q}, 0.01^{1/12 - 3/4} = 21.544 and 0.01^{-1/2} = 10
    assert _constant_field_ratios(Grid1D(0.01, 8)) == pytest.approx(
        (21.544346900318832, 10.0), rel=1e-12)
    for topology in ("interval", "circle"):
        for length in (1.0, 0.01, 100.0):
            grid = Grid1D(length, 128, topology=topology)
            found = (estimate_gn_ratio(grid, "first", n=2, p=4),
                     estimate_gn_ratio(grid, "second", n=2, p_A=4))
            closed = _constant_field_ratios(grid)
            if length > 1.0:  # bumps beat it on a long domain
                assert found[0] > closed[0] and found[1] > closed[1]
            else:
                assert found == pytest.approx(closed, rel=1e-12)


def test_gn_ratio_on_a_circle():
    # the bumps sit at the middle of the circle, in the arc distance, so
    # a circle and an interval of one length witness about the same bound
    for length in (1.0, 10.0, 100.0):
        line, circle = (estimate_gn_ratio(Grid1D(length, 256, topology=t),
                                          "first", n=2, p=4)
                        for t in ("interval", "circle"))
        assert circle == pytest.approx(line, rel=1e-2)


def test_gn_ratio_resolves_a_long_interval():
    # a random search over modes up to 8 gave 0.082 here; the bumps of
    # widths 2 to 16 at h = 0.39 are resolved, and witness more
    grid = Grid1D(100.0, 256)
    assert estimate_gn_ratio(grid, "first", n=2, p=4) >= 0.35


def test_gn_ratio_is_the_same_on_every_call(anti_sd, anti_spec):
    grid = anti_spec.grid
    for variant, kw in (("first", {"p": 3}), ("second", {"p_A": 6}),
                        ("fractional", {"p_A": 4, "sd": anti_sd})):
        assert (estimate_gn_ratio(grid, variant, n=2, **kw)
                == estimate_gn_ratio(grid, variant, n=2, **kw))


@pytest.mark.parametrize("topology", ["interval", "circle"])
def test_gn_ratio_stays_in_the_floats(topology):
    # a bump's derivative is -2 t f / w, kept as the bounded -2 t f and
    # the scalar 1/w: no sample or norm leaves the floats, and no warning
    # (errors under pytest's filterwarnings) is raised, at any length
    for length in (1e-300, 1e-200, 1e-10, 1.0, 1e10, 1e200, 1e300):
        for n_points in (8, 9, 64):
            grid = Grid1D(length, n_points, topology=topology)
            for variant, kw in (("first", {"p": 4}), ("second", {"p_A": 4})):
                value = estimate_gn_ratio(grid, variant, n=2, **kw)
                assert math.isfinite(value) and value > 0


def test_gn_ratio_fractional(anti_sd, anti_spec):
    # phi_0 + phi_k on N = 256; white-noise trials gave 0.175 here
    est = estimate_gn_ratio(anti_spec.grid, "fractional", n=2, p_A=4,
                            sd=anti_sd)
    assert est >= 0.69


def test_gn_ratio_draws_no_random_numbers():
    # the trials are fixed fields: no call loads numpy.random
    import diracbvp
    src = os.path.dirname(os.path.dirname(os.path.abspath(diracbvp.__file__)))
    code = ("import sys\n"
            "from diracbvp import (BoundaryCondition, Grid1D, ModelSpec,\n"
            "                      assemble, decompose, estimate_gn_ratio)\n"
            "spec = ModelSpec(Grid1D(1.0, 64), BoundaryCondition('bag1d'))\n"
            "sd = decompose(assemble(spec))\n"
            "for v, kw in (('first', {'p': 4}), ('second', {'p_A': 4}),\n"
            "              ('fractional', {'p_A': 4, 'sd': sd})):\n"
            "    assert estimate_gn_ratio(spec.grid, v, 2, **kw) > 0\n"
            "print('numpy.random' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_gn_ratio_validation(anti_spec):
    grid = anti_spec.grid
    with pytest.raises(ParameterError):
        estimate_gn_ratio(grid, "third", n=2, p=4)
    with pytest.raises(ParameterError):
        estimate_gn_ratio(grid, "first", n=2)  # missing p
    with pytest.raises(ParameterError):
        estimate_gn_ratio(grid, "second", n=2)  # missing p_A
    with pytest.raises(ParameterError):
        estimate_gn_ratio(grid, "fractional", n=2, p_A=4)  # missing sd
