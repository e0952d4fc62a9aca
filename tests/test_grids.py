import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import slobodeckij_form
from diracbvp import (BoundaryCondition, Grid1D, ModelSpec, SpinorField,
                      load_field_csv, lp_norm, nonlinearity, save_field_csv,
                      slobodeckij_norm, w1q_norm)
from diracbvp.errors import InvalidFieldError, ParameterError
from diracbvp.grids import slobodeckij_operator


def random_field(grid, rank=1, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((grid.n_points, rank)) \
        + 1j * rng.standard_normal((grid.n_points, rank))
    return SpinorField(grid, vals)


# ---------------------------------------------------------------- grids

def test_grid_spacing_reproduces_length():
    gi = Grid1D(3.0, 100, "interval")
    assert gi.spacing * (gi.n_points - 1) == pytest.approx(3.0, abs=1e-15)
    gc = Grid1D(3.0, 100, "circle")
    assert gc.spacing * gc.n_points == pytest.approx(3.0, abs=1e-15)


def test_grid_validation():
    with pytest.raises(ParameterError, match="need n_points >= 8, got 4"):
        Grid1D(1.0, 4)
    for length in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError,
                           match="length must be positive, got %r" % length):
            Grid1D(length, 64)
    with pytest.raises(ParameterError, match="unknown topology 'weird'"):
        Grid1D(1.0, 64, "weird")


def test_weights_sum_to_length():
    for topo in ("interval", "circle"):
        g = Grid1D(2.5, 33, topo)
        assert np.sum(g.weights()) == pytest.approx(2.5, rel=1e-14)


def test_field_validation(tmp_path):
    g = Grid1D(1.0, 16)
    with pytest.raises(InvalidFieldError):
        SpinorField(g, np.full(16, np.nan))
    with pytest.raises(InvalidFieldError):
        SpinorField(g, np.ones(15))
    # a field of rank 0, also as a CSV whose header is only `x`
    with pytest.raises(InvalidFieldError, match=r"shape \(16, 0\)"):
        SpinorField(g, np.zeros((16, 0)))
    path = tmp_path / "x_only.csv"
    path.write_text("x\n" + "0.0\n" * 16, encoding="utf-8")
    with pytest.raises(InvalidFieldError, match=r"rank >= 1"):
        load_field_csv(g, path)
    with pytest.raises(ParameterError, match="fields live on different grids"):
        random_field(g) + random_field(Grid1D(1.0, 17))
    with pytest.raises(ParameterError, match="fields have ranks 1 and 2"):
        random_field(g) + random_field(g, rank=2)


# ---------------------------------------------------------------- lp_norm

def test_lp_norm_zero_field():
    g = Grid1D(1.0, 32)
    for p in (1.5, 2.0, 4.0):
        assert lp_norm(SpinorField.zero(g), p) == 0.0


def test_lp_norm_unit_constant_circle():
    g = Grid1D(1.0, 32, "circle")
    f = SpinorField(g, np.column_stack([np.ones(32), np.zeros(32)]))
    assert lp_norm(f, 2) == pytest.approx(1.0, rel=1e-14)


def test_lp_norm_unit_modulus_mode():
    # |exp(i pi x)| = 1 pointwise, so every L^p norm is 1 on [0,1]
    g = Grid1D(1.0, 256)
    f = SpinorField(g, np.exp(1j * np.pi * g.points()))
    assert lp_norm(f, 2) == pytest.approx(1.0, rel=1e-13)
    assert lp_norm(f, 4) == pytest.approx(1.0, rel=1e-13)


def test_lp_norm_parameter_range():
    g = Grid1D(1.0, 16)
    with pytest.raises(ParameterError):
        lp_norm(random_field(g), 1.0)


# ---------------------------------------------------------------- w1q_norm

def model_of(grid, rank=1):
    """The model of this grid's topology and rank: w1q_norm uses its D."""
    if grid.topology == "circle":
        return ModelSpec(grid, BoundaryCondition("periodic"))
    return ModelSpec(grid, BoundaryCondition(
        "bag1d" if rank == 2 else "antiperiodic"))


def test_w1q_zero_and_constant():
    g = Grid1D(2.0, 64)
    spec = model_of(g)
    assert w1q_norm(spec, SpinorField.zero(g), 2) == 0.0
    c = 3.0 - 4.0j
    f = SpinorField(g, np.full(64, c))
    assert w1q_norm(spec, f, 2) \
        == pytest.approx(abs(c) * np.sqrt(2.0), rel=1e-10)


def test_w1q_circle_mode():
    g = Grid1D(1.0, 256, "circle")
    f = SpinorField(g, np.exp(2j * np.pi * g.points()))
    expected = np.sqrt(1.0 + (2 * np.pi) ** 2)
    assert w1q_norm(model_of(g), f, 2) == pytest.approx(expected, abs=1e-6)


# ---------------------------------------------------------- slobodeckij

@pytest.mark.parametrize("topology", ["interval", "circle"])
@pytest.mark.parametrize("n_points", [8, 9, 64, 257])
def test_slobodeckij_operator_matches_dense_form(topology, n_points):
    # the FFT Toeplitz / circulant product against the dense form Q
    g = Grid1D(1.3, n_points, topology)
    f = random_field(g, rank=2, seed=n_points)
    for s in (0.5, 0.25):
        dense = slobodeckij_form(g, s) @ f.values
        fast = slobodeckij_operator(g, s)(f.values)
        assert np.linalg.norm(fast - dense) <= 1e-12 * np.linalg.norm(dense)
        semi2 = np.real(np.vdot(f.values, dense))
        ref = np.sqrt(lp_norm(f, 2) ** 2 + semi2)
        assert slobodeckij_norm(f, s) == pytest.approx(ref, rel=1e-12)


def test_slobodeckij_zero_and_constant():
    g = Grid1D(2.0, 64)
    assert slobodeckij_norm(SpinorField.zero(g), 0.5) == 0.0
    f = SpinorField(g, np.full(64, 1.5j))
    assert slobodeckij_norm(f, 0.5) == pytest.approx(1.5 * np.sqrt(2.0),
                                                     rel=1e-12)


def test_slobodeckij_refinement_consistency():
    vals = []
    for n in (128, 256):
        g = Grid1D(1.0, n, "circle")
        f = SpinorField(g, np.exp(2j * np.pi * g.points()))
        vals.append(slobodeckij_norm(f, 0.5))
    ratio = vals[1] / vals[0]
    assert 1 / 1.1 < ratio < 1.1


def test_slobodeckij_parameter_range():
    g = Grid1D(1.0, 16)
    with pytest.raises(ParameterError):
        slobodeckij_norm(random_field(g), 1.0)


# --------------------------------------------------------- nonlinearity

def test_nonlinearity_examples():
    g = Grid1D(1.0, 32)
    z = SpinorField.zero(g)
    assert np.all(nonlinearity(z, 4).values == 0)
    f = SpinorField(g, np.exp(1j * np.pi * g.points()))  # unit modulus
    out = nonlinearity(f, 3.7)
    assert np.allclose(out.values, f.values, atol=1e-13)
    two = SpinorField(g, np.full(32, 2.0))
    assert np.allclose(nonlinearity(two, 4).values, 8.0)


def test_nonlinearity_zero_point_and_p2():
    g = Grid1D(1.0, 16)
    vals = np.zeros(16, dtype=complex)
    vals[3] = 2.0
    f = SpinorField(g, vals)
    out = nonlinearity(f, 3.0)
    assert out.values[0, 0] == 0.0 and out.values[3, 0] == 4.0
    linear = nonlinearity(f, 2)  # a new field with f's values
    assert np.array_equal(linear.values, f.values)
    assert not np.shares_memory(linear.values, f.values)
    with pytest.raises(ParameterError):
        nonlinearity(f, 1.9)


# ---------------------------------------------------------- properties

@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1000),
       st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                          allow_nan=False, allow_infinity=False))
def test_homogeneity(seed, c):
    g = Grid1D(1.0, 32)
    f = random_field(g, rank=2, seed=seed)
    spec = model_of(g, rank=2)
    for norm in (lambda u: lp_norm(u, 3.0),
                 lambda u: w1q_norm(spec, u, 2.0),
                 lambda u: slobodeckij_norm(u, 0.5)):
        assert norm(c * f) == pytest.approx(abs(c) * norm(f), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1000), st.floats(1.1, 6.0), st.floats(0.05, 4.0))
def test_lp_monotone_on_unit_domain(seed, t, gap):
    # Hoelder on a probability measure: ||f||_t <= ||f||_s for t < s
    g = Grid1D(1.0, 64)
    f = random_field(g, seed=seed)
    assert lp_norm(f, t) <= lp_norm(f, t + gap) * (1 + 1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1000), st.floats(2.0, 5.0),
       st.floats(0.1, 10.0))
def test_nonlinearity_degree(seed, p, c):
    g = Grid1D(1.0, 48)
    f = random_field(g, rank=2, seed=seed)
    lhs = lp_norm(nonlinearity(c * f, p), 2)
    rhs = c ** (p - 1) * lp_norm(nonlinearity(f, p), 2)
    assert lhs == pytest.approx(rhs, rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1000))
def test_triangle_inequality(seed):
    g = Grid1D(1.0, 32)
    f = random_field(g, seed=seed)
    h = random_field(g, seed=seed + 77777)
    spec = model_of(g)
    for norm in (lambda u: lp_norm(u, 2.5),
                 lambda u: w1q_norm(spec, u, 2.0),
                 lambda u: slobodeckij_norm(u, 0.5)):
        assert norm(f + h) <= norm(f) + norm(h) + 1e-12


# ------------------------------------------------------------------ csv

def test_csv_roundtrip(tmp_path):
    g = Grid1D(1.0, 16)
    f = random_field(g, rank=2, seed=5)
    path = tmp_path / "field.csv"
    save_field_csv(f, path)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "x,re_0,im_0,re_1,im_1"
    back = load_field_csv(g, path)
    assert np.array_equal(back.values, f.values)


def test_load_field_csv_names_the_bad_line(tmp_path):
    g = Grid1D(1.0, 8)
    path = tmp_path / "field.csv"
    path.write_text("x,re_0,im_0\n" + "0.0,1.0,0.0\n" * 3 + "0.0,nan,0.0\n"
                    + "0.0,1.0,0.0\n" * 4, encoding="utf-8")
    with pytest.raises(InvalidFieldError, match="^%s line 5: non-finite "
                       "value$" % re.escape(str(path))):
        load_field_csv(g, path)
