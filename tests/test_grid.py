import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from acousticfd import (AcousticParams, FieldSet, GridSpec, as_fraction,
                        l1_norm_central_diff, write_field_csv)
from acousticfd.grid import central_diff
from fractions import Fraction


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(nx=2, ny=8, dx=0.1, dy=0.1)
    with pytest.raises(ValueError):
        GridSpec(nx=8, ny=8, dx=-0.1, dy=0.1)
    g = GridSpec.unit_square(50)
    assert g.nx == g.ny == 50
    assert g.dx == g.dy == 0.02
    assert g.min_spacing == 0.02


def test_grid_exact_spacings():
    g = GridSpec.unit_square(64)
    # 1/64 is a binary fraction, exact both ways
    assert g.dx_exact == Fraction(1, 64)
    assert float(g.dx_exact) == g.dx


def test_as_fraction_decimal_repr():
    assert as_fraction(0.01) == Fraction(1, 100)
    assert as_fraction(0.5) == Fraction(1, 2)
    assert as_fraction(Fraction(2, 3)) == Fraction(2, 3)
    assert as_fraction(3) == 3
    # numpy scalars are float subclasses with a wrapped repr
    assert as_fraction(np.float64(0.25)) == Fraction(1, 4)
    with pytest.raises(TypeError):
        as_fraction(True)


def test_params_exact_twins():
    p = AcousticParams(c=1.0, eps=0.01)
    assert p.eps_exact == Fraction(1, 100)
    assert p.c_exact == 1
    with pytest.raises(ValueError):
        AcousticParams(c=-1.0, eps=0.1)
    with pytest.raises(ValueError):
        AcousticParams(c=1.0, eps=0.0)


def test_fieldset_views_and_copy():
    g = GridSpec.unit_square(4)
    f = FieldSet.zeros(g)
    f.u[1, 1] = 3.0
    assert f.q[0, 1, 1] == 3.0
    f2 = f.copy()
    f2.u[1, 1] = 5.0
    assert f.u[1, 1] == 3.0
    assert f.norm_inf() == 3.0


def test_l1_norm_constant_is_zero():
    g = GridSpec.unit_square(8)
    f = FieldSet.constant(g, u=7.0)
    assert l1_norm_central_diff(f.u, 0, g) == 0.0
    assert l1_norm_central_diff(f.u, 1, g) == 0.0


def test_l1_norm_linear_ramp_summation_oracle():
    # u_{ij} = i*dx on 4x4: every column's central difference has magnitude 1
    # (the wrap cells see the same slope magnitude), total = nx*ny*dx*dy
    g = GridSpec(nx=4, ny=4, dx=0.25, dy=0.25)
    u = np.fromfunction(lambda i, j: i * 0.25, (4, 4))
    total = l1_norm_central_diff(u, 0, g)
    assert total == pytest.approx(4 * 4 * 0.25 * 0.25, abs=1e-15)


def test_l1_norm_sine_refined():
    g = GridSpec.unit_square(64)
    x, _ = g.cell_centers()
    u = np.sin(2 * np.pi * x)
    # integral of |2 pi cos(2 pi x)| over the unit square is 4
    assert l1_norm_central_diff(u, 0, g) == pytest.approx(4.0, rel=0.02)


def test_l1_norm_homogeneous(rng):
    g = GridSpec.unit_square(8)
    u = rng.standard_normal((8, 8))
    base = l1_norm_central_diff(u, 0, g)
    assert l1_norm_central_diff(-2.5 * u, 0, g) == pytest.approx(2.5 * base, rel=1e-13)


def test_periodic_translation_invariance(rng):
    g = GridSpec.unit_square(8)
    u = rng.standard_normal((8, 8))
    for axis in (0, 1):
        assert l1_norm_central_diff(np.roll(u, 3, axis=axis), axis, g) == \
            pytest.approx(l1_norm_central_diff(u, axis, g), rel=1e-13)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(nx=st.integers(3, 12), ny=st.integers(3, 12),
       dx=st.sampled_from((1.0, 1 / 3, 0.05, 1e-3)),
       dy=st.sampled_from((1.0, 0.07, 1 / 16)),
       scale=st.sampled_from((1.0, 1e-200, 1e150)),
       seed=st.integers(0, 2 ** 16))
@example(nx=3, ny=3, dx=1.0, dy=0.07, scale=1.0, seed=0)
@example(nx=12, ny=3, dx=1e-3, dy=1.0, scale=1.0, seed=1)
def test_central_diff_matches_roll_oracle_bitwise(nx, ny, dx, dy, scale, seed):
    g = GridSpec(nx, ny, dx, dy)
    u = scale * np.random.default_rng(seed).standard_normal((nx, ny))
    for axis, delta in ((0, dx), (1, dy)):
        oracle = (np.roll(u, -1, axis=axis) - np.roll(u, 1, axis=axis)) / (2.0 * delta)
        d = central_diff(u, axis, g)
        assert d.shape == (nx, ny) and d.flags.c_contiguous
        assert np.array_equal(d, oracle)
        assert l1_norm_central_diff(u, axis, g) == float(np.sum(np.abs(oracle)) * dx * dy)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_l1_norm_rejects_any_non_finite_cell(bad):
    g = GridSpec(5, 4, 0.2, 0.25)
    for i in range(5):
        for j in range(4):
            u = np.ones((5, 4))
            u[i, j] = bad
            for axis in (0, 1):
                with pytest.raises(ValueError, match="non-finite"):
                    l1_norm_central_diff(u, axis, g)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_l1_norm_overflow_returns_inf():
    # finite input whose differences overflow is not an error
    g = GridSpec.unit_square(4)
    u = np.zeros((4, 4))
    u[0], u[2] = 1e308, -1e308
    assert l1_norm_central_diff(u, 0, g) == np.inf
    assert l1_norm_central_diff(u.T, 1, g) == np.inf


def test_field_csv_roundtrip(tmp_path, rng):
    g = GridSpec.unit_square(5)
    f = FieldSet.from_q(g, rng.standard_normal((3, 5, 5)))
    path = tmp_path / "field.csv"
    write_field_csv(path, f)
    header = path.read_text().splitlines()[0]
    assert header == "i,j,x,y,u,v,p"
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    i, j = table[:, 0].astype(int), table[:, 1].astype(int)
    assert sorted(zip(i, j)) == [(a, b) for a in range(5) for b in range(5)]
    assert np.array_equal(table[:, 2], (i + 0.5) * g.dx)
    assert np.array_equal(table[:, 3], (j + 0.5) * g.dy)
    for k in range(3):
        assert np.array_equal(table[:, 4 + k], f.q[k][i, j])
