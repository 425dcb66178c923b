import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from acousticfd import (AcousticParams, FieldSet, GridSpec, as_fraction,
                        l1_norm_central_diff, write_field_csv)
from acousticfd.grid import l1_scratch
from fractions import Fraction


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(nx=2, ny=8, dx=0.1, dy=0.1)
    with pytest.raises(ValueError):
        GridSpec(nx=8, ny=8, dx=-0.1, dy=0.1)
    for dx, dy, bad in ((np.inf, 0.1, "dx = inf"), (0.1, np.nan, "dy = nan")):
        with pytest.raises(ValueError, match="positive and finite, got " + bad):
            GridSpec(nx=8, ny=8, dx=dx, dy=dy)
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
    with pytest.raises(ValueError, match="c must be finite, got -inf"):
        AcousticParams(c=-np.inf, eps=0.1)
    with pytest.raises(ValueError, match="eps must be finite, got nan"):
        AcousticParams(c=1.0, eps=np.nan)


def test_fieldset_views_and_copy():
    g = GridSpec.unit_square(4)
    f = FieldSet.zeros(g)
    f.u[1, 1] = 3.0
    assert f.q[0, 1, 1] == 3.0
    f2 = f.copy()
    f2.u[1, 1] = 5.0
    assert f.u[1, 1] == 3.0
    assert f.norm_inf() == 3.0


def test_fieldset_checks_the_shape_of_q():
    g = GridSpec(4, 5)
    for shape in ((3, 5, 4), (2, 4, 5), (4, 5)):
        with pytest.raises(ValueError, match=r"grid wants \(3, 4, 5\)"):
            FieldSet(g, np.zeros(shape))
    q = np.ones((3, 4, 5), dtype=int)
    assert FieldSet(g, q).q.dtype == float


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
       seed=st.integers(0, 2 ** 16), ring=st.integers(1, 3))
@example(nx=3, ny=3, dx=1.0, dy=0.07, scale=1.0, seed=0, ring=3)
@example(nx=12, ny=3, dx=1e-3, dy=1.0, scale=1.0, seed=1, ring=1)
def test_l1_norm_central_diff_matches_roll_oracle_bitwise(nx, ny, dx, dy, scale, seed, ring):
    g = GridSpec(nx, ny, dx, dy)
    u = scale * np.random.default_rng(seed).standard_normal((nx, ny))
    # the field inside a periodic ghost ring of any width, as a march's halo holds it
    ringed = np.pad(u, ring, mode="wrap")
    for axis in (0, 1):
        # the L1 total sums the undivided differences and scales the sum once
        total = roll_oracle_total(u, axis, g)
        assert l1_norm_central_diff(u, axis, g) == total
        assert l1_norm_central_diff(ringed, axis, g, l1_scratch(g, 1, ring)) == total


def roll_oracle_total(u, axis, g):
    # (delta'/2) sum |u_{+1} - u_{-1}|, delta' the other axis's cell width
    other = (g.dy, g.dx)[axis]
    return float(np.sum(np.abs(np.roll(u, -1, axis=axis) - np.roll(u, 1, axis=axis)))
                 * (0.5 * other))


def divided_total(u, axis, g):
    # the per-cell form: sum |(u_{+1} - u_{-1}) / (2 delta)| dx dy
    delta = (g.dx, g.dy)[axis]
    d = (np.roll(u, -1, axis=axis) - np.roll(u, 1, axis=axis)) / (2.0 * delta)
    return float(np.sum(np.abs(d)) * g.dx * g.dy)


def divided_total_bound(n):
    # numpy sums n <= 128 contiguous values in 8 running sums, combines them in 3 levels
    # and adds the last n mod 8 values, so each value passes through D <= n // 8 + 9
    # roundings. With the division and the two products the per-cell form is within
    # (D + 3) u of the exact total, and the undivided one within (D + 1) u (u = 2^-53)
    return (2 * (n // 8 + 9) + 4) * 2.0 ** -53


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(nx=st.integers(3, 10), ny=st.integers(3, 10),
       dx=st.one_of(st.integers(-3, 10).map(lambda a: 2.0 ** -a),
                    st.sampled_from((1 / 3, 0.05, 1e-3, 0.07))),
       dy=st.one_of(st.integers(-3, 10).map(lambda b: 2.0 ** -b),
                    st.sampled_from((1 / 3, 0.05, 1e-3, 0.07))),
       scale=st.sampled_from((1.0, 1e-200, 1e150)), seed=st.integers(0, 2 ** 16),
       ring=st.integers(0, 3), k=st.integers(1, 8))
@example(nx=10, ny=10, dx=1 / 64, dy=1 / 64, scale=1.0, seed=0, ring=1, k=8)
@example(nx=8, ny=3, dx=2.0 ** 3, dy=0.07, scale=1e-200, seed=1, ring=0, k=1)
@example(nx=10, ny=9, dx=0.07, dy=1 / 3, scale=1e150, seed=2, ring=3, k=5)
def test_l1_norm_is_the_divided_total_where_the_spacing_is_a_power_of_two(nx, ny, dx, dy, scale,
                                                                          seed, ring, k):
    # dividing by 2 delta = 2^(1-a) only rescales each value, exactly, so summing first and
    # scaling once gives the per-cell total bit for bit; elsewhere the two round apart
    g = GridSpec(nx, ny, dx, dy)
    fields = scale * np.random.default_rng(seed).standard_normal((k, nx, ny))
    stack = np.pad(fields, ((0, 0), (ring, ring), (ring, ring)), mode="wrap")
    for axis, delta in ((0, dx), (1, dy)):
        totals = l1_norm_central_diff(stack, axis, g).tolist()
        totals.append(l1_norm_central_diff(stack[0], axis, g))
        for total, u in zip(totals, list(fields) + [fields[0]]):
            want = divided_total(u, axis, g)
            if np.frexp(delta)[0] == 0.5:
                assert total == want
            else:
                assert abs(total - want) <= divided_total_bound(nx * ny) * want


# a field whose x and y differences all overflow: neighbours two cells apart differ in sign
OVERFLOWING = np.fromfunction(lambda i, j: np.where((i + j) % 4 < 2, 1e308, -1e308), (10, 10))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(nx=st.integers(3, 10), ny=st.integers(3, 10),
       dx=st.sampled_from((1.0, 1 / 3, 0.05, 1e-3)), dy=st.sampled_from((1.0, 0.07, 1 / 16)),
       scale=st.sampled_from((1.0, 1e-200, 1e150)), seed=st.integers(0, 2 ** 16),
       ring=st.integers(0, 3), k=st.integers(1, 8), slots=st.integers(0, 2),
       defect=st.sampled_from((None, np.nan, np.inf, -np.inf, "overflow")))
@example(nx=3, ny=3, dx=1.0, dy=0.07, scale=1.0, seed=0, ring=0, k=1, slots=0, defect=None)
@example(nx=10, ny=3, dx=1e-3, dy=1.0, scale=1.0, seed=1, ring=3, k=8, slots=2, defect=np.nan)
@example(nx=4, ny=7, dx=0.05, dy=1 / 16, scale=1.0, seed=2, ring=1, k=8, slots=0,
         defect="overflow")
def test_stacked_l1_norm_matches_roll_oracle_bitwise(nx, ny, dx, dy, scale, seed, ring, k,
                                                     slots, defect):
    # k fields stacked as a march ring holds them: component 0 of k slots of a (k + slots,
    # 3, nx+2r, ny+2r) array, each slot inside its periodic ghost ring (bare at r = 0)
    g = GridSpec(nx, ny, dx, dy)
    rng = np.random.default_rng(seed)
    fields = scale * rng.standard_normal((k, nx, ny))
    victim = int(rng.integers(k))
    if defect == "overflow":
        fields[victim] = OVERFLOWING[:nx, :ny]
    elif defect is not None:
        fields[victim, rng.integers(nx), rng.integers(ny)] = defect
    halos = np.pad(rng.standard_normal((k + slots, 3, nx, ny)),
                   ((0, 0), (0, 0), (ring, ring), (ring, ring)), mode="wrap")
    halos[:k, 0] = np.pad(fields, ((0, 0), (ring, ring), (ring, ring)), mode="wrap")
    stack = halos[:k, 0]
    scratch = l1_scratch(g, k + slots, ring)
    for axis in (0, 1):
        for out in (None, scratch):
            if defect in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match="non-finite"):
                    l1_norm_central_diff(stack, axis, g, out)
                continue
            with np.errstate(over="ignore"):
                totals = l1_norm_central_diff(stack, axis, g, out)
            assert totals.shape == (k,)
            for i, (total, u) in enumerate(zip(totals.tolist(), fields)):
                if defect == "overflow" and i == victim:
                    assert total == np.inf
                else:
                    assert total == roll_oracle_total(u, axis, g)


def test_stacked_l1_norm_rejects_shapes_that_fit_no_ring():
    g = GridSpec(5, 4, 0.2, 0.25)
    for shape in ((2, 4, 5), (2, 6, 5), (1, 7, 7), (2, 3, 2), (2, 1, 5, 4), (5,)):
        with pytest.raises(ValueError, match="no fields"):
            l1_norm_central_diff(np.zeros(shape), 0, g)


def test_l1_norm_rejects_an_axis_that_is_not_0_or_1():
    # a field and a stack share one path, which reads any axis but 0 as y unless it checks
    g = GridSpec(5, 4, 0.2, 0.25)
    for component in (np.zeros((5, 4)), np.zeros((3, 7, 6))):
        for axis in (2, -1):
            with pytest.raises(ValueError, match="axis must be 0 or 1"):
                l1_norm_central_diff(component, axis, g)


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
    # differences of 1.2e308 are finite, their sum over the field is not
    u = np.zeros((4, 4))
    u[0], u[2] = 6e307, -6e307
    assert np.isfinite(np.roll(u, -1, axis=0) - np.roll(u, 1, axis=0)).all()
    assert l1_norm_central_diff(u, 0, g) == np.inf
    assert l1_norm_central_diff(u.T, 1, g) == np.inf


def test_field_csv_roundtrip(tmp_path, rng):
    g = GridSpec.unit_square(5)
    f = FieldSet(g, rng.standard_normal((3, 5, 5)))
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


def test_field_csv_bytes_match_per_cell_numpy_formatting(tmp_path, rng):
    # the writer formats rows of Python floats; the oracle indexes numpy scalars cell by cell
    g = GridSpec(6, 5, 0.1, 1 / 3)
    q = rng.standard_normal((3, 6, 5)) * np.array([1.0, 1e-300, 1e300])[:, None, None]
    q[0, 1, 2], q[1, 0, 0] = -0.0, 0.1
    f = FieldSet(g, q)
    lines = ["i,j,x,y,u,v,p\n"]
    for i in range(g.nx):
        for j in range(g.ny):
            lines.append("%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g\n" % (
                i, j, (i + 0.5) * g.dx, (j + 0.5) * g.dy, f.u[i, j], f.v[i, j], f.p[i, j]))
    write_field_csv(tmp_path / "f.csv", f)
    assert (tmp_path / "f.csv").read_text() == "".join(lines)

