import hashlib
import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from acousticfd import AcousticParams, GridSpec
from acousticfd.experiments import kernel_adapted_state
from acousticfd.schemes import CATALOG_NAMES, make_scheme, rhs
from acousticfd.timestep import StepControl, cfl_dt, run
from acousticfd.stencils import (MatrixStencil, ScalarStencil, VecStencilRow,
                                 averaged_div, central_bracket, central_div,
                                 consistent_diffusion, curl_of, diff_half,
                                 dimsplit_div, rational_string, second_bracket,
                                 smooth_bracket, sum_half, tx, ty)

from helpers import FractionModel, SP_NAMES, identity_stencil, row_apply
from matrix_entries import full_box_entries, matrix_stencil


def test_identity_stencil(square_grid, rng):
    u = rng.standard_normal((16, 16))
    assert np.array_equal(identity_stencil().apply(u, square_grid), u)


def test_bracket_on_linear_index(square_grid):
    # [q]_{i+-1} on q_{ij} = i gives 2 away from the wrap rows
    q = np.fromfunction(lambda i, j: i * 1.0, (16, 16))
    out = central_bracket(0).apply(q, square_grid)
    assert np.all(out[1:-1, :] == 2.0)


def test_second_bracket_on_squares(square_grid):
    # [[q]]_{i+-1/2} on q = i^2 is the exact second difference, 2 everywhere inside
    q = np.fromfunction(lambda i, j: (i * 1.0) ** 2, (16, 16))
    out = second_bracket(0).apply(q, square_grid)
    assert np.all(out[1:-1, :] == 2.0)


def test_smooth_of_diff_equals_wide_diff():
    # {[q]}_{i+-1/2} = [q]_{i+-1} as coefficient maps
    assert sum_half(0) * diff_half(0) == central_bracket(0)
    assert sum_half(1) * diff_half(1) == central_bracket(1)


def test_cross_bracket_four_corners(square_grid, rng):
    q = rng.standard_normal((16, 16))
    st = central_bracket(0) * central_bracket(1)
    out = st.apply(q, square_grid)
    i, j = 7, 9
    expect = q[i + 1, j + 1] - q[i - 1, j + 1] - q[i + 1, j - 1] + q[i - 1, j - 1]
    assert out[i, j] == pytest.approx(expect, rel=1e-15)


def test_axis_brackets_commute():
    a = diff_half(0) * sum_half(1)
    b = sum_half(1) * diff_half(0)
    assert a == b


def test_stencil_add_requires_matching_units():
    with pytest.raises(ValueError):
        diff_half(0).with_units(-1, 0) + diff_half(0)
    with pytest.raises(ValueError):
        tx(1).with_units(0, 1) + 1
    # a zero stencil is the identity of +, whatever its units, as it is for == and hash
    a = tx(1).with_units(0, 1)
    for zero in (ScalarStencil({}, (0, 1)), a - a):
        assert (zero + 1).units == (0, 0) and zero + 1 == 1 + zero == ScalarStencil({(0, 0): 1})


def test_scalar_apply_rejects_small_grid():
    g = GridSpec(nx=3, ny=3, dx=0.1, dy=0.1)
    wide = central_bracket(0) * central_bracket(0)  # radius 2
    with pytest.raises(ValueError):
        wide.apply(np.zeros((3, 3)), g)


def golden_weights(row, grid):
    return {k: v for k, v in sorted(row.weights(grid).items())}


def test_central_div_coefficients():
    g = GridSpec(nx=8, ny=8, dx=0.25, dy=0.5)
    d = central_div()
    assert golden_weights(d.bu, g) == {(-1, 0): -2.0, (1, 0): 2.0}
    assert golden_weights(d.bv, g) == {(0, -1): -1.0, (0, 1): 1.0}


def test_averaged_div_coefficients():
    g = GridSpec(nx=8, ny=8, dx=1.0, dy=1.0)
    d = averaged_div()
    assert golden_weights(d.bu, g) == {(-1, -1): -0.125, (-1, 0): -0.25, (-1, 1): -0.125,
                                       (1, -1): 0.125, (1, 0): 0.25, (1, 1): 0.125}
    assert golden_weights(d.bv, g) == {(-1, -1): -0.125, (0, -1): -0.25, (1, -1): -0.125,
                                       (-1, 1): 0.125, (0, 1): 0.25, (1, 1): 0.125}


def test_consistent_diffusion_coefficients():
    g = GridSpec(nx=8, ny=8, dx=1.0, dy=1.0)
    r = consistent_diffusion(1, 0)
    assert golden_weights(r.bu, g) == {(-1, -1): 0.25, (-1, 0): 0.5, (-1, 1): 0.25,
                                       (0, -1): -0.5, (0, 0): -1.0, (0, 1): -0.5,
                                       (1, -1): 0.25, (1, 0): 0.5, (1, 1): 0.25}
    assert golden_weights(r.bv, g) == {(-1, -1): 0.25, (-1, 1): -0.25,
                                       (1, -1): -0.25, (1, 1): 0.25}
    assert consistent_diffusion(0, 0).bu.is_zero()
    assert consistent_diffusion(0, 0).bv.is_zero()


def test_dimsplit_div_degenerates_to_central():
    assert dimsplit_div(0).to_json_dict() == central_div().to_json_dict()


def test_divergence_rows_exact_on_linear_fields():
    g = GridSpec(nx=8, ny=8, dx=0.125, dy=0.125)
    x, y = g.cell_centers()
    for row in (central_div(), averaged_div(), dimsplit_div(F(1, 3) / F(2) ** 2)):
        out = row_apply(row, x, y, g)   # u = x, v = y, divergence 2
        assert np.max(np.abs(out[2:-2, 2:-2] - 2.0)) < 1e-13


def test_central_div_rigid_rotation_and_checkerboard():
    g = GridSpec.unit_square(8)
    x, y = g.cell_centers()
    out = row_apply(central_div(), -(y - 0.5), x - 0.5, g)
    assert np.max(np.abs(out[1:-1, 1:-1])) < 1e-13
    cb = np.fromfunction(lambda i, j: (-1.0) ** (i + j), (8, 8))
    assert np.max(np.abs(row_apply(central_div(), cb, np.zeros_like(cb), g))) == 0.0
    assert np.max(np.abs(row_apply(averaged_div(), cb, np.zeros_like(cb), g))) == 0.0


def test_curl_rows():
    g = GridSpec.unit_square(8)
    x, y = g.cell_centers()
    # rigid rotation u = -y, v = x has curl 2, linear so exact
    out = row_apply(curl_of(dimsplit_div(F(1, 2))), -(y - 0.5), x - 0.5, g)
    assert np.max(np.abs(out[1:-1, 1:-1] - 2.0)) < 1e-13
    assert curl_of(dimsplit_div(0)).to_json_dict() == curl_of(central_div()).to_json_dict()
    # curl of a sampled gradient field is O(dx^2) small; an oblique plane
    # wave keeps the mode out of the exact discrete kernel
    errs = []
    for n in (16, 32):
        gg = GridSpec.unit_square(n)
        xx, yy = gg.cell_centers()
        phi_x = 2 * np.pi * np.cos(2 * np.pi * (xx + 2 * yy))
        phi_y = 4 * np.pi * np.cos(2 * np.pi * (xx + 2 * yy))
        errs.append(np.max(np.abs(row_apply(curl_of(averaged_div()), phi_x, phi_y, gg))))
    assert errs[0] > 1e-6
    assert errs[1] < errs[0] / 3.0


def test_apply_linearity_and_translation(square_grid, rng):
    st = averaged_div().bu
    q = rng.standard_normal((16, 16))
    r = rng.standard_normal((16, 16))
    lhs = st.apply(2.0 * q - 3.0 * r, square_grid)
    rhs = 2.0 * st.apply(q, square_grid) - 3.0 * st.apply(r, square_grid)
    assert np.max(np.abs(lhs - rhs)) < 1e-13
    rolled = st.apply(np.roll(q, (2, 5), axis=(0, 1)), square_grid)
    assert np.array_equal(rolled, np.roll(st.apply(q, square_grid), (2, 5), axis=(0, 1)))


def test_composition_symbol_homomorphism(aniso_grid, rng):
    # whole-cell operators only; half-offset factors cannot act on a field
    a = central_bracket(0) * smooth_bracket(1)
    b = second_bracket(1).with_units(0, -1)
    f = rng.standard_normal((aniso_grid.nx, aniso_grid.ny))
    got = (a * b).apply(f, aniso_grid)
    assert np.max(np.abs(got - a.apply(b.apply(f, aniso_grid), aniso_grid))) < 1e-12 * np.max(np.abs(got))
    assert a * b == b * a


def _whole_cell(cells, units):
    return ScalarStencil({(2 * sx, 2 * sy): c for (sx, sy), c in cells.items()}, units)


cells = st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                        st.fractions(-3, 3, max_denominator=8), max_size=6)
units = st.tuples(st.integers(-1, 1), st.integers(-1, 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(a=cells, b=cells, c=cells, ua=units, ub=units,
       dx=st.sampled_from((1.0, 1 / 3, 0.05, 1e-3)),
       dy=st.sampled_from((1.0, 0.07, 1 / 16)),
       seed=st.integers(0, 2 ** 16))
def test_product_is_composition(a, b, c, ua, ub, dx, dy, seed):
    grid = GridSpec(12, 10, dx, dy)
    a, b, c = _whole_cell(a, ua), _whole_cell(b, ub), _whole_cell(c, ub)
    f = np.random.default_rng(seed).standard_normal((12, 10))
    got = (a * b).apply(f, grid)
    want = a.apply(b.apply(f, grid), grid)
    scale = (sum(map(abs, a.weights(grid).values())) * sum(map(abs, b.weights(grid).values()))
             * np.max(np.abs(f)))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def _assert_clean(stencil, want, units):
    assert stencil.coeffs == want and stencil.units == units
    assert all(type(c) is F and c != 0 for c in stencil.coeffs.values())
    assert all(type(a) is int and type(b) is int for a, b in stencil.coeffs)
    # nonzero int numerators over one positive int denominator, in lowest terms
    assert all(type(v) is int and v for v in stencil.num.values())
    assert type(stencil.den) is int and stencil.den > 0
    assert math.gcd(stencil.den, *stencil.num.values()) == 1


half_cells = st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                             st.fractions(-3, 3, max_denominator=6), max_size=6)
scalars = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=7),
                    st.decimals(-5, 5, places=3, allow_nan=False, allow_infinity=False).map(str),
                    st.just(0))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(a=half_cells, b=half_cells, ua=units, ub=units, s=scalars, shift=units,
       dx=st.sampled_from((1.0, 1 / 3, 0.05, 1e-3)), dy=st.sampled_from((1.0, 0.07, 1 / 16)))
@example(a={(2, 0): F(1)}, b={(2, 0): F(1)}, ua=(0, 0), ub=(0, 0), s=0, shift=(0, 0),
         dx=1.0, dy=1.0)
@example(a={(1, 0): F(1), (-1, 0): F(-1)}, b={(1, 0): F(1), (-1, 0): F(1)},
         ua=(-1, 0), ub=(0, 0), s=F(1, 2), shift=(1, 0), dx=1 / 3, dy=1.0)
@example(a={(1, 0): F(1, 2), (-1, 0): F(-1, 2)}, b={(1, 0): F(1, 2)}, ua=(0, 0), ub=(-1, 0),
         s="0.250", shift=(1, 1), dx=1e-3, dy=0.07)
def test_integer_stencil_matches_fraction_model(a, b, ua, ub, s, shift, dx, dy):
    # products, sums, scaling, units and binding against one Fraction per coefficient
    grid = GridSpec(12, 10, dx, dy)
    sa, sb, sc = ScalarStencil(a, ua), ScalarStencil(b, ua), ScalarStencil(b, ub)
    ma, mb, mc = FractionModel.of(a, ua), FractionModel.of(b, ua), FractionModel.of(b, ub)
    for got, want in ((sa * sc, ma * mc), (sc * sa, ma * mc), (sa + sb, ma + mb),
                      (sa - sb, ma - mb), (-sa, -ma), (sa * s, ma * s), (s * sa, ma * s),
                      (ScalarStencil(a) + s, FractionModel.of(a) + s),
                      (sa.with_units(*shift), ma.with_units(*shift)),
                      (sa.bound(grid), ma.bound(grid)), (sc.bound(grid), mc.bound(grid))):
        _assert_clean(got, want.coeffs, want.units)
    # every zero stencil is one value, whatever its units
    zeros = [sa - sa, sa * 0, sc - sc, ScalarStencil({}, ub),
             ScalarStencil(dict.fromkeys(b, 0), ua)]
    assert all(z == zeros[0] and hash(z) == hash(zeros[0]) for z in zeros)
    assert all(z.is_zero() for z in zeros)
    with pytest.raises(TypeError):
        ScalarStencil({**a, (1, 1): True}, ua)
    with pytest.raises(TypeError):
        sa * True


def test_cancellation_leaves_no_zero_coefficient():
    assert (tx(1) - tx(1)).coeffs == {}
    assert ((tx(1) - tx(1)) * ty(1)).coeffs == {}
    assert ((tx(1) + ty(1)) * (tx(1) - ty(1))).coeffs == {(4, 0): 1, (0, 4): -1}
    assert (central_bracket("x") * 2 - diff_half("x") * sum_half("x") * 2).coeffs == {}


def test_scalar_product_and_sum():
    assert tx(1) * 0.5 == tx(1) * F(1, 2) == 0.5 * tx(1)
    assert (tx(1) + 1) - 1 == tx(1) == 1 + tx(1) - 1
    assert tx(1) * ty(-1) == ScalarStencil({(2, -2): 1})


def test_hash_agrees_with_equality():
    zeros = [ScalarStencil({}, (-1, 0)), ScalarStencil({}), ScalarStencil({(2, 0): 0}, (0, -1))]
    assert all(z == zeros[0] for z in zeros)
    assert len({hash(z) for z in zeros}) == 1
    assert len(set(zeros)) == 1
    assert len({tx(1), tx(1).with_units(-1, 0), ty(1)}) == 3


def test_rational_string_exact_decimals():
    assert rational_string(1, 4) == "0.25"
    assert rational_string(1, 8) == "0.125"
    assert rational_string(-3, 2) == "-1.5"
    assert rational_string(1, 3) == "1/3"
    assert rational_string(7, 1) == "7"
    assert rational_string(1, 10) == "0.1"
    # each JSON cell is its own numerator over the shared denominator, reduced
    st = ScalarStencil({(0, 0): F(1, 2), (2, 0): F(-1, 3), (0, -2): F(5, 6)})
    assert [e["value"] for e in st.to_json_dict()["entries"]] == ["5/6", "0.5", "-1/3"]


def test_stencil_json_schema():
    d = averaged_div().to_json_dict()
    for part in ("bu", "bv"):
        doc = d[part]
        assert set(doc) >= {"radius", "entries"}
        assert doc["radius"] == 1
        for e in doc["entries"]:
            assert set(e) >= {"sx", "sy", "value"}
    # exact decimal strings for the dyadic-rational catalog operators
    vals = {e["value"] for e in d["bu"]["entries"]}
    assert vals == {"0.125", "0.25", "-0.125", "-0.25"}
    json.dumps(d)  # serializable


def test_matrix_stencil_apply_matches_blocks(square_grid, rng):
    st = (central_bracket(0) * F(1, 2)).with_units(-1, 0)
    zero = ScalarStencil({})
    ms = MatrixStencil(square_grid, [[zero] * 3, [zero] * 3,
                                     [st.bound(square_grid) * 4, zero, zero]])
    q = rng.standard_normal((3, 16, 16))
    out = ms.apply_sum(q)
    expect = 4.0 * st.apply(q[0], square_grid)
    assert np.max(np.abs(out[2] - expect)) < 1e-12
    assert np.max(np.abs(out[0])) == 0.0
    assert np.max(np.abs(out[1])) == 0.0


def test_matrix_stencil_rejects_half_cells_and_units(square_grid):
    zero = ScalarStencil({})
    with pytest.raises(ValueError, match="half-index"):
        MatrixStencil(square_grid, [[diff_half(0), zero, zero], [zero] * 3, [zero] * 3])
    with pytest.raises(ValueError, match="units"):
        MatrixStencil(square_grid, [[tx(1).with_units(-1, 0), zero, zero], [zero] * 3,
                                    [zero] * 3])


def test_matrix_stencil_radius_follows_entries(square_grid, rng):
    q = rng.standard_normal((3, 16, 16))
    tap = ((0, 0, (1, 0)), F(3, 8))
    assert matrix_stencil(square_grid, [tap]).radius == 1
    wide = matrix_stencil(square_grid, [tap, ((1, 2, (0, -7)), F(1, 2))])
    assert wide.radius == 7
    assert_matches_roll_oracle(wide, q)
    with pytest.raises(ValueError, match="radius 8"):
        matrix_stencil(square_grid, [tap, ((2, 1, (8, 0)), F(1))]).apply_sum(q)
    # entries that cancel leave no tap, and no radius
    ms = matrix_stencil(square_grid, [tap, ((2, 1, (8, 0)), F(1)), ((2, 1, (8, 0)), F(-1))])
    assert ms.radius == 1 and list(ms.float_blocks()) == [(1, 0)]
    assert np.array_equal(ms.apply_sum(q)[0], 0.375 * np.roll(q[0], -1, axis=0))


def roll_apply_sum(ms, q):
    """Reference for MatrixStencil.apply_sum: one roll, 3x3 product and sum per tap."""
    out = np.zeros_like(q)
    for (sx, sy), mat in ms.float_blocks().items():
        shifted = np.roll(q, (-sx, -sy), axis=(1, 2))
        out += (mat @ shifted.reshape(3, -1)).reshape(q.shape)
    return out


def assert_matches_roll_oracle(ms, q):
    out = ms.apply_sum(q)
    assert out.shape == q.shape
    scale = sum(np.max(np.abs(m)) for m in ms.float_blocks().values()) * np.max(np.abs(q))
    assert np.max(np.abs(out - roll_apply_sum(ms, q))) <= 1e-13 * scale


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(CATALOG_NAMES + ("dimsplit",)),
       coeffs=st.lists(st.floats(-4, 4, allow_subnormal=False), min_size=4, max_size=4),
       eps=st.sampled_from((1.0, 1e-2, 1e-6)),
       nx=st.integers(3, 12), ny=st.integers(3, 12),
       dx=st.sampled_from((1.0, 1 / 3, 0.05, 1e-3)),
       dy=st.sampled_from((1.0, 0.07, 1 / 16)),
       seed=st.integers(0, 2 ** 16))
@example(name="multid", coeffs=[0, 0, 0, 0], eps=1.0, nx=3, ny=3, dx=1.0, dy=1.0, seed=0)
@example(name="roe", coeffs=[0, 0, 0, 0], eps=1e-6, nx=12, ny=5, dx=1e-3, dy=0.07, seed=1)
def test_apply_sum_matches_roll_oracle(name, coeffs, eps, nx, ny, dx, dy, seed):
    grid = GridSpec(nx, ny, dx, dy)
    kwargs = dict(zip(("a1", "a2", "a3", "a4"), coeffs)) if name == "dimsplit" else {}
    ms = make_scheme(name, AcousticParams(c=1.0, eps=eps), grid, **kwargs).stencil
    q = np.random.default_rng(seed).standard_normal((3, nx, ny))
    assert_matches_roll_oracle(ms, q)


# sha256 over float_blocks(), the packed W and taps, apply_sum on seeded data, symbol at
# seeded phases and exact_symbol, recorded while schemes were assembled entry by entry
STENCIL_SHA256 = "c0b86ad63ab5f49a784487ac9a274214cdbbc65304a2c4ad979fb64967ad24fc"
DIGEST_DIMSPLIT = ({"a1": 0.5, "a2": 0.3, "a3": -1.75, "a4": 2.0},
                   {"a1": 0.0, "a2": 1 / 3, "a3": 0.25, "a4": 0.0})


def test_assembled_stencils_digest_unchanged():
    h = hashlib.sha256()
    rng = np.random.default_rng(7)
    phases = rng.uniform(-np.pi, np.pi, (2, 5))
    for grid in (GridSpec.unit_square(16), GridSpec(12, 7, 1e-3, 0.07)):
        for eps in (1.0, 1e-2, 1e-6):
            for name, kwargs in ([(n, {}) for n in CATALOG_NAMES]
                                 + [("dimsplit", k) for k in DIGEST_DIMSPLIT]):
                ms = make_scheme(name, AcousticParams(c=1.0, eps=eps), grid, **kwargs).stencil
                for (sx, sy), mat in ms.float_blocks().items():
                    h.update(repr((sx, sy, mat.shape)).encode() + mat.tobytes())
                W, taps = ms._packed
                h.update(repr(W.shape).encode() + W.tobytes())
                h.update(repr([(int(k0), int(k1), int(off), int(s.start), int(s.stop),
                                int(s.step)) for k0, k1, off, s in taps]).encode())
                q = rng.standard_normal((3, grid.nx, grid.ny))
                h.update(ms.apply_sum(q).tobytes() + ms.symbol(*phases).tobytes())
                h.update(repr([[(sorted(e.coeffs.items()), e.units) for e in row]
                               for row in ms.exact_symbol()]).encode())
    assert h.hexdigest() == STENCIL_SHA256


@st.composite
def _wide_stencils(draw):
    # sparse taps, each with its own (row, col) pair, and one tap at the full radius
    r = draw(st.integers(2, 3))
    offsets = st.tuples(st.integers(-r, r), st.integers(-r, r))
    keys = st.tuples(st.integers(0, 2), st.integers(0, 2), offsets)
    values = st.builds(F, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 8))
    entries = draw(st.dictionaries(keys, values, max_size=8))
    edge = draw(st.sampled_from([(r, 0), (-r, 1), (2, -r), (-1, r), (r, r), (-r, -r)]))
    entries[(draw(st.integers(0, 2)), draw(st.integers(0, 2)), edge)] = draw(values)
    return r, entries


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(stencil=_wide_stencils(), extra_x=st.integers(0, 6), extra_y=st.integers(0, 6),
       seed=st.integers(0, 2 ** 16))
def test_apply_sum_wide_stencils_match_roll_oracle(stencil, extra_x, extra_y, seed):
    r, entries = stencil
    grid = GridSpec(2 * r + 1 + extra_x, 2 * r + 1 + extra_y, 0.05, 0.07)
    ms = matrix_stencil(grid, entries.items())
    assert ms.radius == r
    q = np.random.default_rng(seed).standard_normal((3, grid.nx, grid.ny))
    assert_matches_roll_oracle(ms, q)


def test_apply_sum_zero_and_radius_zero_stencils(aniso_grid, rng):
    q = rng.standard_normal((3, aniso_grid.nx, aniso_grid.ny))
    empty = matrix_stencil(aniso_grid, [])
    assert np.array_equal(empty.apply_sum(q), np.zeros_like(q))
    cancelled = matrix_stencil(aniso_grid, [((0, 2, (1, -1)), F(1, 3)), ((0, 2, (1, -1)), F(-1, 3))])
    assert cancelled.radius == 0
    assert np.array_equal(cancelled.apply_sum(q), np.zeros_like(q))
    local = matrix_stencil(aniso_grid, [((row, col, (0, 0)), value) for row, col, value in
                                        ((0, 0, F(1, 2)), (0, 2, F(-3)), (2, 0, F(7, 5)),
                                         (2, 1, F(2)))])
    assert local.radius == 0
    assert_matches_roll_oracle(local, q)


def per_tap_fill(ms, slot, n):
    """The shift buffer as one copy per tap of the packing fills it from a ring slot."""
    flat = slot.reshape(3, -1)
    return np.concatenate([flat[comps, off:off + n] for _, _, off, comps in ms._packed[1]])


@pytest.mark.parametrize("kind", ["multid", "box2", "roe"])
def test_workspace_fill_is_one_copy_when_the_taps_fill_their_box(kind, aniso_grid, rng):
    # multid and a radius-2 stencil hold all three components at every offset of their box
    if kind == "box2":
        ms = matrix_stencil(aniso_grid, full_box_entries(2))
    else:
        ms = make_scheme(kind, AcousticParams(c=1.0, eps=0.01), aniso_grid).stencil
    taps, box = len(ms._packed[1]), (2 * ms.radius + 1) ** 2
    assert (taps == box) == (kind != "roe")
    ws = ms.workspace()
    halos, buf = ws.halos, ws.buf
    assert buf.shape[0] == (3 * box if kind != "roe" else 11)
    for halo, slot in zip(halos, ws.ring):
        assert len(halo.fill) == (1 if kind != "roe" else taps)
        slot[...] = rng.standard_normal(slot.shape)
        buf[...] = np.nan
        for dst, src in halo.fill:
            np.copyto(dst, src)
        assert np.array_equal(buf, per_tap_fill(ms, slot, buf.shape[1]))
    q = rng.standard_normal((3, aniso_grid.nx, aniso_grid.ny))
    assert_matches_roll_oracle(ms, q)


def test_apply_sum_rejects_wrong_shape(square_grid):
    ms = make_scheme("roe", AcousticParams(c=1.0, eps=1.0), square_grid).stencil
    for shape in ((3, 20, 20), (16, 16), (2, 16, 16), (3, 16, 15)):
        with pytest.raises(ValueError, match="shape"):
            ms.apply_sum(np.zeros(shape))


@pytest.mark.parametrize("eps", [1.0, 1e-2])
@pytest.mark.parametrize("name", SP_NAMES)
def test_dyadic_kernel_states_are_exact_fixed_points(name, eps):
    grid = GridSpec.unit_square(32)
    params = AcousticParams(c=1.0, eps=eps)
    spec = make_scheme(name, params, grid)
    state = kernel_adapted_state(spec, seed=3, dyadic=True)
    assert np.max(np.abs(rhs(spec, state).q)) == 0.0
    dt = cfl_dt(params, grid, 0.4)
    out = run(spec, state, StepControl(cfl=0.4, t_end=1000 * dt))
    assert out.n_steps == 1000
    assert np.array_equal(out.final_state.q, state.q)


def test_curl_of_substitution():
    d = averaged_div()
    c = curl_of(d)
    assert c.bu == d.bv * -1
    assert c.bv == d.bu
