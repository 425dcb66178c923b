"""Catalog construction, claims, and rhs evaluation."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from acousticfd.grid import AcousticParams, FieldSet, GridSpec
from acousticfd.schemes import (
    CATALOG_NAMES,
    catalog,
    diffusion_scale,
    dimsplit_symbol,
    make_scheme,
    rhs,
)
from acousticfd.experiments import extract_conserved_operator
from acousticfd.laurent import has_rank_two, taylor_expand
from acousticfd.stencils import (ScalarStencil, VecStencilRow, averaged_div, central_div,
                                 consistent_diffusion, curl_of, dimsplit_div)

from helpers import SP_NAMES


def test_catalog_names_and_claims(square_grid, params):
    cat = catalog(params, square_grid)
    assert set(cat) == set(CATALOG_NAMES)
    assert set(SP_NAMES) == set(CATALOG_NAMES) - {"roe"}
    for name in SP_NAMES:
        assert cat[name].claims["stationarity_preserving"] is True
    assert cat["roe"].claims["stationarity_preserving"] is False
    assert cat["roe"].claims["expected_max_cfl"] == 0.5
    assert cat["multid"].claims["expected_max_cfl"] == 1.0
    for name in CATALOG_NAMES:
        assert cat[name].name == name


def physical_diffusion(spec):
    """The physical (a1, a2, a3, a4) of a split member, from its unitless ones."""
    return tuple(a * k for a, k in zip(spec.diffusion, diffusion_scale(spec.params)))


def test_lowmach_diffusion_tables(square_grid, params):
    # c = 2, eps = 1/2: 1/eps^2 = 4, c^2 = 4, c/eps = 4
    expected = {
        1: (0, 4, -4, 0),
        2: (0, 0, -4, 8),
        3: (0, 4, 0, 8),
    }
    for variant, dp in expected.items():
        spec = make_scheme("lowmach%d" % variant, params, square_grid)
        assert physical_diffusion(spec) == dp
    assert physical_diffusion(make_scheme("central", params, square_grid)) == (0, 0, 0, 0)
    assert make_scheme("multid", params, square_grid).diffusion is None


def test_roe_is_dimsplit_member(square_grid, params):
    ce = params.c_exact / params.eps_exact
    roe = make_scheme("roe", params, square_grid)
    member = make_scheme("dimsplit", params, square_grid,
                         a1=ce, a2=0, a3=0, a4=ce)
    assert roe.stencil.exact_symbol() == member.stencil.exact_symbol()
    assert physical_diffusion(roe) == (ce, 0, 0, ce)


def test_dimsplit_claim_follows_a1(square_grid, params):
    assert make_scheme("dimsplit", params, square_grid,
                       a1=0, a2=0.5).claims["stationarity_preserving"]
    leaky = make_scheme("dimsplit", params, square_grid, a1=0.1)
    assert not leaky.claims["stationarity_preserving"]
    with pytest.raises(ValueError, match="a1 != 0"):
        leaky.vorticity_row()


COEFFS = st.sampled_from([Fraction(0), Fraction(0), Fraction(1, 4), Fraction(-3, 2),
                          Fraction(7, 3), Fraction(1, 1000)])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(a1=COEFFS, a2=COEFFS, a3=COEFFS, a4=COEFFS,
       c=st.sampled_from([0.5, 1.0, 3.0]), eps=st.sampled_from([1.0, 0.1, 1e-4]))
@example(a1=Fraction(0), a2=Fraction(0), a3=Fraction(0), a4=Fraction(0), c=1.0, eps=1.0)
@example(a1=Fraction(1, 4), a2=Fraction(0), a3=Fraction(-3, 2), a4=Fraction(0), c=3.0, eps=0.1)
def test_dimsplit_claim_and_divergence_follow_diffusion(a1, a2, a3, a4, c, eps):
    params = AcousticParams(c=c, eps=eps)
    spec = make_scheme("dimsplit", params, GridSpec(nx=6, ny=5, dx=0.2, dy=0.01),
                       a1=a1, a2=a2, a3=a3, a4=a4)
    assert spec.claims == {"stationarity_preserving": a1 == 0}
    assert spec.divergence_row() == dimsplit_div(a3 / params.c_exact ** 2)


IDENTITY_GRIDS = (GridSpec.unit_square(16), GridSpec(12, 7, 1e-3, 0.07), GridSpec(9, 11, 0.3, 0.02))


def spacing_free_taylor(row, grid, order):
    """taylor_expand of a grid-bound row with dx, dy substituted: {(comp, m, n): coef}."""
    out = {}
    for (comp, m, n, px, py), coef in taylor_expand(row, order).items():
        out[comp, m, n] = out.get((comp, m, n), 0) + coef * grid.dx_exact ** px * grid.dy_exact ** py
    return {key: coef for key, coef in out.items() if coef}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(SP_NAMES + ("dimsplit",) * 3), a2=COEFFS, a3=COEFFS, a4=COEFFS,
       c=st.sampled_from([0.5, 1.0, 3.0]), eps=st.sampled_from([1.0, 0.5, 1e-2, 1e-6, 1e-10]),
       grid=st.sampled_from(IDENTITY_GRIDS))
@example(name="multid", a2=0, a3=0, a4=0, c=3.0, eps=1e-10, grid=IDENTITY_GRIDS[1])
@example(name="multid", a2=0, a3=0, a4=0, c=0.5, eps=1e-6, grid=IDENTITY_GRIDS[0])
def test_vorticity_and_divergence_rows_are_exact_kernels(name, a2, a3, a4, c, eps, grid):
    spec = make_scheme(name, AcousticParams(c=c, eps=eps), grid, a2=a2, a3=a3, a4=a4)
    m = spec.stencil.exact_symbol()
    wu, wv, wp = spec.vorticity_row()
    for col in range(3):
        assert (wu * m[0][col] + wv * m[1][col] + wp * m[2][col]).is_zero(), col
    # the stream-function form of every discrete stationary state
    b = spec.divergence_row()
    psi_u, psi_v = -b.bv.bound(grid), b.bu.bound(grid)
    for row in range(3):
        assert (m[row][0] * psi_u + m[row][1] * psi_v).is_zero(), row
    assert spacing_free_taylor(VecStencilRow(wu, wv), grid, 1) == {("u", 0, 1): -1,
                                                                  ("v", 1, 0): 1}
    # only multid on unequal spacings adds (dy - dx)/(2 c eps) d/dx d/dy p
    weight = 0
    if name == "multid":
        weight = (grid.dy_exact - grid.dx_exact) / (2 * spec.params.c_exact * spec.params.eps_exact)
    p_part = spacing_free_taylor(VecStencilRow(wp, ScalarStencil({})), grid, 2)
    assert p_part == ({("u", 1, 1): weight} if weight else {})


def test_multid_is_averaged_flux_plus_half_speed_diffusion(aniso_grid, params):
    spec = make_scheme("multid", params, aniso_grid)
    got = spec.stencil.exact_symbol()

    e2 = params.eps_exact ** 2
    c2 = params.c_exact ** 2
    half_ce = params.c_exact / (2 * params.eps_exact)
    A = averaged_div()
    cdx = consistent_diffusion(1, 0)
    cdy = consistent_diffusion(0, 1)

    def bind(st):
        return st.bound(aniso_grid)

    expected = [
        [bind(cdx.bu) * -half_ce, bind(cdx.bv) * -half_ce, bind(A.bu) * (1 / e2)],
        [bind(cdy.bu) * -half_ce, bind(cdy.bv) * -half_ce, bind(A.bv) * (1 / e2)],
        [bind(A.bu) * c2, bind(A.bv) * c2, (bind(cdx.bu) + bind(cdy.bv)) * -half_ce],
    ]
    for r in range(3):
        for c in range(3):
            assert got[r][c] == expected[r][c], (r, c)


def test_divergence_rows(square_grid, params):
    cat = catalog(params, square_grid)
    assert cat["multid"].divergence_row() == averaged_div()
    # roe has a3 = 0, so its divergence is the plain central one
    roe_row = cat["roe"].divergence_row()
    assert roe_row.bu.to_json_dict() == central_div().bu.to_json_dict()
    lm2 = cat["lowmach2"].divergence_row()
    ref = dimsplit_div(-params.c_exact ** 2 / params.c_exact ** 2)
    assert lm2.bu.to_json_dict() == ref.bu.to_json_dict()
    assert lm2.bv.to_json_dict() == ref.bv.to_json_dict()


def test_roe_reduces_to_1d_upwind(square_grid, params):
    spec = make_scheme("roe", params, square_grid)
    rng = np.random.default_rng(5)
    u_line = rng.standard_normal(square_grid.nx)
    p_line = rng.standard_normal(square_grid.nx)
    state = FieldSet.zeros(square_grid)
    state.u[:] = u_line[:, None]
    state.p[:] = p_line[:, None]

    out = rhs(spec, state)
    dx = square_grid.dx
    e2 = params.eps ** 2
    ce = params.c / params.eps
    sx_p = np.roll(p_line, -1) - np.roll(p_line, 1)
    qx_u = np.roll(u_line, -1) - 2 * u_line + np.roll(u_line, 1)
    sx_u = np.roll(u_line, -1) - np.roll(u_line, 1)
    qx_p = np.roll(p_line, -1) - 2 * p_line + np.roll(p_line, 1)
    want_u = -sx_p / (2 * dx * e2) + ce * qx_u / (2 * dx)
    want_p = -params.c ** 2 * sx_u / (2 * dx) + ce * qx_p / (2 * dx)
    assert np.max(np.abs(out.u - want_u[:, None])) < 1e-12 * max(1.0, np.max(np.abs(want_u)))
    assert np.max(np.abs(out.p - want_p[:, None])) < 1e-12 * max(1.0, np.max(np.abs(want_p)))
    assert np.max(np.abs(out.v)) == 0.0


def test_rhs_linear_and_translation_equivariant(square_grid, params, rng):
    spec = make_scheme("lowmach3", params, square_grid)
    qa = rng.standard_normal((3, square_grid.nx, square_grid.ny))
    qb = rng.standard_normal((3, square_grid.nx, square_grid.ny))
    fa = FieldSet(square_grid, qa)
    fb = FieldSet(square_grid, qb)
    combo = FieldSet(square_grid, 2.0 * qa - 3.0 * qb)
    lin = rhs(spec, combo).q - (2.0 * rhs(spec, fa).q - 3.0 * rhs(spec, fb).q)
    assert np.max(np.abs(lin)) < 1e-11

    rolled = FieldSet(square_grid, np.roll(qa, (2, -3), axis=(1, 2)))
    equiv = rhs(spec, rolled).q - np.roll(rhs(spec, fa).q, (2, -3), axis=(1, 2))
    assert np.max(np.abs(equiv)) == 0.0


def test_make_scheme_errors(square_grid, params):
    with pytest.raises(KeyError):
        make_scheme("nosuch", params, square_grid)
    other = GridSpec.unit_square(8)
    state = FieldSet.zeros(other)
    spec = make_scheme("central", params, square_grid)
    with pytest.raises(ValueError):
        rhs(spec, state)


def test_rhs_rejects_state_grid_with_other_spacings(square_grid, params):
    spec = make_scheme("multid", params, square_grid)
    same_shape = GridSpec(nx=16, ny=16, dx=0.5, dy=0.001)
    with pytest.raises(ValueError, match="does not match"):
        rhs(spec, FieldSet.zeros(same_shape))
    # an equal grid built separately is accepted
    assert rhs(spec, FieldSet.zeros(GridSpec.unit_square(16))).grid == square_grid


def test_dimsplit_scheme_defaults(square_grid, params):
    dp = (0, Fraction(1, 4), Fraction(1, 4), 0)
    spec = make_scheme("dimsplit", params, square_grid, *dp)
    assert spec.name == "dimsplit"
    assert spec.claims["stationarity_preserving"]
    assert physical_diffusion(spec) == dp
    assert spec.unitless == dimsplit_symbol(square_grid, spec.diffusion)


RANK_GRIDS = {"24x24": GridSpec.unit_square(24), "12x7": GridSpec(12, 7, 1e-3, 0.07)}


@pytest.mark.parametrize("grid", RANK_GRIDS.values(), ids=RANK_GRIDS.keys())
def test_exact_rank_of_the_symbol_decides_stationarity(grid):
    # the paper's criterion: at a generic wavevector J.k has a one-dimensional kernel, so
    # a scheme preserves stationarity iff M^ has rank 2 over the Laurent polynomials:
    # det(M^) = 0 identically and some cofactor is not
    params = AcousticParams(c=1.0, eps=1.0)
    for name in SP_NAMES:
        assert has_rank_two(make_scheme(name, params, grid).unitless), name
    # a1^ = 1e-154 lies below the float scan's relative tolerance; the exact det sees it
    for spec in (make_scheme("roe", params, grid),
                 make_scheme("dimsplit", params, grid, a1=1e-154, a2=0.5),
                 make_scheme("dimsplit", AcousticParams(c=5e153, eps=1.0), grid, a1=0.5, a2=0.5)):
        assert not has_rank_two(spec.unitless), spec.diffusion


def constant_matrix(rows):
    return [[ScalarStencil({(0, 0): v}) for v in row] for row in rows]


def test_rank_two_needs_a_nonzero_cofactor_beyond_the_first_row():
    # rank 2 whose first-row cofactors all vanish: rows 1 and 2 are equal
    assert has_rank_two(constant_matrix([[1, 0, 0], [0, 1, 0], [0, 1, 0]]))
    assert has_rank_two(constant_matrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]]))
    # rank 3, 1 and 0
    assert not has_rank_two(constant_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert not has_rank_two(constant_matrix([[1, 2, 0], [2, 4, 0], [3, 6, 0]]))
    assert not has_rank_two(constant_matrix([[0, 0, 0]] * 3))


# a1^ = a1 eps/c: zero, of order one, or down to the 1e-154 scale the float scan misses
A1_HAT = st.one_of(st.just(Fraction(0)),
                   st.fractions(Fraction(-3), Fraction(3), max_denominator=64),
                   st.builds(lambda k, n: Fraction(k, 10 ** n),
                             st.integers(-9, 9).filter(bool), st.integers(20, 154)))
SPLIT_COEFFICIENT = st.fractions(Fraction(-3), Fraction(3), max_denominator=16)
EXTREME_SCALE = st.sampled_from([1e-150, 1e-8, 1.0, 3.0, 1e8, 5e153])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(a1_hat=A1_HAT, rest=st.tuples(SPLIT_COEFFICIENT, SPLIT_COEFFICIENT, SPLIT_COEFFICIENT),
       c=EXTREME_SCALE, eps=EXTREME_SCALE, aspect=st.sampled_from([0.1, 1, 2, 10]))
@example(a1_hat=Fraction(1, 10 ** 154), rest=(Fraction(1, 2), 0, 0), c=1.0, eps=1.0, aspect=1)
@example(a1_hat=Fraction(0), rest=(0, 0, 0), c=5e153, eps=1e-150, aspect=10)
def test_exact_verdict_of_split_members_is_a1_zero(a1_hat, rest, c, eps, aspect):
    params = AcousticParams(c=c, eps=eps)
    grid = GridSpec(8, 8, 0.125, 0.125 * aspect)
    # physical coefficients from the unitless ones, so a1^ is exactly the one drawn
    a = [h * f for h, f in zip((a1_hat, *rest), diffusion_scale(params))]
    spec = make_scheme("dimsplit", params, grid, *a)
    assert spec.diffusion[0] == a1_hat
    assert has_rank_two(spec.unitless) is (a1_hat == 0)


# square cells and dx:dy from 1:10 to 10:1
ROW_GRIDS = (GridSpec.unit_square(8), GridSpec(8, 8, 0.01, 0.1), GridSpec(12, 7, 1e-3, 0.07),
             GridSpec(8, 8, 0.1, 0.05), GridSpec(8, 8, 0.1, 0.01))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(("dimsplit",) * 5 + ("multid",) * 2 + CATALOG_NAMES),
       a1_hat=A1_HAT, rest=st.tuples(SPLIT_COEFFICIENT, SPLIT_COEFFICIENT, SPLIT_COEFFICIENT),
       c=EXTREME_SCALE, eps=EXTREME_SCALE, grid=st.sampled_from(ROW_GRIDS))
@example(name="dimsplit", a1_hat=Fraction(1, 4), rest=(Fraction(1, 2), Fraction(-1), 0),
         c=1.0, eps=1.0, grid=ROW_GRIDS[4])
@example(name="multid", a1_hat=Fraction(0), rest=(0, 0, 0), c=1.0, eps=1e-8, grid=ROW_GRIDS[0])
@example(name="multid", a1_hat=Fraction(0), rest=(0, 0, 0), c=3.0, eps=0.1, grid=ROW_GRIDS[2])
def test_rows_read_off_the_symbol_are_the_closed_forms(name, a1_hat, rest, c, eps, grid):
    # the closed forms are the oracles: a split member's pressure row is the divergence
    # built from a3^ and the curl of its pressure column the one built from a2^; multid's
    # is the averaged divergence, and its curl on square cells
    params = AcousticParams(c=c, eps=eps)
    if name == "dimsplit":
        a = [h * f for h, f in zip((a1_hat, *rest), diffusion_scale(params))]
        spec = make_scheme(name, params, grid, *a)
    else:
        spec = make_scheme(name, params, grid)
    if spec.diffusion is None:
        divergence, curl = averaged_div(), curl_of(averaged_div())
    else:
        _, a2, a3, _ = spec.diffusion
        divergence, curl = dimsplit_div(a3), curl_of(dimsplit_div(a2))
    assert spec.divergence_row() == divergence
    if not spec.claims["stationarity_preserving"]:
        with pytest.raises(ValueError, match="a1 != 0"):
            spec.vorticity_row()
        return
    wu, wv, wp = spec.vorticity_row()
    if spec.diffusion is None and grid.dx_exact != grid.dy_exact:
        # multid on non-square cells keeps its closed form, with a pressure part
        assert not wp.is_zero()
        assert extract_conserved_operator(spec) == (wu, wv, wp)
    else:
        assert (wu, wv, wp) == (curl.bu.bound(grid), curl.bv.bound(grid), ScalarStencil({}))
