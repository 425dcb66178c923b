"""Catalog construction, claims, and rhs evaluation."""

from fractions import Fraction

import numpy as np
import pytest

from acousticfd.grid import AcousticParams, FieldSet, GridSpec
from acousticfd.schemes import (
    CATALOG_NAMES,
    SP_NAMES,
    DiffusionParams,
    catalog,
    dimsplit_scheme,
    lowmach_scheme,
    make_scheme,
    rhs,
)
from acousticfd.stencils import averaged_div, central_div, consistent_diffusion, dimsplit_div


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


def test_lowmach_diffusion_tables(square_grid, params):
    # c = 2, eps = 1/2: 1/eps^2 = 4, c^2 = 4, c/eps = 4
    expected = {
        1: DiffusionParams.make(0, 4, -4, 0),
        2: DiffusionParams.make(0, 0, -4, 8),
        3: DiffusionParams.make(0, 4, 0, 8),
    }
    for variant, dp in expected.items():
        spec = lowmach_scheme(params, square_grid, variant)
        assert spec.extra["diffusion"] == dp
    with pytest.raises(ValueError):
        lowmach_scheme(params, square_grid, 4)


def test_roe_is_dimsplit_member(square_grid, params):
    ce = params.c_exact / params.eps_exact
    roe = make_scheme("roe", params, square_grid)
    member = make_scheme("dimsplit", params, square_grid,
                         a1=ce, a2=0, a3=0, a4=ce)
    assert roe.stencil.to_json_dict() == member.stencil.to_json_dict()
    assert roe.extra["diffusion"] == DiffusionParams.make(ce, 0, 0, ce)


def test_dimsplit_claim_follows_a1(square_grid, params):
    assert make_scheme("dimsplit", params, square_grid,
                       a1=0, a2=0.5).claims["stationarity_preserving"]
    assert not make_scheme("dimsplit", params, square_grid,
                           a1=0.1).claims["stationarity_preserving"]


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
    ref = dimsplit_div(-params.c_exact ** 2, params.c_exact)
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
    fa = FieldSet.from_q(square_grid, qa)
    fb = FieldSet.from_q(square_grid, qb)
    combo = FieldSet.from_q(square_grid, 2.0 * qa - 3.0 * qb)
    lin = rhs(spec, combo).q - (2.0 * rhs(spec, fa).q - 3.0 * rhs(spec, fb).q)
    assert np.max(np.abs(lin)) < 1e-11

    rolled = FieldSet.from_q(square_grid, np.roll(qa, (2, -3), axis=(1, 2)))
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
    dp = DiffusionParams.make(0, Fraction(1, 4), Fraction(1, 4), 0)
    spec = dimsplit_scheme(params, square_grid, dp)
    assert spec.name == "dimsplit" and spec.family == "dimsplit"
    assert spec.claims["stationarity_preserving"]
    assert spec.extra["diffusion"].as_floats() == (0.0, 0.25, 0.25, 0.0)
