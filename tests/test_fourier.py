"""Numeric kernel analysis of evolution matrices."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from acousticfd.fourier import (
    GUARD,
    KernelDimensionError,
    SpectralVerdict,
    det_scan,
    eigenvalue_scaling_check,
    generic_phases,
    kernel_dim,
    left_kernel,
    right_kernel,
    structured_phases,
)
from acousticfd.grid import AcousticParams, GridSpec
from acousticfd.schemes import CATALOG_NAMES, make_scheme

from helpers import (dimsplit_closed_form, dimsplit_right_kernel_formula, halton,
                     jk_matrix, rebuilt_scaling_law, scalar_generic_phases)


def evolution(stencil, thx, thy):
    return -1j * stencil.symbol(thx, thy)


def balancing(params):
    """(c/eps, T) with T = diag(1, 1, c eps), written out independently of the package."""
    return params.c / params.eps, np.diag([1.0, 1.0, params.c * params.eps])


def balanced_evolution(spec, thx, thy):
    """(eps/c) T^-1 E T as a matrix product."""
    s, T = balancing(spec.params)
    return np.linalg.inv(T) @ evolution(spec.stencil, thx, thy) @ T / s


def test_jk_matrix_spectrum(square_grid):
    kx, ky = 1.1 / square_grid.dx, 0.6 / square_grid.dy
    J = jk_matrix(kx, ky)
    kk = math.hypot(kx, ky)
    ev = sorted(np.linalg.eigvals(J).real)
    assert ev[0] == pytest.approx(-kk, rel=1e-12)
    assert abs(ev[1]) <= 1e-9 * kk
    assert ev[2] == pytest.approx(kk, rel=1e-12)
    assert kernel_dim(J, tol_rel=1e-10) == 1
    v = right_kernel(J, tol_rel=1e-10)
    ref = np.array([-ky, kx, 0.0]) / kk
    # kernel defined up to phase
    align = abs(np.vdot(ref, v))
    assert align == pytest.approx(1.0, abs=1e-10)
    assert np.all(jk_matrix(0.0, 0.0) == 0.0)
    stack = jk_matrix(np.array([kx, 0.0]), np.array([[ky], [0.0]]))
    assert stack.shape == (2, 2, 3, 3)
    assert np.array_equal(stack[0, 0], J)


SYMBOL_SCHEMES = [(name, {}) for name in CATALOG_NAMES] + [
    ("dimsplit", {"a1": 0.3, "a2": 0.7, "a3": -0.2, "a4": 1.1})]


@pytest.mark.parametrize("eps", [1.0, 1e-4])
@pytest.mark.parametrize("name,kwargs", SYMBOL_SCHEMES, ids=[n for n, _ in SYMBOL_SCHEMES])
def test_batched_symbol_is_stacked_scalar_symbol(aniso_grid, name, kwargs, eps):
    spec = make_scheme(name, AcousticParams(c=2.0, eps=eps), aniso_grid, **kwargs)
    phases = generic_phases(30) + [ph for _, ph in structured_phases()]
    thx = np.array([ph[0] for ph in phases])
    thy = np.array([ph[1] for ph in phases])
    stacked = np.array([spec.stencil.symbol(a, b) for a, b in phases])
    assert stacked.shape == (len(phases), 3, 3)
    assert np.array_equal(spec.stencil.symbol(thx, thy), stacked)
    grid2 = spec.stencil.symbol(thx.reshape(6, -1), thy.reshape(6, -1))
    assert np.array_equal(grid2, stacked.reshape(6, -1, 3, 3))


def test_constant_states_are_stationary(square_grid, params):
    for name in CATALOG_NAMES:
        spec = make_scheme(name, params, square_grid)
        assert np.max(np.abs(spec.stencil.symbol(0.0, 0.0))) < 1e-12


def test_central_symbol_is_effective_wavevector(square_grid, params):
    # E = (c/eps) T J^ T^-1 with J^ the unitless generator at k_m = sin(th_m)/dx_m
    spec = make_scheme("central", params, square_grid)
    s, T = balancing(params)
    for thx, thy in generic_phases(10):
        E = evolution(spec.stencil, thx, thy)
        J = jk_matrix(math.sin(thx) / square_grid.dx, math.sin(thy) / square_grid.dy)
        assert np.max(np.abs(E - s * T @ J @ np.linalg.inv(T))) < 1e-11


def test_conjugate_symmetry(square_grid, params):
    spec = make_scheme("roe", params, square_grid)
    for thx, thy in generic_phases(10):
        E1 = evolution(spec.stencil, thx, thy)
        E2 = evolution(spec.stencil, -thx, -thy)
        assert np.max(np.abs(E2 + np.conj(E1))) < 1e-12 * np.max(np.abs(E1))


# dx:dy from 1:10 to 10:1
ASPECT_GRIDS = [GridSpec(16, 16, dx, dy) for dx, dy in
                ((0.01, 0.1), (0.05, 0.1), (0.1, 0.05), (0.1, 0.01))]


def test_dimsplit_closed_form_matches_assembly(square_grid, params):
    draws = [(0.3, 0.7, -0.2, 1.1), (0.0, 0.25, 0.25, 0.0), (1.0, 0.0, 0.0, 1.0)]
    for grid in (square_grid, *ASPECT_GRIDS):
        for a1, a2, a3, a4 in draws:
            spec = make_scheme("dimsplit", params, grid, a1=a1, a2=a2, a3=a3, a4=a4)
            for thx, thy in generic_phases(8):
                E = evolution(spec.stencil, thx, thy)
                ref = dimsplit_closed_form(params, a1, a2, a3, a4, grid, thx, thy)
                scale = np.max(np.abs(ref))
                assert np.max(np.abs(E - ref)) <= 1e-13 * scale, (grid, a1, a2, a3, a4)


def test_dimsplit_right_kernel_formula(square_grid, params):
    # a1 = 0 members keep a one-dimensional kernel with an explicit generator
    spec = make_scheme("dimsplit", params, square_grid,
                       a1=0.0, a2=0.5, a3=-0.3, a4=0.8)
    for thx, thy in generic_phases(8):
        E = evolution(spec.stencil, thx, thy)
        v = dimsplit_right_kernel_formula(params, -0.3, square_grid, thx, thy)
        assert np.linalg.norm(E @ v) <= 1e-12 * np.max(np.abs(E)) * np.linalg.norm(v)


def test_kernel_error_carries_dim(square_grid, params):
    spec = make_scheme("roe", params, square_grid)
    thx, thy = generic_phases(1)[0]
    E = evolution(spec.stencil, thx, thy)
    assert kernel_dim(E) == 0
    with pytest.raises(KernelDimensionError) as exc:
        right_kernel(E)
    assert exc.value.dim == 0
    assert kernel_dim(np.zeros((3, 3))) == 3


def test_left_kernel_annihilates(square_grid, params):
    spec = make_scheme("multid", params, square_grid)
    for thx, thy in generic_phases(6):
        E = evolution(spec.stencil, thx, thy)
        w = left_kernel(E)
        assert np.linalg.norm(w @ E) <= 1e-12 * np.max(np.abs(E))
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)


def test_halton_prefix():
    assert halton(1, 2) == 0.5
    assert halton(2, 2) == 0.25
    assert halton(3, 2) == 0.75
    assert halton(1, 3) == pytest.approx(1.0 / 3.0)


def test_generic_phases_match_scalar_oracle_bitwise():
    # every phase lies in +-[GUARD, pi - GUARD], never 0 or nan, so == is bitwise equality
    oracle = scalar_generic_phases(2000)
    for n in range(1, 2001):
        phases = generic_phases(n)
        assert phases == oracle[:n]
    assert {type(t) for pair in generic_phases(2000) for t in pair} == {float}


def test_generic_phases_guard_band():
    phases = generic_phases()
    assert len(phases) == 200
    assert phases == generic_phases()
    for thx, thy in phases:
        for t in (thx, thy):
            assert GUARD - 1e-12 <= abs(t) <= math.pi - GUARD + 1e-12


def test_structured_phases_layout():
    out = structured_phases()
    assert len(out) == 48
    kinds = {kind for kind, _ in out}
    assert kinds == {"axis_x", "axis_y", "diagonal", "antidiagonal"}
    for kind, (thx, thy) in out:
        if kind == "axis_x":
            assert thy == 0.0
        elif kind == "axis_y":
            assert thx == 0.0
        elif kind == "diagonal":
            assert thx == thy
        else:
            assert thx == -thy


def test_det_scan_verdicts(square_grid, params):
    phases = generic_phases(25)
    good = det_scan(make_scheme("multid", params, square_grid), phases=phases)
    assert isinstance(good, SpectralVerdict)
    assert good.scan_verdict
    assert good.withheld == 0
    assert len(good.records) == 25 + 48
    for rec in good.generic_records():
        assert rec["kernel_dim"] == 1 and rec["continuous_dim"] == 1
        assert rec["sigma_min_ratio"] <= 1e-12

    bad = det_scan(make_scheme("roe", params, square_grid), phases=phases)
    assert not bad.scan_verdict
    assert bad.scheme == "roe"
    for rec in bad.generic_records():
        assert rec["kernel_dim"] == 0
        assert rec["sigma_min_ratio"] > 1e-3

    doc = good.to_json_dict()
    assert set(doc) == {"scheme", "scan_verdict", "samples"}
    assert doc["scheme"] == "multid" and doc["scan_verdict"] is True
    assert doc["samples"] == good.records
    assert set(doc["samples"][0]) == {"thx", "thy", "kind", "absdet",
                                      "sigma_min_ratio", "kernel_dim",
                                      "continuous_dim"}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_sigma_ratio_is_never_negative_zero(name):
    # the full SVD can return the smallest singular value as -0.0
    spec = make_scheme(name, AcousticParams(c=1.0, eps=1.0), GridSpec.unit_square(24))
    ratios = [r["sigma_min_ratio"] for r in det_scan(spec, phases=generic_phases(200)).records]
    assert not np.signbit(ratios).any()


def test_det_scan_rejects_phases_outside_half_open_interval(square_grid, params):
    spec = make_scheme("multid", params, square_grid)
    for bad in ((4.0, 0.0), (0.3, -math.pi), (-math.pi, 0.3), (0.3, math.pi + 1e-9)):
        with pytest.raises(ValueError, match="phases must lie in"):
            det_scan(spec, phases=[(0.5, 0.5), bad])
    ok = det_scan(spec, phases=[(math.pi, math.pi)])
    assert [(r["thx"], r["thy"]) for r in ok.generic_records()] == [(math.pi, math.pi)]


def test_det_scan_rows_are_generic_then_structured(square_grid, params):
    # the n generic rows come first, in phase order, then the 48 structured ones
    phases = generic_phases(5)
    out = det_scan(make_scheme("central", params, square_grid), phases=phases)
    assert [r["kind"] for r in out.records[:5]] == ["generic"] * 5
    assert [(r["thx"], r["thy"]) for r in out.records[:5]] == phases
    assert [(r["kind"], (r["thx"], r["thy"])) for r in out.records[5:]] == structured_phases()
    assert out.generic_records() == out.records[:5]
    assert out.scan_verdict


def test_eigenvalue_scaling(square_grid, params):
    for name in CATALOG_NAMES:
        out = eigenvalue_scaling_check(make_scheme(name, params, square_grid))
        assert out == {"passed": True, "exact": True}
    # fixed coefficients carry no c/eps law, even with a1 = 0
    spec = make_scheme("dimsplit", params, square_grid, a2=0.5, a3=-0.3, a4=0.8)
    assert eigenvalue_scaling_check(spec) == {"passed": False, "exact": True}
    zero = make_scheme("dimsplit", params, square_grid)
    assert eigenvalue_scaling_check(zero) == {"passed": True, "exact": True}


# dimsplit coefficients: zero half of the time, so every zero pattern of a1..a4 comes up
COEFFICIENT = st.one_of(st.just(0.0), st.sampled_from([1e-300, -2.5, 0.5, 3.0, 1e6]),
                        st.floats(-10.0, 10.0, allow_subnormal=False))
SCALE = st.floats(1e-6, 1e6)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(CATALOG_NAMES + ("dimsplit",)), c=SCALE, eps=SCALE,
       coefficients=st.tuples(COEFFICIENT, COEFFICIENT, COEFFICIENT, COEFFICIENT))
@example(name="dimsplit", c=1.0, eps=1.0, coefficients=(0.0, 0.0, 0.0, 0.0))
@example(name="dimsplit", c=1.0, eps=1.0, coefficients=(0.0, 0.0, 0.0, 0.3))
@example(name="dimsplit", c=3.0, eps=1e-3, coefficients=(0.0, 0.5, 0.0, 0.0))
def test_eigenvalue_scaling_matches_rebuild_oracle(name, c, eps, coefficients):
    kwargs = dict(zip(("a1", "a2", "a3", "a4"), coefficients)) if name == "dimsplit" else {}
    spec = make_scheme(name, AcousticParams(c=c, eps=eps), GridSpec(5, 4, 0.3, 0.7), **kwargs)
    passed = rebuilt_scaling_law(spec, **kwargs)
    assert eigenvalue_scaling_check(spec) == {"passed": passed, "exact": True}
    assert passed is (name != "dimsplit" or not any(coefficients))


@pytest.mark.parametrize("eps", [1.0, 1e-4])
@pytest.mark.parametrize("name,kwargs", SYMBOL_SCHEMES, ids=[n for n, _ in SYMBOL_SCHEMES])
def test_det_scan_matches_per_sample_oracle(aniso_grid, name, kwargs, eps):
    spec = make_scheme(name, AcousticParams(c=2.0, eps=eps), aniso_grid, **kwargs)
    out = det_scan(spec, phases=generic_phases(40))
    assert len(out.records) == 40 + 48
    for rec in out.records:
        E = balanced_evolution(spec, rec["thx"], rec["thy"])
        assert rec["kernel_dim"] == kernel_dim(E)
        J = jk_matrix(rec["thx"] / aniso_grid.dx, rec["thy"] / aniso_grid.dy)
        assert rec["continuous_dim"] == kernel_dim(J, tol_rel=1e-10)
        if rec["kernel_dim"] != 1:
            with pytest.raises(KernelDimensionError):
                right_kernel(E)
            continue
        right, left = right_kernel(E), left_kernel(E)
        smax = np.linalg.norm(E, 2)
        assert np.linalg.norm(E @ right) <= 1e-12 * smax
        assert np.linalg.norm(left @ E) <= 1e-12 * smax
        assert np.linalg.norm(right) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(left) == pytest.approx(1.0, abs=1e-12)
    # theta = 0, where the continuous kernel has dimension 3, is checked against J.k alone
    zero = det_scan(spec, phases=[(0.0, 0.0)]).records[0]
    assert zero["continuous_dim"] == kernel_dim(jk_matrix(0.0, 0.0), tol_rel=1e-10) == 3
