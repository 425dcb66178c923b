"""No verdict depends on the units: c, eps, dx and dy may be rescaled freely.

Every catalog symbol is M = (c/eps) T M^ T^-1 with T = diag(1, 1, c eps) and
a unitless M^ that depends only on dy/dx, so the kernel verdict, each
sample's kernel dimensions and the conserved-operator check must come out
the same at every scale. At c/eps = 1 a march is one acoustic problem at every
c eps, so the sweep's verdicts, the probe series and the stationarity residual
must come out the same too.
"""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from acousticfd.cli import EXIT_OK, main
from acousticfd.experiments import (extract_conserved_operator, gresho_vortex, json_document,
                                    kernel_adapted_state, stationarity_residual)
from acousticfd.fourier import det_scan
from acousticfd.grid import AcousticParams, FieldSet, GridSpec, l1_norm_central_diff
from acousticfd.laurent import has_rank_two
from acousticfd.schemes import CATALOG_NAMES, make_scheme, rhs
from acousticfd.timestep import StepControl, cfl_dt, cfl_sweep, run

from helpers import SP_NAMES, conserved_apply, weight_norm

LADDER_EPS = ("1", "1e-2", "1e-4", "1e-5", "1e-6", "1e-8", "1e-10")
LADDER_GRIDS = {
    "50": ("--grid", "50"),
    "50-dx1e-3-dy1": ("--grid", "50", "--dx", "1e-3", "--dy", "1"),
    "20-h1e-6": ("--grid", "20", "--dx", "1e-6", "--dy", "1e-6"),
    # the anisotropy ladder: dy/dx in {1.1, 2, 10} and their reciprocals
    "12-dy1.1": ("--grid", "12", "--dx", "1", "--dy", "1.1"),
    "12-dy2": ("--grid", "12", "--dx", "1", "--dy", "2"),
    "12-dy10": ("--grid", "12", "--dx", "1", "--dy", "10"),
    "12-dx1.1": ("--grid", "12", "--dx", "1.1", "--dy", "1"),
    "12-dx2": ("--grid", "12", "--dx", "2", "--dy", "1"),
    "12-dx10": ("--grid", "12", "--dx", "10", "--dy", "1"),
}


@pytest.mark.parametrize("scheme", CATALOG_NAMES)
@pytest.mark.parametrize("eps", LADDER_EPS)
@pytest.mark.parametrize("grid", sorted(LADDER_GRIDS))
def test_analyze_ladder_matches_claim(grid, eps, scheme, capsys):
    assert main(["analyze", "--scheme", scheme, "--eps", eps, *LADDER_GRIDS[grid]]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] is (scheme in SP_NAMES)
    assert doc["scan_verdict"] is doc["verdict"]
    assert doc["eigenvalue_scaling"] == {"passed": True, "exact": True}
    assert "conserved_operator_error" not in doc
    assert ("conserved_operator" in doc) is (scheme in SP_NAMES)
    assert "divergence_row_error" not in doc
    assert ("divergence_row" in doc) is (scheme in SP_NAMES)


# the CFL half of the ladder: dx:dy, the smaller width the unit square's 1/64
CFL_LADDER = ((1, 1), (1, Fraction(11, 10)), (1, 2), (1, 10), (2, 1), (10, 1))
# the von Neumann limit of nu = (c/eps) dt / min(dx, dy) at r = max(dx, dy) / min(dx, dy)
# below theirs lowmach2 and lowmach3 still grow like N, weakly, which the sweep's 500 steps
# on the vortex do not reach
VON_NEUMANN_LIMIT = {"roe": lambda r: r / (1 + r), "multid": lambda r: 1,
                     "lowmach2": lambda r: r / (2 * (1 + r)),
                     "lowmach3": lambda r: r / (2 * (1 + r))}


@pytest.mark.parametrize("scheme", sorted(VON_NEUMANN_LIMIT))
@pytest.mark.parametrize("ratio", CFL_LADDER, ids=lambda ab: "%s:%s" % ab)
def test_sweep_ladder_meets_the_von_neumann_limit(ratio, scheme, capsys):
    dx, dy = (Fraction(w, 64) / min(ratio) for w in ratio)
    assert main(["sweep", "--scheme", scheme, "--grid", "64", "--eps", "0.01",
                 "--dx", repr(float(dx)), "--dy", repr(float(dy))]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    limit = VON_NEUMANN_LIMIT[scheme](max(ratio) / min(ratio))
    # the sweep's CFL points are k/20, k = 1..32: the largest at most the limit
    assert doc["max_stable_cfl"] == max(k for k in range(1, 33) if Fraction(k, 20) <= limit) / 20


def analyze_without_config(scheme, c, eps):
    """The analyze stdout of a catalog scheme at (c, eps) on 8x8, with config dropped.
    Square cells: on others multid's vorticity row carries 1/(c eps) by design."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["analyze", "--scheme", scheme, "--c", repr(c), "--eps", repr(eps),
                     "--grid", "8"]) == EXIT_OK
    doc = json.loads(out.getvalue())
    del doc["config"]
    return json_document(doc)


@cache
def unit_scale_document(scheme):
    return analyze_without_config(scheme, 1.0, 1.0)


# analyze reads only M^, which neither c nor eps enters: every byte but config is the same
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(c=st.floats(1e-6, 1e6), eps=st.floats(1e-6, 1e6))
@example(c=1e-6, eps=1e6)
@example(c=1e6, eps=1e-6)
def test_analyze_document_is_independent_of_c_and_eps(c, eps):
    for scheme in CATALOG_NAMES:
        assert analyze_without_config(scheme, c, eps) == unit_scale_document(scheme), scheme


BASE_GRID = GridSpec(nx=10, ny=9, dx=0.1, dy=0.13)
BASE_PARAMS = AcousticParams(c=2.0, eps=0.5)


def scan_summary(spec):
    out = det_scan(spec)
    dims = [(r["kernel_dim"], r["continuous_dim"]) for r in out.generic_records()]
    return out.scan_verdict, dims


@cache
def base_summary(name):
    return scan_summary(make_scheme(name, BASE_PARAMS, BASE_GRID))


LOG_FACTOR = st.floats(-8.0, 4.0).map(lambda u: float("%.6g" % 10.0 ** u))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(fc=LOG_FACTOR, feps=LOG_FACTOR,
       lam=st.floats(-6.0, 3.0).map(lambda u: float("%.6g" % 10.0 ** u)))
@example(fc=1e-8, feps=1e4, lam=1e-6)
@example(fc=1e4, feps=1e-8, lam=1e3)
@example(fc=1.0, feps=1e-8, lam=1.0)
def test_rescaling_changes_no_verdict(fc, feps, lam):
    params = AcousticParams(c=BASE_PARAMS.c * fc, eps=BASE_PARAMS.eps * feps)
    grid = GridSpec(BASE_GRID.nx, BASE_GRID.ny, BASE_GRID.dx * lam, BASE_GRID.dy * lam)
    for name in CATALOG_NAMES:
        spec = make_scheme(name, params, grid)
        verdict, dims = scan_summary(spec)
        assert verdict is (name in SP_NAMES)
        assert (verdict, dims) == base_summary(name), name
        if verdict:
            op = extract_conserved_operator(spec)
            # states T q^ with q^ of unit size make every row of rhs about (c/eps)/h
            ce, t = params.balance
            t = np.array(t, dtype=float)[:, None, None]
            scale = weight_norm(op, grid) * float(ce) / grid.min_spacing
            rng = np.random.default_rng(11)
            for _ in range(3):
                q = rng.standard_normal((3, grid.nx, grid.ny))
                drift = np.max(np.abs(conserved_apply(op, rhs(spec, FieldSet(grid, t * q)))))
                assert drift <= 1e-11 * scale * np.max(np.abs(q)), name


# each width drawn log-uniformly over six decades on its own, so dy/dx spans 1e-6 .. 1e6
LOG_WIDTH = st.floats(-6.0, 0.0).map(lambda u: float("%.6g" % 10.0 ** u))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(dx=LOG_WIDTH, dy=LOG_WIDTH)
@example(dx=1e-6, dy=1.0)
@example(dx=1.0, dy=1e-6)
@example(dx=0.1, dy=0.11)
def test_aspect_ratio_changes_no_exact_verdict(dx, dy):
    grid = GridSpec(BASE_GRID.nx, BASE_GRID.ny, dx, dy)
    for name in CATALOG_NAMES:
        spec = make_scheme(name, BASE_PARAMS, grid)
        assert has_rank_two(spec.unitless) is spec.claims["stationarity_preserving"], name
        assert spec.claims["stationarity_preserving"] is (name in SP_NAMES), name


# c = eps: M's (u, p) taps carry 1/(c eps) against the (u, u) taps, which the vortex at
# pressure 0 never sums against its velocity
DYNAMIC_SCALES = (1.0, 1e-8, 1e-16, 1e-100)
SWEEP_CFLS = [round(0.05 * k, 2) for k in range(1, 33)]


@cache
def vortex_dynamics(scheme, scale):
    """sweep's (cfl, stable) rows and max_stable_cfl, and 15 steps of run's dux_l1 at CFL
    0.4, on the 64^2 vortex at c = eps = scale."""
    grid = GridSpec(64, 64)
    spec = make_scheme(scheme, AcousticParams(c=scale, eps=scale), grid)
    sweep = cfl_sweep(spec, gresho_vortex(grid), SWEEP_CFLS)
    rows = [(r["cfl"], r["stable"]) for r in sweep["results"]]
    probes = {"dux_l1": lambda stack: l1_norm_central_diff(stack[:, 0], 0, grid)}
    control = StepControl(cfl=0.4, t_end=15 * cfl_dt(spec.params, grid, 0.4))
    series = run(spec, gresho_vortex(grid), control, probes=probes).series["dux_l1"]
    assert len(series) == 16
    return sweep["max_stable_cfl"], rows, series


@pytest.mark.parametrize("scale", DYNAMIC_SCALES[1:])
@pytest.mark.parametrize("scheme", ["roe", "multid"])
def test_vortex_dynamics_are_independent_of_the_scale(scheme, scale):
    max_cfl, rows, series = vortex_dynamics(scheme, scale)
    unit_max_cfl, unit_rows, unit_series = vortex_dynamics(scheme, 1.0)
    assert (max_cfl, rows) == (unit_max_cfl, unit_rows)
    np.testing.assert_allclose(series, unit_series, rtol=1e-12, atol=0)


# (c, eps): c = eps down to 1e-100, and c/eps away from 1, where p = c eps p^ is far from u
RESIDUAL_SCALES = ((1.0, 1.0), (1e-8, 1e-8), (1e-16, 1e-16), (1e-100, 1e-100),
                   (1.0, 1e-8), (1e-8, 1.0), (1e8, 1e-8), (1e100, 1e100))


@pytest.mark.parametrize("scheme", SP_NAMES)
def test_stationarity_residual_is_independent_of_the_scale(scheme):
    grid = GridSpec(16, 16)
    resids = []
    for c, eps in RESIDUAL_SCALES:
        spec = make_scheme(scheme, AcousticParams(c=c, eps=eps), grid)
        resids.append(stationarity_residual(spec, kernel_adapted_state(spec, seed=3)))
    assert max(resids) <= 1e-12, resids
    assert all(resids[0] / 10 <= r <= resids[0] * 10 for r in resids), resids
