"""Vortex data, kernel-adapted data, decay fits, conserved functionals."""

import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from acousticfd.experiments import (
    R1,
    R2,
    SPEED,
    X0,
    Y0,
    checked_divergence_row,
    decay_window,
    extract_conserved_operator,
    fit_decay,
    gresho_vortex,
    json_document,
    kernel_adapted_state,
    stationarity_residual,
    stream_velocity,
    vortex_benchmark,
    write_timeseries_csv,
)
from acousticfd.grid import AcousticParams, FieldSet, GridSpec
from acousticfd.laurent import has_rank_two
from acousticfd.schemes import make_scheme
from acousticfd.stencils import (
    averaged_div,
    central_div,
    dimsplit_div,
)

from helpers import (SP_NAMES, conserved_apply, curl_of, divergence_observed_order,
                     p_column_added_to_u, row_apply, weight_norm)


def _continuous_vortex_velocity(xx, yy):
    dx_, dy_ = xx - X0, yy - Y0
    r = np.hypot(dx_, dy_)
    inner = SPEED / R1
    with np.errstate(divide="ignore", invalid="ignore"):
        outer = SPEED * (R2 - r) / ((R2 - R1) * r)
    ratio = np.where(r < R1, inner, np.where(r < R2, outer, 0.0))
    ratio = np.where(r == 0.0, inner, ratio)
    return -ratio * dy_, ratio * dx_


def test_vortex_far_field_and_peak():
    grid = GridSpec(50, 50)
    state = gresho_vortex(grid)
    # corners lie outside r2: quiescent, at pressure 0 as every cell is
    for i, j in ((0, 0), (0, 49), (49, 0), (49, 49)):
        assert state.u[i, j] == 0.0 and state.v[i, j] == 0.0
        assert state.p[i, j] == 0.0
    speed = np.hypot(state.u, state.v)
    assert np.max(speed) == pytest.approx(1.0, abs=0.05)
    assert np.all(state.p == 0.0)


def test_vortex_analytically_divergence_free():
    rng = np.random.default_rng(8)
    h = 1e-6
    checked = 0
    for _ in range(200):
        x, y = rng.uniform(0.05, 0.95, size=2)
        r = np.hypot(x - X0, y - Y0)
        # skip the profile kinks where one-sided derivatives differ
        if min(abs(r - R1), abs(r - R2), r) < 0.01:
            continue
        up, _ = _continuous_vortex_velocity(np.array(x + h), np.array(y))
        um, _ = _continuous_vortex_velocity(np.array(x - h), np.array(y))
        _, vp_ = _continuous_vortex_velocity(np.array(x), np.array(y + h))
        _, vm = _continuous_vortex_velocity(np.array(x), np.array(y - h))
        div = (up - um) / (2 * h) + (vp_ - vm) / (2 * h)
        assert abs(div) < 1e-4
        checked += 1
    assert checked > 100


def test_sampled_vortex_not_discretely_stationary():
    grid = GridSpec(50, 50)
    state = gresho_vortex(grid)
    resid = np.max(np.abs(row_apply(central_div(), state.u, state.v, grid)))
    # small (the profile is divergence free) but far from machine zero
    assert 1e-10 < resid < 1.0


def test_vortex_boundary_warning():
    # a 20-cell grid of width 0.035 is [0, 0.7]^2: the boundary lies 0.2 from the centre
    grid = GridSpec(20, 20, 0.035, 0.035)
    with pytest.warns(UserWarning, match="exceeds distance 0.2 to the boundary"):
        gresho_vortex(grid)


def test_vortex_centre_outside_domain_warning():
    # a 16-cell grid of width 0.01 is [0, 0.16]^2, which the default centre (0.5, 0.5) misses
    grid = GridSpec(16, 16, 0.01, 0.01)
    with pytest.warns(UserWarning) as record:
        gresho_vortex(grid)
    assert [str(w.message) for w in record] == [
        "vortex centre (0.5, 0.5) lies outside the domain [0, 0.16] x [0, 0.16]"]


def test_stream_velocity_exact_kernel_membership():
    rng = np.random.default_rng(4)
    rows = [averaged_div(), central_div(), dimsplit_div(Fraction(-1, 3) / 2 ** 2)]
    grids = [GridSpec(7, 7), GridSpec(12, 10, 0.05, 0.07),
             GridSpec(9, 16, 0.25, 0.01)]
    for grid in grids:
        psi = rng.standard_normal((grid.nx, grid.ny))
        for row in rows:
            state = stream_velocity(psi, row, grid)
            res = row_apply(row, state.u, state.v, grid)
            scale = np.max(np.abs(psi)) / (grid.dx * grid.dy)
            assert np.max(np.abs(res)) <= 1e-13 * scale
            assert np.all(state.p == 0.0)


def test_stream_velocity_constant_psi_is_quiescent(square_grid):
    state = stream_velocity(np.ones((16, 16)), averaged_div(), square_grid)
    assert np.all(state.q == 0.0)


def test_stationarity_residual_split(square_grid, params):
    for name in SP_NAMES:
        spec = make_scheme(name, params, square_grid)
        state = kernel_adapted_state(spec, seed=3)
        assert stationarity_residual(spec, state) <= 1e-12
    roe = make_scheme("roe", params, square_grid)
    assert stationarity_residual(roe, kernel_adapted_state(roe, seed=3)) >= 1e-3
    assert stationarity_residual(roe, FieldSet(square_grid, np.zeros((3, 16, 16)))) == 0.0


def test_kernel_adapted_dyadic_state(square_grid, params):
    spec = make_scheme("lowmach1", params, square_grid)
    state = kernel_adapted_state(spec, seed=5, dyadic=True)
    assert np.all(np.isfinite(state.q))
    assert np.all(state.p == 0.0)
    # dyadic streamfunction keeps every weight application exact in binary
    assert np.max(np.abs(state.u)) > 0.0


def assert_operator_is_row(w, row, grid):
    wu, wv, wp = w
    assert wu == row.bu.bound(grid)
    assert wv == row.bv.bound(grid)
    assert wp.is_zero()


def test_extracted_operator_central_is_curl(square_grid, aniso_grid, params):
    for grid in (square_grid, aniso_grid):
        op = extract_conserved_operator(make_scheme("central", params, grid))
        assert_operator_is_row(op, curl_of(central_div()), grid)
        assert op[0].cell_radius == 1


def test_extracted_operator_dimsplit_subfamily(square_grid, aniso_grid):
    # the conserved row is the curl of the divergence built from a2, not a3
    params = AcousticParams(c=2.0, eps=0.5)
    for grid in (square_grid, aniso_grid):
        spec = make_scheme("dimsplit", params, grid, a1=0, a2=0.25, a3=-1.5, a4=0.7)
        op = extract_conserved_operator(spec)
        assert_operator_is_row(op, curl_of(dimsplit_div(Fraction(1, 4) / 2 ** 2)), grid)


def test_extracted_operator_multid_pressure_weight(square_grid, aniso_grid, params):
    sq = extract_conserved_operator(make_scheme("multid", params, square_grid))
    assert_operator_is_row(sq, curl_of(averaged_div()), square_grid)
    an = extract_conserved_operator(make_scheme("multid", params, aniso_grid))
    # unequal spacings leave a genuine pressure contribution in the functional
    assert [st.cell_radius for st in an] == [2, 2, 2]
    assert not an[2].is_zero()


MISMATCH_GRIDS = [GridSpec(24, 24), GridSpec(12, 7, 1e-3, 0.07)]


@pytest.mark.parametrize("grid", MISMATCH_GRIDS, ids=["24", "12x7"])
def test_divergence_row_check_catches_a_diffusion_that_disagrees_with_the_symbol(grid, params):
    spec = make_scheme("lowmach1", params, grid)
    assert checked_divergence_row(spec) == spec.divergence_row()
    # M^ with its p-column added to its u-column keeps rank 2 and its vorticity row, but
    # its pressure row no longer bounds its stationary states
    wrong = p_column_added_to_u(spec)
    assert has_rank_two(wrong.unitless)
    assert extract_conserved_operator(wrong) == spec.vorticity_row()
    with pytest.raises(RuntimeError, match="divergence row fails M"):
        checked_divergence_row(wrong)


def test_conserved_operator_annihilates_rhs(square_grid, params, rng):
    from acousticfd.schemes import rhs

    spec = make_scheme("multid", params, square_grid)
    op = extract_conserved_operator(spec)
    scale = weight_norm(op, square_grid) * (params.c / params.eps)
    for _ in range(5):
        state = FieldSet(square_grid, rng.standard_normal((3, 16, 16)))
        drift = np.max(np.abs(conserved_apply(op, rhs(spec, state))))
        assert drift <= 1e-12 * scale * state.norm_inf()


def test_fit_decay_recovers_rate():
    t = np.linspace(0.0, 2.0, 121)
    v = np.exp(-3.0 * t) * 7.0
    fit = fit_decay(t, v, (0.1, 2.0))
    assert fit["rate"] == pytest.approx(3.0, abs=1e-10)
    assert fit["residual"] < 1e-12
    assert fit["n_points"] == np.sum((t >= 0.1) & (t <= 2.0))
    # positive rescaling shifts the intercept only
    fit5 = fit_decay(t, 5.0 * v, (0.1, 2.0))
    assert fit5["rate"] == pytest.approx(fit["rate"], abs=1e-12)
    with pytest.raises(ValueError):
        fit_decay(t, v - 1.0, (0.1, 2.0))
    with pytest.raises(ValueError):
        fit_decay(t, v, (1.99, 1.995))
    # an overflowing probe value is refused, not fitted to a NaN rate
    with pytest.raises(ValueError, match="non-finite values in fit window"):
        fit_decay(t, np.where(t > 1.0, np.inf, v), (0.1, 2.0))


def test_decay_window(square_grid):
    params = AcousticParams(c=2.0, eps=0.5)
    times = np.linspace(0.0, 1.0, 101)
    values = np.exp(-40.0 * times)
    t_a, t_b = decay_window(times, values, params, square_grid)
    assert t_a == pytest.approx(5 * square_grid.min_spacing * 0.5 / 2.0)
    assert t_b == times[np.argmax((times > t_a) & (values < 1e-14))]
    flat = np.ones_like(times)
    _, t_b2 = decay_window(times, flat, params, square_grid)
    assert t_b2 == times[-1]


_TEXT = st.text(st.characters() | st.sampled_from('\n\r\t\x00\x1f"\\{}[],: \u00e9\u2028\U0001f600'))
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.floats().map(np.float64)
            | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, np.float64(-0.0)]) | _TEXT)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(_TEXT, inner),
    max_leaves=20)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_DOCUMENTS)
@example({"samples": [{"thx": 0.1, "kind": "generic", "absdet": 1e-300, "kernel_dim": 1,
                       "non_diagonalizable": False}], "config": {"grid": "50", "c": None},
          "empty": [{}, [], ()], "text": "{\n}\\\"\u00e9"})
@example([[[]], {"a": {"b": {}}}, [{"k": "v"}, 1.5, []]])
@example([{"a": "},\n {", "b": 1}, {"c": "}, {"}])
@example({"rows": [{}, {"k": 1}, {"k": 2, "j": None}, {}]})
@example(({"x": 0.5, "y": [1]}, {"x": -0.0}) + ({"z": True},))
@example(({"x": 0.5}, {"y": "}\u2028{"}))
def test_json_document_matches_the_standard_encoder(doc):
    assert json_document(doc) == json.dumps(doc, indent=1, sort_keys=True) + "\n"


def test_timeseries_roundtrip(tmp_path):
    path = os.path.join(tmp_path, "series.csv")
    t = np.array([0.0, 0.125, 0.25])
    v = np.array([1.0, 0.5, 1.0 / 3.0])
    write_timeseries_csv(path, t, v, metadata={"probe": "dux_l1", "eps": 0.1})
    with open(path) as fh:
        assert fh.readline() == "t,value\n"
    rt, rv = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    assert np.array_equal(rt, t) and np.array_equal(rv, v)
    with open(path + ".meta.json") as fh:
        meta = json.load(fh)
    assert meta == {"probe": "dux_l1", "eps": 0.1}
    # the series of one run may share one formatted time column
    shared = os.path.join(tmp_path, "shared.csv")
    write_timeseries_csv(shared, ["%.17g" % x for x in t], v, metadata={})
    with open(path) as a, open(shared) as b:
        assert a.read() == b.read()


def test_divergence_observed_order_quick():
    second = divergence_observed_order(averaged_div, sizes=(16, 32))
    assert 1.7 <= second <= 2.2
    first = divergence_observed_order(
        lambda: dimsplit_div(Fraction(1, 2)), sizes=(16, 32))
    assert 0.8 <= first <= 1.2


def test_vortex_benchmark_report(tmp_path):
    grid = GridSpec(24, 24)
    spec = make_scheme("roe", AcousticParams(c=1.0, eps=0.5), grid)
    report = vortex_benchmark(spec, 0.05, cfl=0.45, out_dir=str(tmp_path))
    assert report["scheme"] == "roe"
    assert report["grid"] == [24, 24]
    run0 = report["runs"][0]
    assert run0["eps"] == 0.5
    assert run0["n_steps"] >= 1
    assert 0.0 < run0["dux_retention"] <= 1.0
    files = run0["files"]
    # artifacts are recorded by basename so reports are location independent
    for key in ("dux_l1", "duy_l1", "final_field"):
        assert os.sep not in files[key]
        assert os.path.exists(os.path.join(tmp_path, files[key]))
    assert os.path.exists(os.path.join(tmp_path, files["final_field"] + ".meta.json"))
    t, v = np.loadtxt(os.path.join(tmp_path, files["dux_l1"]), delimiter=",",
                      skiprows=1, unpack=True)
    assert t[0] == 0.0 and len(t) == len(v) >= 2
    assert v[0] == pytest.approx(run0["initial_dux_l1"])


def test_vortex_runs_into_one_directory_write_only_the_files_they_list(tmp_path):
    # each run's report lists its files, and each file has its .meta.json sidecar; no file
    # beside them is shared between the runs, so none holds only the last one
    listed = []
    for eps in (1.0, 0.1):
        spec = make_scheme("roe", AcousticParams(c=1.0, eps=eps), GridSpec(16, 16))
        report = vortex_benchmark(spec, 0.02, cfl=0.45, out_dir=str(tmp_path))
        listed += report["runs"][0]["files"].values()
    assert len(set(listed)) == 6
    assert sorted(os.listdir(tmp_path)) == sorted(listed + [f + ".meta.json" for f in listed])
