"""The resident-halo march against a reference loop of out-of-place updates.

The reference steps q -> q + dt * rhs(q) on plain (3, nx, ny) arrays, so it
shares only `rhs` (and through it the stencil product) with the march; the
halos, ghost refreshes, folded sign, probes and stop rules are checked bitwise.
"""

import hashlib
import json
import math
import tracemalloc
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from acousticfd.cli import EXIT_UNSTABLE, main
from acousticfd.experiments import gresho_vortex, vortex_benchmark
from acousticfd.grid import AcousticParams, FieldSet, GridSpec, l1_norm_central_diff
from acousticfd.schemes import CATALOG_NAMES, SchemeSpec, make_scheme, rhs
from acousticfd.timestep import (InstabilityError, March, StepControl, cfl_dt, cfl_sweep,
                                 run)

from matrix_entries import matrix_stencil


def reference_step(spec, q, dt, step):
    with np.errstate(over="ignore", invalid="ignore"):
        q = q + dt * rhs(spec, FieldSet.from_q(spec.grid, q)).q
    if not np.all(np.isfinite(q)):
        raise InstabilityError(step)
    return q


def reference_run(spec, q0, dt, n_steps, probes, cadence):
    q = q0.copy()
    series = {name: [fn(FieldSet.from_q(spec.grid, q))] for name, fn in probes.items()}
    for step in range(1, n_steps + 1):
        q = reference_step(spec, q, dt, step)
        if step % cadence == 0 or step == n_steps:
            for name, fn in probes.items():
                series[name].append(fn(FieldSet.from_q(spec.grid, q)))
    return q, series


def reference_sweep(spec, q0, cfl_grid, horizon_steps, growth_factor):
    initial = float(np.max(np.abs(q0)))
    results = []
    for cfl in sorted(cfl_grid):
        dt = cfl_dt(spec.params, spec.grid, cfl)
        q, stable, peak = q0.copy(), True, initial
        try:
            for step in range(1, horizon_steps + 1):
                q = reference_step(spec, q, dt, step)
                peak = max(peak, float(np.max(np.abs(q))))
                if peak > growth_factor * initial:
                    stable = False
                    break
        except InstabilityError:
            stable, peak = False, float("inf")
        results.append({"cfl": cfl, "stable": stable, "peak_norm": peak})
    return results


def custom_spec(grid, entries):
    # at c = eps = 1 the symbol M is the unitless M^
    return SchemeSpec(name="custom", params=AcousticParams(c=1.0, eps=1.0), grid=grid,
                      unitless=matrix_stencil(grid, entries).exact_symbol())


def probes_for(grid):
    return {"q": lambda s: s.q.copy(),
            "dux_l1": lambda s: l1_norm_central_diff(s.u, 0, grid)}


def assert_run_matches_reference(spec, q0, n_steps, cadence):
    grid = spec.grid
    cfl = 0.4
    dt = cfl_dt(spec.params, grid, cfl)
    state = FieldSet.from_q(grid, q0.copy())
    out = run(spec, state, StepControl(cfl=cfl, t_end=n_steps * dt), probes=probes_for(grid),
              cadence=cadence)
    assert np.array_equal(state.q, q0)
    q, series = reference_run(spec, q0, dt, out.n_steps, probes_for(grid), cadence)
    assert np.array_equal(out.final_state.q, q)
    assert out.final_state.q.flags.c_contiguous
    assert len(out.series["q"]) == len(series["q"]) == len(out.times)
    for got, want in zip(out.series["q"], series["q"]):
        assert np.array_equal(got, want)
    assert out.series["dux_l1"].tolist() == series["dux_l1"]


def assert_sweep_matches_reference(spec, q0, horizon_steps, growth_factor=2.0):
    cfl_grid = [0.05, 0.4, 1.5, 6.0]
    state = FieldSet.from_q(spec.grid, q0.copy())
    report = cfl_sweep(spec, state, cfl_grid, horizon_steps=horizon_steps,
                       growth_factor=growth_factor)
    assert np.array_equal(state.q, q0)
    assert report["results"] == reference_sweep(spec, q0, cfl_grid, horizon_steps, growth_factor)


GRIDS = dict(nx=st.integers(3, 10), ny=st.integers(3, 10),
             dx=st.sampled_from((1.0, 1 / 3, 0.05, 1e-3)), dy=st.sampled_from((1.0, 0.07, 1 / 16)))


def catalog_spec(name, coeffs, eps, nx, ny, dx, dy):
    grid = GridSpec(nx, ny, dx, dy)
    kwargs = dict(zip(("a1", "a2", "a3", "a4"), coeffs)) if name == "dimsplit" else {}
    return make_scheme(name, AcousticParams(c=1.0, eps=eps), grid, **kwargs)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(CATALOG_NAMES + ("dimsplit",)),
       coeffs=st.lists(st.floats(-4, 4, allow_subnormal=False), min_size=4, max_size=4),
       eps=st.sampled_from((1.0, 1e-2, 1e-6)), n_steps=st.integers(0, 9),
       cadence=st.integers(1, 4), seed=st.integers(0, 2 ** 16), **GRIDS)
@example(name="multid", coeffs=[0, 0, 0, 0], eps=1.0, n_steps=5, cadence=2, seed=0,
         nx=3, ny=3, dx=1.0, dy=1.0)
@example(name="roe", coeffs=[0, 0, 0, 0], eps=1e-2, n_steps=7, cadence=3, seed=1,
         nx=10, ny=3, dx=1e-3, dy=0.07)
def test_run_matches_reference_loop(name, coeffs, eps, n_steps, cadence, seed, nx, ny, dx, dy):
    spec = catalog_spec(name, coeffs, eps, nx, ny, dx, dy)
    q0 = np.random.default_rng(seed).standard_normal((3, nx, ny))
    assert_run_matches_reference(spec, q0, n_steps, cadence)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(CATALOG_NAMES + ("dimsplit",)),
       coeffs=st.lists(st.floats(-4, 4, allow_subnormal=False), min_size=4, max_size=4),
       eps=st.sampled_from((1.0, 1e-2)), horizon_steps=st.integers(1, 30),
       seed=st.integers(0, 2 ** 16), **GRIDS)
@example(name="central", coeffs=[0, 0, 0, 0], eps=1.0, horizon_steps=30, seed=2,
         nx=3, ny=7, dx=1 / 3, dy=1 / 16)
def test_cfl_sweep_matches_reference_loop(name, coeffs, eps, horizon_steps, seed, nx, ny, dx, dy):
    spec = catalog_spec(name, coeffs, eps, nx, ny, dx, dy)
    q0 = np.random.default_rng(seed).standard_normal((3, nx, ny))
    assert_sweep_matches_reference(spec, q0, horizon_steps)


@st.composite
def _wide_stencils(draw):
    # sparse taps at radius 2 or 3, one at the full radius; the grid may be as small as 2r+1
    r = draw(st.integers(2, 3))
    offsets = st.tuples(st.integers(-r, r), st.integers(-r, r))
    keys = st.tuples(st.integers(0, 2), st.integers(0, 2), offsets)
    values = st.builds(F, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 8))
    entries = draw(st.dictionaries(keys, values, max_size=8))
    edge = draw(st.sampled_from([(r, 0), (-r, 1), (2, -r), (-1, r), (r, r), (-r, -r)]))
    entries[(draw(st.integers(0, 2)), draw(st.integers(0, 2)), edge)] = draw(values)
    grid = GridSpec(2 * r + 1 + draw(st.integers(0, 4)), 2 * r + 1 + draw(st.integers(0, 4)),
                    0.05, 0.07)
    return custom_spec(grid, entries.items())


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(spec=_wide_stencils(), n_steps=st.integers(1, 6), cadence=st.integers(1, 3),
       seed=st.integers(0, 2 ** 16))
def test_wide_stencils_match_reference_loop(spec, n_steps, cadence, seed):
    q0 = np.random.default_rng(seed).standard_normal((3, spec.grid.nx, spec.grid.ny))
    assert_run_matches_reference(spec, q0, n_steps, cadence)
    assert_sweep_matches_reference(spec, q0, n_steps)


RADIUS_ZERO = {
    "empty": [],
    "cancelled": [((0, 2, (1, -1)), F(1, 3)), ((0, 2, (1, -1)), F(-1, 3))],
    "local": [((0, 0, (0, 0)), F(1, 2)), ((0, 2, (0, 0)), F(-3)), ((2, 0, (0, 0)), F(7, 5)),
              ((2, 1, (0, 0)), F(2))],
}


@pytest.mark.parametrize("kind", sorted(RADIUS_ZERO))
def test_radius_zero_and_empty_stencils_match_reference_loop(kind, aniso_grid, rng):
    spec = custom_spec(aniso_grid, RADIUS_ZERO[kind])
    assert spec.stencil.radius == 0
    q0 = rng.standard_normal((3, aniso_grid.nx, aniso_grid.ny))
    assert_run_matches_reference(spec, q0, 5, 2)
    assert_sweep_matches_reference(spec, q0, 20)


def test_sweep_overflow_is_an_unstable_point_without_warnings(square_grid):
    # a state near the float limit overflows within a step or two at every CFL
    spec = make_scheme("roe", AcousticParams(c=1.0, eps=1.0), square_grid)
    q0 = 1e307 * np.random.default_rng(5).standard_normal((3, 16, 16))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_sweep_matches_reference(spec, q0, 10, growth_factor=1e300)
    report = cfl_sweep(spec, FieldSet.from_q(square_grid, q0), [6.0], horizon_steps=10,
                       growth_factor=1e300)
    assert report["results"][0]["peak_norm"] == math.inf


def test_run_instability_matches_reference_step(square_grid):
    spec = make_scheme("roe", AcousticParams(c=1.0, eps=1.0), square_grid)
    q0 = 1e300 * np.random.default_rng(6).standard_normal((3, 16, 16))
    dt = cfl_dt(spec.params, square_grid, 4.0)
    q, step = q0, 0
    with pytest.raises(InstabilityError):
        while True:
            step += 1
            q = reference_step(spec, q, dt, step)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InstabilityError) as exc:
            run(spec, FieldSet.from_q(square_grid, q0), StepControl(cfl=4.0, t_end=1e3 * dt))
    assert exc.value.step == step
    assert exc.value.t == (step - 1) * dt


# sha256 of the `sweep --grid 32` JSON documents, recorded before the march
# kept its state in the halo
SWEEP_DIGESTS = {
    "roe": "3084f2f23c93ca9d6a8c2a58138e319ca089b24532b759615fffd7051dce245a",
    "multid": "9ce389c409845fc264b416b5c069ca99cdce0df626756851f6626dd46bc01501",
}


@pytest.mark.parametrize("scheme", sorted(SWEEP_DIGESTS))
def test_sweep_document_digest_unchanged(scheme, capsys):
    assert main(["sweep", "--scheme", scheme, "--grid", "32"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["scheme"] == scheme
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_DIGESTS[scheme]


def test_unstable_simulate_exits_3_without_runtime_warning(tmp_path):
    # lowmach2 at the default CFL 0.45 blows up at eps 0.01 (its von Neumann limit is 0.25)
    out = tmp_path / "D"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["simulate", "--scheme", "lowmach2", "--grid", "64", "--eps", "0.01",
                   "--t-end", "0.3", "--out", str(out)])
    assert rc == EXIT_UNSTABLE
    with open(out / "simulate_failed.json") as fh:
        doc = json.load(fh)
    assert doc == {"cfl": 0.45, "eps": 0.01, "error": "instability",
                   "last_stable_time": 0.05259375000000001, "scheme": "lowmach2", "step": 749}


# sha256 of every file `simulate --scheme S --grid 16 --out D` writes, recorded before
# the march planned its views once and the vortex probes read the resident halo
SIMULATE_SHA256 = {
    "roe": {
        "roe_eps1_dux_l1.csv": "fb3b1949eb50769b07123264c595942059833ae667f43dad8c530d696a289bac",
        "roe_eps1_dux_l1.csv.meta.json": "550e3eb5bb9bb9bcd23bbba9bb920fc9f4d5739eaf564c414f396bb89e9bf5bf",
        "roe_eps1_duy_l1.csv": "3661cf4f41f674d92cc8b33895f3dc4ed0d139ee639dd6e7d8657720e46b0d3f",
        "roe_eps1_duy_l1.csv.meta.json": "492222da32d9e0e792bc6482a709872213566db606258fb36372aee3f68cc1ff",
        "roe_eps1_final.csv": "6122a83465cb38b19779b481e8c42bbeb50d92f552d035fb4da02f974d4bbe58",
        "roe_eps1_final.csv.meta.json": "be96c18480a2c2b56e3bbb7ff89a03da8cde823a9830c140a7f3f8dfa673667c",
        "roe_summary.json": "628fdd115c98d1bf45f615dd5c996244039e2b006850a55a7a9163a90aa80d8f",
        "simulate_roe.json": "48e6ae3ef987951bf7b729afa163f7a56752c8cf76b520695cb55571f0bd3c67",
    },
    "multid": {
        "multid_eps1_dux_l1.csv": "b160468a31ac9b3a42689bce83ed778568c9fcb8d3786539efe979bd33ccb933",
        "multid_eps1_dux_l1.csv.meta.json": "e72de28fd3c46fb0625a7f9c8ee00b78ca53bd970f413c35e189bd35fb95ada3",
        "multid_eps1_duy_l1.csv": "82ee96ed1d37e9be87b61dccefc749bd1bdf12bd7b9b6ac29a8961e3684782ee",
        "multid_eps1_duy_l1.csv.meta.json": "3a7a9dd6f6ec89f58bf98051ee6215722ebc91be4142d9e54024c3cbf82dc855",
        "multid_eps1_final.csv": "1b4af767fba1c4a29639aea0e54eb29ac7b744d3b3616272626d13663376e094",
        "multid_eps1_final.csv.meta.json": "bbad987742d8cf351d1b4ab54f4d2212ad747a3962e752cdc55ab2bc569c007a",
        "multid_summary.json": "0b63dae6b5e61517523c0ada2e67add6c5d07b3fe0ac8371b1db0a0f85f62737",
        "simulate_multid.json": "a7b0f2a925d428c5246b850d457774de563fc95b254e3322de0eb77267491f05",
    },
}


@pytest.mark.parametrize("scheme", sorted(SIMULATE_SHA256))
def test_simulate_files_digest_unchanged(scheme, tmp_path, capsys):
    out = tmp_path / "D"
    assert main(["simulate", "--scheme", scheme, "--grid", "16", "--out", str(out)]) == 0
    capsys.readouterr()
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert got == SIMULATE_SHA256[scheme]


def read_series(path):
    with open(path) as fh:
        assert fh.readline() == "t,value\n"
        return [tuple(float(x) for x in line.split(",")) for line in fh]


@pytest.mark.parametrize("grid", [GridSpec.unit_square(16), GridSpec(12, 10, 1 / 12, 0.1)],
                         ids=["square", "aniso"])
@pytest.mark.parametrize("scheme", ["roe", "multid", "lowmach3"])
def test_vortex_probes_match_plain_reference_loop(scheme, grid, tmp_path):
    # the benchmark's probes read u inside the march's ghost ring; the reference loop
    # hands l1_norm_central_diff the bare u of plain arrays
    eps, cfl, n_steps = 0.1, 0.45, 23
    spec = make_scheme(scheme, AcousticParams(c=1.0, eps=eps), grid)
    dt = cfl_dt(spec.params, grid, cfl)
    t_end = (n_steps - 0.5) * dt
    assert StepControl(cfl=cfl, t_end=t_end).steps(dt) == n_steps
    vortex_benchmark(spec, t_end, cfl=cfl, out_dir=str(tmp_path))
    probes = {"dux_l1": lambda s: l1_norm_central_diff(s.u, 0, grid),
              "duy_l1": lambda s: l1_norm_central_diff(s.u, 1, grid)}
    _, series = reference_run(spec, gresho_vortex(grid).q, dt, n_steps, probes, 1)
    for name, want in series.items():
        got = read_series(tmp_path / ("%s_eps0p1_%s.csv" % (scheme, name)))
        assert [t for t, _ in got] == [k * dt for k in range(n_steps + 1)]
        assert [v for _, v in got] == want


@pytest.mark.parametrize("scheme", ["roe", "multid"])
def test_march_step_allocates_no_state_sized_block(scheme):
    grid = GridSpec.unit_square(64)
    spec = make_scheme(scheme, AcousticParams(c=1.0, eps=0.01), grid)
    march = March(spec).load(gresho_vortex(grid), cfl_dt(spec.params, grid, 0.45))
    stencil_state = dict(vars(spec.stencil))
    for step in range(1, 4):
        march.step(step, norm=step % 2 == 0)
    limit = min(march.state.q.nbytes, march.buf.nbytes)
    tracemalloc.start()
    try:
        for step in range(4, 10):
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            march.step(step, norm=step % 2 == 0)
            _, peak = tracemalloc.get_traced_memory()
            assert peak - before < limit, (step, peak - before, limit)
    finally:
        tracemalloc.stop()
    # the plans belong to the March: nothing was cached on the stencil
    assert vars(spec.stencil).keys() == stencil_state.keys()
    assert all(vars(spec.stencil)[k] is v for k, v in stencil_state.items())


@pytest.mark.parametrize("zero", [0.0, -0.0])
@pytest.mark.parametrize("kind", ["roe", "empty"])
def test_zero_state_peak_norm_is_positive_zero(kind, zero, square_grid):
    spec = (make_scheme("roe", AcousticParams(c=1.0, eps=1.0), square_grid) if kind == "roe"
            else custom_spec(square_grid, RADIUS_ZERO["empty"]))
    state = FieldSet.from_q(square_grid, np.full((3, 16, 16), zero))
    report = cfl_sweep(spec, state, [0.1, 0.5], horizon_steps=5)
    for row in report["results"]:
        assert row["stable"] and row["peak_norm"] == 0.0
        assert math.copysign(1.0, row["peak_norm"]) == 1.0
    # the empty stencil keeps every -0.0 cell at -0.0, and the norm still reads +0.0
    march = March(spec).load(state, 0.01)
    peak = march.step(1, norm=True)
    assert peak == float(np.max(np.abs(march.state.q)))
    assert math.copysign(1.0, peak) == 1.0
