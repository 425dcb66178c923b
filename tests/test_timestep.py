"""Explicit stepping, CFL bookkeeping, and stability sweeps."""

import tracemalloc

import numpy as np
import pytest

from acousticfd.grid import AcousticParams, FieldSet, GridSpec
from acousticfd.schemes import CATALOG_NAMES, make_scheme, rhs
from acousticfd.timestep import (
    CFL_NORMALIZATION,
    InstabilityError,
    StepControl,
    cfl_dt,
    cfl_sweep,
    forward_euler_step,
    run,
)
from acousticfd.experiments import gresho_vortex, kernel_adapted_state

from helpers import conserved_apply, per_state, weight_norm


def test_cfl_dt_normalization():
    grid = GridSpec(50, 50, 0.02, 0.02)
    assert cfl_dt(AcousticParams(c=1.0, eps=1.0), grid, 0.5) == pytest.approx(0.01)
    # halving eps halves the step at fixed cfl
    assert cfl_dt(AcousticParams(c=1.0, eps=0.5), grid, 0.5) == pytest.approx(0.005)
    aniso = GridSpec(10, 10, 0.02, 0.01)
    assert cfl_dt(AcousticParams(c=2.0, eps=1.0), aniso, 0.4) == pytest.approx(0.002)
    assert "min(dx,dy)" in CFL_NORMALIZATION


def test_step_control_validation():
    with pytest.raises(ValueError):
        StepControl(cfl=0.0, t_end=1.0)
    for t_end in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            StepControl(cfl=0.5, t_end=t_end)
    with pytest.raises(ValueError):
        run(make_scheme("central", AcousticParams(c=1.0, eps=1.0), GridSpec(8, 8)),
            FieldSet(GridSpec(8, 8), np.zeros((3, 8, 8))),
            StepControl(cfl=0.5, t_end=1e9))


def test_forward_euler_fixes_stationary_states_bitwise(square_grid, params):
    spec = make_scheme("lowmach2", params, square_grid)
    state = kernel_adapted_state(spec, seed=9)
    assert np.max(np.abs(rhs(spec, state).q)) < 1e-13 * state.norm_inf()
    # remove the tiny rounding residue so the state is an exact fixed point
    base = FieldSet(square_grid, state.q.copy())
    tend = rhs(spec, base).q
    stepped = forward_euler_step(spec, base, 0.01)
    assert np.array_equal(stepped.q, base.q + 0.01 * tend)


@pytest.mark.parametrize("grid", [GridSpec(50, 50), GridSpec(12, 20, 0.05, 0.01)],
                         ids=["default", "aniso"])
@pytest.mark.parametrize("eps", [1.0, 1e-2])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_forward_euler_step_is_out_of_place_update_bitwise(name, eps, grid):
    spec = make_scheme(name, AcousticParams(c=1.0, eps=eps), grid)
    rng = np.random.default_rng(17)
    state = FieldSet(grid, rng.standard_normal((3, grid.nx, grid.ny)))
    before = state.q.copy()
    dt = cfl_dt(spec.params, grid, 0.4)
    expect = state.q + dt * rhs(spec, state).q
    stepped = forward_euler_step(spec, state, dt)
    assert np.array_equal(stepped.q, expect)
    # the in-place update must not alias the input state
    assert np.array_equal(state.q, before)
    assert not np.shares_memory(stepped.q, state.q)


@pytest.mark.parametrize("scheme", ["roe", "multid"])
def test_one_product_or_step_allocates_two_halos_not_a_ring(scheme):
    # apply_sum and forward_euler_step fill one halo and multiply into a second; the
    # march's ring holds 8 at 64^2, six more halos (0.6 MiB) than either uses
    grid = GridSpec(64, 64)
    spec = make_scheme(scheme, AcousticParams(c=1.0, eps=0.01), grid)
    state = gresho_vortex(grid)
    ws = spec.stencil.workspace()
    assert len(ws.halos) == 8
    # two halos, the shift buffer and the result, and 16 KiB for views and small objects
    limit = 2 * ws.ring[0].nbytes + ws.buf.nbytes + state.q.nbytes + (16 << 10)
    del ws
    for call in (lambda: spec.stencil.apply_sum(state.q),
                 lambda: forward_euler_step(spec, state, 1e-3)):
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_forward_euler_step_non_finite_raises_with_step(square_grid, params, bad):
    spec = make_scheme("multid", params, square_grid)
    state = FieldSet(square_grid, np.zeros((3, 16, 16)))
    state.v[5, 2] = bad
    with pytest.raises(InstabilityError) as exc:
        forward_euler_step(spec, state, 0.01, step=7)
    assert exc.value.step == 7
    with pytest.raises(InstabilityError) as exc:
        forward_euler_step(spec, state, 0.01)
    assert exc.value.step == "<single>"


def test_two_half_steps_beat_one_full_step(square_grid, params, rng):
    # local truncation comparison: FE error is O(dt^2) per step, so
    # (one dt step) vs (two dt/2 steps) differ at second order and the
    # Richardson ratio between dt and dt/2 experiments approaches 4
    spec = make_scheme("multid", params, square_grid)
    q0 = rng.standard_normal((3, square_grid.nx, square_grid.ny))
    state = FieldSet(square_grid, q0)

    def defect(dt):
        one = forward_euler_step(spec, state, dt)
        half = forward_euler_step(spec, forward_euler_step(spec, state, dt / 2), dt / 2)
        return np.max(np.abs(one.q - half.q))

    d1 = defect(2e-4)
    d2 = defect(1e-4)
    assert d1 / d2 == pytest.approx(4.0, rel=0.05)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_instability_reports_step_and_time(square_grid):
    params = AcousticParams(c=1.0, eps=1.0)
    spec = make_scheme("roe", params, square_grid)
    state = FieldSet(square_grid, np.zeros((3, 16, 16)))
    state.p[3, 4] = 1.0
    with pytest.raises(InstabilityError) as exc:
        run(spec, state, StepControl(cfl=4.0, t_end=150.0))
    assert exc.value.step > 1
    assert exc.value.t == pytest.approx((exc.value.step - 1) * cfl_dt(params, square_grid, 4.0))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cfl_sweep_brackets_stability(square_grid):
    params = AcousticParams(c=1.0, eps=1.0)
    spec = make_scheme("roe", params, square_grid)
    rng = np.random.default_rng(2)
    state = FieldSet(square_grid, 0.01 * rng.standard_normal((3, 16, 16)))
    report = cfl_sweep(spec, state, [0.1, 0.4, 1.5, 3.0], horizon_steps=400)
    # from the top down: 3.0 and 1.5 fail, 0.4 holds, and 0.1 is never run
    assert [(r["cfl"], r["stable"]) for r in report["results"]] == [
        (3.0, False), (1.5, False), (0.4, True)]
    assert report["max_stable_cfl"] == 0.4
    assert report["normalization"] == CFL_NORMALIZATION
    assert report["initial_norm"] == pytest.approx(state.norm_inf())


def test_cfl_sweep_returns_the_largest_stable_point_when_stability_is_not_monotone(monkeypatch):
    # a stub point rule where 0.1 and 0.3 hold and 0.2 and 0.4 fail: the scan from the top
    # answers 0.3 and never runs a point below it
    grid = GridSpec(8, 8, 1.0, 1.0)
    spec = make_scheme("roe", AcousticParams(c=1.0, eps=1.0), grid)
    ran = []

    def point(march, horizon_steps, initial, bound):
        cfl = -march.neg_dt  # dt is the CFL itself on unit cells at c = eps = 1
        ran.append(cfl)
        return cfl in (0.1, 0.3), initial

    monkeypatch.setattr("acousticfd.timestep._sweep_point", point)
    state = FieldSet(grid, np.random.default_rng(4).standard_normal((3, 8, 8)))
    report = cfl_sweep(spec, state, [0.1, 0.2, 0.3, 0.4])
    assert ran == [0.4, 0.3]
    assert report["max_stable_cfl"] == 0.3
    assert [(r["cfl"], r["stable"]) for r in report["results"]] == [(0.4, False), (0.3, True)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cfl_sweep_all_unstable_yields_none(square_grid):
    params = AcousticParams(c=1.0, eps=1.0)
    spec = make_scheme("roe", params, square_grid)
    rng = np.random.default_rng(3)
    state = FieldSet(square_grid, rng.standard_normal((3, 16, 16)))
    report = cfl_sweep(spec, state, [4.0, 8.0], horizon_steps=200)
    assert report["max_stable_cfl"] is None
    assert all(not r["stable"] for r in report["results"])


def test_conserved_functional_drift_over_run(square_grid, params):
    # a stationarity preserving scheme transports its conserved functional
    # exactly through the semi-discrete flow; FE keeps it to rounding because
    # the functional annihilates every rhs evaluation
    from acousticfd.experiments import extract_conserved_operator

    spec = make_scheme("lowmach3", params, square_grid)
    op = extract_conserved_operator(spec)
    rng = np.random.default_rng(21)
    state = FieldSet(square_grid, rng.standard_normal((3, 16, 16)))
    before = conserved_apply(op, state)
    control = StepControl(cfl=0.05, t_end=1000 * cfl_dt(params, square_grid, 0.05))
    out = run(spec, state, control)
    assert out.n_steps == 1000
    after = conserved_apply(op, out.final_state)
    scale = weight_norm(op, square_grid) * max(1.0, state.norm_inf())
    assert np.max(np.abs(after - before)) <= 1e-11 * scale
