"""Explicit time stepping and CFL bookkeeping.

The CFL number is normalized as nu = (c/eps) * dt / min(dx, dy), so
dt = nu * min(dx, dy) * eps / c. All stability claims are ratio tests,
immune to this convention.
"""

import math
from dataclasses import dataclass

import numpy as np

from .grid import FieldSet
from .schemes import rhs

CFL_NORMALIZATION = "nu = (c/eps)*dt/min(dx,dy)"


class InstabilityError(RuntimeError):
    def __init__(self, step, t=None, msg=None):
        super().__init__(msg or "non-finite state after step %s" % step)
        self.step = step
        self.t = t


@dataclass(frozen=True)
class StepControl:
    cfl: float
    t_end: float
    max_steps: int = 10 ** 7

    def __post_init__(self):
        if not (self.cfl > 0):
            raise ValueError("cfl must be positive")
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")


def cfl_dt(params, grid, cfl):
    return cfl * grid.min_spacing * params.eps / params.c


def forward_euler_step(spec, state, dt, step=None):
    # rhs returns a fresh array: scale and add in place, never into state.q;
    # bitwise equal to state.q + dt * rhs(spec, state).q
    q = rhs(spec, state).q
    q *= dt
    q += state.q
    out = FieldSet.from_q(state.grid, q)
    if not out.all_finite():
        raise InstabilityError(step if step is not None else "<single>")
    return out


@dataclass
class RunResult:
    times: np.ndarray
    series: dict
    final_state: FieldSet
    n_steps: int
    dt: float


def run(spec, state, control, probes=None, cadence=1):
    """March to t_end with fixed dt, invoking probe callbacks on a cadence.

    probes maps name -> f(state); each is sampled at t = 0, every `cadence`
    steps, and at the final step. Returns the probe series and final state.
    """
    probes = probes or {}
    dt = cfl_dt(spec.params, state.grid, control.cfl)
    n_steps = 0
    if control.t_end > 0:
        n_steps = max(1, int(math.ceil(control.t_end / dt - 1e-12)))
    if n_steps > control.max_steps:
        raise ValueError("run wants %d steps, max_steps is %d" % (n_steps, control.max_steps))

    times = [0.0]
    series = {name: [fn(state)] for name, fn in probes.items()}
    for step in range(1, n_steps + 1):
        try:
            state = forward_euler_step(spec, state, dt, step=step)
        except InstabilityError as err:
            if err.t is None:
                err.t = (step - 1) * dt
            raise
        if step % cadence == 0 or step == n_steps:
            times.append(step * dt)
            for name, fn in probes.items():
                series[name].append(fn(state))
    return RunResult(times=np.array(times),
                     series={k: np.array(v) for k, v in series.items()},
                     final_state=state, n_steps=n_steps, dt=dt)


def cfl_sweep(spec, state0, cfl_grid, horizon_steps=500, growth_factor=2.0):
    """Largest CFL whose infinity norm stays within growth_factor over the horizon."""
    cfl_grid = sorted(float(c) for c in cfl_grid)
    initial = state0.norm_inf()
    results = []
    for cfl in cfl_grid:
        dt = cfl_dt(spec.params, state0.grid, cfl)
        state = state0.copy()
        stable = True
        peak = initial
        try:
            for step in range(1, horizon_steps + 1):
                state = forward_euler_step(spec, state, dt, step=step)
                peak = max(peak, state.norm_inf())
                if peak > growth_factor * initial:
                    stable = False
                    break
        except InstabilityError:
            stable = False
            peak = float("inf")
        results.append({"cfl": cfl, "stable": stable, "peak_norm": peak})
    passing = [r["cfl"] for r in results if r["stable"]]
    return {"max_stable_cfl": max(passing) if passing else None,
            "horizon_steps": horizon_steps,
            "growth_factor": growth_factor,
            "initial_norm": initial,
            "normalization": CFL_NORMALIZATION,
            "results": results}
