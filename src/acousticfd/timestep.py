"""Explicit time stepping and CFL bookkeeping.

The CFL number is normalized as nu = (c/eps) * dt / min(dx, dy), so
dt = nu * min(dx, dy) * eps / c. All stability claims are ratio tests,
immune to this convention.
"""

import math
from dataclasses import dataclass

import numpy as np

from .grid import FieldSet

CFL_NORMALIZATION = "nu = (c/eps)*dt/min(dx,dy)"

# the error state around a march loop: a blow-up is reported as InstabilityError by the
# finite check, not by floating-point warnings
_QUIET = dict(over="ignore", invalid="ignore")


MAX_STEPS = 10 ** 7

# `run` checks the state for non-finite cells once per this many steps
CHECK_BLOCK = 32


class InstabilityError(RuntimeError):
    def __init__(self, step, t=None):
        super().__init__("non-finite state after step %s" % step)
        self.step = step
        self.t = t


@dataclass(frozen=True)
class StepControl:
    cfl: float
    t_end: float

    def __post_init__(self):
        if not 0 < self.cfl < math.inf:
            raise ValueError("cfl must be positive and finite")
        if not 0 <= self.t_end < math.inf:
            raise ValueError("t_end must be finite and nonnegative")

    def steps(self, dt):
        """Number of fixed steps of size dt that reach t_end; above MAX_STEPS, or for a dt
        that underflows to 0 or leaves t_end/dt beyond the float range, it raises."""
        if not dt > 0 or self.t_end / dt == math.inf:
            raise ValueError("time step dt = cfl*min(dx,dy)*eps/c = %r underflows" % dt)
        n = max(1, math.ceil(self.t_end / dt - 1e-12)) if self.t_end > 0 else 0
        if n > MAX_STEPS:
            raise ValueError("run wants %d steps, max_steps is %d" % (n, MAX_STEPS))
        return n


def cfl_dt(params, grid, cfl):
    return cfl * grid.min_spacing * params.eps / params.c


class March:
    """Forward Euler with the state resident in one of two periodic halos.

    A step runs shift_product into the other halo's span, scales it by -dt
    (the sign of -W @ B folded in, which is exact), adds the current span,
    refreshes the ghosts and swaps: bitwise q + dt * rhs(q). The span holds
    interior cells and copies of them only, so the checks run on it. A
    non-finite cell stays non-finite under the step (inf + x and NaN + x are
    never finite), so a state found finite proves every step before it
    finite, and one check may follow many steps. `state`
    views the current interior, and its halo the periodic ghost ring (from
    radius 1 up); the step after next overwrites both. Every view is built
    with the March, and a step leaves the floating-point error state to its
    callers, which quiet it once around their loops."""

    def __init__(self, spec):
        self.stencil, self.grid = spec.stencil, spec.grid
        halos, self.buf = spec.stencil.workspace()
        ringed = spec.stencil.radius > 0
        # (halo, state over its interior); the current one is first
        self.halos = [(h, FieldSet.from_q(self.grid, h.inner, h.array if ringed else None))
                      for h in halos]

    def load(self, state, dt):
        if state.grid != self.grid:
            raise ValueError("state grid %r does not match scheme grid %r" % (state.grid, self.grid))
        self.neg_dt, self.state = -dt, self.halos[0][1]
        self.state.q[...] = state.q
        self.stencil.wrap_halo(self.halos[0][0])
        return self

    def step(self, step, norm=False):
        """One step. With norm set it returns max|q|, and a non-finite cell raises
        InstabilityError naming the step; without it the step checks nothing (`finite`)."""
        (cur, _), (nxt, self.state) = self.halos
        out = nxt.span
        self.stencil.shift_product(cur, out, self.buf)
        out *= self.neg_dt
        out += cur.span
        self.stencil.wrap_halo(nxt)
        self.halos.reverse()
        if norm:
            # max|q| without a |q| temporary; + 0.0 turns a -0.0 into 0.0, as abs does
            peak = float(max(out.max(), -out.min())) + 0.0
            if not math.isfinite(peak):
                raise InstabilityError(step)
            return peak

    def finite(self):
        """True when every cell of the state is finite."""
        return bool(np.isfinite(self.halos[0][0].span).all())


def forward_euler_step(spec, state, dt, step=None):
    """One step of q + dt * rhs(q) into a fresh state. A non-finite cell raises
    InstabilityError naming `step`."""
    march = March(spec).load(state, dt)
    with np.errstate(**_QUIET):
        march.step(step)
    if not march.finite():
        raise InstabilityError(step if step is not None else "<single>")
    return march.state.copy()


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
    steps, and at the final step, on the march's state (a FieldSet viewing its
    halo), the later samples with over and invalid ignored, as the march runs.
    Returns the probe series and a copy of the final state.

    The state is checked for non-finite cells once per CHECK_BLOCK steps, and
    a copy of each block's start state is kept. A block that ends non-finite,
    or whose probe raises on a non-finite state, is stepped again from that
    copy with a check after every step, so InstabilityError names the first
    non-finite step and the time before it, as a check after every step would.
    """
    sampled = [(name, fn, []) for name, fn in (probes or {}).items()]
    dt = cfl_dt(spec.params, state.grid, control.cfl)
    n_steps = control.steps(dt)
    march = March(spec).load(state, dt)

    times = [0.0]
    # every sample, the first too, sees the march's view of the state
    for _, fn, values in sampled:
        values.append(fn(march.state))
    start = march.state.copy()
    with np.errstate(**_QUIET):
        for first in range(1, n_steps + 1, CHECK_BLOCK):
            block = range(first, min(first + CHECK_BLOCK, n_steps + 1))
            start.q[...] = march.state.q
            try:
                for step in block:
                    march.step(step)
                    if step % cadence == 0 or step == n_steps:
                        times.append(step * dt)
                        for _, fn, values in sampled:
                            values.append(fn(march.state))
            except Exception:
                # a probe may raise on any non-finite state; on a finite one every step
                # so far was finite, and its error is the run's
                if march.finite():
                    raise
            if not march.finite():
                _replay(march.load(start, dt), block, dt)
    return RunResult(times=np.array(times),
                     series={name: np.array(values) for name, _, values in sampled},
                     final_state=march.state.copy(), n_steps=n_steps, dt=dt)


def _replay(march, block, dt):
    """Step a block that ended non-finite again from its start, checking every step, and
    raise the InstabilityError of its first non-finite step."""
    for step in block:
        march.step(step)
        if not march.finite():
            raise InstabilityError(step, (step - 1) * dt)
    raise RuntimeError("a block that ended non-finite replayed finite")


def cfl_sweep(spec, state0, cfl_grid, horizon_steps=500, growth_factor=2.0):
    """Largest CFL whose infinity norm stays within growth_factor over the horizon."""
    cfl_grid = sorted(float(c) for c in cfl_grid)
    initial = state0.norm_inf()
    march = March(spec)
    results = []
    with np.errstate(**_QUIET):
        for cfl in cfl_grid:
            march.load(state0, cfl_dt(spec.params, state0.grid, cfl))
            stable = True
            peak = initial
            try:
                for step in range(1, horizon_steps + 1):
                    peak = max(peak, march.step(step, norm=True))
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
