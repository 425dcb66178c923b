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

# the error state around a march loop: a blow-up is reported as InstabilityError by the
# finite check, not by floating-point warnings
_QUIET = dict(over="ignore", invalid="ignore")


MAX_STEPS = 10 ** 7


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
        that `check_dt` refuses, it raises."""
        check_dt(dt, self.t_end)
        n = max(1, math.ceil(self.t_end / dt - 1e-12)) if self.t_end > 0 else 0
        if n > MAX_STEPS:
            raise ValueError("run to t_end wants %.3g steps of dt = cfl*min(dx,dy)*eps/c, over "
                             "the limit of %d: raise --cfl or lower --t-end" % (n, MAX_STEPS))
        return n


def cfl_dt(params, grid, cfl):
    return cfl * grid.min_spacing * params.eps / params.c


def check_dt(dt, t_end=0.0):
    """A ValueError naming the options dt comes from, when it underflows to 0, overflows or
    leaves t_end/dt beyond the float range."""
    if not 0 < dt < math.inf or t_end / dt == math.inf:
        raise ValueError("time step dt = cfl*min(dx,dy)*eps/c = %r %s"
                         % (dt, "overflows" if dt == math.inf else "underflows"))


class March:
    """Forward Euler round a ring of S periodic halos (`MatrixStencil.workspace`).

    A step runs shift_product into the next halo's span, scales it by -dt (the
    sign of -W @ B folded in, which is exact), adds the current span and
    refreshes the next halo's ghosts: bitwise q + dt * rhs(q). `load` puts a
    finite state in slot S-1, and `blocks` steps from there in blocks of up to S
    states, so each state of a block stays resident, inside its periodic ghost
    ring (from radius 1 up), until the next block overwrites it. A span holds
    interior cells and copies of them only, so the checks run on it. A
    non-finite cell stays non-finite under the step (inf + x and NaN + x are
    never finite), so a block whose last state is finite was finite at every
    step. Every view is built with the March, and a step leaves the
    floating-point error state to its callers, which quiet it once around
    their loops."""

    def __init__(self, spec):
        self.stencil, self.grid = spec.stencil, spec.grid
        self.ring, self.spans, self.halos, self.buf = spec.stencil.workspace()

    def load(self, state, dt):
        if state.grid != self.grid:
            raise ValueError("state grid %r does not match scheme grid %r" % (state.grid, self.grid))
        if not np.isfinite(state.q).all():
            raise ValueError("the initial state has a non-finite cell")
        self.neg_dt = -dt
        self.halos[-1].inner[...] = state.q
        self.stencil.wrap_halo(self.halos[-1])
        return self

    def blocks(self, n_steps):
        """Step n_steps states in blocks of up to S, each from slot S-1 into slots 0 .. k-1;
        only the last block can be shorter than S. Yields (first, k) after each block, first
        the number of its first step."""
        halos, size = self.halos, len(self.halos)
        for first in range(1, n_steps + 1, size):
            k = min(size, n_steps + 1 - first)
            cur = halos[-1]
            for nxt in halos[:k]:
                out = nxt.span
                self.stencil.shift_product(cur, out, self.buf)
                out *= self.neg_dt
                out += cur.span
                self.stencil.wrap_halo(nxt)
                cur = nxt
            yield first, k

    def peaks(self, k):
        """max|q| of the states in slots 0 .. k-1, from two reductions over their spans
        and without a |q| temporary; + 0.0 turns a -0.0 into 0.0, as abs does."""
        spans = self.spans[:k]
        return (np.maximum(spans.max(axis=(1, 2)), -spans.min(axis=(1, 2))) + 0.0).tolist()


def forward_euler_step(spec, state, dt, step=None):
    """One step of q + dt * rhs(q) into a fresh state, bitwise a March step. A
    non-finite cell raises InstabilityError naming `step`."""
    with np.errstate(**_QUIET):
        q = state.q + dt * rhs(spec, state).q
    if not np.isfinite(q).all():
        raise InstabilityError(step if step is not None else "<single>")
    return FieldSet(state.grid, q)


@dataclass
class RunResult:
    times: np.ndarray
    series: dict
    final_state: FieldSet
    n_steps: int
    dt: float


def run(spec, state, control, probes=None):
    """March to t_end with fixed dt, invoking probe callbacks on every state.

    probes maps name -> f(stack), where stack is a (k, 3, nx+2r, ny+2r) array
    of k states, each inside its periodic ghost ring r cells wide (the
    stencil radius; bare at radius 0), and f returns k values. States are
    sampled at t = 0 and after every step. The march runs in blocks of up to
    S steps round its ring; each block is checked for non-finite cells, and
    then each probe is called once on a view of the block's states in the
    ring, under ignored over and invalid, so a probe sees only finite states.
    Returns the probe series and a copy of the final state. A non-finite
    initial state is a ValueError: `March.load` refuses it.

    Only each block's last state is checked. When it fails, the block's states
    are scanned, and InstabilityError names the first non-finite step and the
    time before it, as a check after every step would.
    """
    sampled = [(name, fn, []) for name, fn in (probes or {}).items()]
    dt = cfl_dt(spec.params, state.grid, control.cfl)
    n_steps = control.steps(dt)
    march = March(spec).load(state, dt)

    _sample(sampled, march.ring[-1:])
    k = 0  # with no block, the final state is the loaded one in slot S-1
    with np.errstate(**_QUIET):
        for first, k in march.blocks(n_steps):
            if not np.isfinite(march.spans[k - 1]).all():
                j = next(j for j in range(k) if not np.isfinite(march.spans[j]).all())
                raise InstabilityError(first + j, (first + j - 1) * dt)
            _sample(sampled, march.ring[:k])
    return RunResult(times=np.arange(n_steps + 1) * dt,
                     series={name: np.concatenate(chunks) for name, _, chunks in sampled},
                     final_state=FieldSet(state.grid, march.halos[k - 1].inner.copy()),
                     n_steps=n_steps, dt=dt)


def _sample(sampled, stack):
    for name, fn, chunks in sampled:
        values = fn(stack)
        if len(values) != len(stack):
            raise ValueError("probe %r gave %d values for %d states" % (name, len(values), len(stack)))
        chunks.append(values)


def _sweep_point(march, horizon_steps, initial, bound):
    """(stable, peak) of one loaded CFL point: the stop rule reads each block's max-norms
    in step order. peak is None when a state turns non-finite before passing the bound."""
    peak = initial
    for _, k in march.blocks(horizon_steps):
        for p in march.peaks(k):
            if not math.isfinite(p):
                return False, None
            peak = max(peak, p)
            if peak > bound:
                return False, peak
    return True, peak


def cfl_sweep(spec, state0, cfl_grid, horizon_steps=500, growth_factor=2.0):
    """Largest CFL whose infinity norm stays within growth_factor over the horizon: the first
    stable point from the top down, so `results` lists only the points run, in that order."""
    initial = state0.norm_inf()
    march = March(spec)
    results, stable = [], False
    with np.errstate(**_QUIET):
        for cfl in sorted((float(c) for c in cfl_grid), reverse=True):
            march.load(state0, cfl_dt(spec.params, state0.grid, cfl))
            stable, peak = _sweep_point(march, horizon_steps, initial, growth_factor * initial)
            results.append({"cfl": cfl, "stable": stable, "peak_norm": peak})
            if peak is None:
                results[-1]["peak_norm_error"] = "a state turned non-finite below the bound"
            if stable:
                break
    return {"max_stable_cfl": cfl if stable else None,
            "horizon_steps": horizon_steps,
            "growth_factor": growth_factor,
            "initial_norm": initial,
            "normalization": CFL_NORMALIZATION,
            "results": results}
