"""Benchmark setups and measurements.

Vortex initial data, kernel-adapted (discretely stationary) data built from
a streamfunction, the conserved operator (each scheme's closed-form vorticity
row, checked exactly against its symbol), decay-rate fits, and the vortex
benchmark orchestration.
"""

import json
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import (AcousticParams, FieldSet, l1_norm_central_diff,
                   write_field_csv)
from .schemes import make_scheme, rhs
from .timestep import CFL_NORMALIZATION, StepControl, run


@dataclass(frozen=True)
class VortexParams:
    x0: float = 0.5
    y0: float = 0.5
    r1: float = 0.2
    r2: float = 0.4
    speed: float = 1.0
    p0: float = 1.0

    def __post_init__(self):
        if not (0 < self.r1 < self.r2):
            raise ValueError("need 0 < r1 < r2")


def gresho_vortex(grid, vortex=None):
    """Piecewise-linear azimuthal velocity profile, constant pressure.

    v_phi rises linearly to `speed` at r1, falls linearly to zero at r2.
    Divergence-free analytically; sampling it at cell centers is only an
    O(dx^2)-accurate discrete stationary state.
    """
    vortex = vortex or VortexParams()
    lx, ly = grid.nx * grid.dx, grid.ny * grid.dy
    margin = min(vortex.x0, lx - vortex.x0, vortex.y0, ly - vortex.y0)
    if margin < 0:
        warnings.warn("vortex centre (%.3g, %.3g) lies outside the domain [0, %.3g] x [0, %.3g]"
                      % (vortex.x0, vortex.y0, lx, ly))
    elif vortex.r2 > margin:
        warnings.warn("vortex radius %.3g exceeds distance %.3g to the boundary"
                      % (vortex.r2, margin))
    x, y = grid.cell_centers()
    dx_, dy_ = x - vortex.x0, y - vortex.y0
    r = np.hypot(dx_, dy_)
    # v_phi / r is what multiplies (-dy, dx); finite at r = 0 on the inner branch
    inner = vortex.speed / vortex.r1
    with np.errstate(divide="ignore", invalid="ignore"):
        outer = vortex.speed * (vortex.r2 - r) / ((vortex.r2 - vortex.r1) * r)
    ratio = np.where(r < vortex.r1, inner, np.where(r < vortex.r2, outer, 0.0))
    ratio = np.where(r == 0.0, inner, ratio)
    u = -ratio * dy_
    v = ratio * dx_
    p = np.full_like(u, vortex.p0)
    return FieldSet(grid, u, v, p)


def stream_velocity(psi, div_row, grid, p0=0.0):
    """Velocity field in the exact kernel of div_row, from a streamfunction.

    u = -(B_v psi), v = +(B_u psi) with the full unit-carrying stencils, so
    B_u u + B_v v = (B_v B_u - B_u B_v) psi = 0 exactly by commutation of
    scalar stencils, on any grid including anisotropic ones.
    """
    psi = np.asarray(psi, dtype=float)
    u = -div_row.bv.apply(psi, grid)
    v = div_row.bu.apply(psi, grid)
    p = np.full_like(u, p0)
    return FieldSet(grid, u, v, p)


def stationarity_residual(spec, state):
    """|rhs|_inf normalized by (c/eps)|q|_inf; 0 for the zero state."""
    denom = (spec.params.c / spec.params.eps) * state.norm_inf()
    if denom == 0.0:
        return 0.0
    return rhs(spec, state).norm_inf() / denom


class ConservedOperator:
    """Physical-space left-kernel row: a per-cell functional constant in time.

    wu, wv, wp are whole-cell scalar stencils with units already bound into
    their coefficients; apply returns the conserved density field.
    """

    def __init__(self, grid, wu, wv, wp):
        self.grid = grid
        self.wu = wu
        self.wv = wv
        self.wp = wp

    def apply(self, field):
        out = self.wu.apply(field.u, self.grid) + self.wv.apply(field.v, self.grid)
        if not self.wp.is_zero():
            out = out + self.wp.apply(field.p, self.grid)
        return out

    def weight_norm(self):
        total = 0.0
        for st in (self.wu, self.wv, self.wp):
            total += sum(abs(w) for w in st.weights(self.grid).values())
        return total

    def to_json_dict(self):
        return {"wu": self.wu.to_json_dict(), "wv": self.wv.to_json_dict(),
                "wp": self.wp.to_json_dict(), "exact": True}


def extract_conserved_operator(spec):
    """The scheme's closed-form vorticity row, checked exactly: w M = 0 column by column."""
    w = spec.vorticity_row()
    m = spec.stencil.exact_symbol()
    for c in range(3):
        if not (w[0] * m[0][c] + w[1] * m[1][c] + w[2] * m[2][c]).is_zero():
            raise RuntimeError("vorticity row fails w M = 0 on column %d" % c)
    return ConservedOperator(spec.grid, *w)


@dataclass(frozen=True)
class DecayFit:
    rate: float
    intercept: float
    t_a: float
    t_b: float
    residual: float
    n_points: int


def decay_window(times, values, params, grid, floor=1e-14):
    """Fit window skipping the initial transient; ends at the series end or
    the first sample below the floor."""
    t_a = 5.0 * grid.min_spacing * params.eps / params.c
    t_b = times[-1]
    for t, v in zip(times, values):
        if t > t_a and v < floor:
            t_b = t
            break
    return t_a, t_b


def fit_decay(times, values, window):
    """Least squares on log(value): value ~ exp(intercept - rate * t)."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    t_a, t_b = window
    mask = (times >= t_a) & (times <= t_b)
    if mask.sum() < 2:
        raise ValueError("fit window [%g, %g] holds %d samples, need 2" % (t_a, t_b, mask.sum()))
    sel_t, sel_v = times[mask], values[mask]
    if np.any(sel_v <= 0):
        raise ValueError("non-positive values in fit window")
    logv = np.log(sel_v)
    slope, intercept = np.polyfit(sel_t, logv, 1)
    resid = float(np.sqrt(np.mean((logv - (slope * sel_t + intercept)) ** 2)))
    return DecayFit(rate=float(-slope), intercept=float(intercept),
                    t_a=float(sel_t[0]), t_b=float(sel_t[-1]),
                    residual=resid, n_points=int(mask.sum()))


def json_document(doc):
    """The text of every JSON document written: indent 1, sorted keys, a final newline."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def write_json(path, doc):
    with open(path, "w") as fh:
        fh.write(json_document(doc))


def write_timeseries_csv(path, times, values, metadata=None):
    with open(path, "w") as fh:
        fh.write("t,value\n")
        for t, v in zip(times, values):
            fh.write("%.17g,%.17g\n" % (t, v))
    if metadata is not None:
        write_json(str(path) + ".meta.json", metadata)


def _benchmark_probes(grid):
    return {"dux_l1": lambda s: l1_norm_central_diff(s.u, 0, grid),
            "duy_l1": lambda s: l1_norm_central_diff(s.u, 1, grid)}


def vortex_benchmark(scheme_name, eps_list, grid, t_end, c=1.0, cfl=0.45,
                     vortex=None, out_dir=None, scheme_kwargs=None, fit=True):
    """Vortex runs across eps: probe series, decay fits, final fields.

    t_end may be a number (same horizon for all eps) or a callable eps -> t.
    Returns a report dict; writes CSV/JSON artifacts when out_dir is given.
    """
    vortex = vortex or VortexParams()
    scheme_kwargs = scheme_kwargs or {}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    report = {"scheme": scheme_name, "grid": [grid.nx, grid.ny],
              "cfl": cfl, "normalization": CFL_NORMALIZATION, "runs": []}
    for eps in eps_list:
        params = AcousticParams(c=c, eps=eps)
        spec = make_scheme(scheme_name, params, grid, **scheme_kwargs)
        state0 = gresho_vortex(grid, vortex)
        horizon = t_end(eps) if callable(t_end) else t_end
        control = StepControl(cfl=cfl, t_end=float(horizon))
        result = run(spec, state0, control, probes=_benchmark_probes(grid))
        entry = {"eps": eps, "t_end": float(horizon), "n_steps": result.n_steps,
                 "dt": result.dt,
                 "initial_dux_l1": float(result.series["dux_l1"][0]),
                 "final_dux_l1": float(result.series["dux_l1"][-1]),
                 "initial_duy_l1": float(result.series["duy_l1"][0]),
                 "final_duy_l1": float(result.series["duy_l1"][-1])}
        if entry["initial_dux_l1"] > 0:
            entry["dux_retention"] = entry["final_dux_l1"] / entry["initial_dux_l1"]
        else:
            entry.update(dux_retention=None,
                         dux_retention_error="initial dux_l1 is 0: the vortex misses the domain")
        if fit:
            window = decay_window(result.times, result.series["dux_l1"], params, grid)
            try:
                decay = fit_decay(result.times, result.series["dux_l1"], window)
                entry["lambda_fit"] = decay.rate
                entry["fit"] = {"rate": decay.rate, "intercept": decay.intercept,
                                "t_a": decay.t_a, "t_b": decay.t_b,
                                "residual": decay.residual, "n_points": decay.n_points}
            except ValueError as err:
                entry["lambda_fit"] = None
                entry["fit_error"] = str(err)
        if out_dir is not None:
            tag = "%s_eps%s" % (scheme_name, ("%g" % eps).replace(".", "p").replace("-", "m"))
            meta = {"scheme": scheme_name, "eps": eps, "c": c,
                    "grid": [grid.nx, grid.ny], "cfl": cfl,
                    "t_end": float(horizon), "normalization": CFL_NORMALIZATION}
            files = {}
            for probe in ("dux_l1", "duy_l1"):
                base = "%s_%s.csv" % (tag, probe)
                write_timeseries_csv(os.path.join(out_dir, base), result.times,
                                     result.series[probe], dict(meta, probe=probe))
                files[probe] = base
            fbase = "%s_final.csv" % tag
            ffield = os.path.join(out_dir, fbase)
            write_field_csv(ffield, result.final_state)
            write_json(ffield + ".meta.json", dict(meta, kind="final_field"))
            files["final_field"] = fbase
            entry["files"] = files
        report["runs"].append(entry)
    if out_dir is not None:
        sbase = "%s_summary.json" % scheme_name
        write_json(os.path.join(out_dir, sbase), report)
        report["summary_file"] = sbase
    return report


def divergence_observed_order(row_factory, sizes=(16, 32, 64, 128)):
    """Convergence order of a divergence row against a smooth analytic field.

    row_factory() -> VecStencilRow (units carried, so the same row works on
    every grid). Returns the log-log slope across the size ladder.
    """
    from .grid import GridSpec
    errs, hs = [], []
    for n in sizes:
        grid = GridSpec.unit_square(n)
        x, y = grid.cell_centers()
        u = np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
        v = np.cos(4 * np.pi * x) * np.sin(2 * np.pi * y)
        div = (2 * np.pi * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
               + 2 * np.pi * np.cos(4 * np.pi * x) * np.cos(2 * np.pi * y))
        approx = row_factory().apply(u, v, grid)
        errs.append(np.max(np.abs(approx - div)))
        hs.append(grid.dx)
    slope, _ = np.polyfit(np.log(hs), np.log(errs), 1)
    return float(slope)


def kernel_adapted_state(spec, seed=3, amplitude=1.0, p0=1.0, dyadic=False):
    """Random streamfunction data lying in the scheme's discrete kernel."""
    grid = spec.grid
    rng = np.random.default_rng(seed)
    if dyadic:
        psi = rng.integers(-(1 << 20), 1 << 20, size=(grid.nx, grid.ny)) / float(1 << 20)
        psi = psi * amplitude
    else:
        psi = amplitude * rng.standard_normal((grid.nx, grid.ny))
    return stream_velocity(psi, spec.divergence_row(), grid, p0=p0)
