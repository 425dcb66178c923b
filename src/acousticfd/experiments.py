"""Benchmark setups and measurements.

Vortex initial data, kernel-adapted (discretely stationary) data built from
a streamfunction, each scheme's divergence and vorticity rows, read off its
symbol and checked exactly against it, decay-rate fits, and the vortex benchmark
orchestration.
"""

import json
import math
import os
import warnings
from json.encoder import c_make_encoder, encode_basestring_ascii

import numpy as np

from .grid import FieldSet, l1_norm_central_diff, l1_scratch, write_field_csv
from .schemes import rhs
from .stencils import ring_slots
from .timestep import CFL_NORMALIZATION, StepControl, cfl_dt, run


# the one vortex every run starts from: centre, radii, peak speed, background pressure
X0, Y0, R1, R2, SPEED, P0 = 0.5, 0.5, 0.2, 0.4, 1.0, 1.0


def gresho_vortex(grid):
    """Piecewise-linear azimuthal velocity profile, constant pressure.

    v_phi rises linearly to SPEED at R1, falls linearly to zero at R2.
    Divergence-free analytically; sampling it at cell centers is only an
    O(dx^2)-accurate discrete stationary state.
    """
    margin = _vortex_margin(grid)
    if margin < 0:
        warnings.warn("vortex centre (%.3g, %.3g) lies outside the domain [0, %.3g] x [0, %.3g]"
                      % (X0, Y0, grid.nx * grid.dx, grid.ny * grid.dy))
    elif R2 > margin:
        warnings.warn("vortex radius %.3g exceeds distance %.3g to the boundary" % (R2, margin))
    # v_phi / r is what multiplies (-dy, dx); finite at r = 0 on the inner branch. Cell
    # centres beyond the float range give non-finite data, which a march refuses to load
    inner = SPEED / R1
    with np.errstate(all="ignore"):
        x, y = grid.cell_centers()
        dx_, dy_ = x - X0, y - Y0
        r = np.hypot(dx_, dy_)
        outer = SPEED * (R2 - r) / ((R2 - R1) * r)
        ratio = np.where(r < R1, inner, np.where(r < R2, outer, 0.0))
        ratio = np.where(r == 0.0, inner, ratio)
        u = -ratio * dy_
        v = ratio * dx_
    if margin >= 0 and not (u.any() or v.any()):
        warnings.warn("vortex radius %.3g holds no cell centre off the vortex centre: cells of "
                      "%.3g x %.3g sample a constant state" % (R2, grid.dx, grid.dy))
    return FieldSet(grid, np.stack([u, v, np.full_like(u, P0)]))


def _vortex_margin(grid):
    """Distance from the vortex centre to the nearest edge of the domain; negative when the
    centre lies outside it."""
    return min(X0, grid.nx * grid.dx - X0, Y0, grid.ny * grid.dy - Y0)


def stream_velocity(psi, div_row, grid, p0=0.0):
    """Velocity field in the exact kernel of div_row, from a streamfunction.

    u = -(B_v psi), v = +(B_u psi) with the full unit-carrying stencils, so
    B_u u + B_v v = (B_v B_u - B_u B_v) psi = 0 exactly by commutation of
    scalar stencils, on any grid including anisotropic ones.
    """
    psi = np.asarray(psi, dtype=float)
    u = -div_row.bv.apply(psi, grid)
    v = div_row.bu.apply(psi, grid)
    return FieldSet(grid, np.stack([u, v, np.full_like(u, p0)]))


def stationarity_residual(spec, state):
    """|rhs|_inf normalized by (c/eps)|q|_inf; 0 for the zero state."""
    denom = (spec.params.c / spec.params.eps) * state.norm_inf()
    if denom == 0.0:
        return 0.0
    return rhs(spec, state).norm_inf() / denom


def checked_divergence_row(spec):
    """The scheme's divergence row, M^'s pressure row (bu, bv, _), checked exactly:
    M^ (-bv, bu, 0) = 0. Every entry of M^ is built from brackets that vanish on constants,
    so each (-bv psi, bu psi, p) with p constant is then a stationary state."""
    bu, bv, _ = spec.unitless[2]
    for r, m in enumerate(spec.unitless):
        if not (m[1] * bu - m[0] * bv).is_zero():
            raise RuntimeError("divergence row fails M (-bv, bu, 0) = 0 on row %d" % r)
    return spec.divergence_row()


def extract_conserved_operator(spec):
    """The scheme's vorticity row (wu, wv, wp), checked exactly column by column: w M = 0,
    which holds iff (w T) M^ = 0 since M = s T M^ T^-1 (`AcousticParams.balance`).
    wu(u) + wv(v) + wp(p) is the per-cell density the scheme conserves."""
    w = spec.vorticity_row()
    wt = [wk * tk for wk, tk in zip(w, spec.params.balance[1])]
    m = spec.unitless
    for c in range(3):
        if not (wt[0] * m[0][c] + wt[1] * m[1][c] + wt[2] * m[2][c]).is_zero():
            raise RuntimeError("vorticity row fails w M = 0 on column %d" % c)
    return w


def decay_window(times, values, params, grid):
    """Fit window skipping the initial transient; ends at the series end or
    the first sample below 1e-14, where the probe has decayed into roundoff."""
    t_a = 5.0 * grid.min_spacing * params.eps / params.c
    t_b = times[-1]
    for t, v in zip(times, values):
        if t > t_a and v < 1e-14:
            t_b = t
            break
    return t_a, t_b


def fit_decay(times, values, window):
    """Least squares on log(value): value ~ exp(intercept - rate * t), as the dict written
    under `fit`."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    t_a, t_b = window
    mask = (times >= t_a) & (times <= t_b)
    if mask.sum() < 2:
        raise ValueError("fit window [%g, %g] holds %d samples, need 2" % (t_a, t_b, mask.sum()))
    sel_t, sel_v = times[mask], values[mask]
    if np.any(sel_v <= 0):
        raise ValueError("non-positive values in fit window")
    if not np.isfinite(sel_v).all():
        raise ValueError("non-finite values in fit window")
    logv = np.log(sel_v)
    slope, intercept = np.polyfit(sel_t, logv, 1)
    resid = float(np.sqrt(np.mean((logv - (slope * sel_t + intercept)) ** 2)))
    return {"rate": float(-slope), "intercept": float(intercept), "t_a": float(sel_t[0]),
            "t_b": float(sel_t[-1]), "residual": resid, "n_points": int(mask.sum())}


# what the encoders call on a value that is no JSON type: it raises TypeError
_UNENCODABLE = json.JSONEncoder().default
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _holds_containers(values):
    """True when a value is a dict, list or tuple. Values of exact scalar types are
    settled by one set test; others, such as numpy floats, go through isinstance."""
    return not _SCALARS.issuperset(map(type, values)) and any(
        isinstance(v, (dict, list, tuple)) for v in values)


def json_document(doc):
    """The text of every JSON document written: indent 1, sorted keys, a final newline.

    The same text as json.dumps(doc, indent=1, sort_keys=True) + "\\n", which
    falls back to the pure-Python encoder whenever an indent is set. Here a
    container of scalars is one call to the C encoder, whose item separator
    carries the newline and indent: it escapes every newline inside a string,
    so each one it writes is a separator. So is a list of nonempty dicts of
    scalars, at the dicts' indent: there "}," + newline only ends a dict, and
    the two ends and each join between dicts are moved out one level. Only
    other containers that hold containers recurse in Python, and their keys
    must be strings.
    """
    encoders = {}

    def c_encode(o, indent):
        if indent not in encoders:
            encoders[indent] = c_make_encoder(None, _UNENCODABLE, encode_basestring_ascii,
                                              None, ": ", "," + indent, True, False, True)
        return "".join(encoders[indent](o, 0))

    def encode(o, newline):
        inner = newline + " "
        if isinstance(o, dict) and _holds_containers(o.values()):
            return "{" + inner + ("," + inner).join(
                [encode_basestring_ascii(k) + ": " + encode(v, inner) for k, v in sorted(o.items())]
            ) + newline + "}"
        if isinstance(o, (list, tuple)) and _holds_containers(o):
            if all(isinstance(v, dict) and v and not _holds_containers(v.values()) for v in o):
                deeper = inner + " "
                text = c_encode(o, deeper)[2:-2].replace("}," + deeper + "{",
                                                         inner + "}," + inner + "{" + deeper)
                return "[" + inner + "{" + deeper + text + inner + "}" + newline + "]"
            return "[" + inner + ("," + inner).join([encode(v, inner) for v in o]) + newline + "]"
        text = c_encode(o, inner)
        if len(text) == 2 or not isinstance(o, (dict, list, tuple)):
            return text
        return text[0] + inner + text[1:-1] + newline + text[-1]

    return encode(doc, "\n") + "\n"


def write_json(path, doc):
    with open(path, "w") as fh:
        fh.write(json_document(doc))


def write_timeseries_csv(path, times, values, metadata):
    """times is an array, or its %.17g strings, which the series of one run share."""
    if isinstance(times, np.ndarray):  # Python floats format as numpy scalars do, faster
        times = ["%.17g" % t for t in times.tolist()]
    with open(path, "w") as fh:
        fh.write("t,value\n")
        for t, v in zip(times, values.tolist()):
            fh.write("%s,%.17g\n" % (t, v))
    write_json(str(path) + ".meta.json", metadata)


def _benchmark_probes(grid):
    # both read u of a block's states inside the march's ring and share one scratch, sized
    # at the first sample, which comes after the march is built
    scratch = []

    def l1(axis):
        def probe(stack):
            if not scratch:
                r = (stack.shape[2] - grid.nx) // 2
                scratch.extend(l1_scratch(grid, ring_slots(grid, r), r))
            return l1_norm_central_diff(stack[:, 0], axis, grid, scratch)
        return probe
    return {"dux_l1": l1(0), "duy_l1": l1(1)}


def vortex_benchmark(spec, t_end, cfl, out_dir=None):
    """One vortex run of a built scheme: probe series, decay fit, final field.

    Returns a report dict whose `runs` holds the run's entry; writes CSV/JSON
    artifacts when out_dir is given.
    """
    name, params, grid = spec.name, spec.params, spec.grid
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    # the step control and the step count it gives are checked before the vortex is sampled,
    # so a run refused as a usage error warns of nothing
    control = StepControl(cfl=cfl, t_end=float(t_end))
    control.steps(cfl_dt(params, grid, cfl))
    result = run(spec, gresho_vortex(grid), control, probes=_benchmark_probes(grid))
    entry = {"eps": params.eps, "t_end": control.t_end, "n_steps": result.n_steps,
             "dt": result.dt}
    # a probe of a finite state can still overflow: such a value, and a ratio of them that
    # leaves the float range, is written as null beside its reason
    for probe in ("dux_l1", "duy_l1"):
        for key, value in (("initial_" + probe, result.series[probe][0]),
                           ("final_" + probe, result.series[probe][-1])):
            if math.isfinite(value):
                entry[key] = float(value)
            else:
                entry.update({key: None, key + "_error": "the L1 probe overflows on a finite state"})
    initial, final = entry["initial_dux_l1"], entry["final_dux_l1"]
    retention = final / initial if initial and final is not None else math.inf
    if math.isfinite(retention):
        entry["dux_retention"] = retention
    else:
        entry.update(dux_retention=None, dux_retention_error=(
            "dux_l1 or its ratio leaves the float range" if initial
            else "initial dux_l1 is 0: the vortex misses the domain" if _vortex_margin(grid) < 0
            else "initial dux_l1 is 0: no cell centre off the vortex centre lies inside it"))
    window = decay_window(result.times, result.series["dux_l1"], params, grid)
    try:
        entry["fit"] = fit_decay(result.times, result.series["dux_l1"], window)
        entry["lambda_fit"] = entry["fit"]["rate"]
    except ValueError as err:
        entry["lambda_fit"] = None
        entry["fit_error"] = str(err)
    report = {"scheme": name, "grid": [grid.nx, grid.ny],
              "cfl": cfl, "normalization": CFL_NORMALIZATION, "runs": [entry]}
    if out_dir is not None:
        tag = "%s_eps%s" % (name, ("%g" % params.eps).replace(".", "p").replace("-", "m"))
        meta = {"scheme": name, "eps": params.eps, "c": params.c,
                "grid": [grid.nx, grid.ny], "cfl": cfl,
                "t_end": control.t_end, "normalization": CFL_NORMALIZATION}
        files, times = {}, ["%.17g" % t for t in result.times.tolist()]
        for probe in ("dux_l1", "duy_l1"):
            base = "%s_%s.csv" % (tag, probe)
            write_timeseries_csv(os.path.join(out_dir, base), times, result.series[probe],
                                 dict(meta, probe=probe))
            files[probe] = base
        fbase = "%s_final.csv" % tag
        ffield = os.path.join(out_dir, fbase)
        write_field_csv(ffield, result.final_state)
        write_json(ffield + ".meta.json", dict(meta, kind="final_field"))
        files["final_field"] = fbase
        entry["files"] = files
        sbase = "%s_summary.json" % name
        write_json(os.path.join(out_dir, sbase), report)
        report["summary_file"] = sbase
    return report


def kernel_adapted_state(spec, seed=3, dyadic=False):
    """Random streamfunction data lying in the scheme's discrete kernel, at pressure 1."""
    grid = spec.grid
    rng = np.random.default_rng(seed)
    if dyadic:
        psi = rng.integers(-(1 << 20), 1 << 20, size=(grid.nx, grid.ny)) / float(1 << 20)
    else:
        psi = rng.standard_normal((grid.nx, grid.ny))
    return stream_velocity(psi, spec.divergence_row(), grid, p0=1.0)
