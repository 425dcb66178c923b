"""Per-layer metrics from the spans of a traced pass.

Layers are acousticfd's modules. Times (`.s`) are inclusive span time,
`.self_s` is span time minus the time of its child spans; every time and
count is per pass of the workload's command list. Flops and bytes of
`MatrixStencil.apply_sum` are computed from array sizes and tap counts, not
measured: per cell and tap, a 3x3 product and an accumulate (18 flop) and
six streamed (3,)-double arrays (roll in/out, product in/out, accumulate
in/out: 168 B), plus the 24 B zeroed output per cell.
"""

from collections import defaultdict

from tracing import WRAPPED

FLOP_PER_CELL_TAP = 18
BYTES_PER_CELL_TAP = 168
BYTES_PER_CELL = 24

MODULES = tuple(WRAPPED)

# name -> (unit, better)
PER_LAYER = {
    "laurent.consistency_nullspace.calls": ("count", "lower"),
    "laurent.consistency_nullspace.s": ("s", "lower"),
    "laurent.rref_nullspace.s": ("s", "lower"),
    "laurent.spans_match.s": ("s", "lower"),
    "laurent.moore_symmetry_scan.s": ("s", "lower"),
    "laurent.operator_identity_check.s": ("s", "lower"),
    "fourier.det_scan.s": ("s", "lower"),
    "fourier.det_scan.samples": ("count", "lower"),
    "fourier.det_scan.us_per_sample": ("us", "lower"),
    "fourier.det_scan.withheld_ratio": ("ratio", "lower"),
    "fourier.kernel_calls": ("count", "lower"),
    "fourier.eigenvalue_scaling_check.s": ("s", "lower"),
    "stencils.symbol.calls": ("count", "lower"),
    "stencils.symbol.s": ("s", "lower"),
    "schemes.make_scheme.calls": ("count", "lower"),
    "schemes.make_scheme.s": ("s", "lower"),
    "stencils.exact_symbol.s": ("s", "lower"),
    "experiments.extract_conserved_operator.s": ("s", "lower"),
    "stencils.apply_sum.calls": ("count", "lower"),
    "stencils.apply_sum.s": ("s", "lower"),
    "stencils.apply_sum.ns_per_cell": ("ns", "lower"),
    "stencils.apply_sum.flops_computed": ("flop", "lower"),
    "stencils.apply_sum.bytes_computed": ("B", "lower"),
    "schemes.rhs.calls": ("count", "lower"),
    "timestep.run.s": ("s", "lower"),
    "timestep.run.steps": ("count", "lower"),
    "timestep.forward_euler_step.s": ("s", "lower"),
    "timestep.cell_steps_per_s": ("1/s", "higher"),
    "grid.l1_norm_central_diff.calls": ("count", "lower"),
    "grid.l1_norm_central_diff.s": ("s", "lower"),
    "experiments.gresho_vortex.s": ("s", "lower"),
    "experiments.fit_decay.s": ("s", "lower"),
    "experiments.vortex_benchmark.self_s": ("s", "lower"),
    "timestep.cfl_sweep.s": ("s", "lower"),
    "timestep.cfl_sweep.points": ("count", "lower"),
    "timestep.cfl_sweep.unstable_points": ("count", "lower"),
    "timestep.cfl_sweep.steps": ("count", "lower"),
    "grid.norm_inf.calls": ("count", "lower"),
    "grid.norm_inf.s": ("s", "lower"),
    "grid.write_field_csv.s": ("s", "lower"),
    "grid.write_field_csv.bytes": ("B", "lower"),
    "experiments.write_timeseries_csv.s": ("s", "lower"),
    "experiments.write_timeseries_csv.bytes": ("B", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.emit_json.s": ("s", "lower"),
    "cli.emit_json.bytes": ("B", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}
PER_LAYER.update({"%s.self_share" % m: ("ratio", "lower") for m in MODULES})

_TIMED = ("laurent.consistency_nullspace", "laurent.rref_nullspace", "laurent.spans_match",
          "laurent.moore_symmetry_scan", "laurent.operator_identity_check",
          "fourier.det_scan", "fourier.eigenvalue_scaling_check", "stencils.symbol",
          "schemes.make_scheme", "stencils.exact_symbol",
          "experiments.extract_conserved_operator", "stencils.apply_sum", "timestep.run",
          "timestep.forward_euler_step", "grid.l1_norm_central_diff",
          "experiments.gresho_vortex", "experiments.fit_decay", "timestep.cfl_sweep",
          "grid.norm_inf", "grid.write_field_csv", "experiments.write_timeseries_csv",
          "cli.emit_json")
_COUNTED = ("laurent.consistency_nullspace", "stencils.symbol", "schemes.make_scheme",
            "stencils.apply_sum", "schemes.rhs", "grid.l1_norm_central_diff", "grid.norm_inf")


class _Totals:
    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.module_self = defaultdict(float)
        self.extra = defaultdict(lambda: [0, 0, 0])
        self.apply_cells = self.apply_flops = self.apply_bytes = 0
        self.sweep_steps = self.sweep_cell_steps = self.run_cell_steps = 0

    def add_command(self, spans):
        child_time, child_steps = defaultdict(float), defaultdict(int)
        for sid, parent, name, start, end, extra in spans:
            child_time[parent] += end - start
            if name == "timestep.forward_euler_step":
                child_steps[parent] += 1
        for sid, parent, name, start, end, extra in spans:
            dur = end - start
            self.calls[name] += 1
            self.inclusive[name] += dur
            self.self_time[name] += dur - child_time[sid]
            self.module_self[name.split(".")[0]] += dur - child_time[sid]
            if extra is None:
                continue
            if name == "stencils.apply_sum":
                cells, taps = extra
                self.apply_cells += cells
                self.apply_flops += cells * taps * FLOP_PER_CELL_TAP
                self.apply_bytes += cells * (BYTES_PER_CELL + taps * BYTES_PER_CELL_TAP)
            elif name == "timestep.run":
                self.extra[name][0] += extra[0]
                self.run_cell_steps += extra[0] * extra[1]
            elif name == "timestep.cfl_sweep":
                self.extra[name][0] += extra[0]
                self.extra[name][1] += extra[1]
                self.sweep_steps += child_steps[sid]
                self.sweep_cell_steps += child_steps[sid] * extra[2]
            else:
                for i, x in enumerate(extra):
                    self.extra[name][i] += x


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(span_lists, n_passes, overhead_frac):
    """Per-pass layer metrics from the span lists of n_passes traced passes."""
    t = _Totals()
    for spans in span_lists:
        t.add_command(spans)
    per = 1.0 / max(n_passes, 1)
    m = {}
    for name in _TIMED:
        m[name + ".s"] = t.inclusive[name] * per
    for name in _COUNTED:
        m[name + ".calls"] = t.calls[name] * per
    samples, generic, withheld = t.extra["fourier.det_scan"]
    m["fourier.det_scan.samples"] = samples * per
    m["fourier.det_scan.us_per_sample"] = _ratio(t.inclusive["fourier.det_scan"], samples, 1e6)
    m["fourier.det_scan.withheld_ratio"] = _ratio(withheld, generic)
    m["fourier.kernel_calls"] = per * sum(t.calls["fourier." + f]
                                          for f in ("kernel_dim", "right_kernel", "left_kernel"))
    m["stencils.apply_sum.ns_per_cell"] = _ratio(t.inclusive["stencils.apply_sum"],
                                                 t.apply_cells, 1e9)
    m["stencils.apply_sum.flops_computed"] = t.apply_flops * per
    m["stencils.apply_sum.bytes_computed"] = t.apply_bytes * per
    m["timestep.run.steps"] = t.extra["timestep.run"][0] * per
    m["timestep.cell_steps_per_s"] = _ratio(
        t.run_cell_steps + t.sweep_cell_steps,
        t.inclusive["timestep.run"] + t.inclusive["timestep.cfl_sweep"])
    m["timestep.cfl_sweep.points"] = t.extra["timestep.cfl_sweep"][0] * per
    m["timestep.cfl_sweep.unstable_points"] = t.extra["timestep.cfl_sweep"][1] * per
    m["timestep.cfl_sweep.steps"] = t.sweep_steps * per
    m["experiments.vortex_benchmark.self_s"] = t.self_time["experiments.vortex_benchmark"] * per
    m["grid.write_field_csv.bytes"] = t.extra["grid.write_field_csv"][0] * per
    m["experiments.write_timeseries_csv.bytes"] = t.extra["experiments.write_timeseries_csv"][0] * per
    m["cli.self_s"] = t.self_time["cli.main"] * per
    m["cli.emit_json.bytes"] = t.extra["cli.emit_json"][0] * per
    m["trace.overhead_frac"] = overhead_frac
    command_s = t.inclusive["cli.main"]
    for module in MODULES:
        m[module + ".self_share"] = _ratio(t.module_self[module], command_s)
    return m
