"""Spans around calls into acousticfd's public functions, installed from outside.

`Tracer.install` wraps each function in WRAPPED and rebinds every name that
refers to it: module globals bound by `from .x import y`, default arguments
such as `timestep.run(stepper=forward_euler_step)`, and class attributes.
Spans are kept in memory as (id, parent, name, start, end, counts) and read
once, when the command has finished; a call that raises keeps its span,
without counts. LaurentPoly and Fraction arithmetic are left alone.
"""

import functools
import importlib
import os
import sys
import time

# module -> public functions ("Class.method" for class attributes)
WRAPPED = {
    "laurent": ("consistency_nullspace", "rref_nullspace", "spans_match",
                "moore_symmetry_scan", "operator_identity_check"),
    "fourier": ("det_scan", "kernel_dim", "right_kernel", "left_kernel",
                "eigenvalue_scaling_check"),
    "stencils": ("MatrixStencil.symbol", "MatrixStencil.exact_symbol", "MatrixStencil.apply_sum"),
    "schemes": ("make_scheme", "rhs"),
    "timestep": ("run", "forward_euler_step", "cfl_sweep"),
    "grid": ("l1_norm_central_diff", "FieldSet.norm_inf", "write_field_csv"),
    "experiments": ("gresho_vortex", "fit_decay", "vortex_benchmark",
                    "extract_conserved_operator", "write_timeseries_csv"),
    "cli": ("main", "emit_json"),
}


def span_name(module, qualname):
    return "%s.%s" % (module, qualname.rsplit(".", 1)[-1])


SPAN_NAMES = tuple(span_name(m, q) for m, names in WRAPPED.items() for q in names)


def _file_bytes(*paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


# counts recorded at the boundary: extra(args, kwargs, result) -> list
def _det_scan_extra(args, kwargs, verdict):
    return [len(verdict.records), len(verdict.generic_records()), verdict.withheld]


def _apply_sum_extra(args, kwargs, out):
    stencil, q = args[0], args[1]
    return [q.shape[1] * q.shape[2], len(stencil.float_blocks())]


def _run_extra(args, kwargs, result):
    grid = result.final_state.grid
    return [result.n_steps, grid.nx * grid.ny]


def _cfl_sweep_extra(args, kwargs, result):
    grid = args[1].grid
    return [len(result["results"]), sum(not r["stable"] for r in result["results"]),
            grid.nx * grid.ny]


def _field_csv_extra(args, kwargs, result):
    return [_file_bytes(args[0])]


def _timeseries_csv_extra(args, kwargs, result):
    return [_file_bytes(args[0], str(args[0]) + ".meta.json")]


def _emit_json_extra(args, kwargs, result, stdout_before):
    cfg, name = args[1], args[2]
    if cfg.get("out"):
        return [_file_bytes(os.path.join(cfg["out"], name))]
    return [sys.stdout.tell() - stdout_before]


EXTRAS = {"fourier.det_scan": _det_scan_extra, "stencils.apply_sum": _apply_sum_extra,
          "timestep.run": _run_extra, "timestep.cfl_sweep": _cfl_sweep_extra,
          "grid.write_field_csv": _field_csv_extra,
          "experiments.write_timeseries_csv": _timeseries_csv_extra}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._next = 0

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        extra_fn = EXTRAS.get(name)
        is_emit = name == "cli.emit_json"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next += 1
            sid = self._next
            parent = stack[-1] if stack else 0
            stack.append(sid)
            before = sys.stdout.tell() if is_emit and sys.stdout.seekable() else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((sid, parent, name, start, clock(), None))
                raise
            end = clock()
            stack.pop()
            if is_emit:
                extra = _emit_json_extra(args, kwargs, result, before)
            else:
                extra = extra_fn(args, kwargs, result) if extra_fn else None
            spans.append((sid, parent, name, start, end, extra))
            return result
        return wrapper

    def install(self):
        """Wrap every function in WRAPPED and rebind all references to it."""
        originals = {}
        for module, names in WRAPPED.items():
            mod = importlib.import_module("acousticfd." + module)
            for qual in names:
                name = span_name(module, qual)
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, attr, self._wrap(name, cls.__dict__[attr]))
                else:
                    fn = getattr(mod, qual)
                    originals[id(fn)] = self._wrap(name, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "acousticfd" or mod_name.startswith("acousticfd.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in originals:
                    setattr(mod, attr, originals[id(value)])
                defaults = getattr(value, "__defaults__", None)
                if defaults and any(id(d) in originals for d in defaults):
                    value.__defaults__ = tuple(originals.get(id(d), d) for d in defaults)
        return self
