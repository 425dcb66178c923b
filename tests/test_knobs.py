"""The knob inventory: every parameter with a default of a public callable.

A default is a knob: a value a caller may change. The table lists each one of
every callable `acousticfd` exports, beside what sets a value other than the
default. Adding, removing or changing a default fails here until the table,
and ROADMAP's knob inventory with it, is updated on purpose.
"""

import inspect

import acousticfd

KNOBS = {
    "GridSpec": {"dx": None, "dy": None},  # the CLI's --dx, --dy
    "InstabilityError": {"t": None},  # run
    "ScalarStencil": {"units": (0, 0)},  # tests only: the builders go through from_ints
    "SchemeSpec": {"diffusion": None},  # make_scheme
    "cfl_sweep": {"horizon_steps": 500, "growth_factor": 2.0},  # tests only
    "consistency_nullspace": {"radius": 1},  # certify's --radius
    "forward_euler_step": {"step": None},  # tests only
    "kernel_adapted_state": {"seed": 3, "dyadic": False},  # tests only
    "l1_norm_central_diff": {"out": None},  # vortex_benchmark's probes
    "make_scheme": {"a1": 0, "a2": 0, "a3": 0, "a4": 0},  # the CLI's --a1 .. --a4
    "run": {"probes": None},  # vortex_benchmark
    "spans_match": {"radius": 1},  # certify's --radius
    "symmetric_divergence_row": {"beta": None},  # tests only
    "tx": {"n": 1},  # tests only
    "ty": {"n": 1},  # tests only
    "vortex_benchmark": {"out_dir": None},  # simulate's --out
}


def defaults_of(obj):
    return {p.name: p.default for p in inspect.signature(obj).parameters.values()
            if p.default is not inspect.Parameter.empty}


def test_every_public_default_is_in_the_inventory():
    found = {}
    for name, obj in vars(acousticfd).items():
        if name.startswith("_") or inspect.ismodule(obj) or not callable(obj):
            continue
        defaults = defaults_of(obj)
        if defaults:
            found[name] = defaults
    assert found == KNOBS
    # == holds 2.0 == 2 and False == 0: the types must agree too
    for name, defaults in KNOBS.items():
        assert {k: type(v) for k, v in found[name].items()} == {
            k: type(v) for k, v in defaults.items()}, name
