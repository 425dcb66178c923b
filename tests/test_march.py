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

from acousticfd import experiments
from acousticfd.cli import EXIT_UNSTABLE, main
from acousticfd.experiments import _benchmark_probes, gresho_vortex, vortex_benchmark
from acousticfd.grid import AcousticParams, FieldSet, GridSpec, l1_norm_central_diff
from acousticfd.schemes import CATALOG_NAMES, SchemeSpec, make_scheme, rhs
from acousticfd.stencils import RING_BYTES, ring_slots
from acousticfd.timestep import InstabilityError, March, StepControl, cfl_dt, cfl_sweep, run

from helpers import fourier_propagate, per_state, strict_json
from matrix_entries import full_box_entries, matrix_stencil

# the ring size of every grid here but the 64^2 ones: grids this small hold the full ring
S = ring_slots(GridSpec(10, 10, 1.0, 1.0), 3)


def reference_step(spec, q, dt, step):
    with np.errstate(over="ignore", invalid="ignore"):
        q = q + dt * rhs(spec, FieldSet(spec.grid, q)).q
    if not np.all(np.isfinite(q)):
        raise InstabilityError(step)
    return q


def reference_run(spec, q0, dt, n_steps, probes):
    q = q0.copy()
    series = {name: [fn(FieldSet(spec.grid, q))] for name, fn in probes.items()}
    for step in range(1, n_steps + 1):
        q = reference_step(spec, q, dt, step)
        for name, fn in probes.items():
            series[name].append(fn(FieldSet(spec.grid, q)))
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
            results.append({"cfl": cfl, "stable": False, "peak_norm": None,
                            "peak_norm_error": "a state turned non-finite below the bound"})
            continue
        results.append({"cfl": cfl, "stable": stable, "peak_norm": peak})
    return results


def custom_spec(grid, entries):
    # at c = eps = 1 the symbol M is the unitless M^
    return SchemeSpec(name="custom", params=AcousticParams(c=1.0, eps=1.0), grid=grid,
                      unitless=matrix_stencil(grid, entries).exact_symbol())


def probes_for(grid):
    return {"q": lambda s: s.q.copy(),
            "dux_l1": lambda s: l1_norm_central_diff(s.u, 0, grid)}


def assert_run_matches_reference(spec, q0, n_steps):
    grid = spec.grid
    cfl = 0.4
    dt = cfl_dt(spec.params, grid, cfl)
    state = FieldSet(grid, q0.copy())
    out = run(spec, state, StepControl(cfl=cfl, t_end=n_steps * dt),
              probes={name: per_state(fn, grid) for name, fn in probes_for(grid).items()})
    assert np.array_equal(state.q, q0)
    q, series = reference_run(spec, q0, dt, out.n_steps, probes_for(grid))
    assert np.array_equal(out.final_state.q, q)
    assert out.final_state.q.flags.c_contiguous
    assert len(out.series["q"]) == len(series["q"]) == len(out.times)
    for got, want in zip(out.series["q"], series["q"]):
        assert np.array_equal(got, want)
    assert out.series["dux_l1"].tolist() == series["dux_l1"]


def assert_sweep_matches_reference(spec, q0, horizon_steps, growth_factor=2.0):
    cfl_grid = [0.05, 0.4, 1.5, 6.0]
    state = FieldSet(spec.grid, q0.copy())
    report = cfl_sweep(spec, state, cfl_grid, horizon_steps=horizon_steps,
                       growth_factor=growth_factor)
    assert np.array_equal(state.q, q0)
    # the scan runs the reference's rows from the top down and stops at the first stable one
    rows = reference_sweep(spec, q0, cfl_grid, horizon_steps, growth_factor)[::-1]
    ran = next((i + 1 for i, row in enumerate(rows) if row["stable"]), len(rows))
    assert report["results"] == rows[:ran]
    stable = [row["cfl"] for row in rows if row["stable"]]
    assert report["max_stable_cfl"] == (max(stable) if stable else None)


GRIDS = dict(nx=st.integers(3, 10), ny=st.integers(3, 10),
             dx=st.sampled_from((1.0, 1 / 3, 0.05, 1e-3)), dy=st.sampled_from((1.0, 0.07, 1 / 16)))


def catalog_spec(name, coeffs, eps, nx, ny, dx, dy):
    grid = GridSpec(nx, ny, dx, dy)
    kwargs = dict(zip(("a1", "a2", "a3", "a4"), coeffs)) if name == "dimsplit" else {}
    return make_scheme(name, AcousticParams(c=1.0, eps=eps), grid, **kwargs)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(CATALOG_NAMES + ("dimsplit",)),
       coeffs=st.lists(st.floats(-4, 4, allow_subnormal=False), min_size=4, max_size=4),
       eps=st.sampled_from((1.0, 1e-2, 1e-6)), n_steps=st.integers(0, 2 * S + 9),
       seed=st.integers(0, 2 ** 16), **GRIDS)
@example(name="multid", coeffs=[0, 0, 0, 0], eps=1.0, n_steps=5, seed=0,
         nx=3, ny=3, dx=1.0, dy=1.0)
@example(name="central", coeffs=[0, 0, 0, 0], eps=1.0, n_steps=0, seed=2,
         nx=4, ny=5, dx=1.0, dy=1.0)
@example(name="lowmach3", coeffs=[0, 0, 0, 0], eps=1e-2, n_steps=2 * S + 1,
         seed=4, nx=7, ny=10, dx=0.05, dy=1 / 16)
@example(name="roe", coeffs=[0, 0, 0, 0], eps=1e-2, n_steps=7, seed=1,
         nx=10, ny=3, dx=1e-3, dy=0.07)
def test_run_matches_reference_loop(name, coeffs, eps, n_steps, seed, nx, ny, dx, dy):
    spec = catalog_spec(name, coeffs, eps, nx, ny, dx, dy)
    q0 = np.random.default_rng(seed).standard_normal((3, nx, ny))
    assert_run_matches_reference(spec, q0, n_steps)


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
@given(spec=_wide_stencils(), n_steps=st.integers(1, 6), seed=st.integers(0, 2 ** 16))
def test_wide_stencils_match_reference_loop(spec, n_steps, seed):
    q0 = np.random.default_rng(seed).standard_normal((3, spec.grid.nx, spec.grid.ny))
    assert_run_matches_reference(spec, q0, n_steps)
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
    assert_run_matches_reference(spec, q0, 5)
    assert_sweep_matches_reference(spec, q0, 20)


def test_sweep_overflow_is_an_unstable_point_without_warnings(square_grid):
    # a state near the float limit overflows within a step or two at every CFL
    spec = make_scheme("roe", AcousticParams(c=1.0, eps=1.0), square_grid)
    q0 = 1e307 * np.random.default_rng(5).standard_normal((3, 16, 16))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_sweep_matches_reference(spec, q0, 10, growth_factor=1e300)
    report = cfl_sweep(spec, FieldSet(square_grid, q0), [6.0], horizon_steps=10,
                       growth_factor=1e300)
    assert report["results"][0]["peak_norm"] is None


def reference_blow_up(spec, q0, dt):
    """The step at which the reference loop first meets a non-finite state."""
    q, step = q0, 0
    with pytest.raises(InstabilityError):
        while True:
            step += 1
            q = reference_step(spec, q, dt, step)
    return step


def assert_instability_matches_reference(spec, q0, cfl, n_steps, probes=None):
    dt = cfl_dt(spec.params, spec.grid, cfl)
    step = reference_blow_up(spec, q0, dt)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InstabilityError) as exc:
            run(spec, FieldSet(spec.grid, q0), StepControl(cfl=cfl, t_end=n_steps * dt),
                probes=probes)
    assert exc.value.step == step
    assert exc.value.t == (step - 1) * dt
    return step


def test_run_instability_matches_reference_step(square_grid):
    spec = make_scheme("roe", AcousticParams(c=1.0, eps=1.0), square_grid)
    q0 = 1e300 * np.random.default_rng(6).standard_normal((3, 16, 16))
    assert_instability_matches_reference(spec, q0, 4.0, 1e3)


def doubling_spec():
    # rhs = q and dt = 1 at cfl 1: every step doubles every cell exactly
    return custom_spec(GridSpec(5, 4, 1.0, 1.0), [((c, c, (0, 0)), F(-1)) for c in range(3)])


def doubling_state(spec, blow_up, seed):
    # |q| in [2^(1024 - blow_up), 2^(1025 - blow_up)): finite until step blow_up
    rng = np.random.default_rng(seed)
    shape = (3, spec.grid.nx, spec.grid.ny)
    return np.ldexp(rng.uniform(1, 2, shape) * rng.choice((-1.0, 1.0), shape), 1024 - blow_up)


B = S


# every slot of the third block, the boundary before it, every slot of a partial last
# block and a blow-up at the final step; then deeper into a run: 64 and 96 end a block, 65
# starts one, 71 lies inside one, and 74 is the final step of a partial last block
@pytest.mark.parametrize("blow_up, n_steps", [(b, 3 * B + 5) for b in range(2 * B, 3 * B + 6)]
                         + [(2 * B + 10, 2 * B + 10), (64, 101), (65, 101), (71, 101), (96, 101),
                            (74, 74)])
def test_blow_up_at_any_step_of_a_block_is_named_exactly(blow_up, n_steps):
    # the block check and its scan of the resident slots name the step a check after
    # every step names
    spec = doubling_spec()
    assert ring_slots(spec.grid, spec.stencil.radius) == B
    q0 = doubling_state(spec, blow_up, seed=blow_up)
    assert assert_instability_matches_reference(spec, q0, 1.0, n_steps) == blow_up


# the CFL at which each scheme blows up from 1e280-sized data in the third block
THIRD_BLOCK = {"roe": 6.0, "multid": 10.0}


@pytest.mark.parametrize("scheme", sorted(THIRD_BLOCK))
def test_scheme_blow_up_in_the_third_block_matches_reference_step(scheme):
    grid = GridSpec(10, 8, 0.05, 0.07)
    spec = make_scheme(scheme, AcousticParams(c=1.0, eps=1.0), grid)
    q0 = 1e280 * np.random.default_rng(6).standard_normal((3, 10, 8))
    step = assert_instability_matches_reference(spec, q0, THIRD_BLOCK[scheme], 4 * B)
    assert 2 * B < step <= 3 * B


@pytest.mark.parametrize("at", [B + 7, 2 * B, 39, 64])
def test_probe_error_on_a_finite_state_comes_at_its_step(at, aniso_grid, rng):
    spec = make_scheme("multid", AcousticParams(c=1.0, eps=0.01), aniso_grid)
    q0 = rng.standard_normal((3, aniso_grid.nx, aniso_grid.ny))
    dt = cfl_dt(spec.params, aniso_grid, 0.4)
    seen = []

    def probe(s):
        seen.append(s.q.copy())
        if len(seen) == at + 1:
            raise ValueError("probe stops at step %d" % at)
        return 0.0

    with pytest.raises(ValueError, match="^probe stops at step %d$" % at):
        run(spec, FieldSet(aniso_grid, q0), StepControl(cfl=0.4, t_end=(at + B) * dt),
            probes={"stop": per_state(probe, aniso_grid)})
    q, _ = reference_run(spec, q0, dt, at, {})
    assert len(seen) == at + 1
    assert np.array_equal(seen[-1], q)


@pytest.mark.parametrize("case", ["doubling", "roe"])
def test_vortex_probes_on_a_blow_up_surface_the_instability(case):
    # the L1 probes raise ValueError on a non-finite u; the run checks each block before
    # its probes read it, so they never see one, and it reports the first non-finite step
    if case == "doubling":
        spec, cfl = doubling_spec(), 1.0
        q0 = doubling_state(spec, 2 * B + 5, seed=3)
    else:
        grid = GridSpec(10, 8, 0.05, 0.07)
        spec, cfl = make_scheme("roe", AcousticParams(c=1.0, eps=1.0), grid), THIRD_BLOCK["roe"]
        q0 = 1e280 * np.random.default_rng(6).standard_normal((3, 10, 8))
    raised = []

    def watched(fn):
        def probe(s):
            try:
                return fn(s)
            except ValueError as err:
                raised.append(err)
                raise
        return probe

    probes = _benchmark_probes(spec.grid, spec.stencil.radius)
    probes = {name: watched(fn) for name, fn in probes.items()}
    step = assert_instability_matches_reference(spec, q0, cfl, 4 * B, probes=probes)
    assert 2 * B < step <= 3 * B
    assert not raised


@pytest.mark.parametrize("kind", ["growth", "blow_up"])
@pytest.mark.parametrize("slot", range(1, B + 1))
def test_sweep_stops_at_any_slot_of_a_block_as_the_reference(kind, slot):
    # the doubling march crosses the growth bound, or leaves the float range, at slot
    # `slot` of the second block; the sweep reads the block's norms in step order
    spec = doubling_spec()
    stop = B + slot
    if kind == "growth":
        q0 = np.random.default_rng(slot).uniform(-2.0, 2.0, (3, 5, 4))
        growth = 2.0 ** (stop - 1) + 0.5
    else:
        q0, growth = doubling_state(spec, stop, seed=slot), 2.0 ** 60
    report = cfl_sweep(spec, FieldSet(spec.grid, q0), [1.0], horizon_steps=3 * B,
                       growth_factor=growth)
    row, = report["results"]
    assert row == reference_sweep(spec, q0, [1.0], 3 * B, growth)[0]
    initial = float(np.max(np.abs(q0)))
    assert not row["stable"]
    assert row["peak_norm"] == (2.0 ** stop * initial if kind == "growth" else None)


@pytest.mark.parametrize("n_steps", [0, 1, B - 1, B, B + 1, 3 * B, 3 * B + 5])
def test_run_calls_each_probe_once_per_block(n_steps, square_grid):
    # one call at t = 0 and one per block of the ring, each on all of the block's states
    spec = make_scheme("roe", AcousticParams(c=1.0, eps=0.01), square_grid)
    assert ring_slots(square_grid, spec.stencil.radius) == B
    calls = {"a": [], "b": []}

    def counting(name):
        def probe(stack):
            assert stack.shape[1:] == (3, 18, 18)
            calls[name].append(len(stack))
            return np.arange(len(stack), dtype=float)
        return probe

    dt = cfl_dt(spec.params, square_grid, 0.4)
    out = run(spec, gresho_vortex(square_grid), StepControl(cfl=0.4, t_end=n_steps * dt),
              probes={name: counting(name) for name in calls})
    assert out.n_steps == n_steps
    for sizes in calls.values():
        assert len(sizes) == 1 + math.ceil(n_steps / B)
        assert sizes == [1] + [B] * (n_steps // B) + ([n_steps % B] if n_steps % B else [])
    assert len(out.series["a"]) == len(out.times) == n_steps + 1


def test_vortex_pass_calls_the_l1_probe_3210_times(monkeypatch, tmp_path):
    # a clibench vortex pass is one roe and two multid simulate commands of 4,267 steps on
    # 64^2, t_end = 30 eps at CFL 0.45, each in an 8-slot ring: two probes, each called at
    # t = 0 and once per block, 2 (1 + 534) = 1070 calls a command where one per sample
    # made 2 (1 + 4267) = 8536
    calls = []

    def counting(*args):
        calls.append(len(args[0]))
        return l1_norm_central_diff(*args)

    monkeypatch.setattr(experiments, "l1_norm_central_diff", counting)
    assert main(["simulate", "--scheme", "roe", "--grid", "64", "--eps", "0.01",
                 "--t-end", repr(30 * 0.01), "--out", str(tmp_path / "D")]) == 0
    assert ring_slots(GridSpec(64, 64), 1) == 8
    assert len(calls) == 1070 and sum(calls) == 2 * (1 + 4267)
    assert 3 * len(calls) == 3210


ANISO = GridSpec(nx=12, ny=10, dx=0.05, dy=0.07)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(n_steps=st.integers(0, 3 * S + 2), seed=st.integers(0, 2 ** 16))
@example(n_steps=0, seed=0)
@example(n_steps=S, seed=1)
@example(n_steps=3 * S + 1, seed=2)
def test_blocks_walk_the_ring_in_full_blocks_and_one_last(n_steps, seed):
    # blocks of S states from slot S-1 into slots 0 .. S-1, and a last block of the rest
    spec = make_scheme("multid", AcousticParams(c=1.0, eps=0.01), ANISO)
    q0 = np.random.default_rng(seed).standard_normal((3, ANISO.nx, ANISO.ny))
    dt = cfl_dt(spec.params, ANISO, 0.4)
    _, series = reference_run(spec, q0, dt, n_steps, {"q": lambda s: s.q.copy()})
    march = March(spec).load(FieldSet(ANISO, q0), dt)
    walked = []
    for first, k in march.blocks(n_steps):
        walked.append((first, k))
        for slot in range(k):
            assert np.array_equal(march.halos[slot].inner, series["q"][first + slot]), (first, slot)
    full = max(n_steps - 1, 0) // S
    last = [(full * S + 1, n_steps - S * full)] if n_steps else []
    assert walked == [(1 + S * b, S) for b in range(full)] + last


@pytest.mark.parametrize("n, slots", [(64, 8), (200, 2)])
def test_ring_holds_eight_slots_at_64_and_two_at_200(n, slots):
    # up to 8 states fit in RING_BYTES at 64^2; from about 128^2 up a ring keeps two
    spec = make_scheme("multid", AcousticParams(c=1.0, eps=0.01), GridSpec(n, n))
    ws = spec.stencil.workspace()
    assert ring_slots(spec.grid, spec.stencil.radius) == slots
    assert ws.ring.shape == (slots, 3, n + 2, n + 2) and ws.ring.flags.c_contiguous
    assert ws.ring.nbytes <= max(RING_BYTES, 2 * ws.ring[0].nbytes)
    assert len(ws.halos) == slots and len({id(h.fill) for h in ws.halos}) == slots
    for slot, halo in enumerate(ws.halos):
        assert np.shares_memory(halo.inner, ws.ring[slot])
        assert np.shares_memory(halo.span, ws.ring[slot]) and np.shares_memory(halo.span, ws.spans[slot])


def test_full_box_radius_two_stencil_matches_reference_loop(rng):
    spec = custom_spec(GridSpec(7, 9, 0.05, 0.07), full_box_entries(2))
    q0 = rng.standard_normal((3, 7, 9))
    assert_run_matches_reference(spec, q0, B + 3)
    assert_sweep_matches_reference(spec, q0, 20)


# every entry of M has taps that sum to 0, so a constant state is a fixed point, and on these
# grids at c = 1 the packed product gives it bitwise; the vortex, at pressure 0, holds no
# constant part, so the march meets one only here
@pytest.mark.parametrize("n", [64, 50])
@pytest.mark.parametrize("eps", [1.0, 1e-2])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_constant_state_is_a_bitwise_fixed_point(name, eps, n):
    grid = GridSpec(n, n)
    spec = make_scheme(name, AcousticParams(c=1.0, eps=eps), grid)
    q = np.broadcast_to(np.array([0.25, -0.5, 1.0])[:, None, None], (3, n, n))
    control = StepControl(cfl=0.4, t_end=100 * cfl_dt(spec.params, grid, 0.4))
    out = run(spec, FieldSet(grid, q), control)
    assert out.n_steps == 100 and np.array_equal(out.final_state.q, q)


# sha256 of the `sweep --grid 32` JSON documents, recorded when the scan first ran from the
# top down; each row is the one the ascending scan wrote for its point. Recorded again when the
# scheme, eps and grid echo became config, every option sweep read but --out; nothing else moved.
# Recorded again when the vortex lost its background pressure 1: every (cfl, stable) row and
# max_stable_cfl kept, initial_norm and each peak_norm now max|q| of the state at pressure 0
SWEEP_DIGESTS = {
    "roe": "489ff74722c799e5bde00367521ced37c0314c3b2b970dce120806375f466a96",
    "multid": "8a7768a4061fd090f58e8e247f61e60b51249d6f33137f0dcd6cb9b9a555a9cd",
}


@pytest.mark.parametrize("scheme", sorted(SWEEP_DIGESTS))
def test_sweep_document_digest_unchanged(scheme, capsys):
    assert main(["sweep", "--scheme", scheme, "--grid", "32"]) == 0
    out = capsys.readouterr().out
    assert strict_json(out)["config"]["scheme"] == scheme
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
# the march planned its views once and the vortex probes read the resident halo;
# simulate_S.json re-recorded when it dropped its `summary_file` key. Every series, final
# field and multid's document recorded again when the vortex lost its background pressure 1:
# the probes moved by at most 3.2e-16 relative, and each final p is the old one less 1 within
# 2.8e-16
SIMULATE_SHA256 = {
    "roe": {
        "roe_eps1_dux_l1.csv": "b7ab445fd2e474dee1f4f68559ab918575fbc5ccd31d3b8d98af76de4b717f66",
        "roe_eps1_dux_l1.csv.meta.json": "550e3eb5bb9bb9bcd23bbba9bb920fc9f4d5739eaf564c414f396bb89e9bf5bf",
        "roe_eps1_duy_l1.csv": "7f03d051985897d8be259ce7755061de94d0ad52df65960044a6099df4f195fa",
        "roe_eps1_duy_l1.csv.meta.json": "492222da32d9e0e792bc6482a709872213566db606258fb36372aee3f68cc1ff",
        "roe_eps1_final.csv": "2e22e5afddcd407067fa8f6a556a1056a00c66db8303675d9486302d1e168049",
        "roe_eps1_final.csv.meta.json": "be96c18480a2c2b56e3bbb7ff89a03da8cde823a9830c140a7f3f8dfa673667c",
        "simulate_roe.json": "628fdd115c98d1bf45f615dd5c996244039e2b006850a55a7a9163a90aa80d8f",
    },
    "multid": {
        "multid_eps1_dux_l1.csv": "daa5d608098f31c90ae7df79a08344b3febd51d777865735baf9951b20c7d24c",
        "multid_eps1_dux_l1.csv.meta.json": "e72de28fd3c46fb0625a7f9c8ee00b78ca53bd970f413c35e189bd35fb95ada3",
        "multid_eps1_duy_l1.csv": "a64b8879f7e8c0085ddad504d6630f32c44953a4d1f246dd8fb9b26a6bb861de",
        "multid_eps1_duy_l1.csv.meta.json": "3a7a9dd6f6ec89f58bf98051ee6215722ebc91be4142d9e54024c3cbf82dc855",
        "multid_eps1_final.csv": "ccc676cb49f8f39470c446f3cdf982d37bb2c6ef50f6847f076cbd8c0aa42080",
        "multid_eps1_final.csv.meta.json": "bbad987742d8cf351d1b4ab54f4d2212ad747a3962e752cdc55ab2bc569c007a",
        "simulate_multid.json": "2a9c588e96ad612ecb18ff9bf27878694809220768460b1b096348d1ba15ddd0",
    },
}


@pytest.mark.parametrize("scheme", sorted(SIMULATE_SHA256))
def test_simulate_files_digest_unchanged(scheme, tmp_path, capsys):
    out = tmp_path / "D"
    assert main(["simulate", "--scheme", scheme, "--grid", "16", "--out", str(out)]) == 0
    capsys.readouterr()
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert got == SIMULATE_SHA256[scheme]
    for path in out.glob("*.json"):
        strict_json(path.read_text())


def read_series(path):
    with open(path) as fh:
        assert fh.readline() == "t,value\n"
        return [tuple(float(x) for x in line.split(",")) for line in fh]


@pytest.mark.parametrize("grid", [GridSpec(16, 16), GridSpec(12, 10, 1 / 12, 0.1)],
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
    _, series = reference_run(spec, gresho_vortex(grid).q, dt, n_steps, probes)
    for name, want in series.items():
        got = read_series(tmp_path / ("%s_eps0p1_%s.csv" % (scheme, name)))
        assert [t for t, _ in got] == [k * dt for k in range(n_steps + 1)]
        assert [v for _, v in got] == want


@pytest.mark.parametrize("scheme", ["roe", "multid"])
def test_march_step_allocates_no_state_sized_block(scheme):
    grid = GridSpec(64, 64)
    spec = make_scheme(scheme, AcousticParams(c=1.0, eps=0.01), grid)
    march = March(spec).load(gresho_vortex(grid), cfl_dt(spec.params, grid, 0.45))
    stencil_state = dict(vars(spec.stencil))
    size = len(march.halos)
    for _, k in march.blocks(size + 3):
        march.peaks(k)
    limit = min(march.halos[0].inner.nbytes, march.buf.nbytes)
    tracemalloc.start()
    try:
        # two full blocks and a last one of 5, then a walk of one step
        for n_steps in (3 * size - 3, 1):
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            for _, k in march.blocks(n_steps):
                if k != 1:
                    march.peaks(k)
                current, peak = tracemalloc.get_traced_memory()
                assert peak - before < limit, (k, peak - before, limit)
                tracemalloc.reset_peak()
                before = current
    finally:
        tracemalloc.stop()
    # the plans belong to the March: nothing was cached on the stencil
    assert vars(spec.stencil).keys() == stencil_state.keys()
    assert all(vars(spec.stencil)[k] is v for k, v in stencil_state.items())


@pytest.mark.parametrize("scheme", ["roe", "multid"])
def test_run_with_probes_allocates_no_state_sized_block_per_block(scheme):
    # between two calls of the last probe lie one block's steps, checks and benchmark
    # probe calls; none of them allocates a state-sized block
    grid = GridSpec(64, 64)
    spec = make_scheme(scheme, AcousticParams(c=1.0, eps=0.01), grid)
    limit = np.zeros((3, grid.nx, grid.ny)).nbytes
    grown = []

    def watch(stack):
        current, peak = tracemalloc.get_traced_memory()
        grown.append(peak - watch.current)
        tracemalloc.reset_peak()
        watch.current = tracemalloc.get_traced_memory()[0]
        return [0.0] * len(stack)

    probes = dict(_benchmark_probes(grid, spec.stencil.radius), watch=watch)
    dt = cfl_dt(spec.params, grid, 0.45)
    tracemalloc.start()
    try:
        watch.current = tracemalloc.get_traced_memory()[0]
        out = run(spec, gresho_vortex(grid), StepControl(cfl=0.45, t_end=(6 * S + 3) * dt),
                  probes=probes)
    finally:
        tracemalloc.stop()
    assert out.n_steps == 6 * S + 3 and len(grown) == 1 + 7
    # the first reading holds the March and its workspace
    assert max(grown[1:]) < limit, (grown, limit)


@pytest.mark.parametrize("zero", [0.0, -0.0])
@pytest.mark.parametrize("kind", ["roe", "empty"])
def test_zero_state_peak_norm_is_positive_zero(kind, zero, square_grid):
    spec = (make_scheme("roe", AcousticParams(c=1.0, eps=1.0), square_grid) if kind == "roe"
            else custom_spec(square_grid, RADIUS_ZERO["empty"]))
    state = FieldSet(square_grid, np.full((3, 16, 16), zero))
    report = cfl_sweep(spec, state, [0.1, 0.5], horizon_steps=5)
    for row in report["results"]:
        assert row["stable"] and row["peak_norm"] == 0.0
        assert math.copysign(1.0, row["peak_norm"]) == 1.0
    # the empty stencil keeps every -0.0 cell at -0.0, and the norm still reads +0.0
    march = March(spec).load(state, 0.01)
    for _, k in march.blocks(1):
        peak, = march.peaks(k)
    assert peak == float(np.max(np.abs(march.halos[0].inner)))
    assert math.copysign(1.0, peak) == 1.0


FOURIER_GRIDS = {"16": GridSpec(16, 16), "12x10": GridSpec(12, 10, 1 / 12, 0.1)}


def assert_run_matches_fourier_propagator(spec):
    # an oracle that shares only the symbol with the march: 200 steps taken per mode
    grid = spec.grid
    q0 = np.random.default_rng(29).standard_normal((3, grid.nx, grid.ny))
    cfl = 0.2
    dt = cfl_dt(spec.params, grid, cfl)
    out = run(spec, FieldSet(grid, q0), StepControl(cfl=cfl, t_end=200 * dt))
    assert out.n_steps == 200
    ref = fourier_propagate(spec, q0, dt, 200)
    assert np.max(np.abs(out.final_state.q - ref.real)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("grid", list(FOURIER_GRIDS.values()), ids=list(FOURIER_GRIDS))
@pytest.mark.parametrize("eps", [1.0, 0.01])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_run_matches_fourier_propagator(name, eps, grid):
    assert_run_matches_fourier_propagator(make_scheme(name, AcousticParams(c=1.0, eps=eps), grid))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(a1=st.floats(0, 2), a2=st.floats(-2, 2), a3=st.floats(-2, 2), a4=st.floats(0, 2),
       eps=st.sampled_from([1.0, 0.01]))
def test_run_matches_fourier_propagator_on_dimsplit_members(a1, a2, a3, a4, eps):
    # the split family's random members, each on the square and the anisotropic grid
    params = AcousticParams(c=1.0, eps=eps)
    for grid in FOURIER_GRIDS.values():
        assert_run_matches_fourier_propagator(
            make_scheme("dimsplit", params, grid, a1=a1, a2=a2, a3=a3, a4=a4))
