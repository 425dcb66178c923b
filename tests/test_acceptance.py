"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Each criterion runs at its stated tolerance against frozen expectations;
failures carry the offending numbers in the assertion message.
"""

from fractions import Fraction

import numpy as np

from acousticfd.experiments import (
    extract_conserved_operator,
    gresho_vortex,
    kernel_adapted_state,
    stationarity_residual,
    vortex_benchmark,
)
from acousticfd.fourier import det_scan, right_kernel
from acousticfd.grid import AcousticParams, GridSpec, l1_norm_central_diff
from acousticfd.laurent import (
    consistency_nullspace,
    moore_symmetry_scan,
    operator_identity_check,
    spans_match,
)
from acousticfd.schemes import make_scheme, rhs
from acousticfd.stencils import averaged_div, central_div, consistent_diffusion, dimsplit_div
from acousticfd.timestep import StepControl, cfl_dt, run

from helpers import (SP_NAMES, conserved_apply, dimsplit_closed_form,
                     dimsplit_right_kernel_formula, divergence_observed_order, per_state,
                     taylor_expand, weight_norm)


def _report(n, failures):
    print("ACCEPTANCE %d %s" % (n, "FAIL" if failures else "PASS"))
    assert not failures, "criterion %d: %s" % (n, "; ".join(failures))


def test_criterion_1_exact_certification():
    failures = []
    central_dim = len(consistency_nullspace(central_div(), radius=1))
    if central_dim != 0:
        failures.append("central nullspace dim %d != 0" % central_dim)
    basis = consistency_nullspace(averaged_div(), radius=1)
    if len(basis) != 2:
        failures.append("averaged nullspace dim %d != 2" % len(basis))
    elif not spans_match(basis, [consistent_diffusion(1, 0), consistent_diffusion(0, 1)]):
        failures.append("averaged nullspace basis does not span the consistent diffusions")
    ident = operator_identity_check()
    if not ident["ok"]:
        failures.append("operator identities: %r" % ident)
    for rec in moore_symmetry_scan():
        if (rec["dim"] > 0) != rec["is_averaged"]:
            failures.append("symmetry scan: gamma=%s has dim %d" % (rec["gamma"], rec["dim"]))
    _report(1, failures)


def test_criterion_2_symbol_verdicts():
    failures = []
    grid = GridSpec(16, 16)
    params = AcousticParams(c=2.0, eps=0.5)
    verdict = det_scan(make_scheme("roe", params, grid))
    bad = [r for r in verdict.generic_records()
           if r["kernel_dim"] != 0 or r["sigma_min_ratio"] < 1e-3]
    if bad:
        failures.append("roe: %d samples with a kernel or sigma ratio < 1e-3" % len(bad))

    specs = [make_scheme(name, params, grid) for name in SP_NAMES]
    rng = np.random.default_rng(2026)
    for _ in range(10):
        a2, a3, a4 = rng.uniform(-1.0, 1.0, size=3)
        specs.append(make_scheme("dimsplit", params, grid, a1=0.0, a2=a2, a3=a3, a4=a4))
    for spec in specs:
        out = det_scan(spec)
        bad = [r for r in out.generic_records()
               if r["kernel_dim"] != 1 or r["sigma_min_ratio"] > 1e-12]
        if bad:
            failures.append("%s: %d samples without an exact 1-dim kernel"
                            % (spec.name, len(bad)))
    _report(2, failures)


def test_criterion_3_closed_form_agreement():
    failures = []
    grid = GridSpec(12, 10, 0.05, 0.07)
    params = AcousticParams(c=2.0, eps=0.5)
    rng = np.random.default_rng(17)
    a1, a2, a3, a4 = rng.uniform(-1.0, 1.0, size=4)
    spec = make_scheme("dimsplit", params, grid, a1=a1, a2=a2, a3=a3, a4=a4)

    worst = 0.0
    phases = [tuple(rng.uniform(-3.1, 3.1, size=2)) for _ in range(50)]
    for thx, thy in phases:
        E = -1j * spec.stencil.symbol(thx, thy)
        ref = dimsplit_closed_form(params, a1, a2, a3, a4, grid, thx, thy)
        worst = max(worst, np.max(np.abs(E - ref)) / np.max(np.abs(ref)))
    if worst > 1e-13:
        failures.append("matrix mismatch %.3g > 1e-13" % worst)

    ker_spec = make_scheme("dimsplit", params, grid, a1=0.0, a2=a2, a3=a3, a4=a4)
    worst_k = 0.0
    for thx, thy in phases:
        E = -1j * ker_spec.stencil.symbol(thx, thy)
        v = right_kernel(E)
        w = dimsplit_right_kernel_formula(params, a3, grid, thx, thy)
        w = w / np.linalg.norm(w)
        resid = np.linalg.norm(v - np.vdot(w, v) * w)
        worst_k = max(worst_k, resid)
    if worst_k > 1e-10:
        failures.append("kernel mismatch %.3g > 1e-10" % worst_k)
    _report(3, failures)


def test_criterion_4_machine_precision_stationarity():
    failures = []
    grid = GridSpec(64, 64)
    params = AcousticParams(c=1.0, eps=1.0)
    for name in SP_NAMES:
        spec = make_scheme(name, params, grid)
        state = kernel_adapted_state(spec, seed=3, dyadic=True)
        resid = stationarity_residual(spec, state)
        if resid > 1e-12:
            failures.append("%s residual %.3g > 1e-12" % (name, resid))
        q0 = state.q.copy()
        dt = cfl_dt(params, grid, 0.4)
        out = run(spec, state, StepControl(cfl=0.4, t_end=1000 * dt))
        if out.n_steps != 1000:
            failures.append("%s ran %d steps, wanted 1000" % (name, out.n_steps))
        change = np.max(np.abs(out.final_state.q - q0))
        if change > 1e-10 * np.max(np.abs(q0)):
            failures.append("%s drifted %.3g after 1000 steps" % (name, change))
    _report(4, failures)


def test_criterion_5_vorticity_preservation():
    failures = []
    grid = GridSpec(16, 16)
    params = AcousticParams(c=2.0, eps=0.5)
    rng = np.random.default_rng(33)
    for name in SP_NAMES:
        spec = make_scheme(name, params, grid)
        op = extract_conserved_operator(spec)
        scale = weight_norm(op, grid) * (params.c / params.eps)
        from acousticfd.grid import FieldSet
        for trial in range(20):
            state = FieldSet(grid, rng.standard_normal((3, 16, 16)))
            val = np.max(np.abs(conserved_apply(op, rhs(spec, state))))
            if val > 1e-12 * scale * state.norm_inf():
                failures.append("%s trial %d: omega(rhs) %.3g" % (name, trial, val))
                break

    vortex_grid = GridSpec(50, 50)
    vparams = AcousticParams(c=1.0, eps=0.1)
    spec = make_scheme("multid", vparams, vortex_grid)
    op = extract_conserved_operator(spec)
    state = gresho_vortex(vortex_grid)
    before = conserved_apply(op, state)
    dt = cfl_dt(vparams, vortex_grid, 0.45)
    out = run(spec, state, StepControl(cfl=0.45, t_end=500 * dt))
    drift = np.max(np.abs(conserved_apply(op, out.final_state) - before))
    limit = 1e-10 * weight_norm(op, vortex_grid) * state.norm_inf()
    if out.n_steps != 500:
        failures.append("vortex run took %d steps, wanted 500" % out.n_steps)
    if drift > limit:
        failures.append("multid vortex omega drift %.3g > %.3g" % (drift, limit))
    _report(5, failures)


def test_criterion_6_decay_rate_scaling():
    failures = []
    grid = GridSpec(50, 50)
    rates = {}
    for eps in (1.0, 0.1, 0.01):
        spec = make_scheme("roe", AcousticParams(c=1.0, eps=eps), grid)
        rates[eps] = vortex_benchmark(spec, 3.0 * eps, cfl=0.45)["runs"][0]["lambda_fit"]
    for eps in (1.0, 0.1):
        ratio = rates[eps / 10] / rates[eps]
        if not (7.0 <= ratio <= 13.0):
            failures.append("rate ratio at eps=%g is %.4g, outside [7, 13]" % (eps, ratio))

    # retention comparison at a CFL where every compared scheme is
    # forward-Euler stable (the strongly diffusive members cap below 0.45)
    for name, low, high in (("lowmach3", 0.9, None), ("multid", 0.9, None),
                            ("roe", None, 0.05)):
        spec = make_scheme(name, AcousticParams(c=1.0, eps=0.01), grid)
        rep = vortex_benchmark(spec, 0.3, cfl=0.2)
        retention = rep["runs"][0]["dux_retention"]
        if low is not None and retention < low:
            failures.append("%s retention %.4g < %g" % (name, retention, low))
        if high is not None and retention > high:
            failures.append("%s retention %.4g > %g" % (name, retention, high))
    _report(6, failures)


def test_criterion_7_low_mach_long_time_equivalence():
    failures = []
    grid = GridSpec(50, 50)
    series = {}
    for eps, t_end in ((0.1, 1.0), (0.01, 0.1)):
        params = AcousticParams(c=1.0, eps=eps)
        spec = make_scheme("roe", params, grid)
        state = gresho_vortex(grid)
        out = run(spec, state, StepControl(cfl=0.45, t_end=t_end),
                  probes={"dux": per_state(lambda s: l1_norm_central_diff(s.u, 0, grid), grid)})
        series[eps] = (out.times / eps, out.series["dux"])

    tau_a, val_a = series[0.1]
    tau_b, val_b = series[0.01]
    if len(tau_a) != len(tau_b):
        failures.append("sample counts differ: %d vs %d" % (len(tau_a), len(tau_b)))
    else:
        if not np.allclose(tau_a, tau_b, rtol=1e-9, atol=1e-12):
            failures.append("rescaled time grids do not align")
        rel = np.abs(val_a - val_b) / np.maximum(np.abs(val_a), 1e-300)
        if np.max(rel) > 0.05:
            failures.append("series differ by %.3g > 5%% pointwise" % np.max(rel))

    # the exact c/eps law: roe rebuilt at (2c, eps) and at (c, eps/2) has the same M^
    unitless = make_scheme("roe", AcousticParams(c=1.0, eps=1.0), grid).unitless
    for c, eps in ((2.0, 1.0), (1.0, 0.5)):
        if make_scheme("roe", AcousticParams(c=c, eps=eps), grid).unitless != unitless:
            failures.append("roe symbol breaks the exact c/eps scaling law at c %g, eps %g"
                            % (c, eps))
    _report(7, failures)


def test_criterion_8_cfl_ratio():
    from acousticfd.timestep import cfl_sweep

    failures = []
    grid = GridSpec(50, 50, 0.05, 0.05)
    params = AcousticParams(c=1.0, eps=1.0)
    state = gresho_vortex(grid)
    cfl_grid = [round(0.05 * k, 2) for k in range(1, 25)]
    maxima = {}
    for name in ("roe", "multid"):
        spec = make_scheme(name, params, grid)
        maxima[name] = cfl_sweep(spec, state.copy(), cfl_grid)["max_stable_cfl"]
        if maxima[name] is None:
            failures.append("%s has no stable point on the grid" % name)
    if not failures:
        ratio = maxima["multid"] / maxima["roe"]
        if not (1.6 <= ratio <= 2.4):
            failures.append("max-stable ratio %.3g outside [1.6, 2.4] (%r)"
                            % (ratio, maxima))
    _report(8, failures)


def test_criterion_9_consistency_orders():
    failures = []
    second = divergence_observed_order(averaged_div, sizes=(32, 64, 128, 256))
    if second < 1.9:
        failures.append("averaged order %.4g < 1.9" % second)
    first = divergence_observed_order(
        lambda: dimsplit_div(Fraction(1, 2)), sizes=(32, 64, 128, 256))
    if not (0.9 <= first <= 1.1):
        failures.append("diffusive order %.4g outside [0.9, 1.1]" % first)

    expected = {
        ("u", 1, 0, 0, 0): Fraction(1),
        ("u", 3, 0, 2, 0): Fraction(1, 6),
        ("u", 1, 2, 0, 2): Fraction(1, 4),
        ("v", 0, 1, 0, 0): Fraction(1),
        ("v", 0, 3, 0, 2): Fraction(1, 6),
        ("v", 2, 1, 2, 0): Fraction(1, 4),
    }
    got = taylor_expand(averaged_div(), 3)
    if got != expected:
        failures.append("taylor rows differ: %r" % got)
    _report(9, failures)
