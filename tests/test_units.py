"""No verdict depends on the units: c, eps, dx and dy may be rescaled freely.

Every catalog symbol is M = (c/eps) T M^ T^-1 with T = diag(1, 1, c eps) and
a unitless M^ that depends only on dy/dx, so the kernel verdict, each
sample's kernel dimensions and the conserved-operator check must come out
the same at every scale.
"""

import io
import json
from contextlib import redirect_stdout
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from acousticfd.cli import EXIT_OK, main
from acousticfd.experiments import extract_conserved_operator, json_document
from acousticfd.fourier import det_scan, generic_phases
from acousticfd.grid import AcousticParams, FieldSet, GridSpec
from acousticfd.schemes import CATALOG_NAMES, make_scheme, rhs

from helpers import SP_NAMES, conserved_apply, weight_norm

LADDER_EPS = ("1", "1e-2", "1e-4", "1e-5", "1e-6", "1e-8", "1e-10")
LADDER_GRIDS = {
    "50": ("--grid", "50"),
    "50-dx1e-3-dy1": ("--grid", "50", "--dx", "1e-3", "--dy", "1"),
    "20-h1e-6": ("--grid", "20", "--dx", "1e-6", "--dy", "1e-6"),
    # the anisotropy ladder: dy/dx in {1.1, 2, 10} and their reciprocals
    "12-dy1.1": ("--grid", "12", "--dx", "1", "--dy", "1.1"),
    "12-dy2": ("--grid", "12", "--dx", "1", "--dy", "2"),
    "12-dy10": ("--grid", "12", "--dx", "1", "--dy", "10"),
    "12-dx1.1": ("--grid", "12", "--dx", "1.1", "--dy", "1"),
    "12-dx2": ("--grid", "12", "--dx", "2", "--dy", "1"),
    "12-dx10": ("--grid", "12", "--dx", "10", "--dy", "1"),
}


@pytest.mark.parametrize("scheme", CATALOG_NAMES)
@pytest.mark.parametrize("eps", LADDER_EPS)
@pytest.mark.parametrize("grid", sorted(LADDER_GRIDS))
def test_analyze_ladder_matches_claim(grid, eps, scheme, capsys):
    assert main(["analyze", "--scheme", scheme, "--eps", eps, *LADDER_GRIDS[grid]]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] is (scheme in SP_NAMES)
    assert doc["scan_verdict"] is doc["verdict"]
    assert doc["eigenvalue_scaling"] == {"passed": True, "exact": True}
    assert "conserved_operator_error" not in doc
    assert ("conserved_operator" in doc) is (scheme in SP_NAMES)
    assert "divergence_row_error" not in doc
    assert ("divergence_row" in doc) is (scheme in SP_NAMES)


def analyze_without_config(scheme, c, eps):
    """The analyze stdout of a catalog scheme at (c, eps) on 8x8, with config dropped.
    Square cells: on others multid's vorticity row carries 1/(c eps) by design."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["analyze", "--scheme", scheme, "--c", repr(c), "--eps", repr(eps),
                     "--grid", "8", "--k-samples", "12"]) == EXIT_OK
    doc = json.loads(out.getvalue())
    del doc["config"]
    return json_document(doc)


@cache
def unit_scale_document(scheme):
    return analyze_without_config(scheme, 1.0, 1.0)


# analyze reads only M^, which neither c nor eps enters: every byte but config is the same
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(c=st.floats(1e-6, 1e6), eps=st.floats(1e-6, 1e6))
@example(c=1e-6, eps=1e6)
@example(c=1e6, eps=1e-6)
def test_analyze_document_is_independent_of_c_and_eps(c, eps):
    for scheme in CATALOG_NAMES:
        assert analyze_without_config(scheme, c, eps) == unit_scale_document(scheme), scheme


BASE_GRID = GridSpec(nx=10, ny=9, dx=0.1, dy=0.13)
BASE_PARAMS = AcousticParams(c=2.0, eps=0.5)
PHASES = generic_phases(8)


def scan_summary(spec):
    out = det_scan(spec, phases=PHASES)
    dims = [(r["kernel_dim"], r["continuous_dim"]) for r in out.generic_records()]
    return out.scan_verdict, dims


@cache
def base_summary(name):
    return scan_summary(make_scheme(name, BASE_PARAMS, BASE_GRID))


LOG_FACTOR = st.floats(-8.0, 4.0).map(lambda u: float("%.6g" % 10.0 ** u))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(fc=LOG_FACTOR, feps=LOG_FACTOR,
       lam=st.floats(-6.0, 3.0).map(lambda u: float("%.6g" % 10.0 ** u)))
@example(fc=1e-8, feps=1e4, lam=1e-6)
@example(fc=1e4, feps=1e-8, lam=1e3)
@example(fc=1.0, feps=1e-8, lam=1.0)
def test_rescaling_changes_no_verdict(fc, feps, lam):
    params = AcousticParams(c=BASE_PARAMS.c * fc, eps=BASE_PARAMS.eps * feps)
    grid = GridSpec(BASE_GRID.nx, BASE_GRID.ny, BASE_GRID.dx * lam, BASE_GRID.dy * lam)
    for name in CATALOG_NAMES:
        spec = make_scheme(name, params, grid)
        verdict, dims = scan_summary(spec)
        assert verdict is (name in SP_NAMES)
        assert (verdict, dims) == base_summary(name), name
        if verdict:
            op = extract_conserved_operator(spec)
            # states T q^ with q^ of unit size make every row of rhs about (c/eps)/h
            ce, t = params.balance
            t = np.array(t, dtype=float)[:, None, None]
            scale = weight_norm(op, grid) * float(ce) / grid.min_spacing
            rng = np.random.default_rng(11)
            for _ in range(3):
                q = rng.standard_normal((3, grid.nx, grid.ny))
                drift = np.max(np.abs(conserved_apply(op, rhs(spec, FieldSet(grid, t * q)))))
                assert drift <= 1e-11 * scale * np.max(np.abs(q)), name
