"""Exact symbol algebra: division, consistency nullspaces, Taylor rows."""

import cmath
from fractions import Fraction

import numpy as np
import pytest

from acousticfd.laurent import (
    consistency_nullspace,
    cross_consistency,
    moore_symmetry_scan,
    operator_identity_check,
    row_coefficient_vector,
    rref,
    rref_nullspace,
    spans_match,
    symmetric_divergence_row,
    taylor_expand,
)
from acousticfd.schemes import make_scheme
from acousticfd.stencils import (
    MatrixStencil,
    ScalarStencil,
    VecStencilRow,
    averaged_div,
    central_div,
    consistent_diffusion,
    second_bracket,
    tx,
    ty,
)


def test_poly_arithmetic():
    p = tx(1) + 1
    assert p * p == tx(2) + 2 * tx(1) + 1
    sq = (tx(1) + ty(1)) * (tx(1) + ty(1))
    assert sq == tx(2) + 2 * tx(1) * ty(1) + ty(2)
    assert (p - p).is_zero()
    q = ScalarStencil({(-2, 4): Fraction(3, 4)}, (-1, 0))
    assert q.shifted(2, -4) == ScalarStencil({(0, 0): Fraction(3, 4)}, (-1, 0))


def test_poly_content_primitive():
    p = 4 * tx(1) + 6 * ty(-1)
    assert p.content() == 2
    assert (-p).content() == 2
    # dividing out the content leaves the primitive part
    assert p * (1 / p.content()) == 2 * tx(1) + 3 * ty(-1)
    assert (Fraction(2, 3) * tx(1) + Fraction(4, 9)).content() == Fraction(2, 9)
    assert ScalarStencil({}).content() == 0


def test_cross_consistency_verdicts():
    A = averaged_div()
    C = central_div()
    cd10 = consistent_diffusion(1, 0)
    assert cross_consistency(cd10, A)
    assert cross_consistency(consistent_diffusion(0, 1), A)
    assert cross_consistency(VecStencilRow(A.bu * Fraction(3, 7), A.bv * Fraction(3, 7)), A)
    # per-axis second differences do not share the averaged kernel
    naive = VecStencilRow(second_bracket(0).with_units(-1, 0),
                          second_bracket(1).with_units(0, -1))
    assert not cross_consistency(naive, C)
    assert not cross_consistency(cd10, C)


def test_consistency_nullspace_dimensions():
    assert len(consistency_nullspace(central_div())) == 0
    basis = consistency_nullspace(averaged_div())
    assert len(basis) == 2
    assert spans_match(basis, [consistent_diffusion(1, 0), consistent_diffusion(0, 1)])
    assert len(consistency_nullspace(averaged_div(), constraints="weak")) == 3
    assert len(consistency_nullspace(averaged_div(), constraints="order3")) == 2
    with pytest.raises(ValueError):
        consistency_nullspace(averaged_div(), constraints="odd")


def test_nullspace_members_are_consistent():
    A = averaged_div()
    for row in consistency_nullspace(A):
        assert cross_consistency(row, A)
        tay = taylor_expand(row, 1)
        assert tay == {} or all(key[1] + key[2] > 1 for key in tay)


def _swap_axes_vec(vec, offsets):
    # mirror a coefficient vector across the x<->y exchange
    n = len(offsets)
    out = [Fraction(0)] * (2 * n)
    for i, (sx, sy) in enumerate(offsets):
        j = offsets.index((sy, sx))
        out[i] = vec[n + j]
        out[n + i] = vec[j]
    return out


def test_swap_symmetric_subspace_is_balanced_diffusion():
    offsets = [(sx, sy) for sx in range(-1, 2) for sy in range(-1, 2)]
    basis = consistency_nullspace(averaged_div())
    va = [row_coefficient_vector(r) for r in basis]
    rows = []
    for k in range(2 * len(offsets)):
        rows.append([_swap_axes_vec(v, offsets)[k] - v[k] for v in va])
    combos = rref_nullspace(rows, len(va))
    assert len(combos) == 1
    fixed = [sum(a * v[k] for a, v in zip(combos[0], va))
             for k in range(2 * len(offsets))]
    balanced = row_coefficient_vector(consistent_diffusion(1, 1))
    _, pivots = rref([fixed, balanced], len(fixed))
    assert len(pivots) == 1


def test_symmetric_divergence_family():
    # gamma=1/8 reproduces the averaged divergence exactly
    assert symmetric_divergence_row(Fraction(1, 8)) == averaged_div()
    # default beta keeps first order: the gradient row reduces to d/dx + d/dy
    tay = taylor_expand(symmetric_divergence_row(Fraction(1, 3)), 1)
    assert tay == {("u", 1, 0, 0, 0): Fraction(1), ("v", 0, 1, 0, 0): Fraction(1)}


def test_moore_symmetry_scan():
    report = moore_symmetry_scan()
    assert len(report) == 25
    for rec in report:
        assert rec["beta"] == Fraction(1, 2) - 2 * rec["gamma"]
        assert rec["is_averaged"] == (rec["gamma"] == Fraction(1, 8))
        assert (rec["dim"] > 0) == rec["is_averaged"]
    hit = [rec for rec in report if rec["dim"] > 0]
    assert len(hit) == 1 and hit[0]["dim"] == 2


def test_operator_identity_check():
    out = operator_identity_check()
    assert out["x_identity"] and out["y_identity"] and out["ok"]
    # swapping in the plain central divergence breaks the telescoping identity
    assert not out["central_substitute"]


def test_taylor_averaged_divergence():
    got = taylor_expand(averaged_div(), 3)
    expected = {
        ("u", 1, 0, 0, 0): Fraction(1),
        ("u", 3, 0, 2, 0): Fraction(1, 6),
        ("u", 1, 2, 0, 2): Fraction(1, 4),
        ("v", 0, 1, 0, 0): Fraction(1),
        ("v", 0, 3, 0, 2): Fraction(1, 6),
        ("v", 2, 1, 2, 0): Fraction(1, 4),
    }
    assert got == expected


def test_taylor_consistent_diffusion():
    got1 = taylor_expand(consistent_diffusion(1, 0), 2)
    assert got1 == {("u", 2, 0, 1, 0): Fraction(1), ("v", 1, 1, 1, 0): Fraction(1)}
    got3 = taylor_expand(consistent_diffusion(1, 0), 4)
    extras = {
        ("u", 2, 2, 1, 2): Fraction(1, 4),
        ("u", 4, 0, 3, 0): Fraction(1, 12),
        ("v", 1, 3, 1, 2): Fraction(1, 6),
        ("v", 3, 1, 3, 0): Fraction(1, 6),
    }
    assert got3 == {**got1, **extras}
    with pytest.raises(ValueError):
        taylor_expand(consistent_diffusion(1, 0), 9)


def test_averaged_symbol_closed_form():
    pu = averaged_div().bu
    expected = ((tx(1) - 1) * (tx(1) + 1) * (ty(1) + 1) * (ty(1) + 1)
                * tx(-1) * ty(-1) * Fraction(1, 8)).with_units(-1, 0)
    assert pu == expected


def test_symbol_stencil_round_trip(aniso_grid, params):
    # the exact symbol's entries are the scheme's blocks: folding them back rebuilds it
    ms = make_scheme("multid", params, aniso_grid).stencil
    sym = ms.exact_symbol()
    back = MatrixStencil(aniso_grid)
    for r in range(3):
        for c in range(3):
            back.add_block(r, c, sym[r][c])
    assert back.to_json_dict() == ms.to_json_dict()
    # one stencil carries one unit monomial
    with pytest.raises(ValueError):
        tx(1).with_units(-1, 0) + ty(1).with_units(0, -1)
    assert ScalarStencil({}, (-1, 0)) + tx(1) == tx(1)


def test_row_coefficient_vector_units_guard():
    bad = VecStencilRow(averaged_div().bu.with_units(1, 0), averaged_div().bv)
    with pytest.raises(ValueError):
        row_coefficient_vector(bad)


def test_symbol_evaluate_matches_numeric_weights(aniso_grid, params):
    ms = make_scheme("multid", params, aniso_grid).stencil
    sym = ms.exact_symbol()
    rng = np.random.default_rng(7)
    for thx, thy in rng.uniform(-np.pi, np.pi, size=(20, 2)):
        # half offset (a, b) is the monomial tx^(a/2) ty^(b/2)
        exact = np.array([[sum(float(c) * cmath.exp(0.5j * (a * thx + b * thy))
                               for (a, b), c in entry.coeffs.items())
                           for entry in row] for row in sym])
        numeric = ms.symbol(thx, thy)
        assert np.max(np.abs(exact - numeric)) <= 1e-13 * np.max(np.abs(numeric))
