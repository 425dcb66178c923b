"""Exact symbol algebra: division, consistency nullspaces, Taylor rows."""

import cmath
import copy
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from acousticfd import laurent
from acousticfd.laurent import (
    consistency_nullspace,
    distinct_rows,
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

from helpers import cross_consistency


def test_poly_arithmetic():
    p = tx(1) + 1
    assert p * p == tx(2) + 2 * tx(1) + 1
    sq = (tx(1) + ty(1)) * (tx(1) + ty(1))
    assert sq == tx(2) + 2 * tx(1) * ty(1) + ty(2)
    assert (p - p).is_zero()


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


def _fraction_rref(rows, ncols):
    # reference: Gauss-Jordan over Fraction, every entry converted on entry
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
    return mat, pivots


def _fraction_nullspace(rows, ncols):
    # reference: the nullspace basis read off _fraction_rref, one Fraction vector per free column
    mat, pivots = _fraction_rref(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(vec)
    return basis


def _fractions(pair):
    # the Fraction view of an (ints, den) vector
    vec, den = pair
    return [Fraction(x, den) for x in vec]


_entries = st.one_of(st.just(0), st.integers(-4, 4), st.integers(-60, 60))


@st.composite
def _int_matrices(draw):
    nrows = draw(st.integers(1, 8))
    ncols = draw(st.integers(1, 10))
    rows = [draw(st.lists(_entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for r in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
        rows[r] = [0] * ncols
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=3)):
        for row in rows:
            row[c] = 0
    for dst, src in draw(st.lists(st.tuples(st.integers(0, nrows - 1),
                                            st.integers(0, nrows - 1)), max_size=3)):
        rows[dst] = list(rows[src])
    return rows, ncols


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_int_matrices())
@example(([[0]], 1))
@example(([[-3]], 1))
@example(([[0, 0, 0]] * 8, 3))
@example(([[2, -1], [2, -1], [0, 3], [-4, 2]] * 2, 2))
@example(([[1, 2, 3, 4], [2, 4, 6, 8], [0, 0, 0, 0]], 4))
@example(([[6, 4, 0], [0, 3, 9]], 3))
def test_rref_matches_fraction_oracle(matrix):
    # each reduced row is the oracle's row times the lcm of its denominators; the
    # nullspace is the oracle's, each vector an (ints, den) pair
    rows, ncols = matrix
    before = copy.deepcopy(rows)
    got, pivots = rref(rows, ncols)
    want, want_pivots = _fraction_rref(rows, ncols)
    assert pivots == want_pivots
    assert got == [[x * math.lcm(*(y.denominator for y in row)) for x in row] for row in want]
    assert all(type(x) is int for row in got for x in row)
    assert rows == before
    basis = rref_nullspace(rows, ncols)
    assert [_fractions(pair) for pair in basis] == _fraction_nullspace(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    for (vec, den), fc in zip(basis, free, strict=True):
        assert vec[fc] == den > 0
        assert all(type(x) is int for x in vec)


def test_rref_takes_int_rows_only():
    for row in ([Fraction(1, 2), 1], [0.5, 1]):
        with pytest.raises(TypeError):
            rref([row], 2)


# sha256 of repr() of the coefficient vectors of the 31 bases that certify
# solves, in this order: central then averaged at radius 1, 2, 3, then the
# 25-member Moore scan
BASES_SHA256 = "ce3d9fb73e229c78cd10fb56ca9d1aafa4a2a43d569b19c3294ba1732e881fcb"


def test_certify_nullspace_bases_unchanged(monkeypatch):
    bases = []

    def recording(A, radius=1):
        basis = consistency_nullspace(A, radius)
        # the Fraction view keeps the digest of the Fraction vectors it was taken from
        bases.append([_fractions(row_coefficient_vector(b, radius)) for b in basis])
        return basis

    monkeypatch.setattr(laurent, "consistency_nullspace", recording)
    for radius in (1, 2, 3):
        for div in (central_div, averaged_div):
            laurent.consistency_nullspace(div(), radius=radius)
    moore_symmetry_scan()
    assert len(bases) == 31
    assert hashlib.sha256(repr(bases).encode()).hexdigest() == BASES_SHA256


def _reduced_rows(rows, ncols):
    mat, pivots = rref(rows, ncols)
    return mat[:len(pivots)], pivots


# (label, build, radius, nonzero rows in, distinct rows out)
CERTIFY_SYSTEMS = [("central", central_div, 1, 22, 12), ("averaged", averaged_div, 1, 26, 14),
                   ("central", central_div, 2, 46, 24), ("averaged", averaged_div, 2, 50, 26),
                   ("central", central_div, 3, 78, 40), ("averaged", averaged_div, 3, 82, 42)]
# gamma = 0 is the central divergence
CERTIFY_SYSTEMS += [("moore %s" % g, lambda g=g: symmetric_divergence_row(g), 1,
                     *((22, 12) if g == 0 else (26, 14)))
                    for g in (Fraction(k, 16) for k in range(-8, 17))]


@pytest.mark.parametrize("build, radius, n_in, n_out", [s[1:] for s in CERTIFY_SYSTEMS],
                         ids=["%s r%d" % (s[0], s[2]) for s in CERTIFY_SYSTEMS])
def test_distinct_rows_keep_the_certify_reduced_form(build, radius, n_in, n_out, monkeypatch):
    # the rows of m and -m agree up to sign, so each pair enters the elimination once
    seen = []

    def recording(rows):
        out = distinct_rows(rows)
        seen.append((rows, out))
        return out

    monkeypatch.setattr(laurent, "distinct_rows", recording)
    consistency_nullspace(build(), radius=radius)
    [(rows, out)] = seen
    ncols = len(rows[0])
    assert (sum(map(any, rows)), len(out)) == (n_in, n_out)
    assert _reduced_rows(out, ncols) == _reduced_rows(rows, ncols)


@st.composite
def _rows_with_multiples(draw):
    ncols = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols),
                         min_size=1, max_size=8))
    for src in draw(st.lists(st.integers(0, len(rows) - 1), max_size=6)):
        factor = draw(st.integers(-5, 5).filter(bool))
        rows.insert(draw(st.integers(0, len(rows))), [factor * x for x in rows[src]])
    return rows, ncols


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_rows_with_multiples())
@example(([[0, 0]], 2))
@example(([[2, -4, 6], [-1, 2, -3], [0, 0, 0], [3, -6, 9]], 3))
@example(([[0, -3, 3], [0, 5, -5], [1, 0, 0]], 3))
def test_distinct_rows_keep_the_reduced_form(matrix):
    rows, ncols = matrix
    out = distinct_rows(rows)
    assert _reduced_rows(out, ncols) == _reduced_rows(rows, ncols)
    for row in out:
        lead = next(x for x in row if x)
        assert lead > 0 and math.gcd(*row) == 1
    assert len(set(out)) == len(out)


def _full_consistency_nullspace(A, radius):
    # reference: Fraction rows over all 2(2r+1)^2 cell coefficients, one
    # explicit row c_S - c_{-S} per reflection pair, solved over Fraction
    N = radius
    offsets = [(sx, sy) for sx in range(-N, N + 1) for sy in range(-N, N + 1)]
    n = len(offsets)
    ncols = 2 * n
    (pu, qu), (pv, qv) = A.bu.units, A.bv.units
    eqs = {}
    for i, (sx, sy) in enumerate(offsets):
        for (a, b), c in A.bv.coeffs.items():
            key = (a + 2 * sx, b + 2 * sy, pv - 1, qv)
            eqs.setdefault(key, [Fraction(0)] * ncols)[i] += c
        for (a, b), c in A.bu.coeffs.items():
            key = (a + 2 * sx, b + 2 * sy, pu, qu - 1)
            eqs.setdefault(key, [Fraction(0)] * ncols)[n + i] -= c
    rows = list(eqs.values())
    for base in (0, n):
        for mx, my in ((0, 0), (1, 0), (0, 1)):
            r = [Fraction(0)] * ncols
            for i, (sx, sy) in enumerate(offsets):
                r[base + i] = Fraction(sx) ** mx * Fraction(sy) ** my
            rows.append(r)
        for i, (sx, sy) in enumerate(offsets):
            j = offsets.index((-sx, -sy))
            if j > i:
                r = [Fraction(0)] * ncols
                r[base + i] = Fraction(1)
                r[base + j] = Fraction(-1)
                rows.append(r)
    return _fraction_nullspace(rows, ncols)


def _half_offset_stencils(span):
    keys = st.tuples(st.integers(-span, span), st.integers(-span, span))
    return st.dictionaries(keys, st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
                           max_size=4).map(ScalarStencil)


@st.composite
def _divergence_rows(draw):
    # A = (f g, f h) shares the factor f, so multiples of (g, h) can satisfy
    # the cross-consistency and the nullspace is often nonempty
    span = 2 * draw(st.integers(1, 2))
    f = draw(_half_offset_stencils(span)) if draw(st.booleans()) else ScalarStencil({(0, 0): 1})
    g, h = draw(_half_offset_stencils(span)), draw(_half_offset_stencils(span))
    return VecStencilRow((f * g).with_units(-1, 0), (f * h).with_units(0, -1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_divergence_rows(), st.integers(1, 2))
@example(averaged_div(), 1)
@example(averaged_div(), 2)
@example(symmetric_divergence_row(Fraction(1, 8)), 2)
@example(VecStencilRow(tx(2).with_units(-1, 0), ty(-2).with_units(0, -1)), 2)
@example(VecStencilRow(ScalarStencil({}, (-1, 0)), ScalarStencil({}, (0, -1))), 1)
def test_consistency_nullspace_matches_full_oracle(A, radius):
    pairs = [row_coefficient_vector(b, radius) for b in consistency_nullspace(A, radius)]
    assert [_fractions(pair) for pair in pairs] == _full_consistency_nullspace(A, radius)
    assert all(math.gcd(den, *vec) == 1 for vec, den in pairs)


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_consistency_nullspace_closed_form_dimensions(radius):
    # central: ((2r-1)^2 - 1)/2, averaged: 2r^2 (odd multipliers of the divergence)
    central = consistency_nullspace(central_div(), radius=radius)
    averaged = consistency_nullspace(averaged_div(), radius=radius)
    assert len(central) == ((2 * radius - 1) ** 2 - 1) // 2
    assert len(averaged) == 2 * radius ** 2


def test_nullspace_members_are_consistent():
    A = averaged_div()
    for row in consistency_nullspace(A):
        assert cross_consistency(row, A)
        tay = taylor_expand(row, 1)
        assert tay == {} or all(key[1] + key[2] > 1 for key in tay)


def _swap_axes_vec(vec, offsets):
    # mirror a coefficient vector across the x<->y exchange
    n = len(offsets)
    out = [0] * (2 * n)
    for i, (sx, sy) in enumerate(offsets):
        j = offsets.index((sy, sx))
        out[i] = vec[n + j]
        out[n + i] = vec[j]
    return out


def test_swap_symmetric_subspace_is_balanced_diffusion():
    offsets = [(sx, sy) for sx in range(-1, 2) for sy in range(-1, 2)]
    basis = consistency_nullspace(averaged_div())
    # each basis vector times its den: the same lines, so the same swap-symmetric span
    va = [row_coefficient_vector(r)[0] for r in basis]
    rows = []
    for k in range(2 * len(offsets)):
        rows.append([_swap_axes_vec(v, offsets)[k] - v[k] for v in va])
    combos = rref_nullspace(rows, len(va))
    assert len(combos) == 1
    fixed = [sum(a * v[k] for a, v in zip(combos[0][0], va))
             for k in range(2 * len(offsets))]
    balanced = row_coefficient_vector(consistent_diffusion(1, 1))[0]
    _, pivots = rref([fixed, balanced], len(fixed))
    assert len(pivots) == 1


def test_symmetric_divergence_family():
    # gamma=1/8 reproduces the averaged divergence exactly
    assert symmetric_divergence_row(Fraction(1, 8)) == averaged_div()
    # default beta keeps first order: the gradient row reduces to d/dx + d/dy
    tay = taylor_expand(symmetric_divergence_row(Fraction(1, 3)), 1)
    assert tay == {("u", 1, 0, 0, 0): Fraction(1), ("v", 0, 1, 0, 0): Fraction(1)}


def _moore_row_by_coefficients(gamma, beta):
    """bu = Sx(beta + gamma(ty + 1/ty))/dx written coefficient by coefficient, bv its mirror."""
    bu, bv = {}, {}
    for s in (1, -1):
        bu.update({(2 * s, 0): s * beta, (2 * s, 2): s * gamma, (2 * s, -2): s * gamma})
        bv.update({(0, 2 * s): s * beta, (2, 2 * s): s * gamma, (-2, 2 * s): s * gamma})
    return VecStencilRow(ScalarStencil(bu, (-1, 0)), ScalarStencil(bv, (0, -1)))


@pytest.mark.parametrize("gamma, beta", [(Fraction(k, 16), None) for k in range(-8, 17)]
                         + [(g, b) for g in (0, Fraction(1, 3), -2)
                            for b in (0, 1, Fraction(-5, 7))])
def test_symmetric_divergence_row_matches_its_coefficients(gamma, beta):
    row = symmetric_divergence_row(gamma, beta)
    want = _moore_row_by_coefficients(
        Fraction(gamma), Fraction(1, 2) - 2 * Fraction(gamma) if beta is None else Fraction(beta))
    assert (row.bu.coeffs, row.bu.units) == (want.bu.coeffs, want.bu.units)
    assert (row.bv.coeffs, row.bv.units) == (want.bv.coeffs, want.bv.units)


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
    # the exact symbol's entries are the scheme's blocks: building from them rebuilds it
    ms = make_scheme("multid", params, aniso_grid).stencil
    back = MatrixStencil(aniso_grid, ms.exact_symbol())
    assert back.exact_symbol() == ms.exact_symbol()
    assert all(np.array_equal(a, b) and sa == sb for (sa, a), (sb, b)
               in zip(back.float_blocks().items(), ms.float_blocks().items(), strict=True))
    # one stencil carries one unit monomial
    with pytest.raises(ValueError):
        tx(1).with_units(-1, 0) + ty(1).with_units(0, -1)
    assert ScalarStencil({}, (-1, 0)) + tx(1) == tx(1)


def test_row_coefficient_vector_units_guard():
    bad = VecStencilRow(averaged_div().bu.with_units(1, 0), averaged_div().bv)
    with pytest.raises(ValueError):
        row_coefficient_vector(bad)
    # a row wider than the block has no place in the vector
    with pytest.raises(ValueError):
        row_coefficient_vector(consistency_nullspace(averaged_div(), radius=2)[-1], radius=1)


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
