"""Exact linear algebra over stencil symbols.

A ScalarStencil is its own Laurent symbol in (tx, ty) with rational
coefficients, int numerators over one denominator; the grid spacings stay formal invertible units, never
substituted numerically here, so every certified identity holds for all
spacings. This module builds and solves the exact linear systems behind the
certificates: cross-consistency nullspaces, span comparisons, the symmetric
divergence scan and the telescoping operator identities. Floating point is
confined to the numeric symbol module.
"""

import math
from fractions import Fraction

from .grid import as_fraction
from .stencils import (ScalarStencil, VecStencilRow, averaged_div, central_bracket,
                       central_div, consistent_diffusion, smooth_bracket, tx, ty)


def _integer_row(row):
    """(int row, den): a rational row scaled by den, the lcm of its denominators; zeros
    stay the int 0. A row of ints is its own."""
    if all(type(x) is int for x in row):
        return list(row), 1
    row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    den = math.lcm(*(x.denominator for x in row if x))
    return [x.numerator * (den // x.denominator) if x else 0 for x in row], den


def distinct_rows(rows):
    """The nonzero int rows, each once up to a nonzero factor: divided by the gcd of its
    entries, first nonzero entry positive, in first-seen order. They span the rows'
    space, so rref gives the same reduced rows."""
    seen = {}
    for row in rows:
        lead = next((x for x in row if x), 0)
        if lead:
            g = math.gcd(*row) if lead > 0 else -math.gcd(*row)
            seen[tuple(x // g for x in row)] = None
    return list(seen)


def rref(rows, ncols):
    """Reduced row echelon form of a rational matrix: (reduced Fraction rows, pivot columns).

    Entries are ints or Fractions; any other entry, such as a float, enters
    exactly through Fraction(x). A row of ints enters as it is, any other row
    scaled by the lcm of its denominators. Gauss-Jordan runs over Python ints,
    each updated row divided by the gcd of its entries; Fractions are built
    only for the nonzero entries on exit. The reduced form is unique, so it
    equals elimination over Fraction.
    """
    mat = [_integer_row(r)[0] for r in rows]
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
        prow = mat[rank]
        p = prow[col]
        for r in range(len(mat)):
            f = mat[r][col]
            if r != rank and f != 0:
                new = [p * x - f * y for x, y in zip(mat[r], prow)]
                g = math.gcd(*new)
                mat[r] = [x // g for x in new] if g > 1 else new
        pivots.append(col)
        rank += 1
    zero = Fraction(0)
    out = [[Fraction(x, row[pc]) if x else zero for x in row]
           for row, pc in zip(mat, pivots)]
    return out + [[zero] * len(row) for row in mat[rank:]], pivots


def rref_nullspace(rows, ncols):
    """Exact nullspace basis of a Fraction matrix given as a list of rows."""
    mat, pivots = rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(vec)
    return basis


def _row_symbol_from_vector(vec, offsets):
    """Unknown vector -> VecStencilRow; first half is bu/dx, second half bv/dy."""
    n = len(offsets)
    num, den = _integer_row(vec)
    bu = {(2 * sx, 2 * sy): num[i] for i, (sx, sy) in enumerate(offsets) if num[i]}
    bv = {(2 * sx, 2 * sy): num[n + i] for i, (sx, sy) in enumerate(offsets) if num[n + i]}
    return VecStencilRow(ScalarStencil.from_ints(bu, den, (-1, 0)),
                         ScalarStencil.from_ints(bv, den, (0, -1)))


def consistency_nullspace(A, radius=1):
    """Exact basis of rows B with Bu*Av = Bv*Au plus order constraints.

    Unknowns are the cell coefficients of (bu, bv) on the (2N+1)^2 block,
    with bu carrying 1/dx and bv carrying 1/dy. The order-0 and order-1
    Taylor rows vanish and each component is point-reflection even
    (c_S = c_{-S}), the parity of a second derivative operator.
    The system is solved over ints with one unknown per parity orbit: S and
    -S of one component share a column. Orbit columns are ordered by their
    last member, so the free columns, and the basis, are those of the full
    system with one parity row per pair. A divergence is odd, so the rows of
    the monomials m and -m then agree up to sign; each row enters the
    elimination once, up to a nonzero factor, which leaves the row space and
    so the reduced form unchanged.
    """
    N = radius
    offsets = [(sx, sy) for sx in range(-N, N + 1) for sy in range(-N, N + 1)]
    n = len(offsets)
    # orbit column of each full unknown; offsets[n - 1 - i] is -offsets[i]
    col = [comp * (n // 2 + 1) + max(i, n - 1 - i) - n // 2 for comp in (0, 1) for i in range(n)]
    ncols = col[-1] + 1
    (pu, qu), (pv, qv) = A.bu.units, A.bv.units
    den = math.lcm(A.bu.den, A.bv.den)
    au, av = ({k: v * (den // st.den) for k, v in st.num.items()} for st in (A.bu, A.bv))

    # cross-consistency: for each product monomial one linear equation
    eqs = {}
    for i, (sx, sy) in enumerate(offsets):
        # bu term tx^sx ty^sy / dx times Av
        for (a, b), c in av.items():
            eqs.setdefault((a + 2 * sx, b + 2 * sy, pv - 1, qv), [0] * ncols)[col[i]] += c
        # minus bv term / dy times Au
        for (a, b), c in au.items():
            eqs.setdefault((a + 2 * sx, b + 2 * sy, pu, qu - 1), [0] * ncols)[col[n + i]] -= c
    rows = list(eqs.values())

    # order 0 per component annihilates constants; the parity already annihilates linear fields
    for base in (0, n):
        r = [0] * ncols
        for i in range(n):
            r[col[base + i]] += 1
        rows.append(r)

    basis = rref_nullspace(distinct_rows(rows), ncols)
    return [_row_symbol_from_vector([vec[c] for c in col], offsets) for vec in basis]


def row_coefficient_vector(row, radius=1):
    """Flatten a VecStencilRow to the unknown vector used by consistency_nullspace."""
    N = radius
    offsets = [(sx, sy) for sx in range(-N, N + 1) for sy in range(-N, N + 1)]
    n = len(offsets)
    vec = [Fraction(0)] * (2 * n)
    if row.bu.units != (-1, 0) or row.bv.units != (0, -1):
        raise ValueError("row units do not match the (1/dx, 1/dy) convention")
    for (a, b), c in row.bu.cell_offsets().items():
        vec[offsets.index((a, b))] = c
    for (a, b), c in row.bv.cell_offsets().items():
        vec[n + offsets.index((a, b))] = c
    return vec


def spans_match(rows_a, rows_b, radius=1):
    """True iff both row lists span the same space over the rationals."""
    va = [row_coefficient_vector(r, radius) for r in rows_a]
    vb = [row_coefficient_vector(r, radius) for r in rows_b]
    ncols = 2 * (2 * radius + 1) ** 2
    ra, rb, rab = (len(rref(m, ncols)[1]) for m in (va, vb, va + vb))
    return ra == rb == rab


# (Sx, Py - 2) and (Sy, Px - 2), built once: they would be most of a Moore row's cost
_MOORE_BRACKETS = ((central_bracket("x"), smooth_bracket("y") - 2),
                  (central_bracket("y"), smooth_bracket("x") - 2))


def symmetric_divergence_row(gamma, beta=None):
    """The generic symmetric Moore divergence: bu = Sx(beta + gamma(ty + 1/ty))/dx.

    bu is antisymmetric in x and symmetric in y, bv is the x<->y mirror;
    first-order consistency with du/dx + dv/dy fixes beta = 1/2 - 2 gamma.
    With S and P the central and smooth brackets, that is Sx(beta + gamma(Py - 2))/dx.
    """
    gamma = as_fraction(gamma)
    beta = Fraction(1, 2) - 2 * gamma if beta is None else as_fraction(beta)
    # beta first: coefficient order sets consistency_nullspace's equation order, and cost
    bu, bv = (s * (ScalarStencil({(0, 0): beta}) + p * gamma) for s, p in _MOORE_BRACKETS)
    return VecStencilRow(bu.with_units(-1, 0), bv.with_units(0, -1))


def moore_symmetry_scan():
    """Nullspace dimension across the symmetric first-order divergence family.

    Returns one record per member gamma = k/16, k = -8..16; dimension > 0
    should single out the averaged divergence (gamma = 1/8).
    """
    report = []
    for g in (Fraction(k, 16) for k in range(-8, 17)):
        row = symmetric_divergence_row(g)
        dim = len(consistency_nullspace(row, radius=1))
        report.append({"gamma": g, "beta": Fraction(1, 2) - 2 * g, "dim": dim,
                       "is_averaged": g == Fraction(1, 8)})
    return report


def operator_identity_check():
    """(tx+1) cd(1,0) = 2(tx-1) D and (ty+1) cd(0,1) = 2(ty-1) D, exactly."""
    D = averaged_div()
    cd10 = consistent_diffusion(1, 0)
    cd01 = consistent_diffusion(0, 1)

    def telescopes(t, cd, div):
        return all(((t + 1) * b - 2 * (t - 1) * d).is_zero()
                   for b, d in ((cd.bu, div.bu), (cd.bv, div.bv)))

    x_ok = telescopes(tx(1), cd10, D)
    y_ok = telescopes(ty(1), cd01, D)
    central_x = telescopes(tx(1), cd10, central_div())
    return {"x_identity": x_ok, "y_identity": y_ok,
            "central_substitute": central_x, "ok": x_ok and y_ok}


def taylor_expand(row, order):
    """Taylor rows of a VecStencilRow as exact rationals.

    Returns {(comp, m, n, P, Q): Fraction}: the operator applied to smooth
    (u, v) is the sum of coef * dx^P dy^Q * d^m/dx^m d^n/dy^n of component
    comp, for m + n <= order.
    """
    if order > 8:
        raise ValueError("order capped at 8")
    out = {}
    for comp, st in (("u", row.bu), ("v", row.bv)):
        px, py = st.units
        for (hx, hy), c in st.coeffs.items():
            ax = Fraction(hx, 2)
            ay = Fraction(hy, 2)
            for m in range(order + 1):
                for nn in range(order + 1 - m):
                    coef = c * ax ** m * ay ** nn / (math.factorial(m) * math.factorial(nn))
                    if coef == 0:
                        continue
                    key = (comp, m, nn, m + px, nn + py)
                    out[key] = out.get(key, Fraction(0)) + coef
    return {k: c for k, c in out.items() if c != 0}
