"""Exact linear algebra over stencil symbols.

A ScalarStencil is its own Laurent symbol in (tx, ty) with Fraction
coefficients; the grid spacings stay formal invertible units, never
substituted numerically here, so every certified identity holds for all
spacings. This module builds and solves the exact linear systems behind the
certificates: cross-consistency nullspaces, span comparisons, the symmetric
divergence scan and the telescoping operator identities. Floating point is
confined to the numeric symbol module.
"""

import math
from fractions import Fraction

from .grid import as_fraction
from .stencils import (ScalarStencil, VecStencilRow, averaged_div, central_div,
                       consistent_diffusion, tx, ty)


def cross_consistency(B, A):
    """True iff Bu*Av - Bv*Au = 0 identically: B vanishes wherever A does."""
    return (B.bu * A.bv - B.bv * A.bu).is_zero()


def rref(rows, ncols):
    """Reduced row echelon form of a Fraction matrix: (reduced rows, pivot columns)."""
    mat = [list(r) for r in rows]
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
    bu = {(2 * sx, 2 * sy): vec[i] for i, (sx, sy) in enumerate(offsets) if vec[i] != 0}
    bv = {(2 * sx, 2 * sy): vec[n + i] for i, (sx, sy) in enumerate(offsets) if vec[n + i] != 0}
    return VecStencilRow(ScalarStencil(bu, (-1, 0)), ScalarStencil(bv, (0, -1)))


def consistency_nullspace(A, radius=1, constraints="even"):
    """Exact basis of rows B with Bu*Av = Bv*Au plus order constraints.

    Unknowns are the cell coefficients of (bu, bv) on the (2N+1)^2 block,
    with bu carrying 1/dx and bv carrying 1/dy. Constraint sets:
      "even"  order-0 and order-1 Taylor rows vanish and each component is
              point-reflection even (c_S = c_{-S}), the parity of a second
              derivative operator; this is the default.
      "weak"  only the order-0/order-1 rows vanish.
      "order3" order-0/1 rows vanish and the order-3 rows vanish too.
    """
    N = radius
    offsets = [(sx, sy) for sx in range(-N, N + 1) for sy in range(-N, N + 1)]
    n = len(offsets)
    ncols = 2 * n
    (pu, qu), (pv, qv) = A.bu.units, A.bv.units

    # cross-consistency: for each product monomial one linear equation
    eqs = {}
    for i, (sx, sy) in enumerate(offsets):
        # bu term tx^sx ty^sy / dx times Av
        for (a, b), c in A.bv.coeffs.items():
            key = (a + 2 * sx, b + 2 * sy, pv - 1, qv)
            eqs.setdefault(key, [Fraction(0)] * ncols)[i] += c
        # minus bv term / dy times Au
        for (a, b), c in A.bu.coeffs.items():
            key = (a + 2 * sx, b + 2 * sy, pu, qu - 1)
            eqs.setdefault(key, [Fraction(0)] * ncols)[n + i] -= c
    rows = list(eqs.values())

    # order constraints per component: annihilate constants and linear fields
    for comp in (0, 1):
        base = comp * n
        r0 = [Fraction(0)] * ncols
        r1x = [Fraction(0)] * ncols
        r1y = [Fraction(0)] * ncols
        for i, (sx, sy) in enumerate(offsets):
            r0[base + i] = Fraction(1)
            r1x[base + i] = Fraction(sx)
            r1y[base + i] = Fraction(sy)
        rows.extend([r0, r1x, r1y])

    if constraints == "even":
        for comp in (0, 1):
            base = comp * n
            for i, (sx, sy) in enumerate(offsets):
                j = offsets.index((-sx, -sy))
                if j > i:
                    r = [Fraction(0)] * ncols
                    r[base + i] = Fraction(1)
                    r[base + j] = Fraction(-1)
                    rows.append(r)
    elif constraints == "order3":
        for comp in (0, 1):
            base = comp * n
            for mx, my in ((3, 0), (2, 1), (1, 2), (0, 3)):
                r = [Fraction(0)] * ncols
                for i, (sx, sy) in enumerate(offsets):
                    r[base + i] = Fraction(sx) ** mx * Fraction(sy) ** my
                rows.append(r)
    elif constraints != "weak":
        raise ValueError("unknown constraint set %r" % constraints)

    basis = rref_nullspace(rows, ncols)
    return [_row_symbol_from_vector(vec, offsets) for vec in basis]


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


def symmetric_divergence_row(gamma, beta=None):
    """The generic symmetric Moore divergence: bu = Sx(beta + gamma(ty + 1/ty))/dx.

    bu is antisymmetric in x and symmetric in y, bv is the x<->y mirror;
    first-order consistency with du/dx + dv/dy fixes beta = 1/2 - 2 gamma.
    """
    gamma = as_fraction(gamma)
    beta = Fraction(1, 2) - 2 * gamma if beta is None else as_fraction(beta)
    bu = {}
    bv = {}
    for s in (1, -1):
        sign = Fraction(s)
        bu[(2 * s, 0)] = sign * beta
        bu[(2 * s, 2)] = sign * gamma
        bu[(2 * s, -2)] = sign * gamma
        bv[(0, 2 * s)] = sign * beta
        bv[(2, 2 * s)] = sign * gamma
        bv[(-2, 2 * s)] = sign * gamma
    return VecStencilRow(ScalarStencil(bu, (-1, 0)), ScalarStencil(bv, (0, -1)))


def moore_symmetry_scan(gammas=None, constraints="even"):
    """Nullspace dimension across the symmetric first-order divergence family.

    Returns one record per family member; dimension > 0 should single out
    the averaged divergence (gamma = 1/8).
    """
    if gammas is None:
        gammas = [Fraction(k, 16) for k in range(-8, 17)]
    report = []
    for g in gammas:
        g = as_fraction(g)
        row = symmetric_divergence_row(g)
        dim = len(consistency_nullspace(row, radius=1, constraints=constraints))
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
