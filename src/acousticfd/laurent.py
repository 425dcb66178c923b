"""Exact linear algebra over stencil symbols.

A ScalarStencil is its own Laurent symbol in (tx, ty) with rational
coefficients, int numerators over one denominator; the grid spacings stay formal invertible units, never
substituted numerically here, so every certified identity holds for all
spacings. This module builds and solves the exact linear systems behind the
certificates: cross-consistency nullspaces, span comparisons, the symmetric
divergence family (decided for every gamma from one reduction of its pencil), the
telescoping operator identities and the rank of a scheme's symbol. A row of these
systems is a list of ints and a solution vector an (ints, den) pair. Floating point
is confined to the numeric symbol module.
"""

import functools
import math
from fractions import Fraction

from .grid import as_fraction
from .stencils import (ScalarStencil, VecStencilRow, averaged_div, central_bracket,
                       central_div, consistent_diffusion, smooth_bracket, tx, ty)


def _primitive(row):
    """An int row divided by the gcd of its entries, first nonzero entry positive: the
    canonical multiple of its line. A zero row comes back as it is."""
    lead = next((x for x in row if x), 0)
    if not lead:
        return row
    g = math.gcd(*row) if lead > 0 else -math.gcd(*row)
    return [x // g for x in row]


def distinct_rows(rows):
    """The nonzero int rows, each once up to a nonzero factor (`_primitive`, as tuples),
    in first-seen order. They span the rows' space, so rref gives the same reduced rows."""
    return list(dict.fromkeys(tuple(_primitive(row)) for row in rows if any(row)))


def rref(rows, ncols):
    """Reduced row echelon form of an int matrix: (canonical int rows, pivot columns).

    Each reduced rational row comes back times the positive lcm of its
    denominators, that is `_primitive` of any nonzero multiple of it; zero rows
    follow as rows of 0. Gauss-Jordan runs over Python ints, each updated row
    divided by the gcd of its entries. The reduced form is unique, so it equals
    elimination over Fraction, scaled row by row.
    """
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
    return [_primitive(row) for row in mat], pivots


def rref_nullspace(rows, ncols):
    """Exact nullspace basis of an int matrix: one (ints, den) pair per free column fc, the
    vector ints/den with ints[fc] = den, den the lcm of the pivots it divides by."""
    mat, pivots = rref(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        den = math.lcm(*(row[pc] for row, pc in zip(mat, pivots) if row[fc]))
        vec = [0] * ncols
        vec[fc] = den
        for row, pc in zip(mat, pivots):
            vec[pc] = -row[fc] * (den // row[pc])
        basis.append((vec, den))
    return basis


def _row_symbol_from_vector(vec, den, offsets):
    """Unknown vector vec/den -> VecStencilRow; first half is bu/dx, second half bv/dy."""
    n = len(offsets)
    bu = {(2 * sx, 2 * sy): vec[i] for i, (sx, sy) in enumerate(offsets) if vec[i]}
    bv = {(2 * sx, 2 * sy): vec[n + i] for i, (sx, sy) in enumerate(offsets) if vec[n + i]}
    return VecStencilRow(ScalarStencil.from_ints(bu, den, (-1, 0)),
                         ScalarStencil.from_ints(bv, den, (0, -1)))


def _block(radius):
    """The unknowns of consistency_nullspace at radius N: the (2N+1)^2 cell offsets, and the
    orbit column of each full unknown, bu's cells then bv's."""
    N = radius
    offsets = [(sx, sy) for sx in range(-N, N + 1) for sy in range(-N, N + 1)]
    n = len(offsets)
    # offsets[n - 1 - i] is -offsets[i]
    col = [comp * (n // 2 + 1) + max(i, n - 1 - i) - n // 2 for comp in (0, 1) for i in range(n)]
    return offsets, col


def _consistency_system(A, offsets, col):
    """consistency_nullspace's system for the row A, as (eqs, den).

    eqs maps each product monomial to the int row of its cross-consistency
    equation over den, the common denominator of A's components, and each
    component's key ("order 0", comp) to its order-0 row times den. So for a
    fixed key a row is linear in A's coefficients; a missing key is a zero row.
    """
    n, ncols = len(offsets), col[-1] + 1
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

    # order 0 per component annihilates constants; the parity already annihilates linear fields
    for comp in (0, 1):
        r = eqs["order 0", comp] = [0] * ncols
        for i in range(n):
            r[col[comp * n + i]] += den
    return eqs, den


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
    offsets, col = _block(radius)
    eqs, _ = _consistency_system(A, offsets, col)
    basis = rref_nullspace(distinct_rows(list(eqs.values())), col[-1] + 1)
    return [_row_symbol_from_vector([vec[c] for c in col], den, offsets) for vec, den in basis]


def row_coefficient_vector(row, radius=1):
    """Flatten a VecStencilRow to consistency_nullspace's unknown vector as (ints, den) in
    lowest terms: bu's cells, then bv's, each in the row-major order of the (2N+1)^2 block."""
    N = radius
    w = 2 * N + 1
    if row.bu.units != (-1, 0) or row.bv.units != (0, -1):
        raise ValueError("row units do not match the (1/dx, 1/dy) convention")
    if max(row.bu.cell_radius, row.bv.cell_radius) > N:
        raise ValueError("row reaches beyond radius %d" % N)
    den = math.lcm(row.bu.den, row.bv.den)
    vec = [0] * (2 * w * w)
    for base, st in ((0, row.bu), (w * w, row.bv)):
        for (a, b), v in st._cells():
            vec[base + (a + N) * w + b + N] = v * (den // st.den)
    return vec, den


def spans_match(rows_a, rows_b, radius=1):
    """True iff both row lists span the same space over the rationals."""
    va = [row_coefficient_vector(r, radius)[0] for r in rows_a]
    vb = [row_coefficient_vector(r, radius)[0] for r in rows_b]
    ncols = 2 * (2 * radius + 1) ** 2
    ra, rb, rab = (len(rref(m, ncols)[1]) for m in (va, vb, va + vb))
    return ra == rb == rab


def symmetric_divergence_row(gamma, beta=None):
    """The generic symmetric Moore divergence: bu = Sx(beta + gamma(ty + 1/ty))/dx.

    bu is antisymmetric in x and symmetric in y, bv is the x<->y mirror;
    first-order consistency with du/dx + dv/dy fixes beta = 1/2 - 2 gamma.
    With S and P the central and smooth brackets, that is Sx(beta + gamma(Py - 2))/dx.
    """
    gamma = as_fraction(gamma)
    beta = Fraction(1, 2) - 2 * gamma if beta is None else as_fraction(beta)
    # beta first: coefficient order sets consistency_nullspace's equation order, and cost
    bu, bv = (central_bracket(a) * (ScalarStencil({(0, 0): beta}) + (smooth_bracket(b) - 2) * gamma)
              for a, b in ("xy", "yx"))
    return VecStencilRow(bu.with_units(-1, 0), bv.with_units(0, -1))


def _moore_pencil():
    """consistency_nullspace's radius-1 system for the whole Moore family, as (ncols, pencil):
    int rows [r0 | d], one per distinct equation, such that member gamma = k/16 has the
    rows 16 r0 + k d.

    A Moore row is affine in gamma, bu = Sx/2 + gamma Sx(Py - 4), and for a
    fixed key each row of `_consistency_system` is linear in the row's
    coefficients. So the systems of gamma = 0 and 1, over one denominator, give
    member k's rows as 16 row0 + k (row1 - row0): positive multiples of its own
    rows, and zero rows for the keys it lacks. Neither changes the row space.
    """
    offsets, col = _block(1)
    ncols = col[-1] + 1
    (e0, d0), (e1, d1) = (_consistency_system(symmetric_divergence_row(g), offsets, col)
                          for g in (0, 1))
    s0, s1 = math.lcm(d0, d1) // d0, math.lcm(d0, d1) // d1
    zero = [0] * ncols
    # each distinct (row0 | row1 - row0) once; the order-0 rows have row1 - row0 = 0
    return ncols, distinct_rows(
        [[s0 * x for x in r0] + [s1 * y - s0 * x for x, y in zip(r0, r1)]
         for r0, r1 in ((e0.get(key, zero), e1.get(key, zero)) for key in {**e0, **e1})])


def _restrict_pencil(n, pencil):
    """(s, a): for every rational k, the nullity of the pencil's member 16 r0 + k d equals
    that of s I + k a. pencil holds int rows [r0 | d] of width 2n, and r0 has full column
    rank n; a is an int matrix on V below, s a positive int.

    One rref of [r0 | d], by row operations that do not depend on k, brings every member
    to [16 I + k B ; k C] (Gantmacher, vol. 2, ch. XII). For k != 0 a null vector x has
    C x = 0 and B x = -(16/k) x, so it lies in V, the largest B-invariant subspace of
    ker C: the kernel of [C; C B; C B^2; ...]. Conversely, V lies in ker C, so a null
    vector of 16 I + k B in V is one of the member. The nullity is therefore that of
    16 I + k B restricted to V, also at k = 0, where both are 0. a is B|V in V's free
    coordinates, scaled to ints by s / 16.
    """
    mat, pivots = rref(pencil, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("the gamma = 0 rows do not have full column rank")
    scale = math.lcm(*(mat[i][i] for i in range(n)))
    b = [[x * (scale // mat[i][i]) for x in mat[i][n:]] for i in range(n)]
    # add w B to the rows w until their rank stops growing: then they span C B^j for every j
    w, rank = [row[n:] for row in mat[n:]], None
    while True:
        w, pivots = rref(w + [[sum(x * y for x, y in zip(row, c)) for c in zip(*b)]
                              for row in w], n)
        w = w[:len(pivots)]
        if len(pivots) == rank:
            break
        rank = len(pivots)
    # basis vector j of V is den_j at free column j and 0 at the other free columns
    free = [c for c in range(n) if c not in pivots]
    basis = rref_nullspace(w, n)
    m = math.lcm(*(den for _, den in basis))
    cols = [[sum(x * v for x, v in zip(b[f], vec)) * (m // den) for f in free]
            for vec, den in basis]
    return 16 * scale * m, [list(row) for row in zip(*cols)]


def _det_pencil(s, a):
    """det(s I + k a) for an int matrix a, as the ascending int coefficients of a polynomial
    in k divided by their gcd, trailing zeros dropped. The coefficient of k^j is e_j s^(n-j),
    e_j the j-th elementary symmetric function of a's eigenvalues, from the power traces
    tr(a^i) by Newton's identities; each division by j is exact."""
    n = len(a)
    traces, power = [], a
    for _ in range(n):
        traces.append(sum(power[i][i] for i in range(n)))
        power = [[sum(x * y for x, y in zip(row, c)) for c in zip(*a)] for row in power]
    e = [1]
    for j in range(1, n + 1):
        e.append(sum((-1) ** (i - 1) * e[j - i] * traces[i - 1] for i in range(1, j + 1)) // j)
    coeffs = _primitive([x * s ** (n - j) for j, x in enumerate(e)])
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _nullity_at(s, a, k):
    """Nullity of s I + k a at a rational k, by rref of the int rows den(k) s I + num(k) a."""
    k = Fraction(k)
    rows = [[k.numerator * x + (s * k.denominator if i == j else 0) for j, x in enumerate(row)]
            for i, row in enumerate(a)]
    return len(a) - len(rref(rows, len(a))[1])


def _only_root(coeffs):
    """r when the int polynomial with these ascending coefficients is lead (k - r)^d, d >= 1,
    so that r is its one complex root, as a Fraction; else None."""
    d = len(coeffs) - 1
    if d < 1:
        return None
    r = Fraction(-coeffs[d - 1], d * coeffs[d])
    if all(c == coeffs[d] * math.comb(d, j) * (-r) ** (d - j) for j, c in enumerate(coeffs)):
        return r
    return None


@functools.cache
def _moore_reduction():
    """(s, a, det) of the Moore pencil: `_restrict_pencil` and `_det_pencil`. Member k = 16
    gamma has a nonzero nullspace exactly where det vanishes, and there its dimension is
    `_nullity_at(s, a, k)`."""
    s, a = _restrict_pencil(*_moore_pencil())
    return s, a, _det_pencil(s, a)


def moore_symmetry_scan():
    """Nullspace dimension across the symmetric first-order divergence family.

    Returns one record per member gamma = k/16, k = -8..16; dimension > 0
    should single out the averaged divergence (gamma = 1/8). Each dim is
    consistency_nullspace's, read off `_moore_reduction`: 0 where the restricted
    determinant is nonzero, else the nullity of the restricted block.
    """
    s, a, det = _moore_reduction()
    return [{"gamma": Fraction(k, 16), "beta": Fraction(1, 2) - Fraction(k, 8),
             "dim": _nullity_at(s, a, k) if not sum(c * k ** j for j, c in enumerate(det)) else 0,
             "is_averaged": k == 2} for k in range(-8, 17)]


def moore_family():
    """The symmetric divergence family decided for every gamma, not only the scan's members.

    Returns {"det_coefficients", "singular_gamma", "nullity"}: the restricted determinant of
    `_moore_reduction` as ascending int coefficients in k = 16 gamma; its one root over
    16, the only member with a nonzero nullspace, or None when it has no single root; and
    the nullspace dimension there. The paper's claim is gamma = 1/8 with nullity 2.
    """
    s, a, det = _moore_reduction()
    root = _only_root(det)
    return {"det_coefficients": det, "singular_gamma": None if root is None else root / 16,
            "nullity": None if root is None else _nullity_at(s, a, root)}


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


def has_rank_two(m):
    """True iff the 3x3 matrix m of ScalarStencils has rank 2 over the Laurent polynomials:
    det(m) = 0 and some cofactor (r, c) = m[r+1][c+1] m[r+2][c+2] - m[r+1][c+2] m[r+2][c+1],
    indices mod 3, is not. For a scheme's M^ that is stationarity preservation, as J.k has
    a one-dimensional kernel at a generic k. The first row's cofactors give det and, when
    one is nonzero, the witness; the other six are formed only when all three vanish."""
    def cofactor(r, c):
        r1, r2, c1, c2 = (r + 1) % 3, (r + 2) % 3, (c + 1) % 3, (c + 2) % 3
        return m[r1][c1] * m[r2][c2] - m[r1][c2] * m[r2][c1]

    first = [cofactor(0, c) for c in range(3)]
    if not (m[0][0] * first[0] + m[0][1] * first[1] + m[0][2] * first[2]).is_zero():
        return False
    return (any(not f.is_zero() for f in first)
            or any(not cofactor(r, c).is_zero() for r in (1, 2) for c in range(3)))
