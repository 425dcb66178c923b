"""Test-only helpers that no command runs: the identity stencil, a dict-of-Fraction
reference model of ScalarStencil, det(M^) and its cofactors, the float application
of a divergence row and of a conserved operator, the cross-consistency of two
divergence rows, the observed convergence order of a divergence row, the scalar
Halton phases that `fourier.generic_phases` must reproduce bitwise, the scaling law
by rebuilding, the split scheme's evolution matrix and right kernel written directly
in phases, the batched run probe made from a per-state one, and the catalog schemes
the paper calls stationarity preserving, written out so that no test reads them from
the claims."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from acousticfd.fourier import GUARD
from acousticfd.grid import AcousticParams, FieldSet, GridSpec
from acousticfd.schemes import make_scheme
from acousticfd.stencils import ScalarStencil

SP_NAMES = ("central", "lowmach1", "lowmach2", "lowmach3", "multid")


def identity_stencil():
    return ScalarStencil({(0, 0): 1})


@dataclass(frozen=True)
class FractionModel:
    """Reference model of a ScalarStencil: half-cell offset -> nonzero Fraction, and the
    unit exponents (px, py), with one Fraction operation per coefficient."""

    coeffs: dict
    units: tuple = (0, 0)

    @classmethod
    def of(cls, coeffs, units=(0, 0)):
        return cls({off: Fraction(c) for off, c in coeffs.items() if c}, tuple(units))

    def __neg__(self):
        return FractionModel({off: -c for off, c in self.coeffs.items()}, self.units)

    def __add__(self, other):
        if not isinstance(other, FractionModel):
            other = FractionModel.of({(0, 0): other}, self.units)
        out = dict(self.coeffs)
        for off, c in other.coeffs.items():
            out[off] = out.get(off, 0) + c
        return FractionModel({off: c for off, c in out.items() if c}, self.units)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not isinstance(other, FractionModel):
            s = Fraction(other)
            return FractionModel({off: c * s for off, c in self.coeffs.items() if s}, self.units)
        out = {}
        for (ax, ay), ca in self.coeffs.items():
            for (bx, by), cb in other.coeffs.items():
                out[ax + bx, ay + by] = out.get((ax + bx, ay + by), 0) + ca * cb
        return FractionModel({off: c for off, c in out.items() if c},
                             (self.units[0] + other.units[0], self.units[1] + other.units[1]))

    def with_units(self, px, py):
        return FractionModel(self.coeffs, (self.units[0] + px, self.units[1] + py))

    def bound(self, grid):
        s = grid.dx_exact ** self.units[0] * grid.dy_exact ** self.units[1]
        return FractionModel({off: c * s for off, c in self.coeffs.items()})


def det_and_cofactors(m):
    """det(m) and the 3x3 cofactor matrix of a 3x3 matrix of ScalarStencils, by products
    of their symbols: cofactor (r, c) is m[r+1][c+1] m[r+2][c+2] - m[r+1][c+2] m[r+2][c+1],
    indices mod 3, and det(m) expands along the first row."""
    cof = [[m[(r + 1) % 3][(c + 1) % 3] * m[(r + 2) % 3][(c + 2) % 3]
            - m[(r + 1) % 3][(c + 2) % 3] * m[(r + 2) % 3][(c + 1) % 3]
            for c in range(3)] for r in range(3)]
    return m[0][0] * cof[0][0] + m[0][1] * cof[0][1] + m[0][2] * cof[0][2], cof


def row_apply(row, u, v, grid):
    """A VecStencilRow (bu, bv) applied to the fields (u, v): bu(u) + bv(v) per cell."""
    return row.bu.apply(u, grid) + row.bv.apply(v, grid)


def conserved_apply(op, field):
    """The conserved density of a ConservedOperator on a FieldSet: wu(u) + wv(v) + wp(p)."""
    out = op.wu.apply(field.u, op.grid) + op.wv.apply(field.v, op.grid)
    if not op.wp.is_zero():
        out = out + op.wp.apply(field.p, op.grid)
    return out


def weight_norm(op):
    """Sum of |w| over the float weights of a ConservedOperator's three stencils."""
    return sum(abs(w) for st in (op.wu, op.wv, op.wp) for w in st.weights(op.grid).values())


def cross_consistency(B, A):
    """True iff Bu*Av - Bv*Au = 0 identically: B vanishes wherever A does."""
    return (B.bu * A.bv - B.bv * A.bu).is_zero()


def divergence_observed_order(row_factory, sizes=(16, 32, 64, 128)):
    """Convergence order of a divergence row against a smooth analytic field.

    row_factory() -> VecStencilRow (units carried, so the same row works on
    every grid). Returns the log-log slope across the size ladder.
    """
    errs, hs = [], []
    for n in sizes:
        grid = GridSpec.unit_square(n)
        x, y = grid.cell_centers()
        u = np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
        v = np.cos(4 * np.pi * x) * np.sin(2 * np.pi * y)
        div = (2 * np.pi * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
               + 2 * np.pi * np.cos(4 * np.pi * x) * np.cos(2 * np.pi * y))
        approx = row_apply(row_factory(), u, v, grid)
        errs.append(np.max(np.abs(approx - div)))
        hs.append(grid.dx)
    slope, _ = np.polyfit(np.log(hs), np.log(errs), 1)
    return float(slope)


def halton(index, base):
    """Standard radical-inverse sequence, index starting at 1."""
    f = 1.0
    r = 0.0
    i = index
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def fold(u):
    """Map [0,1) onto +-[GUARD, pi - GUARD], sign from the leading bit."""
    sign = 1.0 if u < 0.5 else -1.0
    w = 2.0 * u - math.floor(2.0 * u)
    return sign * (GUARD + w * (math.pi - 2.0 * GUARD))


def scalar_generic_phases(n):
    """The generic phases one index at a time: the oracle for `fourier.generic_phases`."""
    return [(fold(halton(i, 2)), fold(halton(i, 3))) for i in range(1, n + 1)]


def rebuilt_scaling_law(spec, **scheme_kwargs):
    """The law M(c, eps) = (c/eps) T M^ T^-1 by its definition: the scheme rebuilt at
    (2c, eps) and at (c, eps/2), from the same name and physical coefficients, has
    spec's M^ entry by entry over Fraction."""
    c, eps = spec.params.c_exact, spec.params.eps_exact
    return all(make_scheme(spec.name, AcousticParams(c=c2, eps=eps2), spec.grid,
                           **scheme_kwargs).unitless == spec.unitless
               for c2, eps2 in ((2 * c, eps), (c, eps / 2)))


def per_state(fn, grid):
    """A run probe from a per-state one: fn sees each state of the stack in turn, in step
    order, as a FieldSet over its slot's interior, and the probe returns the list of
    what fn returned."""
    nx, ny = grid.nx, grid.ny

    def probe(stack):
        r = (stack.shape[2] - nx) // 2
        return [fn(FieldSet.from_q(grid, slot[:, r:r + nx, r:r + ny])) for slot in stack]
    return probe


def dimsplit_closed_form(params, a1, a2, a3, a4, grid, thx, thy):
    """Evolution matrix of the dimensionally split scheme, written directly in phases,
    independent of the stencil assembly it is compared with term by term."""
    c = params.c
    e2 = params.eps ** 2
    dx, dy = grid.dx, grid.dy
    sx = 2j * math.sin(thx)
    sy = 2j * math.sin(thy)
    qx = 2.0 * math.cos(thx) - 2.0
    qy = 2.0 * math.cos(thy) - 2.0
    M = np.array([
        [-a1 * qx / (2 * dx), 0.0, (sx / e2 - a2 * qx) / (2 * dx)],
        [0.0, -a1 * qy / (2 * dy), (sy / e2 - a2 * qy) / (2 * dy)],
        [(c * c * sx - a3 * qx) / (2 * dx), (c * c * sy - a3 * qy) / (2 * dy),
         -a4 * (qx / (2 * dx) + qy / (2 * dy))],
    ], dtype=complex)
    return -1j * M


def dimsplit_right_kernel_formula(params, a3, grid, thx, thy):
    """(a3 Qy - c^2 Sy)/(2dy), -(a3 Qx - c^2 Sx)/(2dx), 0) for a1 = 0 schemes."""
    c2 = params.c ** 2
    sx = 2j * math.sin(thx)
    sy = 2j * math.sin(thy)
    qx = 2.0 * math.cos(thx) - 2.0
    qy = 2.0 * math.cos(thy) - 2.0
    return np.array([(a3 * qy - c2 * sy) / (2 * grid.dy),
                     -(a3 * qx - c2 * sx) / (2 * grid.dx),
                     0.0], dtype=complex)
