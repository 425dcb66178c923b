"""Test-only helpers that no command runs: the identity stencil, the cross-consistency
of two divergence rows, the observed convergence order of a divergence row, the
scalar Halton phases that `fourier.generic_phases` must reproduce bitwise, the
scaling law by rebuilding, the oracle for `fourier.eigenvalue_scaling_check`, and
the batched run probe made from a per-state one, and the catalog schemes the paper
calls stationarity preserving, written out so that no test reads them from the claims."""

import math

import numpy as np

from acousticfd.fourier import GUARD
from acousticfd.grid import AcousticParams, FieldSet, GridSpec
from acousticfd.schemes import make_scheme
from acousticfd.stencils import ScalarStencil

SP_NAMES = ("central", "lowmach1", "lowmach2", "lowmach3", "multid")


def identity_stencil():
    return ScalarStencil({(0, 0): 1})


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
        approx = row_factory().apply(u, v, grid)
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
