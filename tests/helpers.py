"""Test-only helpers that no command runs: the identity stencil, the cross-consistency
of two divergence rows, and the observed convergence order of a divergence row."""

import numpy as np

from acousticfd.grid import GridSpec
from acousticfd.stencils import ScalarStencil


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
