"""Test-only MatrixStencils built from sparse (row, col, cell offset) -> value entries."""

from fractions import Fraction

from acousticfd.stencils import MatrixStencil, ScalarStencil


def matrix_stencil(grid, entries):
    """Entry (row, col) of the symbol is the sum of value * tx^sx ty^sy over the
    ((row, col, (sx, sy)), value) pairs; repeated keys add up, so they may cancel."""
    sym = [[ScalarStencil({}) for _ in range(3)] for _ in range(3)]
    for (row, col, (sx, sy)), value in entries:
        sym[row][col] += ScalarStencil({(2 * sx, 2 * sy): value})
    return MatrixStencil(grid, sym)


def full_box_entries(r):
    """Every (row, col) pair at every offset of the (2r+1)^2 box, each a nonzero
    multiple of 1/16: the packing then holds all three components at every offset."""
    offsets = [(sx, sy) for sx in range(-r, r + 1) for sy in range(-r, r + 1)]
    return [((row, col, off), Fraction((-1) ** (k + row) * (1 + (k + 3 * row + col) % 7), 16))
            for k, off in enumerate(offsets) for row in range(3) for col in range(3)]
