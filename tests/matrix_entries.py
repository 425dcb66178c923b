"""Test-only MatrixStencils built from sparse (row, col, cell offset) -> value entries."""

from acousticfd.stencils import MatrixStencil, ScalarStencil


def matrix_stencil(grid, entries):
    """Entry (row, col) of the symbol is the sum of value * tx^sx ty^sy over the
    ((row, col, (sx, sy)), value) pairs; repeated keys add up, so they may cancel."""
    sym = [[ScalarStencil({}) for _ in range(3)] for _ in range(3)]
    for (row, col, (sx, sy)), value in entries:
        sym[row][col] += ScalarStencil({(2 * sx, 2 * sy): value})
    return MatrixStencil(grid, sym)
