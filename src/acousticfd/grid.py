"""Periodic 2-D Cartesian grid, the (u, v, p) state, and experiment norms."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def as_fraction(x):
    """Exact rational twin of a user-supplied number.

    Strings, ints and Fractions convert exactly. Floats go through repr so
    that decimal inputs like 0.01 mean 1/100 rather than the binary value.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a number here")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        # float(x) first: numpy float subclasses repr with a type wrapper
        return Fraction(repr(float(x)))
    raise TypeError("cannot convert %r to an exact rational" % (x,))


@dataclass(frozen=True)
class GridSpec:
    """Periodic grid: nx*ny cells of size dx*dy, cell centers at ((i+1/2)dx, (j+1/2)dy)."""

    nx: int
    ny: int
    dx: float
    dy: float

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:
            raise ValueError("grid must be at least 3x3, got %dx%d" % (self.nx, self.ny))
        if not (self.dx > 0 and self.dy > 0):
            raise ValueError("cell widths must be positive")

    @staticmethod
    def unit_square(nx, ny=None):
        ny = nx if ny is None else ny
        return GridSpec(nx, ny, 1.0 / nx, 1.0 / ny)

    # exact binary values of the stored spacings; used to bind stencil
    # coefficients so the float weights are single-rounded
    @property
    def dx_exact(self):
        return Fraction(self.dx)

    @property
    def dy_exact(self):
        return Fraction(self.dy)

    @property
    def min_spacing(self):
        return min(self.dx, self.dy)

    def cell_centers(self):
        x = (np.arange(self.nx) + 0.5) * self.dx
        y = (np.arange(self.ny) + 0.5) * self.dy
        return np.meshgrid(x, y, indexing="ij")


@dataclass(frozen=True)
class AcousticParams:
    """Sound speed c and Mach scaling eps; exact twins kept for symbol work."""

    c: float
    eps: float
    c_exact: Fraction = None
    eps_exact: Fraction = None

    def __post_init__(self):
        if self.c_exact is None:
            object.__setattr__(self, "c_exact", as_fraction(self.c))
        if self.eps_exact is None:
            object.__setattr__(self, "eps_exact", as_fraction(self.eps))
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "eps", float(self.eps))
        if not (self.c > 0 and self.eps > 0):
            raise ValueError("need c > 0 and eps > 0")

    @staticmethod
    def make(c, eps):
        return AcousticParams(float(as_fraction(c)), float(as_fraction(eps)),
                              as_fraction(c), as_fraction(eps))


class FieldSet:
    """State q = (u, v, p); stored as one (3, nx, ny) array, components are views."""

    __slots__ = ("grid", "q")

    def __init__(self, grid, u, v, p):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        p = np.asarray(p, dtype=float)
        shape = (grid.nx, grid.ny)
        for name, arr in (("u", u), ("v", v), ("p", p)):
            if arr.shape != shape:
                raise ValueError("%s has shape %s, grid wants %s" % (name, arr.shape, shape))
        self.grid = grid
        self.q = np.stack([u, v, p])

    @classmethod
    def from_q(cls, grid, q):
        out = cls.__new__(cls)
        out.grid = grid
        out.q = np.asarray(q, dtype=float)
        if out.q.shape != (3, grid.nx, grid.ny):
            raise ValueError("q has shape %s" % (out.q.shape,))
        return out

    @property
    def u(self):
        return self.q[0]

    @property
    def v(self):
        return self.q[1]

    @property
    def p(self):
        return self.q[2]

    def copy(self):
        return FieldSet.from_q(self.grid, self.q.copy())

    def norm_inf(self):
        return float(np.max(np.abs(self.q)))

    def all_finite(self):
        return bool(np.all(np.isfinite(self.q)))

    @staticmethod
    def zeros(grid):
        return FieldSet.from_q(grid, np.zeros((3, grid.nx, grid.ny)))

    @staticmethod
    def constant(grid, u=0.0, v=0.0, p=0.0):
        q = np.empty((3, grid.nx, grid.ny))
        q[0], q[1], q[2] = u, v, p
        return FieldSet.from_q(grid, q)


def central_diff(component, axis, grid):
    """Periodic central difference (q_{+1} - q_{-1})/(2 delta) along axis 0 (x) or 1 (y)."""
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    delta = grid.dx if axis == 0 else grid.dy
    comp = np.asarray(component, dtype=float)
    d = np.empty_like(comp)
    # views with the difference axis first; d itself keeps comp's layout
    c, o = comp.swapaxes(0, axis), d.swapaxes(0, axis)
    np.subtract(c[2:], c[:-2], out=o[1:-1])
    np.subtract(c[1], c[-1], out=o[0])
    np.subtract(c[0], c[-2], out=o[-1])
    d /= 2.0 * delta
    return d


def l1_norm_central_diff(component, axis, grid):
    """Sum of |central difference| times the cell area."""
    d = central_diff(component, axis, grid)
    total = float(np.abs(d, out=d).sum() * grid.dx * grid.dy)
    # every cell enters two differences, so a non-finite input cannot give a
    # finite total; a non-finite total from finite input is an overflow
    if not math.isfinite(total) and not np.all(np.isfinite(component)):
        raise ValueError("non-finite field component")
    return total


FIELD_CSV_HEADER = "i,j,x,y,u,v,p"


def write_field_csv(path, field):
    grid = field.grid
    with open(path, "w") as fh:
        fh.write(FIELD_CSV_HEADER + "\n")
        for i in range(grid.nx):
            x = (i + 0.5) * grid.dx
            for j in range(grid.ny):
                y = (j + 0.5) * grid.dy
                fh.write("%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g\n"
                         % (i, j, x, y, field.u[i, j], field.v[i, j], field.p[i, j]))

