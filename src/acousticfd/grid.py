"""Periodic 2-D Cartesian grid, the (u, v, p) state, and experiment norms."""

import math
from dataclasses import dataclass, field
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
        for name in ("dx", "dy"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError("cell widths must be positive and finite, got %s = %r"
                                 % (name, getattr(self, name)))

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
    c_exact: Fraction = field(init=False)
    eps_exact: Fraction = field(init=False)

    def __post_init__(self):
        for name in ("c", "eps"):
            if not math.isfinite(float(getattr(self, name))):
                raise ValueError("%s must be finite, got %r" % (name, getattr(self, name)))
        object.__setattr__(self, "c_exact", as_fraction(self.c))
        object.__setattr__(self, "eps_exact", as_fraction(self.eps))
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "eps", float(self.eps))
        if not (self.c > 0 and self.eps > 0):
            raise ValueError("need c > 0 and eps > 0")

    @property
    def balance(self):
        """Exact (s, t): s = c/eps and T = diag(t) = diag(1, 1, c eps). Every catalog symbol
        is M = s T M^ T^-1 with a unitless M^ that neither c nor eps enters."""
        c, eps = self.c_exact, self.eps_exact
        return c / eps, (Fraction(1), Fraction(1), c * eps)


class FieldSet:
    """State q = (u, v, p); stored as one (3, nx, ny) array, components are views.

    `halo` is None, or the (3, nx+2r, ny+2r) array with r >= 1 whose interior
    q views and whose periodic ghost ring is current, as a march keeps it.
    """

    __slots__ = ("grid", "q", "halo")

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
        self.halo = None

    @classmethod
    def from_q(cls, grid, q, halo=None):
        out = cls.__new__(cls)
        out.grid, out.halo = grid, halo
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

    def ghosted(self, k):
        """Component k inside its halo's ghost ring, or the bare component without a halo;
        either one is what central_diff takes."""
        return self.q[k] if self.halo is None else self.halo[k]

    def copy(self):
        return FieldSet.from_q(self.grid, self.q.copy())

    def norm_inf(self):
        return float(np.max(np.abs(self.q)))

    @staticmethod
    def zeros(grid):
        return FieldSet.from_q(grid, np.zeros((3, grid.nx, grid.ny)))

    @staticmethod
    def constant(grid, u=0.0, v=0.0, p=0.0):
        q = np.empty((3, grid.nx, grid.ny))
        q[0], q[1], q[2] = u, v, p
        return FieldSet.from_q(grid, q)


def central_diff(component, axis, grid, out=None):
    """Periodic central difference (q_{+1} - q_{-1})/(2 delta) along axis 0 (x) or 1 (y).

    component is the (nx, ny) field, or the field inside a periodic ghost ring
    r >= 1 cells wide, (nx+2r, ny+2r), as `FieldSet.ghosted` gives it from a
    march's halo; a bare field gets its ring of 1 from np.pad. The difference
    goes into out, an (nx, ny) C-ordered array, or into a new one.
    """
    nx, ny = grid.nx, grid.ny
    ring = np.asarray(component, dtype=float)
    shape = ring.shape
    if shape == (nx, ny):
        ring, r = np.pad(ring, 1, mode="wrap"), 1
    else:
        r = (shape[0] - nx) // 2
        if r < 1 or shape != (nx + 2 * r, ny + 2 * r):
            raise ValueError("component shape %s is neither the grid's (%d, %d) nor a ring "
                             "around it" % (shape, nx, ny))
    if axis == 0:
        d = np.subtract(ring[r + 1:r + 1 + nx, r:r + ny], ring[r - 1:r - 1 + nx, r:r + ny], out=out)
        d /= 2.0 * grid.dx
    elif axis == 1:
        d = np.subtract(ring[r:r + nx, r + 1:r + 1 + ny], ring[r:r + nx, r - 1:r - 1 + ny], out=out)
        d /= 2.0 * grid.dy
    else:
        raise ValueError("axis must be 0 or 1")
    return d


def l1_norm_central_diff(component, axis, grid, out=None):
    """Sum of |central difference| times the cell area; component and out as for
    central_diff."""
    d = central_diff(component, axis, grid, out)
    total = float(np.abs(d, out=d).sum()) * grid.dx * grid.dy
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
            # one row of Python floats at a time: they format to the bytes numpy scalars
            # give, faster, and the whole field is never held as Python objects
            for j, (u, v, p) in enumerate(zip(*field.q[:, i].tolist())):
                y = (j + 0.5) * grid.dy
                fh.write("%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g\n" % (i, j, x, y, u, v, p))
