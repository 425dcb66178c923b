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
    """Periodic grid: nx*ny cells of size dx*dy, cell centers at ((i+1/2)dx, (j+1/2)dy).
    A width left None is the unit square's, 1/nx or 1/ny, set once the size is checked."""

    nx: int
    ny: int
    dx: float = None
    dy: float = None

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:
            raise ValueError("grid must be at least 3x3, got %dx%d" % (self.nx, self.ny))
        for name, n in (("dx", self.nx), ("dy", self.ny)):
            if getattr(self, name) is None:
                object.__setattr__(self, name, 1.0 / n)
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError("cell widths must be positive and finite, got %s = %r"
                                 % (name, getattr(self, name)))

    @staticmethod
    def unit_square(nx, ny=None):
        return GridSpec(nx, nx if ny is None else ny)

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
    """State q = (u, v, p); stored as one (3, nx, ny) array, components are views."""

    __slots__ = ("grid", "q")

    def __init__(self, grid, q):
        self.grid = grid
        self.q = np.asarray(q, dtype=float)
        if self.q.shape != (3, grid.nx, grid.ny):
            raise ValueError("q has shape %s, grid wants (3, %d, %d)"
                             % (self.q.shape, grid.nx, grid.ny))

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
        return FieldSet(self.grid, self.q.copy())

    def norm_inf(self):
        return float(np.max(np.abs(self.q)))

    @staticmethod
    def zeros(grid):
        return FieldSet(grid, np.zeros((3, grid.nx, grid.ny)))

    @staticmethod
    def constant(grid, u=0.0, v=0.0, p=0.0):
        q = np.empty((3, grid.nx, grid.ny))
        q[0], q[1], q[2] = u, v, p
        return FieldSet(grid, q)


def l1_norm_central_diff(component, axis, grid, out=None):
    """Sum of |central difference| times the cell area: (delta'/2) sum |u_{+1} - u_{-1}|,
    delta' the other axis's cell width.

    component is a stack (k, nx+2r, ny+2r) of fields, each inside its periodic
    ghost ring r >= 0 cells wide (a march ring's slots), and gives an array of
    k totals, each bitwise the total of its field alone; or one such field, a
    stack of one, and gives its total. The fields are differenced over their
    flat spans, their |differences| gathered into one contiguous (k, nx, ny)
    block and summed per field, and the k sums scaled once. out is None or an
    `l1_scratch` pair for at least k fields (1 for one field) in that ring.
    Where 2 delta is a power of two, a total is bitwise the per-cell form
    sum |(u_{+1} - u_{-1}) / (2 delta)| dx dy. A non-finite cell raises
    ValueError; a finite field whose differences, or their sum, overflow gives inf.
    """
    stack = np.asarray(component, dtype=float)
    single = stack.ndim == 2
    stack = stack[None] if single else stack
    nx, ny = grid.nx, grid.ny
    k, h, w = stack.shape if stack.ndim == 3 else (0, -1, -1)
    r = (h - nx) // 2
    if r < 0 or (h, w) != (nx + 2 * r, ny + 2 * r):
        raise ValueError("stack shape %s holds no fields of the grid's (%d, %d) in a ring"
                         % (stack.shape, nx, ny))
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    ringed, r = (stack, r) if r else (np.pad(stack, ((0, 0), (1, 1), (1, 1)), mode="wrap"), 1)
    w, n = ny + 2 * r, nx * (ny + 2 * r) - 2 * r
    spans, gathered = out if out is not None else l1_scratch(grid, k, r)
    flat, spans = ringed.reshape(k, -1), spans[:k, :nx * w]
    base, shift = r * w + r, w if axis == 0 else 1
    np.subtract(flat[:, base + shift:base + shift + n], flat[:, base - shift:base - shift + n],
                out=spans[:, :n])
    totals = np.abs(spans.reshape(k, nx, w)[:, :, :ny], out=gathered[:k]).sum(axis=(1, 2))
    totals *= 0.5 * (grid.dy if axis == 0 else grid.dx)
    # every cell enters two differences, so a non-finite field cannot give a finite
    # total; a non-finite total from a finite field is an overflow
    if not all(map(math.isfinite, totals)):
        for total, field in zip(totals, stack):
            if not math.isfinite(total) and not np.all(np.isfinite(field)):
                raise ValueError("non-finite field component")
    return float(totals[0]) if single else totals


def l1_scratch(grid, slots, ring):
    """Scratch for l1_norm_central_diff over up to `slots` stacked fields in a ghost ring
    `ring` cells wide: the flat span differences and the gathered interiors."""
    w = grid.ny + 2 * max(ring, 1)
    return np.empty((slots, grid.nx * w)), np.empty((slots, grid.nx, grid.ny))


FIELD_CSV_HEADER = "i,j,x,y,u,v,p"


def write_field_csv(path, field):
    grid = field.grid
    # each coordinate formatted once; one row of Python floats at a time, which format to
    # the bytes numpy scalars give, faster, and the whole field is never held as objects
    ys = ["%.17g" % ((j + 0.5) * grid.dy) for j in range(grid.ny)]
    with open(path, "w") as fh:
        fh.write(FIELD_CSV_HEADER + "\n")
        for i in range(grid.nx):
            head = "%d," % i
            x = ",%.17g," % ((i + 0.5) * grid.dx)
            fh.write("".join(["%s%d%s%s,%.17g,%.17g,%.17g\n" % (head, j, x, y, u, v, p)
                              for j, (y, u, v, p) in enumerate(zip(ys, *field.q[:, i].tolist()))]))
