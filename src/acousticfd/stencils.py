"""Linear finite-difference formulas on the periodic grid.

A scalar stencil is also its own exact symbol: a Laurent polynomial in the
shifts tx, ty whose exponents are integer half-cell offsets, so tx^n sits at
offset (2n, 0) and the bracket builders compose on the half lattice by plain
convolution. Only stencils whose offsets are all even (whole cells) can be
applied to a field or exported. A stencil carries one formal unit monomial
dx^px dy^py so coefficient maps stay exact rationals independent of the grid; they
are held as ints over one denominator, and Fractions appear only at entry and in the
`coeffs` view.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .grid import as_fraction


class ScalarStencil:
    """Finite map half-offset -> rational, times dx^px dy^py, held as int numerators
    `num` over one positive denominator `den` in lowest terms.

    `*` composes two stencils (the product of their symbols; units add) or
    scales by a number; numbers added to a stencil are multiples of the
    identity. `+` needs equal units, except that a zero stencil, whatever its
    units, is the identity of `+`, as it equals every other zero stencil under
    `==` and `hash`: `ScalarStencil({}, (0, 1)) + 1` is the unitless 1. Every
    result is reduced by one gcd, so equal maps have equal (num, den).
    `coeffs` is the read-only Fraction view.
    """

    __slots__ = ("num", "den", "units")

    def __init__(self, coeffs, units=(0, 0)):
        fr = {(int(a), int(b)): as_fraction(c) for (a, b), c in coeffs.items()}
        # the lcm of reduced denominators leaves num/den in lowest terms
        self.den = math.lcm(*(c.denominator for c in fr.values()))
        self.num = {off: c.numerator * (self.den // c.denominator) for off, c in fr.items() if c}
        self.units = (int(units[0]), int(units[1]))

    @classmethod
    def from_ints(cls, num, den, units):
        """The stencil num/den with nonzero int numerators, den > 0 and int units,
        reduced by the gcd of den and the numerators. The algebra builds only such
        maps, so it skips __init__."""
        st = cls.__new__(cls)
        g = math.gcd(den, *num.values())
        if g > 1:
            num = {off: v // g for off, v in num.items()}
            den //= g
        st.num, st.den, st.units = num, den, units
        return st

    @property
    def coeffs(self):
        """Half-offset -> nonzero Fraction."""
        return {off: Fraction(v, self.den) for off, v in self.num.items()}

    def __repr__(self):
        return "ScalarStencil(%r, units=%r)" % (self.coeffs, self.units)

    def __eq__(self, other):
        if not isinstance(other, ScalarStencil):
            return NotImplemented
        if not self.num and not other.num:
            return True
        return (self.num == other.num and self.den == other.den
                and self.units == other.units)

    def __hash__(self):
        # every zero stencil is equal to every other, whatever its units
        return hash((frozenset(self.num.items()), self.den, self.units if self.num else None))

    def is_zero(self):
        return not self.num

    def is_whole_cell(self):
        return all(a % 2 == 0 and b % 2 == 0 for a, b in self.num)

    @property
    def cell_radius(self):
        m = max((max(abs(a), abs(b)) for a, b in self.num), default=0)
        return (m + 1) // 2

    def _cells(self):
        """(whole-cell offset, numerator) pairs; only for whole-cell stencils."""
        if not self.is_whole_cell():
            raise ValueError("stencil sits on half-index positions")
        return [((a // 2, b // 2), v) for (a, b), v in self.num.items()]

    def __neg__(self):
        return self.from_ints({off: -v for off, v in self.num.items()}, self.den, self.units)

    def __add__(self, other):
        if not isinstance(other, ScalarStencil):
            other = ScalarStencil({(0, 0): other})
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.units != other.units:
            raise ValueError("cannot add stencils with units %r and %r"
                             % (self.units, other.units))
        den = math.lcm(self.den, other.den)
        m1, m2 = den // self.den, den // other.den
        out = {off: v * m1 for off, v in self.num.items()}
        for off, v in other.num.items():
            prev = out.get(off)
            out[off] = v * m2 if prev is None else prev + v * m2
        return self.from_ints({off: v for off, v in out.items() if v}, den, self.units)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, ScalarStencil):
            s = as_fraction(other)
            p = s.numerator  # only s = 0 empties the map
            return self.from_ints({off: v * p for off, v in self.num.items()} if p else {},
                                  self.den * s.denominator, self.units)
        out = {}
        for (a1, b1), c1 in self.num.items():
            for (a2, b2), c2 in other.num.items():
                key = (a1 + a2, b1 + b2)
                prev = out.get(key)
                out[key] = c1 * c2 if prev is None else prev + c1 * c2
        return self.from_ints({off: v for off, v in out.items() if v}, self.den * other.den,
                              (self.units[0] + other.units[0], self.units[1] + other.units[1]))

    __rmul__ = __mul__

    def with_units(self, px, py):
        return self.from_ints(self.num, self.den, (self.units[0] + px, self.units[1] + py))

    def bound(self, grid):
        """The unitless stencil with dx^px dy^py bound to the grid's exact spacings."""
        return self.from_ints(self.num, self.den, (0, 0)) * (grid.dx_exact ** self.units[0]
                                                             * grid.dy_exact ** self.units[1])

    def weights(self, grid):
        """Whole-cell offsets with float weights, units bound to the grid. Int true
        division is correctly rounded, as float(Fraction) is."""
        st = self.bound(grid)
        return {off: v / st.den for off, v in st._cells()}

    def apply(self, arr, grid):
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (grid.nx, grid.ny):
            raise ValueError("field shape %s does not match grid" % (arr.shape,))
        r = self.cell_radius
        if 2 * r + 1 > min(grid.nx, grid.ny):
            raise ValueError("grid too small for stencil radius %d" % r)
        out = np.zeros_like(arr)
        for (sx, sy), w in self.weights(grid).items():
            out += w * np.roll(arr, (-sx, -sy), axis=(0, 1))
        return out

    def to_json_dict(self):
        entries = []
        for (sx, sy), v in sorted(self._cells()):
            g = math.gcd(v, self.den)
            entries.append({"sx": sx, "sy": sy, "value": rational_string(v // g, self.den // g)})
        return {"radius": self.cell_radius,
                "units": {"dx": self.units[0], "dy": self.units[1]},
                "entries": entries}


def rational_string(num, den):
    """num/den in lowest terms with den > 0: an exact decimal string when den is 2^a 5^b,
    else 'num/den'."""
    rest = den
    two = five = 0
    while rest % 2 == 0:
        rest //= 2
        two += 1
    while rest % 5 == 0:
        rest //= 5
        five += 1
    if rest != 1:
        return "%d/%d" % (num, den)
    shift = max(two, five)
    scaled = num * 10 ** shift // den
    if shift == 0:
        return "%d" % scaled
    s = "%0*d" % (shift + 1, abs(scaled))
    out = s[:-shift] + "." + s[-shift:]
    return "-" + out if scaled < 0 else out


def tx(n=1):
    """Shift by n cells in x: the monomial tx^n."""
    return ScalarStencil.from_ints({(2 * n, 0): 1}, 1, (0, 0))


def ty(n=1):
    """Shift by n cells in y: the monomial ty^n."""
    return ScalarStencil.from_ints({(0, 2 * n): 1}, 1, (0, 0))


def _axis_pair(axis, value_plus, value_minus):
    if axis in (0, "x"):
        return {(1, 0): value_plus, (-1, 0): value_minus}
    if axis in (1, "y"):
        return {(0, 1): value_plus, (0, -1): value_minus}
    raise ValueError("axis must be 0/'x' or 1/'y'")


def diff_half(axis):
    """[q]_{i+-1/2}: difference of the two neighbors half a cell away."""
    return ScalarStencil.from_ints(_axis_pair(axis, 1, -1), 1, (0, 0))


def sum_half(axis):
    """{q}_{i+-1/2}: sum of the two neighbors half a cell away."""
    return ScalarStencil.from_ints(_axis_pair(axis, 1, 1), 1, (0, 0))


def central_bracket(axis):
    """[q]_{i+-1}: q_{+1} - q_{-1}."""
    return diff_half(axis) * sum_half(axis)


def second_bracket(axis):
    """[[q]]_{i+-1/2}: q_{+1} - 2 q + q_{-1}."""
    return diff_half(axis) * diff_half(axis)


def smooth_bracket(axis):
    """{{q}}_{i+-1/2}: q_{+1} + 2 q + q_{-1}."""
    return sum_half(axis) * sum_half(axis)


@dataclass(frozen=True)
class VecStencilRow:
    """Row operator (bu, bv) acting on (u, v) and returning a scalar per cell."""

    bu: ScalarStencil
    bv: ScalarStencil

    def to_json_dict(self):
        return {"bu": self.bu.to_json_dict(), "bv": self.bv.to_json_dict()}


def central_div():
    """[u]_{i+-1}/(2dx) + [v]_{j+-1}/(2dy)."""
    bu = (central_bracket("x") * Fraction(1, 2)).with_units(-1, 0)
    bv = (central_bracket("y") * Fraction(1, 2)).with_units(0, -1)
    return VecStencilRow(bu, bv)


def averaged_div():
    """{{[u]_{i+-1}}}_{j+-1/2}/(8dx) + [{{v}}_{i+-1/2}]_{j+-1}/(8dy)."""
    bu = (smooth_bracket("y") * central_bracket("x") * Fraction(1, 8)).with_units(-1, 0)
    bv = (smooth_bracket("x") * central_bracket("y") * Fraction(1, 8)).with_units(0, -1)
    return VecStencilRow(bu, bv)


def dimsplit_div(w):
    """[u]_{i+-1}/(2dx) - w[[u]]_{i+-1/2}/(2dx), plus the y mirror on v; w is unitless."""
    bu = ((central_bracket("x") - second_bracket("x") * w) * Fraction(1, 2)).with_units(-1, 0)
    bv = ((central_bracket("y") - second_bracket("y") * w) * Fraction(1, 2)).with_units(0, -1)
    return VecStencilRow(bu, bv)


def consistent_diffusion(c1, c2):
    """(c1/4)({{[[u]]_{i+-1/2}}}_{j+-1/2}/dx + [[v]_{i+-1}]_{j+-1}/dy)
    + (c2/4)([[u]_{i+-1}]_{j+-1}/dx + [[{{v}}_{i+-1/2}]]_{j+-1/2}/dy)."""
    c1 = as_fraction(c1)
    c2 = as_fraction(c2)
    qx_py = smooth_bracket("y") * second_bracket("x")
    sx_sy = central_bracket("y") * central_bracket("x")
    qy_px = smooth_bracket("x") * second_bracket("y")
    bu = (qx_py * (c1 / 4) + sx_sy * (c2 / 4)).with_units(-1, 0)
    bv = (sx_sy * (c1 / 4) + qy_px * (c2 / 4)).with_units(0, -1)
    return VecStencilRow(bu, bv)


# a march keeps up to 8 states resident: as many as fit in RING_BYTES, and at least two
RING_BYTES = 1 << 20


def ring_slots(grid, radius):
    """How many (3, nx+2r, ny+2r) halos a workspace ring holds on this grid."""
    halo_bytes = 3 * (grid.nx + 2 * radius) * (grid.ny + 2 * radius) * 8
    return min(8, max(2, RING_BYTES // halo_bytes))


class Halo(NamedTuple):
    """A workspace halo's views and its plan: span the flat run from its first interior
    cell to its last, inner its (3, nx, ny) interior; fill holds the (buffer rows, flat
    shifts) pairs that shift_product copies, one per tap, or one for all of them when the
    taps fill their (2r+1)^2 box; ghosts the (ghost strip, interior strip) pairs that
    wrap_halo copies, in order."""

    span: np.ndarray
    inner: np.ndarray
    fill: tuple
    ghosts: tuple


class Workspace(NamedTuple):
    """The march's memory: ring is the (S, 3, nx+2r, ny+2r) array of S periodic halos,
    spans its (S, 3, n) view of each component from its first interior cell to its
    last, halos one Halo per slot, buf the (K, n) shift buffer."""

    ring: np.ndarray
    spans: np.ndarray
    halos: list
    buf: np.ndarray


class MatrixStencil:
    """One semi-discrete scheme as its exact symbol: a 3x3 matrix of unitless
    whole-cell ScalarStencils in (tx, ty), the grid's 1/dx factors absorbed
    (units 1/time), so the stencil is bound to a grid.

    Everything numeric is derived once, here: the float blocks alpha_S by
    sorted cell offset (single roundings of the exact values), the radius and
    the packing for shift_product. The object is not changed afterwards. An
    exact value beyond the float range raises OverflowError naming its entry.
    """

    def __init__(self, grid, entries):
        self.grid = grid
        self._symbol = tuple(tuple(row) for row in entries)
        blocks = {}
        for r, row in enumerate(self._symbol):
            for c, st in enumerate(row):
                if st.units != (0, 0) and not st.is_zero():
                    raise ValueError("entry (%d, %d) still carries units %r" % (r, c, st.units))
                for off, value in st._cells():
                    try:
                        blocks.setdefault(off, np.zeros((3, 3)))[r, c] = value / st.den
                    except OverflowError:
                        raise OverflowError("symbol entry (%s, %s) at cell offset %r is beyond "
                                            "the float range" % ("uvp"[r], "uvp"[c], off)) from None
        self._floats = dict(sorted(blocks.items()))
        r = self.radius = max((max(abs(sx), abs(sy)) for sx, sy in self._floats), default=0)
        cols, taps = [], []
        for (sx, sy), mat in self._floats.items():
            comps = np.flatnonzero(mat.any(axis=0))
            if comps.size:  # empty only where every exact value underflows
                # any subset of the 3 components is an arithmetic progression
                step = comps[1] - comps[0] if comps.size > 1 else 1
                taps.append((len(cols), len(cols) + comps.size,
                             (r + sx) * (grid.ny + 2 * r) + r + sy,
                             slice(comps[0], comps[-1] + 1, step)))
                cols.extend(mat[:, comps].T)
        self._packed = (np.array(cols, dtype=float).reshape(-1, 3).T, taps)

    def float_blocks(self):
        """Float 3x3 blocks by sorted cell offset."""
        return self._floats

    def workspace(self):
        """A Workspace: a ring of ring_slots periodic halos, each a Halo with its own copy
        plan, and the (K, n) buffer shift_product fills. Every view a step touches is
        built here, once per workspace, and the caller owns them."""
        return self._workspace(ring_slots(self.grid, self.radius))

    def _workspace(self, slots):
        nx, ny, r = self.grid.nx, self.grid.ny, self.radius
        if 2 * r + 1 > min(nx, ny):
            raise ValueError("grid too small for stencil radius %d" % r)
        base, n = r * (ny + 2 * r) + r, nx * (ny + 2 * r) - 2 * r
        k, w = self._packed[0].shape[1], 2 * r + 1
        buf = np.empty((k, n))
        ring = np.empty((slots, 3, nx + 2 * r, ny + 2 * r))
        spans = ring.reshape(len(ring), 3, -1)[:, :, base:base + n]
        halos = []
        for h, span in zip(ring, spans):
            flat = h.reshape(3, -1)
            if k == 3 * w * w:
                # every component at every offset of the box, taps in sorted order: buffer
                # row 3 (w (r+sx) + r+sy) + c holds flat[c, (r+sx)(ny+2r) + r+sy:][:n], so one
                # strided view holds all rows; the last one ends at the halo's last value
                col, comp = flat.strides[1], flat.strides[0]
                box = np.lib.stride_tricks.as_strided(
                    flat, (w, w, 3, n), ((ny + 2 * r) * col, col, comp, col), writeable=False)
                fill = ((buf.reshape(w, w, 3, n), box),)
            else:
                fill = tuple((buf[k0:k1], flat[comps, off:off + n])
                             for k0, k1, off, comps in self._packed[1])
            # y columns, then x rows, which carry the corners; none at radius 0
            ghosts = ((h[:, r:r + nx, :r], h[:, r:r + nx, ny:ny + r]),
                      (h[:, r:r + nx, ny + r:], h[:, r:r + nx, r:2 * r]),
                      (h[:, :r], h[:, nx:nx + r]),
                      (h[:, nx + r:], h[:, r:2 * r])) if r else ()
            halos.append(Halo(span, h[:, r:r + nx, r:r + ny], fill, ghosts))
        return Workspace(ring, spans, halos, buf)

    @staticmethod
    def wrap_halo(halo):
        """Refresh a workspace halo's periodic ghosts from its interior. Slice assignment
        copies as np.copyto does, with less overhead per call on these small strips."""
        for dst, src in halo.ghosts:
            dst[...] = src

    def shift_product(self, halo, span, buf):
        """span = W @ B: B stacks the K packed shifts of a wrapped workspace halo as contiguous
        flat slices, copied into buf, the workspace's buffer. The y ghost columns of span get
        meaningless values."""
        for dst, src in halo.fill:
            dst[...] = src
        np.matmul(self._packed[0], buf, out=span)

    def apply_sum(self, q):
        """sum_S alpha_S q_{I+S} for q of shape (3, nx, ny): shift_product between two halos."""
        q = np.asarray(q, dtype=float)
        nx, ny = self.grid.nx, self.grid.ny
        if q.shape != (3, nx, ny):
            raise ValueError("q has shape %s, stencil wants (3, %d, %d)" % (q.shape, nx, ny))
        _, _, (halo, into), buf = self._workspace(2)
        halo.inner[...] = q
        self.wrap_halo(halo)
        self.shift_product(halo, into.span, buf)
        return into.inner.copy()

    def symbol(self, thx, thy):
        """sum_S alpha_S tx^sx ty^sy at tx = exp(i thx); the evolution matrix is -i times this.

        Phases may be arrays of a common broadcast shape (...), giving a
        (..., 3, 3) stack; scalar phases give one (3, 3) matrix. Taps are
        summed in the same order either way, so each matrix of a stack is
        bitwise equal to the scalar call at its phases.
        """
        thx, thy = np.broadcast_arrays(np.asarray(thx, dtype=float), np.asarray(thy, dtype=float))
        out = np.zeros(thx.shape + (3, 3), dtype=complex)
        for (sx, sy), mat in self.float_blocks().items():
            out += mat * np.exp(1j * (sx * thx + sy * thy))[..., None, None]
        return out

    def exact_symbol(self):
        """The 3x3 matrix of unitless ScalarStencils in (tx, ty) this stencil was built from."""
        return self._symbol
