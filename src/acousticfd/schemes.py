"""Scheme catalog: constructors for every named scheme and rhs evaluation.

All schemes are radius-1 matrix stencils for d/dt q_I + sum_S alpha_S q_{I+S} = 0
with q = (u, v, p). The dimensionally split family is

  d/dt q + (Jx(q_{i+1,j} - q_{i-1,j}) - Dx(q_{i+1,j} - 2q_{ij} + q_{i-1,j}))/(2dx)
         + (Jy(q_{i,j+1} - q_{i,j-1}) - Dy(q_{i,j+1} - 2q_{ij} + q_{i,j-1}))/(2dy) = 0

with Dx = [[a1,0,a2],[0,0,0],[a3,0,a4]] and Dy the mirrored sparsity. A scheme is
stored as its unitless symbol M^ (for this family, Jx^ exchanges u and p and Dx^ holds
a^), and M = s T M^ T^-1 is derived from it with (s, T) from `AcousticParams.balance`.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .grid import AcousticParams, FieldSet, as_fraction
from .stencils import (MatrixStencil, ScalarStencil, VecStencilRow, central_bracket,
                       dimsplit_div, second_bracket, smooth_bracket)

# unitless (a1^, a2^, a3^, a4^) of the split catalog members
DIFFUSIONS = {
    "central": (0, 0, 0, 0),
    # upwind: Dx^ = |Jx^| = diag(1, 0, 1), Dy^ = diag(0, 1, 1)
    "roe": (1, 0, 0, 1),
    "lowmach1": (0, 1, -1, 0),
    "lowmach2": (0, 0, -1, 2),
    "lowmach3": (0, 1, 0, 2),
}
EXPECTED_MAX_CFL = {"roe": 0.5, "multid": 1.0}


def diffusion_scale(params):
    """(s, s/t, s t, s): a split member's physical (a1, a2, a3, a4) is its unitless one
    times these, the entries (u,u), (u,p), (p,u), (p,p) of Dx = s T Dx^ T^-1."""
    s, (_, _, t) = params.balance
    return s, s / t, s * t, s


@dataclass(frozen=True)
class SchemeSpec:
    name: str
    params: AcousticParams
    grid: object
    # M^: 3x3 grid-bound ScalarStencils that neither c nor eps enters
    unitless: tuple
    # the unitless (a1^, a2^, a3^, a4^) of a split member; None for multid,
    # the one scheme outside the dimensionally split family
    diffusion: tuple = None

    @cached_property
    def stencil(self):
        """M = s T M^ T^-1 with (s, T) from `AcousticParams.balance`, derived on first use."""
        s, t = self.params.balance
        return MatrixStencil(self.grid, [[m * (s * ti / tj) for m, tj in zip(row, t)]
                                         for row, ti in zip(self.unitless, t)])

    @property
    def claims(self):
        """A split scheme preserves stationarity iff a1 = 0; multid always does.
        `expected_max_cfl` is the forward-Euler limit on square cells: at aspect ratio
        r = max(dx, dy)/min(dx, dy), roe's is r/(1+r) and multid's stays 1."""
        claims = {"stationarity_preserving": self.diffusion is None or self.diffusion[0] == 0}
        if self.name in EXPECTED_MAX_CFL:
            claims["expected_max_cfl"] = EXPECTED_MAX_CFL[self.name]
        return claims

    def divergence_row(self):
        """The discrete divergence whose kernel hosts this scheme's stationary states: M^'s
        pressure row, entries (p, u) and (p, v), times dx and dy so its units are formal."""
        grid, (pu, pv, _) = self.grid, self.unitless[2]
        return VecStencilRow((pu * grid.dx_exact).with_units(-1, 0),
                             (pv * grid.dy_exact).with_units(0, -1))

    def vorticity_row(self):
        """(wu, wv, wp) with (wu, wv, wp) M = 0, bound to the grid like the symbol entries:
        the per-cell vorticity this scheme conserves, d/dx v - d/dy u + O(h).

        With M^'s velocity block symmetric, in every split member with a1 = 0 and in multid
        at dx = dy, it is the curl of M^'s pressure column, (-m_vp, m_up, 0). multid at
        dx != dy conserves a row that M^'s entries do not hold, of radius 2 with a pressure
        part (dy - dx)/(2 c eps) d/dx d/dy p + O(h^2); at dx = dy that row is the read-off
        one times 4Px + 4Py - PxPy (P the smooth bracket), hence the branch.
        """
        if not self.claims["stationarity_preserving"]:
            raise ValueError("a split scheme with a1 != 0 conserves no vorticity")
        m = self.unitless
        if self.diffusion is not None or m[0][1] == m[1][0]:
            return -m[1][2], m[0][2], ScalarStencil({})
        hx, hy = 1 / self.grid.dx_exact, 1 / self.grid.dy_exact
        sx, qx, px = central_bracket("x"), second_bracket("x"), smooth_bracket("x")
        sy, qy, py = central_bracket("y"), second_bracket("y"), smooth_bracket("y")
        # w M = 0 iff (w T) M^ = 0, so the pressure weight carries 1/t = 1/(c eps)
        k, t = Fraction(1, 128), self.params.balance[1][2]
        return (sy * px * (qx * py * hx - px * (4 * hy)) * k,
                sx * py * (py * (4 * hx) - qy * px * hy) * k,
                sx * sy * px * py * ((hx - hy) * k / t))


def dimsplit_symbol(grid, diffusion):
    """M^ of the split member with unitless (a1^, a2^, a3^, a4^): the divergence built from
    a2^ is its pressure column and the one built from a3^ its pressure row, both bound to
    the grid, and -a1^ and -a4^ times [[.]]/(2dx) + [[.]]/(2dy) fill its diagonal."""
    a1, a2, a3, a4 = diffusion
    (up, vp), (pu, pv) = ((d.bu.bound(grid), d.bv.bound(grid))
                          for d in (dimsplit_div(a2), dimsplit_div(a3)))
    qx = second_bracket("x") * (-1 / (2 * grid.dx_exact))
    qy = second_bracket("y") * (-1 / (2 * grid.dy_exact))
    zero = ScalarStencil({})
    return ((qx * a1, zero, up), (zero, qy * a1, vp), (pu, pv, (qx + qy) * a4))


def multid_symbol(grid):
    """M^ of the fully multi-dimensional stationarity preserving upwind scheme.

    Averaged fluxes with velocity diffusion equal to a consistent diffusion
    at c1 = c2 = c/(2 eps) and a pressure diffusion of the same averaged
    second-difference pattern; reduces to the 1-D upwind scheme on fields
    constant in one direction.
    """
    sx, qx, px = central_bracket("x"), second_bracket("x"), smooth_bracket("x")
    sy, qy, py = central_bracket("y"), second_bracket("y"), smooth_bracket("y")
    hx, hy = Fraction(1, 8) / grid.dx_exact, Fraction(1, 8) / grid.dy_exact
    # averaged divergence (ax, ay) and second differences (qx_py, qy_px), bound to the grid;
    # ax and ay multiply in averaged_div's order, so rows read off them apply taps as it does
    ax, ay, qx_py, qy_px = py * sx * hx, px * sy * hy, qx * py * hx, qy * px * hy
    return (
        # u and v: averaged pressure gradient minus velocity diffusion
        (-qx_py, -sx * sy * hy, ax),
        (-sx * sy * hx, -qy_px, ay),
        # p: averaged divergence minus averaged pressure Laplacian
        (ax, ay, -qx_py - qy_px),
    )


CATALOG_NAMES = ("central", "roe", "lowmach1", "lowmach2", "lowmach3", "multid")


def make_scheme(name, params, grid, a1=0, a2=0, a3=0, a4=0):
    """A catalog scheme by name, or "dimsplit" with the given physical a1..a4."""
    if name == "multid":
        return SchemeSpec(name, params, grid, multid_symbol(grid))
    if name == "dimsplit":
        diffusion = tuple(as_fraction(a) / k
                          for a, k in zip((a1, a2, a3, a4), diffusion_scale(params)))
    elif name in DIFFUSIONS:
        diffusion = DIFFUSIONS[name]
    else:
        raise KeyError("unknown scheme %r" % name)
    return SchemeSpec(name, params, grid, dimsplit_symbol(grid, diffusion), diffusion)


def catalog(params, grid):
    return {name: make_scheme(name, params, grid) for name in CATALOG_NAMES}


def rhs(spec, state):
    """Tendency -sum_S alpha_S q_{I+S} as a FieldSet-shaped object."""
    if state.grid != spec.grid:
        raise ValueError("state grid %r does not match scheme grid %r" % (state.grid, spec.grid))
    return FieldSet(state.grid, -spec.stencil.apply_sum(state.q))
