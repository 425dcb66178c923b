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
from .stencils import (MatrixStencil, ScalarStencil, averaged_div, central_bracket,
                       curl_of, dimsplit_div, second_bracket, smooth_bracket)

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
        """A split scheme preserves stationarity iff a1 = 0; multid always does."""
        claims = {"stationarity_preserving": self.diffusion is None or self.diffusion[0] == 0}
        if self.name in EXPECTED_MAX_CFL:
            claims["expected_max_cfl"] = EXPECTED_MAX_CFL[self.name]
        return claims

    def divergence_row(self):
        """The discrete divergence whose kernel hosts this scheme's stationary states."""
        if self.diffusion is None:
            return averaged_div()
        return dimsplit_div(self.diffusion[2])

    def vorticity_row(self):
        """(wu, wv, wp) with (wu, wv, wp) M = 0, bound to the grid like the symbol entries:
        the per-cell vorticity this scheme conserves, d/dx v - d/dy u + O(h).

        A split member with a1 = 0 conserves the curl of the divergence built from a2^,
        as its stationary states are built from a3^. multid conserves the curl of its
        own divergence (the Morton-Roe vorticity) when dx = dy. Otherwise its primitive
        row has radius 2 and a pressure part, (dy - dx)/(2 c eps) d/dx d/dy p + O(h^2).
        That row holds at dx = dy too, but there it is the square-cell row times
        4Px + 4Py - PxPy (P the smooth bracket), hence the branch.
        """
        grid = self.grid
        if self.diffusion is not None:
            if self.diffusion[0] != 0:
                raise ValueError("a split scheme with a1 != 0 conserves no vorticity")
            row = curl_of(dimsplit_div(self.diffusion[1]))
        elif grid.dx_exact == grid.dy_exact:
            row = curl_of(averaged_div())
        else:
            hx, hy = 1 / grid.dx_exact, 1 / grid.dy_exact
            sx, qx, px = central_bracket("x"), second_bracket("x"), smooth_bracket("x")
            sy, qy, py = central_bracket("y"), second_bracket("y"), smooth_bracket("y")
            # w M = 0 iff (w T) M^ = 0, so the pressure weight carries 1/t = 1/(c eps)
            k, t = Fraction(1, 128), self.params.balance[1][2]
            return (sy * px * (qx * py * hx - px * (4 * hy)) * k,
                    sx * py * (py * (4 * hx) - qy * px * hy) * k,
                    sx * sy * px * py * ((hx - hy) * k / t))
        return row.bu.bound(grid), row.bv.bound(grid), ScalarStencil({})


# the unit Jx^ and Jy^: J = s T J^ T^-1 carries the 1/eps^2 and c^2 of the acoustic system
JX = ((0, 0, 1), (0, 0, 0), (1, 0, 0))
JY = ((0, 0, 0), (0, 0, 1), (0, 1, 0))


def dimsplit_symbol(grid, diffusion):
    """M^ of the split member with unitless (a1^, a2^, a3^, a4^)."""
    a1, a2, a3, a4 = diffusion
    dxm = ((a1, 0, a2), (0, 0, 0), (a3, 0, a4))
    dym = ((0, 0, 0), (0, a1, a2), (0, a3, a4))
    # entry (r, c) is (cb_x Jx^ - sb_x Dx^)/(2dx) + (cb_y Jy^ - sb_y Dy^)/(2dy)
    hx, hy = 1 / (2 * grid.dx_exact), 1 / (2 * grid.dy_exact)
    axes = ((central_bracket("x") * hx, second_bracket("x") * -hx, JX, dxm),
            (central_bracket("y") * hy, second_bracket("y") * -hy, JY, dym))

    def entry(r, c):
        out = ScalarStencil({})
        for cb, sb, j, d in axes:
            # skipping the zero pairs keeps the build cheap: most entries are empty
            if j[r][c] or d[r][c]:
                out += cb * j[r][c] + sb * d[r][c]
        return out

    return tuple(tuple(entry(r, c) for c in range(3)) for r in range(3))


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
    # averaged divergence (ax, ay) and second differences (qx_py, qy_px), bound to the grid
    ax, ay, qx_py, qy_px = sx * py * hx, sy * px * hy, qx * py * hx, qy * px * hy
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
    return FieldSet.from_q(state.grid, -spec.stencil.apply_sum(state.q))
