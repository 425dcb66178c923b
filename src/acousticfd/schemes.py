"""Scheme catalog: constructors for every named scheme and rhs evaluation.

All schemes are radius-1 matrix stencils for d/dt q_I + sum_S alpha_S q_{I+S} = 0
with q = (u, v, p). The dimensionally split family is

  d/dt q + (Jx(q_{i+1,j} - q_{i-1,j}) - Dx(q_{i+1,j} - 2q_{ij} + q_{i-1,j}))/(2dx)
         + (Jy(q_{i,j+1} - q_{i,j-1}) - Dy(q_{i,j+1} - 2q_{ij} + q_{i,j-1}))/(2dy) = 0

with Dx = [[a1,0,a2],[0,0,0],[a3,0,a4]] and Dy the mirrored sparsity.
"""

from dataclasses import dataclass
from fractions import Fraction

from .grid import AcousticParams, FieldSet, as_fraction
from .stencils import (MatrixStencil, ScalarStencil, averaged_div, central_bracket,
                       curl_of, dimsplit_div, second_bracket, smooth_bracket)


@dataclass(frozen=True)
class DiffusionParams:
    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction

    @staticmethod
    def make(a1=0, a2=0, a3=0, a4=0):
        return DiffusionParams(as_fraction(a1), as_fraction(a2), as_fraction(a3), as_fraction(a4))


# unitless (a1, a2, a3, a4) of the split catalog members; make_scheme scales
# them by (c/eps, 1/eps^2, c^2, c/eps), which is Dx = s T Dx^ T^-1
DIFFUSIONS = {
    "central": (0, 0, 0, 0),
    # upwind: Dx = |Jx| = diag(c/eps, 0, c/eps), Dy = diag(0, c/eps, c/eps)
    "roe": (1, 0, 0, 1),
    "lowmach1": (0, 1, -1, 0),
    "lowmach2": (0, 0, -1, 2),
    "lowmach3": (0, 1, 0, 2),
}
EXPECTED_MAX_CFL = {"roe": 0.5, "multid": 1.0}


@dataclass(frozen=True)
class SchemeSpec:
    name: str
    params: AcousticParams
    grid: object
    stencil: MatrixStencil
    # None for multid, the one scheme outside the dimensionally split family
    diffusion: DiffusionParams = None

    @property
    def claims(self):
        """A split scheme preserves stationarity iff a1 = 0; multid always does."""
        claims = {"stationarity_preserving": self.diffusion is None or self.diffusion.a1 == 0}
        if self.name in EXPECTED_MAX_CFL:
            claims["expected_max_cfl"] = EXPECTED_MAX_CFL[self.name]
        return claims

    def divergence_row(self):
        """The discrete divergence whose kernel hosts this scheme's stationary states."""
        if self.diffusion is None:
            return averaged_div()
        return dimsplit_div(self.diffusion.a3, self.params.c_exact)

    def vorticity_row(self):
        """(wu, wv, wp) with (wu, wv, wp) M = 0, bound to the grid like the symbol entries:
        the per-cell vorticity this scheme conserves, d/dx v - d/dy u + O(h).

        A split member with a1 = 0 conserves the curl of the divergence built from a2,
        as its stationary states are built from a3. multid conserves the curl of its
        own divergence (the Morton-Roe vorticity) when dx = dy. Otherwise its primitive
        row has radius 2 and a pressure part, (dy - dx)/(2 c eps) d/dx d/dy p + O(h^2).
        That row holds at dx = dy too, but there it is the square-cell row times
        4Px + 4Py - PxPy (P the smooth bracket), hence the branch.
        """
        grid = self.grid
        if self.diffusion is not None:
            if self.diffusion.a1 != 0:
                raise ValueError("a split scheme with a1 != 0 conserves no vorticity")
            c, eps = self.params.c_exact, self.params.eps_exact
            row = curl_of(dimsplit_div(self.diffusion.a2 * (eps * c) ** 2, c))
        elif grid.dx_exact == grid.dy_exact:
            row = curl_of(averaged_div())
        else:
            hx, hy = 1 / grid.dx_exact, 1 / grid.dy_exact
            sx, qx, px = central_bracket("x"), second_bracket("x"), smooth_bracket("x")
            sy, qy, py = central_bracket("y"), second_bracket("y"), smooth_bracket("y")
            k = Fraction(1, 128)
            ce = self.params.c_exact * self.params.eps_exact
            return (sy * px * (qx * py * hx - px * (4 * hy)) * k,
                    sx * py * (py * (4 * hx) - qy * px * hy) * k,
                    sx * sy * px * py * ((hx - hy) * k / ce))
        return row.bu.bound(grid), row.bv.bound(grid), ScalarStencil({})


def dimsplit_scheme(params, grid, dp, name="dimsplit"):
    e2 = params.eps_exact ** 2
    c2 = params.c_exact ** 2
    a1, a2, a3, a4 = dp.a1, dp.a2, dp.a3, dp.a4
    z = Fraction(0)
    jx = [[z, z, 1 / e2], [z, z, z], [c2, z, z]]
    jy = [[z, z, z], [z, z, 1 / e2], [z, c2, z]]
    dxm = [[a1, z, a2], [z, z, z], [a3, z, a4]]
    dym = [[z, z, z], [z, a1, a2], [z, a3, a4]]
    # entry (r, c) is (cb_x Jx - sb_x Dx)/(2dx) + (cb_y Jy - sb_y Dy)/(2dy)
    hx, hy = 1 / (2 * grid.dx_exact), 1 / (2 * grid.dy_exact)
    axes = ((central_bracket("x") * hx, second_bracket("x") * -hx, jx, dxm),
            (central_bracket("y") * hy, second_bracket("y") * -hy, jy, dym))

    def entry(r, c):
        out = ScalarStencil({})
        for cb, sb, j, d in axes:
            # skipping the zero pairs keeps the build cheap: most entries are empty
            if j[r][c] or d[r][c]:
                out += cb * j[r][c] + sb * d[r][c]
        return out

    st = MatrixStencil(grid, [[entry(r, c) for c in range(3)] for r in range(3)])
    return SchemeSpec(name=name, params=params, grid=grid, stencil=st, diffusion=dp)


def multid_scheme(params, grid):
    """The fully multi-dimensional stationarity preserving upwind scheme.

    Averaged fluxes with velocity diffusion equal to a consistent diffusion
    at c1 = c2 = c/(2 eps) and a pressure diffusion of the same averaged
    second-difference pattern; reduces to the 1-D upwind scheme on fields
    constant in one direction.
    """
    e2 = params.eps_exact ** 2
    c2 = params.c_exact ** 2
    ce = params.c_exact / params.eps_exact
    eighth = Fraction(1, 8)

    sx_py = smooth_bracket("y") * central_bracket("x") * eighth
    sy_px = smooth_bracket("x") * central_bracket("y") * eighth
    qx_py = smooth_bracket("y") * second_bracket("x") * eighth
    qy_px = smooth_bracket("x") * second_bracket("y") * eighth
    sx_sy = central_bracket("x") * central_bracket("y") * eighth

    def x(st, scale):
        return st.with_units(-1, 0).bound(grid) * scale

    def y(st, scale):
        return st.with_units(0, -1).bound(grid) * scale

    st = MatrixStencil(grid, [
        # u equation: averaged pressure gradient minus velocity diffusion
        [x(qx_py, -ce), y(sx_sy, -ce), x(sx_py, 1 / e2)],
        # v equation
        [x(sx_sy, -ce), y(qy_px, -ce), y(sy_px, 1 / e2)],
        # p equation: averaged divergence minus averaged pressure Laplacian
        [x(sx_py, c2), y(sy_px, c2), x(qx_py, -ce) + y(qy_px, -ce)],
    ])
    return SchemeSpec(name="multid", params=params, grid=grid, stencil=st)


CATALOG_NAMES = ("central", "roe", "lowmach1", "lowmach2", "lowmach3", "multid")
SP_NAMES = ("central", "lowmach1", "lowmach2", "lowmach3", "multid")


def make_scheme(name, params, grid, a1=0, a2=0, a3=0, a4=0):
    """A catalog scheme by name, or "dimsplit" with the given a1..a4."""
    if name == "multid":
        return multid_scheme(params, grid)
    if name == "dimsplit":
        return dimsplit_scheme(params, grid, DiffusionParams.make(a1, a2, a3, a4))
    if name not in DIFFUSIONS:
        raise KeyError("unknown scheme %r" % name)
    s, (_, _, t) = params.balance
    coeffs = (a * k for a, k in zip(DIFFUSIONS[name], (s, s / t, s * t, s)))
    return dimsplit_scheme(params, grid, DiffusionParams.make(*coeffs), name)


def catalog(params, grid):
    return {name: make_scheme(name, params, grid) for name in CATALOG_NAMES}


def rhs(spec, state):
    """Tendency -sum_S alpha_S q_{I+S} as a FieldSet-shaped object."""
    if state.grid != spec.grid:
        raise ValueError("state grid %r does not match scheme grid %r" % (state.grid, spec.grid))
    return FieldSet.from_q(state.grid, -spec.stencil.apply_sum(state.q))
