"""Scheme catalog: constructors for every named scheme and rhs evaluation.

All schemes are radius-1 matrix stencils for d/dt q_I + sum_S alpha_S q_{I+S} = 0
with q = (u, v, p). The dimensionally split family is

  d/dt q + (Jx(q_{i+1,j} - q_{i-1,j}) - Dx(q_{i+1,j} - 2q_{ij} + q_{i-1,j}))/(2dx)
         + (Jy(q_{i,j+1} - q_{i,j-1}) - Dy(q_{i,j+1} - 2q_{ij} + q_{i,j-1}))/(2dy) = 0

with Dx = [[a1,0,a2],[0,0,0],[a3,0,a4]] and Dy the mirrored sparsity.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .grid import AcousticParams, FieldSet, as_fraction
from .stencils import (MatrixStencil, ScalarStencil, averaged_div, central_bracket,
                       dimsplit_div, second_bracket, smooth_bracket)


@dataclass(frozen=True)
class DiffusionParams:
    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction

    @staticmethod
    def make(a1=0, a2=0, a3=0, a4=0):
        return DiffusionParams(as_fraction(a1), as_fraction(a2), as_fraction(a3), as_fraction(a4))

    def as_floats(self):
        return tuple(float(a) for a in (self.a1, self.a2, self.a3, self.a4))


@dataclass(frozen=True)
class SchemeSpec:
    name: str
    params: AcousticParams
    grid: object
    stencil: MatrixStencil
    claims: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def divergence_row(self):
        """The discrete divergence whose kernel hosts this scheme's stationary states."""
        if self.name == "multid":
            return averaged_div()
        if self.name in ("central", "dimsplit", "roe", "lowmach1", "lowmach2", "lowmach3"):
            dp = self.extra.get("diffusion")
            a3 = dp.a3 if dp is not None else Fraction(0)
            return dimsplit_div(a3, self.params.c_exact)
        raise ValueError("no divergence row for scheme %r" % self.name)


def _dimsplit_matrices(params, dp):
    e2 = params.eps_exact ** 2
    c2 = params.c_exact ** 2
    a1, a2, a3, a4 = dp.a1, dp.a2, dp.a3, dp.a4
    z = Fraction(0)
    jx = [[z, z, 1 / e2], [z, z, z], [c2, z, z]]
    jy = [[z, z, z], [z, z, 1 / e2], [z, c2, z]]
    dxm = [[a1, z, a2], [z, z, z], [a3, z, a4]]
    dym = [[z, z, z], [z, a1, a2], [z, a3, a4]]
    return jx, jy, dxm, dym


def dimsplit_scheme(params, grid, dp, name="dimsplit", claims=None):
    jx, jy, dxm, dym = _dimsplit_matrices(params, dp)
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
    base_claims = {"stationarity_preserving": dp.a1 == 0}
    if claims:
        base_claims.update(claims)
    return SchemeSpec(name=name, params=params, grid=grid,
                      stencil=st, claims=base_claims, extra={"diffusion": dp})


def central_scheme(params, grid):
    return dimsplit_scheme(params, grid, DiffusionParams.make(), name="central",
                           claims={"stationarity_preserving": True})


def roe_scheme(params, grid):
    """Upwind scheme: Dx = |Jx| = diag(c/eps, 0, c/eps), Dy = diag(0, c/eps, c/eps)."""
    ce = params.c_exact / params.eps_exact
    dp = DiffusionParams.make(ce, 0, 0, ce)
    return dimsplit_scheme(params, grid, dp, name="roe",
                           claims={"stationarity_preserving": False,
                                   "expected_max_cfl": 0.5})


def lowmach_scheme(params, grid, variant):
    e2 = params.eps_exact ** 2
    c2 = params.c_exact ** 2
    ce = params.c_exact / params.eps_exact
    if variant == 1:
        dp = DiffusionParams(Fraction(0), 1 / e2, -c2, Fraction(0))
    elif variant == 2:
        dp = DiffusionParams(Fraction(0), Fraction(0), -c2, 2 * ce)
    elif variant == 3:
        dp = DiffusionParams(Fraction(0), 1 / e2, Fraction(0), 2 * ce)
    else:
        raise ValueError("lowmach variant must be 1, 2 or 3, got %r" % (variant,))
    return dimsplit_scheme(params, grid, dp, name="lowmach%d" % variant,
                           claims={"stationarity_preserving": True})


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
    return SchemeSpec(name="multid", params=params, grid=grid, stencil=st,
                      claims={"stationarity_preserving": True, "expected_max_cfl": 1.0},
                      extra={})


CATALOG_NAMES = ("central", "roe", "lowmach1", "lowmach2", "lowmach3", "multid")
SP_NAMES = ("central", "lowmach1", "lowmach2", "lowmach3", "multid")


def make_scheme(name, params, grid, **kwargs):
    if name == "central":
        return central_scheme(params, grid)
    if name == "roe":
        return roe_scheme(params, grid)
    if name in ("lowmach1", "lowmach2", "lowmach3"):
        return lowmach_scheme(params, grid, int(name[-1]))
    if name == "multid":
        return multid_scheme(params, grid)
    if name == "dimsplit":
        dp = DiffusionParams.make(kwargs.get("a1", 0), kwargs.get("a2", 0),
                                  kwargs.get("a3", 0), kwargs.get("a4", 0))
        return dimsplit_scheme(params, grid, dp)
    raise KeyError("unknown scheme %r" % name)


def catalog(params, grid):
    return {name: make_scheme(name, params, grid) for name in CATALOG_NAMES}


def rhs(spec, state):
    """Tendency -sum_S alpha_S q_{I+S} as a FieldSet-shaped object."""
    if state.grid != spec.grid:
        raise ValueError("state grid %r does not match scheme grid %r" % (state.grid, spec.grid))
    return FieldSet.from_q(state.grid, -spec.stencil.apply_sum(state.q))
