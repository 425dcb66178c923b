"""Numeric symbol analysis: evolution matrices, kernel scans, eigenvalue scaling.

The evolution matrix of a scheme d/dt q_I + sum_S alpha_S q_{I+S} = 0 is
E(k) = -i sum_S alpha_S tx^sx ty^sy with tm = exp(i k_m dx_m). A scheme is
stationarity preserving when dim ker E(k) matches dim ker of the continuous
generator J.k at every generic wavevector.
"""

import math
from dataclasses import dataclass, field

import numpy as np

GUARD = 0.1  # phases closer than this to 0 or pi are degenerate lattice modes


def jk_matrix(params, kx, ky):
    """Continuous generator: rows (0,0,kx/eps^2), (0,0,ky/eps^2), (c^2 kx, c^2 ky, 0).

    Array-valued kx, ky give a (..., 3, 3) stack.
    """
    e2 = params.eps ** 2
    c2 = params.c ** 2
    kx, ky = np.broadcast_arrays(np.asarray(kx, dtype=float), np.asarray(ky, dtype=float))
    J = np.zeros(kx.shape + (3, 3))
    J[..., 0, 2] = kx / e2
    J[..., 1, 2] = ky / e2
    J[..., 2, 0] = c2 * kx
    J[..., 2, 1] = c2 * ky
    return J


class KernelDimensionError(ValueError):
    def __init__(self, dim, msg=None):
        super().__init__(msg or "kernel dimension is %d, expected 1" % dim)
        self.dim = dim


def _svd_kernel(mat, tol_rel):
    """One full SVD of a (..., n, n) stack: kernel dimensions, singular values, u, vh.

    The kernel dimension counts singular values at or below tol_rel times the
    largest (all n of them when the matrix is zero). Dimension and kernel
    vectors come from the same factorization, so they cannot disagree.
    """
    u, s, vh = np.linalg.svd(mat)
    dim = np.sum(s <= tol_rel * s[..., :1], axis=-1)
    return dim, s, u, vh


def kernel_dim(mat, tol_rel=1e-12):
    """Number of singular values at or below tol_rel times the largest."""
    return int(_svd_kernel(mat, tol_rel)[0])


def right_kernel(E, tol_rel=1e-12):
    """Unit right-kernel vector of a kernel-dimension-1 matrix."""
    dim, s, u, vh = _svd_kernel(E, tol_rel)
    if dim != 1:
        raise KernelDimensionError(int(dim))
    return vh[-1].conj()


def left_kernel(E, tol_rel=1e-12):
    """Unit row w with w E = 0 for a kernel-dimension-1 matrix."""
    dim, s, u, vh = _svd_kernel(E, tol_rel)
    if dim != 1:
        raise KernelDimensionError(int(dim))
    return u[:, -1].conj()


def halton(index, base):
    """Standard radical-inverse sequence, index starting at 1."""
    f = 1.0
    r = 0.0
    i = index
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def _fold(u):
    """Map [0,1) onto +-[GUARD, pi - GUARD], sign from the leading bit."""
    sign = 1.0 if u < 0.5 else -1.0
    w = 2.0 * u - math.floor(2.0 * u)
    return sign * (GUARD + w * (math.pi - 2.0 * GUARD))


def generic_phases(n=200):
    """Deterministic quasi-random phases avoiding the degenerate guard bands."""
    return [(_fold(halton(i, 2)), _fold(halton(i, 3))) for i in range(1, n + 1)]


def structured_phases(m=12):
    """Axis and diagonal samples; degenerate by design, reported but not judged."""
    vals = np.linspace(GUARD, math.pi - GUARD, m)
    out = []
    for t in vals:
        out.append(("axis_x", (float(t), 0.0)))
        out.append(("axis_y", (0.0, float(t))))
        out.append(("diagonal", (float(t), float(t))))
        out.append(("antidiagonal", (float(t), -float(t))))
    return out


@dataclass
class SampleRecord:
    thx: float
    thy: float
    kind: str
    absdet: float
    sigma_ratio: float
    kernel_dim: int
    continuous_dim: int
    non_diagonalizable: bool

    def to_json_dict(self):
        return {"thx": self.thx, "thy": self.thy, "kind": self.kind,
                "absdet": self.absdet, "sigma_min_ratio": self.sigma_ratio,
                "kernel_dim": self.kernel_dim, "continuous_dim": self.continuous_dim,
                "non_diagonalizable": self.non_diagonalizable}


@dataclass
class SpectralVerdict:
    scheme: str
    is_stationarity_preserving: bool
    records: list = field(default_factory=list)
    withheld: int = 0
    expected: bool = None

    def generic_records(self):
        return [r for r in self.records if r.kind == "generic"]

    def to_json_dict(self):
        return {"scheme": self.scheme,
                "verdict": bool(self.is_stationarity_preserving),
                "expected": self.expected,
                "samples_withheld": self.withheld,
                "samples": [r.to_json_dict() for r in self.records]}


DIAG_COND_LIMIT = 1e8


def det_scan(stencil, grid, params, phases=None, tol_rel=1e-12, structured=True,
             scheme_name="scheme", expected=None):
    """Kernel-dimension scan over generic phases plus reported structured ones.

    The verdict compares dim ker E against dim ker J.k (computed, not assumed)
    at each generic sample; structured axis/diagonal samples are degenerate
    lattice phases and never enter the verdict. All samples are evaluated as
    one stack: one symbol call, and per sample one full SVD (kernel dimension
    and sigma ratio), one determinant and one eig.
    """
    if phases is None:
        phases = generic_phases()
    samples = [("generic", ph) for ph in phases]
    if structured:
        samples += structured_phases()

    thx = np.array([ph[0] for _, ph in samples], dtype=float)
    thy = np.array([ph[1] for _, ph in samples], dtype=float)
    if not np.all((-math.pi < thx) & (thx <= math.pi) & (-math.pi < thy) & (thy <= math.pi)):
        raise ValueError("phases must lie in (-pi, pi]")
    E = -1j * stencil.symbol(thx, thy)
    dims, s = _svd_kernel(E, tol_rel)[:2]
    smax = s[:, 0]
    ratios = np.divide(s[:, -1], smax, out=np.zeros_like(smax), where=smax > 0)
    # |det| from LU, not prod(s): the product turns an exact 0 into roundoff
    absdets = np.abs(np.linalg.det(E))
    cdims = _svd_kernel(jk_matrix(params, thx / grid.dx, thy / grid.dy), 1e-10)[0]
    conds = np.linalg.cond(np.linalg.eig(E)[1])

    records = []
    withheld = 0
    ok = True
    for i, (kind, (phx, phy)) in enumerate(samples):
        dim = int(dims[i])
        cdim = int(cdims[i])
        rec = SampleRecord(thx=phx, thy=phy, kind=kind, absdet=float(absdets[i]),
                           sigma_ratio=float(ratios[i]), kernel_dim=dim, continuous_dim=cdim,
                           non_diagonalizable=bool(conds[i] > DIAG_COND_LIMIT))
        records.append(rec)
        if kind != "generic":
            continue
        if rec.non_diagonalizable:
            withheld += 1
            continue
        if dim != cdim:
            ok = False
    return SpectralVerdict(scheme=scheme_name, is_stationarity_preserving=ok,
                           records=records, withheld=withheld, expected=expected)


def dimsplit_closed_form(params, a1, a2, a3, a4, grid, thx, thy):
    """Evolution matrix of the dimensionally split scheme, written directly in phases.

    Kept independent of the stencil assembly on purpose: the two paths are
    compared term by term in tests.
    """
    c = params.c
    e2 = params.eps ** 2
    dx, dy = grid.dx, grid.dy
    sx = 2j * math.sin(thx)
    sy = 2j * math.sin(thy)
    qx = 2.0 * math.cos(thx) - 2.0
    qy = 2.0 * math.cos(thy) - 2.0
    M = np.array([
        [-a1 * qx / (2 * dx), 0.0, (sx / e2 - a2 * qx) / (2 * dx)],
        [0.0, -a1 * qy / (2 * dy), (sy / e2 - a2 * qy) / (2 * dy)],
        [(c * c * sx - a3 * qx) / (2 * dx), (c * c * sy - a3 * qy) / (2 * dy),
         -a4 * (qx / (2 * dx) + qy / (2 * dy))],
    ], dtype=complex)
    return -1j * M


def dimsplit_right_kernel_formula(params, a3, grid, thx, thy):
    """(a3 Qy - c^2 Sy)/(2dy), -(a3 Qx - c^2 Sx)/(2dx), 0) for a1 = 0 schemes."""
    c2 = params.c ** 2
    sx = 2j * math.sin(thx)
    sy = 2j * math.sin(thy)
    qx = 2.0 * math.cos(thx) - 2.0
    qy = 2.0 * math.cos(thy) - 2.0
    return np.array([(a3 * qy - c2 * sy) / (2 * grid.dy),
                     -(a3 * qx - c2 * sx) / (2 * grid.dx),
                     0.0], dtype=complex)


def _match_scaled(base, scaled, factor):
    """Best permutation matching of scaled against factor*base; max relative error."""
    import itertools
    target = factor * base
    best = None
    scale = max(np.max(np.abs(target)), 1e-300)
    for perm in itertools.permutations(range(len(scaled))):
        err = max(abs(scaled[p] - target[i]) for i, p in enumerate(perm)) / scale
        if best is None or err < best:
            best = err
    return best


def eigenvalue_scaling_check(make_scheme, grid, phases=None, c0=1.0, eps0=1.0,
                             tol=1e-10, collision_tol=1e-8):
    """Eigenvalues of E must scale linearly in c at fixed eps and in 1/eps at fixed c.

    make_scheme(c, eps) builds the scheme; it is called three times, at
    (c0, eps0), (2 c0, eps0) and (c0, eps0/2), and each scheme's eigenvalues
    are taken over all phases at once. Eigenvalues are matched across the
    rescaling by best permutation. Samples whose base eigenvalues collide are
    skipped with a note.
    """
    if phases is None:
        phases = generic_phases(40)
    thx = np.array([ph[0] for ph in phases], dtype=float)
    thy = np.array([ph[1] for ph in phases], dtype=float)

    def spectra(c, eps):
        return np.linalg.eigvals(-1j * make_scheme(c, eps).stencil.symbol(thx, thy))

    bases, twice_cs, half_epss = spectra(c0, eps0), spectra(2 * c0, eps0), spectra(c0, eps0 / 2)
    skipped = []
    max_err = 0.0
    for (thx_i, thy_i), base, twice_c, half_eps in zip(phases, bases, twice_cs, half_epss):
        scale = np.max(np.abs(base))
        gaps = [abs(base[i] - base[j]) for i in range(3) for j in range(i + 1, 3)]
        if scale == 0 or min(gaps) < collision_tol * scale:
            skipped.append({"thx": thx_i, "thy": thy_i, "note": "eigenvalue collision"})
            continue
        max_err = max(max_err, _match_scaled(base, twice_c, 2.0))
        max_err = max(max_err, _match_scaled(base, half_eps, 2.0))
    return {"passed": bool(max_err <= tol), "max_rel_err": float(max_err),
            "tol": tol, "n_samples": len(phases) - len(skipped), "skipped": skipped}
