"""Numeric symbol analysis: evolution matrices, kernel scans, the scaling law.

The evolution matrix of a scheme d/dt q_I + sum_S alpha_S q_{I+S} = 0 is
E(k) = -i sum_S alpha_S tx^sx ty^sy with tm = exp(i k_m dx_m). The scan
cross-checks the exact verdict (`laurent.has_rank_two`) in floats: dim ker E(k)
against dim ker of the continuous generator J.k, both in unitless form:
E^ = (eps/c) T^-1 E T with T = diag(1, 1, c eps) is -i times the symbol of the
scheme's unitless M^ (`SchemeSpec.unitless`), which neither c nor eps enters.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .stencils import MatrixStencil

GUARD = 0.1  # phases closer than this to 0 or pi are degenerate lattice modes


class KernelDimensionError(ValueError):
    def __init__(self, dim):
        super().__init__("kernel dimension is %d, expected 1" % dim)
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


def _radical_inverse(n, base):
    """Halton radical inverses of the indices 1..n: a float array, digit by digit."""
    i = np.arange(1, n + 1)
    r = np.zeros(i.shape)
    f = 1.0
    while i.any():
        f /= base
        # an exhausted index adds f * 0 = +0.0, which leaves its sum as it is
        r += f * (i % base)
        i //= base
    return r


def _fold(u):
    """Map [0,1) onto +-[GUARD, pi - GUARD], sign from the leading bit."""
    w = 2.0 * u - np.floor(2.0 * u)
    return np.where(u < 0.5, 1.0, -1.0) * (GUARD + w * (math.pi - 2.0 * GUARD))


def generic_phases(n=200):
    """Deterministic quasi-random phases avoiding the degenerate guard bands.

    Phase i is the folded Halton pair of index i in bases 2 and 3.
    """
    return list(zip(_fold(_radical_inverse(n, 2)).tolist(),
                    _fold(_radical_inverse(n, 3)).tolist()))


def structured_phases():
    """Axis and diagonal samples at 12 phases; degenerate by design, reported but not judged."""
    out = []
    for t in np.linspace(GUARD, math.pi - GUARD, 12).tolist():
        out += [("axis_x", (t, 0.0)), ("axis_y", (0.0, t)), ("diagonal", (t, t)),
                ("antidiagonal", (t, -t))]
    return out


@dataclass
class SpectralVerdict:
    scheme: str
    scan_verdict: bool
    records: list = field(default_factory=list)
    # no sample is withheld; the field stays because the benchmark's tracer reads it
    withheld: int = 0

    def generic_records(self):
        return [r for r in self.records if r["kind"] == "generic"]

    def to_json_dict(self):
        return {"scheme": self.scheme, "scan_verdict": bool(self.scan_verdict),
                "samples": self.records}


def det_scan(spec, phases=None):
    """Kernel-dimension scan of a scheme over generic phases, then the 48 structured ones.

    Its scan_verdict is true when dim ker E^ equals dim ker J.k at every generic
    sample. The unitless J.k, rows (0, 0, kx), (0, 0, ky), (kx, ky, 0), has rank
    2 for k != 0, so its kernel dimension is 1, or 3 at theta = 0. Structured
    axis/diagonal samples are degenerate lattice phases and never enter it.
    Every sample quantity comes from E^ = -i M^(theta), M^ rounded once to
    floats: one symbol call for the stack, and per sample one SVD (kernel
    dimension and sigma ratio) and one determinant. Each sample is its JSON row,
    where an |det| past the float range is null. A symbol whose exact entries fit
    the float range but whose float sum does not (at subnormal cell widths) is a
    ValueError.
    """
    if phases is None:
        phases = generic_phases()
    samples = [("generic", ph) for ph in phases] + structured_phases()

    thx = np.array([ph[0] for _, ph in samples], dtype=float)
    thy = np.array([ph[1] for _, ph in samples], dtype=float)
    if not np.all((-math.pi < thx) & (thx <= math.pi) & (-math.pi < thy) & (thy <= math.pi)):
        raise ValueError("phases must lie in (-pi, pi]")
    # an overflow is reported once, by the check below, and not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        E = -1j * MatrixStencil(spec.grid, spec.unitless).symbol(thx, thy)
    if not np.isfinite(E).all():
        raise ValueError("the float symbol of %s overflows: its sum over the stencil "
                         "leaves the float range" % spec.name)
    # a singular value at or below 1e-12 times the largest counts as zero
    dims, s = _svd_kernel(E, 1e-12)[:2]
    smax = s[:, 0]
    # LAPACK may return the smallest singular value as -0.0; report the ratio as +0.0
    ratios = np.divide(np.abs(s[:, -1]), smax, out=np.zeros_like(smax), where=smax > 0)
    # |det| from LU, not prod(s): the product turns an exact 0 into roundoff; an LU
    # product past the float range is inf, and a subnormal pivot may divide by zero, all
    # without warnings on stderr
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        absdets = np.abs(np.linalg.det(E))
    cdims = np.where((thx == 0) & (thy == 0), 3, 1)

    columns = zip(samples, absdets.tolist(), ratios.tolist(), dims.tolist(), cdims.tolist())
    records = [{"thx": phx, "thy": phy, "kind": kind,
                "absdet": absdet if math.isfinite(absdet) else None, "sigma_min_ratio": ratio,
                "kernel_dim": dim, "continuous_dim": cdim}
               for (kind, (phx, phy)), absdet, ratio, dim, cdim in columns]
    ok = all(r["kernel_dim"] == r["continuous_dim"] for r in records if r["kind"] == "generic")
    return SpectralVerdict(scheme=spec.name, scan_verdict=ok, records=records)


def eigenvalue_scaling_check(spec):
    """The law M(c, eps) = (c/eps) T M^ T^-1, which scales E's eigenvalues with c/eps, exactly.

    It holds when M^ depends on neither c nor eps. A catalog M^ is fixed, but a
    dimsplit member's is its physical a1..a4 over `diffusion_scale`, powers of c
    and eps, so it holds there only when every a_k is 0.
    """
    return {"passed": spec.name != "dimsplit" or not any(spec.diffusion), "exact": True}
