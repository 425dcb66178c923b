# Numeric kernel-dimension verdicts for every catalog scheme.
# The evolution matrix E(k) of a stationarity preserving scheme keeps a
# one-dimensional kernel at every generic wavevector, matching the
# continuous generator; Roe's upwinding destroys it.

from acousticfd import (
    AcousticParams,
    CATALOG_NAMES,
    GridSpec,
    det_scan,
    generic_phases,
    make_scheme,
)

grid = GridSpec.unit_square(32)
params = AcousticParams(c=1.0, eps=0.1)
phases = generic_phases(200)

print("scheme     claim  verdict  min sigma ratio  max sigma ratio")
for name in CATALOG_NAMES:
    spec = make_scheme(name, params, grid)
    claim = spec.claims["stationarity_preserving"]
    out = det_scan(spec, phases=phases)
    ratios = [r.sigma_ratio for r in out.generic_records()]
    agree = "ok" if out.is_stationarity_preserving == claim else "MISMATCH"
    print("%-9s  %-5s  %-7s  %.3e        %.3e  %s"
          % (name, claim, out.is_stationarity_preserving,
             min(ratios), max(ratios), agree))

print()
print("sigma ratios ~1e-16 mean an exact kernel direction at that phase;")
print("ratios of order one mean the symbol is uniformly invertible there.")

# the dimensionally split family flips between the two worlds on a1 alone
print()
for a1 in (0.0, 0.3):
    spec = make_scheme("dimsplit", params, grid, a1=a1, a2=0.5, a3=0.25, a4=0.4)
    out = det_scan(spec, phases=generic_phases(50))
    print("dimsplit a1=%.1f: stationarity preserving = %s"
          % (a1, out.is_stationarity_preserving))
