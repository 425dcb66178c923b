# Kernel verdicts for every catalog scheme, exact and numeric.
# A stationarity preserving scheme's symbol M^ has rank 2 over the Laurent
# polynomials, so its evolution matrix E(k) keeps a one-dimensional kernel at
# every generic wavevector, matching the continuous generator; Roe's upwinding
# destroys it. The exact rank decides; the float scan of E(k) cross-checks it.

from acousticfd import (
    AcousticParams,
    CATALOG_NAMES,
    GridSpec,
    det_scan,
    has_rank_two,
    make_scheme,
)

grid = GridSpec(32, 32)
params = AcousticParams(c=1.0, eps=0.1)

print("scheme     claim  exact  scan   min sigma ratio  max sigma ratio")
for name in CATALOG_NAMES:
    spec = make_scheme(name, params, grid)
    claim = spec.claims["stationarity_preserving"]
    exact = has_rank_two(spec.unitless)
    out = det_scan(spec)
    ratios = [r["sigma_min_ratio"] for r in out.generic_records()]
    agree = "ok" if exact == claim else "MISMATCH"
    print("%-9s  %-5s  %-5s  %-5s  %.3e        %.3e  %s"
          % (name, claim, exact, out.scan_verdict, min(ratios), max(ratios), agree))

print()
print("sigma ratios ~1e-16 mean an exact kernel direction at that phase;")
print("ratios of order one mean the symbol is uniformly invertible there.")

# the dimensionally split family flips between the two worlds on a1 alone; at
# a1 = 1e-154 the flip lies below the scan's relative tolerance of 1e-12
print()
for a1 in (0.0, 0.3, 1e-154):
    spec = make_scheme("dimsplit", params, grid, a1=a1, a2=0.5, a3=0.25, a4=0.4)
    out = det_scan(spec)
    print("dimsplit a1=%-6.3g: stationarity preserving = %-5s (scan: %s)"
          % (a1, has_rank_two(spec.unitless), out.scan_verdict))
