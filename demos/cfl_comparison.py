# Maximum stable CFL of the Roe scheme against the multidimensional
# stationarity preserving scheme, on identical vortex data. The averaged
# fluxes halve the effective diffusion per direction, buying a factor two.

from acousticfd import AcousticParams, GridSpec, cfl_sweep, gresho_vortex, make_scheme

grid = GridSpec(50, 50, 0.05, 0.05)
params = AcousticParams(c=1.0, eps=1.0)
state = gresho_vortex(grid)
cfl_grid = [round(0.05 * k, 2) for k in range(1, 25)]

# the largest stable point from one scan of the whole grid per scheme; the scan stops
# there, so the table below runs each point alone, which gives that point's row
reports, rows = {}, {}
for name in ("roe", "multid"):
    spec = make_scheme(name, params, grid)
    reports[name] = cfl_sweep(spec, state.copy(), cfl_grid)
    rows[name] = [cfl_sweep(spec, state.copy(), [cfl])["results"][0] for cfl in cfl_grid]

print("normalization:", reports["roe"]["normalization"])
print()
print("  cfl    roe      multid")
for a, b in zip(rows["roe"], rows["multid"]):
    def mark(r):
        return "stable" if r["stable"] else "-"
    print("  %-5.2f  %-7s  %-7s" % (a["cfl"], mark(a), mark(b)))

roe_max = reports["roe"]["max_stable_cfl"]
multid_max = reports["multid"]["max_stable_cfl"]
print()
print("max stable cfl: roe %.2f, multid %.2f, ratio %.2f"
      % (roe_max, multid_max, multid_max / roe_max))
