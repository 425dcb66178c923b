# Vortex decay under the Roe scheme across the acoustic scaling parameter.
# The L1 norm of du/dx decays like exp(-lambda t) with lambda ~ 1/eps, so
# each factor-10 drop in eps multiplies the fitted rate by ~10. Writes the
# probe series and final fields as CSV when an output directory is given.

import sys

from acousticfd import AcousticParams, GridSpec, make_scheme, vortex_benchmark

out_dir = sys.argv[1] if len(sys.argv) > 1 else None
grid = GridSpec(50, 50)
cfl = 0.45

print("Roe on the %dx%d vortex, horizon 3*eps at cfl %.2f" % (grid.nx, grid.ny, cfl))
print()
print("  eps     steps   fitted rate   retention of |du/dx|_L1")
rates = {}
for eps in (1.0, 0.1, 0.01):
    spec = make_scheme("roe", AcousticParams(c=1.0, eps=eps), grid)
    entry = vortex_benchmark(spec, 3.0 * eps, cfl=cfl, out_dir=out_dir)["runs"][0]
    rates[eps] = entry["lambda_fit"]
    print("  %-6g  %-6d  %-12.4f  %.3e"
          % (eps, entry["n_steps"], entry["lambda_fit"], entry["dux_retention"]))

print()
for eps in (1.0, 0.1):
    print("rate(%g) / rate(%g) = %.6f" % (eps / 10, eps, rates[eps / 10] / rates[eps]))

# the same runs, rescaled to tau = t/eps, land on one master curve;
# compare any two of the written series to see the collapse
if out_dir:
    print()
    print("series written to", out_dir)
