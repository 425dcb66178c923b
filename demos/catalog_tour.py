# Walk the scheme catalog: stationarity claim, diffusion
# coefficients, and for the preserving schemes the discrete functional
# their evolution conserves.

from acousticfd import (
    AcousticParams,
    GridSpec,
    catalog,
    diffusion_scale,
    extract_conserved_operator,
    rational_string,
)

grid = GridSpec(16, 16, 1.0 / 16, 1.0 / 16)
params = AcousticParams(c=1.0, eps=0.5)
specs = catalog(params, grid)

print("catalog at c = 1, eps = 1/2")
print()
for name, spec in specs.items():
    claim = ("preserving" if spec.claims["stationarity_preserving"]
             else "diffusive kernel")
    print("%-9s  %s" % (name, claim))
    if spec.diffusion is not None:
        # the physical a1..a4: the unitless ones times (c/eps, 1/eps^2, c^2, c/eps)
        coeffs = ", ".join("a%d=%s" % (k, rational_string(*(a * f).as_integer_ratio()))
                           for k, (a, f)
                           in enumerate(zip(spec.diffusion, diffusion_scale(params)), 1))
        print("           %s" % coeffs)
    if "expected_max_cfl" in spec.claims:
        print("           expected max cfl %s" % spec.claims["expected_max_cfl"])

print()
print("conserved functionals of the preserving schemes")
print("(weights of the discrete operator annihilated by the right-hand side;")
print(" offsets centred on the cell, weights carrying the grid's 1/dx = 16)")
for name, spec in specs.items():
    if not spec.claims["stationarity_preserving"]:
        continue
    wu, wv, wp = extract_conserved_operator(spec)
    print()
    print("%s:" % name)
    for label, row in (("u", wu), ("v", wv), ("p", wp)):
        terms = row.to_json_dict()["entries"]
        if not terms:
            print("  %s-part: 0" % label)
            continue
        body = " + ".join("(%s) %s[%+d,%+d]" % (t["value"], label, t["sx"], t["sy"])
                          for t in terms)
        print("  %s-part: %s" % (label, body))
