# Exact certification of the divergence operators, printed as a short story.
# Everything here is Fraction arithmetic; no tolerance appears anywhere.

from acousticfd import (
    averaged_div,
    central_div,
    consistency_nullspace,
    consistent_diffusion,
    moore_family,
    moore_symmetry_scan,
    operator_identity_check,
    spans_match,
)

print("1) central divergence: which compact second-derivative operators")
print("   vanish on its kernel?")
basis = consistency_nullspace(central_div(), radius=1)
print("   nullspace dimension = %d (no such diffusion exists)" % len(basis))
print()

print("2) averaged divergence: same question")
basis = consistency_nullspace(averaged_div(), radius=1)
print("   nullspace dimension = %d" % len(basis))
pair = [consistent_diffusion(1, 0), consistent_diffusion(0, 1)]
print("   spans the two consistent diffusions exactly:",
      spans_match(basis, pair))
print()

print("3) telescoping identities tying the diffusions to the divergence")
ident = operator_identity_check()
print("   x identity:", ident["x_identity"])
print("   y identity:", ident["y_identity"])
print("   identities survive swapping in the central divergence:",
      ident["central_substitute"], "(they must not)")
print()

print("4) scan of the symmetric first-order divergence family")
print("   gamma    beta     nullspace dim")
for rec in moore_symmetry_scan():
    mark = "  <- averaged" if rec["is_averaged"] else ""
    print("   %7s  %7s  %d%s" % (rec["gamma"], rec["beta"], rec["dim"], mark))
print()

print("5) the whole family at once, for every gamma and not only the members above")
family = moore_family()
print("   restricted determinant in k = 16 gamma, coefficients of 1, k, k^2, ...: %s"
      % family["det_coefficients"])
print("   its one root: gamma = %s, nullspace dimension %d there"
      % (family["singular_gamma"], family["nullity"]))
print("only gamma = 1/8 admits a stationarity-consistent diffusion, for every gamma")
