"""Axiom checking across the built-in space catalog, and the scaling
identity that separates the homogeneous families from the rest."""

from pncalc import axiom_suite, make_space, serstnev_check
from pncalc.pnspace import FAMILIES, lg_probe, small_scalar_delta_probe

# -- every built-in pairing satisfies the four axioms --------------------

print("axiom suite over the catalog:")
for family in FAMILIES:
    space = make_space(family)
    rep = axiom_suite(space)
    print(f"  {space.describe():14s} tau={space.tau.describe():16s}"
          f" tau*={space.tau_star.describe():10s} -> {rep.to_dict()}")

# -- the scaling identity nu_{ap}(x) = nu_p(x/|a|) ------------------------

print("\nscaling identity:")
for family in ("E19", "E9", "E12"):
    rep = serstnev_check(make_space(family))
    if rep.holds:
        print(f"  {family}: holds")
    else:
        w = rep.witness
        print(f"  {family}: violated at alpha={w.alpha:g}, p={w.p}, x={w.x:.6g}")

# -- a negative control ---------------------------------------------------

broken = make_space("E19", tau="max", tau_star="max")
rep = axiom_suite(broken)
print("\nstep norms with the pointwise-min tau fail the triangle axiom:",
      {"N3": rep.n3.ok, "witness": rep.n3.violations[0][:2] if rep.n3.violations else None})

# -- vanishing at infinity and the small-scalar threshold -----------------

print("\nnorm vanishes as |p| grows?")
for family in ("E12", "E9"):
    print(f"  {family}: {lg_probe(make_space(family)).has_property}")

print("\nsmall-scalar threshold delta with nu_{alpha p}(h) > 1 - h:")
for family, h in (("E19", 0.5), ("E12", 0.5), ("E21", 0.25)):
    rep = small_scalar_delta_probe(make_space(family), 1.0, h)
    print(f"  {family} at h={h}: {'delta ~ %.6f' % rep.delta if rep.found else 'none found'}")
