"""Strong-topology probes: convergence and Cauchy verdicts, completeness,
norm equivalence decided by the strong-topology class (with a sequence
battery as evidence), and the finite-dimensional comparison constant."""

import math

from pncalc import (
    SequenceSpec,
    cauchy_probe,
    completeness_probe,
    convergence_probe,
    equivalence_probe,
    find_comparison_constant,
    make_space,
    neighborhood_contains,
)

harm = SequenceSpec("harmonic")
geo = SequenceSpec("geometric")

# -- strong neighborhoods -------------------------------------------------

e19 = make_space("E19")
print("0.1 inside the 0.5-neighborhood of 0:", neighborhood_contains(e19, 0.0, 0.1, 0.5))
e21 = make_space("E21")
print("0.1 inside the 0.25-neighborhood of 0 under plateau norms:",
      neighborhood_contains(e21, 0.0, 0.1, 0.25))

# -- the same sequence, two verdicts --------------------------------------

print("\nharmonic sequence toward 0 at level 0.25, horizon 64:")
for space in (e19, e21):
    v = convergence_probe(space, harm, 0.0, (0.25,), 64).per_lambda[0]
    print(f"  {space.describe():4s}: N = {v.n}  (worst margin {v.worst_margin:+.3f})")

# -- Cauchy tails ----------------------------------------------------------

print("\nCauchy verdicts at level 0.25:")
print("  harmonic in E19:", cauchy_probe(e19, harm, (0.25,)).converges)
print("  powers of two in E9:", cauchy_probe(make_space("E9", a=1.0), geo, (0.25,)).converges)

# -- completeness ----------------------------------------------------------

print("\ncompleteness probes:")
for family, seq in (("E19", harm), ("E12", SequenceSpec("geometric_decay"))):
    r = completeness_probe(make_space(family), seq)
    print(f"  {family} / {seq.describe()}: {r.status}", r.limit if r.limit else "")

# -- equivalence: decided by the class, evidenced by the battery -----------

print("\nequivalence experiments:")
for a, b in ((e19, make_space("E19b", a=1.0)), (make_space("E9", a=1.0), make_space("E12")), (e21, e19)):
    rep = equivalence_probe(a, b)
    print(f"  {a.describe()} vs {b.describe()}: {rep.equivalent} ({rep.reason})")
    print(f"    battery agrees: {rep.equivalent_on_battery} | witness: {rep.witness}")

# -- comparison constant against the scalar field ----------------------------

space = make_space("E19", dim=2, base_norm="l2")
found = find_comparison_constant(space, [(1.0, 0.0), (0.0, 1.0)], make_space("E19"))
print(f"\ncomparison constant for the Euclidean plane: c = {found.c:.4f}"
      f"  (the l2 minimum over the l1 sphere is {1.0 / math.sqrt(2.0):.4f})")
