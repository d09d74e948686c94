"""Probabilistic radius and the four-way boundedness classification,
with lower-bound witnesses, the convergent-sequence construction and the
compactness decision."""

import math

from pncalc import (
    SequenceSpec,
    all_reals,
    classify_set,
    compactness_probe,
    convergent_set_bound,
    dbounded_witness,
    finite_set,
    interval_rationals,
    make_space,
    prob_radius,
    sequence_image,
)

# -- the whole line can be distributionally bounded ----------------------

e9 = make_space("E9", a=1.0)
rep = classify_set(e9, all_reals())
print("saturating thresholds over the whole line:")
print("  radius =", rep.radius, " class =", rep.cls, " x0 =", rep.witness_x0)

# -- an interval of rationals under the ratio norm -----------------------

iv = interval_rationals(math.sqrt(2.0), math.sqrt(10.0))
rep = classify_set(make_space("E25"), iv)
print("\nrational interval under the ratio norm:")
print("  radius =", rep.radius, " class =", rep.cls, " plateau =", rep.plateau)

# -- plateau norms: only the origin is bounded ---------------------------

e12 = make_space("E12")
print("\nplateau norms:")
print("  {1}:", classify_set(e12, finite_set([1.0])).to_dict())
print("  {m^2, m<=50}:", classify_set(e12, finite_set([float(m * m) for m in range(1, 51)])).cls)
print("  {0}:", classify_set(e12, finite_set([0.0])).cls)

# -- witnesses mirror the classification ---------------------------------

for family, aset in (("E9", all_reals()), ("E12", finite_set([1.0]))):
    wit = dbounded_witness(make_space(family, a=1.0) if family == "E9" else make_space(family), aset)
    print(f"\nlower-bound witness for {family} / {aset.describe()}:",
          wit.g if wit.found else "none")

# -- convergent images are bounded in proper-valued spaces ----------------

harm = SequenceSpec("harmonic")
for family, lam in (("E19", 0.25), ("E25", 0.5), ("E21", 0.25)):
    rep = convergent_set_bound(make_space(family), harm, 0.0, lam=lam)
    label = rep.h if rep.succeeded else rep.status
    print(f"bound for the harmonic image in {family}: {label}")

# -- compactness is decided: exactly the finite sets are compact ----------
# (the whole line is D-bounded in E9, as above, yet not compact)

print("\ncompactness:")
for family, aset in (
    ("E9", sequence_image(SequenceSpec("geometric"))),
    ("E9", all_reals()),
    ("E25", iv),
    ("E19", sequence_image(harm)),
    ("E27", finite_set([-1.0, 0.0, 1.0])),
):
    rep = compactness_probe(make_space(family), aset)
    print(f"  compact={rep.compact}: {rep.reason}")
