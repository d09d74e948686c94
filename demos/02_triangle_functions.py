"""Convolutions on the distribution-function space.

Shows the exact step path (thresholds add), the sampled path for smooth
operands, the dominance of the pointwise-min triangle function, and the
law suite on random step operands.
"""

import numpy as np

from pncalc import Plateau, Ratio, eps, get_tnorm, max_tf
from pncalc.triangle import inf_conv, parse_triangle, sup_conv, tf_law_suite

prod = get_tnorm("prod")

# -- exact path on steps ------------------------------------------------

print("sup-convolution of steps adds thresholds:")
for name in ("min", "prod", "lukasiewicz"):
    print(f"  {name}: step(1) * step(2) =", sup_conv(get_tnorm(name), eps(1.0), eps(2.0)))

print("inf-convolution mirror:", inf_conv(get_tnorm("lukasiewicz"), eps(1.0), eps(2.0)))
print("pointwise-min cap:     ", max_tf(eps(1.0), eps(2.0)))

# -- plateaus combine through the t-norm --------------------------------

print("\nplateaus: sup under prod of levels 0.5, 0.5 ->",
      sup_conv(prod, Plateau(0.5), Plateau(0.5)))
# the inf path is capped by endpoint splits where one operand is still 0,
# so equal plateaus come back unchanged
print("plateaus: inf under prod* of levels 0.5, 0.5 ->",
      inf_conv(prod, Plateau(0.5), Plateau(0.5)))

# -- smooth operands take the lazy sampled path --------------------------

r = sup_conv(prod, Ratio(1.0), Ratio(2.0))
print("\nratio * ratio under prod, evaluated on demand:")
for x in (0.5, 2.0, 8.0, 32.0):
    print(f"  x={x:5.1f}: {r(x):.6f}")
print("plateau of the result (structural):", r.plateau)

# -- dominance ------------------------------------------------------------

xs = np.geomspace(0.01, 50.0, 9)
cap = max_tf(Ratio(1.0), Ratio(2.0))
print("\nsup-convolution stays below the pointwise min:",
      bool(np.all(r.eval_many(xs) <= cap.eval_many(xs) + 1e-9)))

# -- the law suite -------------------------------------------------------

specs = ("sup:prod", "sup:min", "max")
for spec, rep in zip(specs, tf_law_suite(map(parse_triangle, specs), n_samples=50, seed=7)):
    print(f"\nlaw suite for {spec}:", rep.to_dict())
