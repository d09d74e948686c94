"""Tour of the distribution-function algebra.

Builds the four representations, evaluates them with the left-continuous
step convention, compares them in the pointwise order, and measures
weak-convergence distances.
"""

import math

import numpy as np

from pncalc import EPS0, EPS_INF, Grid, Plateau, Ratio, compare_leq, eps, levy_dist

# -- the four families -------------------------------------------------

e1 = eps(1.0)                      # unit step at 1
half = Plateau(0.5)                # constant 1/2 on (0, inf)
curve = Ratio(2.0)                 # x / (x + 2)
sampled = Grid((0.5, 1.0, 2.0), (0.1, 0.4, 0.9))

print("step at 1:     F(1) =", e1(1.0), "  F(1+) =", e1(1.0 + 1e-9))
print("plateau 0.5:   F(10) =", half(10.0), "  F(+inf) =", half(math.inf))
print("ratio beta=2:  F(2) =", curve(2.0))
print("sampled:       F(1.5) =", sampled(1.5))

# -- pointwise order ---------------------------------------------------

print("\nstep at 2 <= step at 1:", compare_leq(eps(2.0), eps(1.0)).holds)
print("everything <= unit step at 0:",
      all(compare_leq(f, EPS0).holds for f in (e1, half, curve, sampled, EPS_INF)))

c = compare_leq(eps(1.0), eps(2.0))
# the first float where the gap is attained: the one just past the jump at 1
print(f"violation witness for step(1) <= step(2): x = {c.witness!r}"
      f" (the first float above 1), gap = {c.gap}")

# -- weak convergence --------------------------------------------------

print("\nLevy-Sibley distances to the maximal element:")
for n in (2, 4, 16, 64):
    print(f"  step at 1/{n}: {levy_dist(eps(1.0 / n), EPS0):.6f}")

# -- argument scaling --------------------------------------------------

print("\nscaling the argument: step(1) scaled by 3 =", e1.scale_arg(3.0))
print("ratio(2) scaled by 2 =", curve.scale_arg(2.0))

# -- properness --------------------------------------------------------

print("\nproper (no mass at infinity)?")
for name, f in [("step(1)", e1), ("plateau(0.5)", half), ("ratio(2)", curve)]:
    print(f"  {name}: {f.in_d_plus()}")
