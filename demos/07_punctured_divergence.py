"""The counterexample: bounded entropy with a divergent first variation.

u = 1/|y| is harmonic off the origin of 3-space, hence a static solution of
the backward heat equation on the punctured space.  Its entropy at base
point e1 stays bounded, yet the integral defining E' is infinite: the
first-variation formula genuinely needs the integrability conditions.
Refinement tables shrink the inner cutoff delta toward the puncture.
"""

import numpy as np

from entroflow import geometry, kernels, solutions
from entroflow.analysis import divergence_demo

space = geometry.punctured3()
sol = solutions.RadialHarmonic3(space)
kern = kernels.GaussianKernel(np.array([1.0, 0.0, 0.0]), space)
rep = divergence_demo(sol, kern, 1.0)

print("u = 1/|y| on punctured 3-space, base point (1,0,0), t = 1")
print()
print(f"{'inner cutoff':>14} {'entropy':>14} {'first variation':>16}")
for d, e, p in zip(rep.cutoffs, rep.entropy_values, rep.prime_values):
    print(f"{d:14.0e} {e:14.9f} {p:16.6f}")
print()
print(f"entropy spread across cutoffs: {rep.entropy_spread:.2e}  "
      f"(stable: {rep.entropy_stable})")
print(f"first-variation growth per refinement: "
      + ", ".join(f"{g:.1%}" for g in rep.prime_growths))
print(f"flagged divergent: {rep.prime_divergent}")
print(f"entropy shift when the outer radius doubles: {rep.tail_shift:.2e}")
print(f"classifications stable under mesh doubling: {rep.stable_under_mesh_doubling}")
print()
print("so the identity E'(t) = E[(|grad u|^2/u)(t, X_t)] fails here: the")
print("right side is +infinity while E(t) itself is bounded in t, which is")
print("exactly why the derivative formulas carry integrability hypotheses")
