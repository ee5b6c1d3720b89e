"""Entropy curves: quadrature against Monte Carlo, with the exact answer.

For u = exp(y - t) at base point 0 the entropy is exactly t, its first
variation is 1 and its second vanishes; the general family a exp(by - b^2 t)
gives a(log a + b^2 t).  On the shrinking circle no closed form exists and
the two routes validate each other.  Writes plot-ready CSV files.
"""

import numpy as np

from entroflow import geometry, kernels, solutions, stochastic
from entroflow.entropy import entropy_curve
from entroflow.stochastic import SdeConfig

line = geometry.line()
sol = solutions.ExponentialLine(1.0, 1.0, line)
kern = kernels.GaussianKernel(np.array([0.0]), line)

grid = np.round(np.geomspace(0.25, 4.0, 9), 3)
curve = entropy_curve(sol, kern, grid, with_conditions=True)
ens = stochastic.simulate(
    line, [0.0], 4.0, SdeConfig(dt=1e-3, n_paths=50_000, seed=0xC0FFEE),
    record_times=grid,
)
mc = entropy_curve(sol, ens, grid, with_conditions=False)

print("u = exp(y - t) on the static line: entropy should equal t exactly")
print(f"{'t':>6} {'E quad':>12} {'E mc':>10} {'stderr':>8} {'E-prime':>9} {'cond1':>12}")
for i, t in enumerate(grid):
    print(f"{t:6.3f} {curve.E[i]:12.9f} {mc.E[i]:10.4f} {mc.E_stderr[i]:8.4f} "
          f"{curve.E_prime[i]:9.6f} {curve.cond1[i]:12.4f}")

curve.to_csv("entropy_line.csv")
print("wrote entropy_line.csv")

print()
print("shrinking circle: convex, increasing entropy (no closed form)")
circle = geometry.circle(1.0, -0.1, time_window=(0.0, 1.25))
csol = solutions.CircleSpectral(2.0, [(1, 0.5, 0.0)], circle)
ckern = kernels.WrappedGaussianKernel(np.array([0.0]), circle)
cgrid = np.round(np.linspace(0.125, 1.25, 10), 3)
ccurve = entropy_curve(csol, ckern, cgrid, with_conditions=False)
print(f"{'t':>6} {'E':>12} {'E-prime':>12} {'E-second':>12}")
for i, t in enumerate(cgrid):
    print(f"{t:6.3f} {ccurve.E[i]:12.8f} {ccurve.E_prime[i]:12.8f} "
          f"{ccurve.E_second[i]:12.8f}")
print("min E' =", ccurve.E_prime.min(), " min E'' =", ccurve.E_second.min(),
      " (both nonnegative under the flow condition)")
ccurve.to_csv("entropy_circle.csv")
print("wrote entropy_circle.csv")
