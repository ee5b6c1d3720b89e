"""Classifying solutions by entropy growth, and what linear growth forces.

Under dg/dt <= 2 Ric the entropy is convex, so E'(t) has a long-time limit
theta: zero characterizes constants, a finite positive value goes with
exactly linear entropy (which forces a product structure u = psi(y) phi(t)),
and spectral modes drive theta to infinity.  The strict-positivity check
shows when linear entropy is impossible altogether.
"""

import numpy as np

from entroflow import geometry, kernels, solutions
from entroflow.analysis import classify_growth, rigidity_check, separation_test
from entroflow.entropy import entropy_curve

line = geometry.line()
kern = kernels.GaussianKernel(np.array([0.0]), line)
grid = np.geomspace(0.25, 4.0, 16)

print("growth classification over t in [0.25, 4]")
print("-" * 64)
cases = [
    (solutions.Constant(5.0, line), "constant 5"),
    (solutions.ExponentialLine(1.0, 1.0, line), "exp(y - t)"),
    (solutions.ExponentialLine(2.0, 3.0, line), "2 exp(3y - 9t)"),
]
for sol, label in cases:
    curve = entropy_curve(sol, kern, grid, with_conditions=False)
    rep = classify_growth(curve, sup_grad_sample=None, super_ricci_ok=True)
    slope = "-" if rep.slope is None else f"{rep.slope:.6f}"
    print(f"{label:<18} class = {rep.growth_class:<18} theta = {rep.theta:<10.4g} "
          f"slope = {slope}")

circle = geometry.circle(1.0, -0.1, time_window=(0.0, 1.25))
csol = solutions.CircleSpectral(2.0, [(1, 0.5, 0.0)], circle)
ckern = kernels.WrappedGaussianKernel(np.array([0.0]), circle)
ccurve = entropy_curve(csol, ckern, np.geomspace(0.125, 1.25, 12), with_conditions=False)
rep = classify_growth(ccurve, super_ricci_ok=True)
print(f"{'circle mode':<18} class = {rep.growth_class:<18} "
      f"theta -> infinity: {rep.theta_infinite}")

print()
print("linear entropy forces separation of variables")
print("-" * 64)
ts, ys = np.linspace(0.0, 1.0, 6), np.linspace(-1.0, 1.0, 9)
for sol, label in [
    (solutions.ExponentialLine(2.0, 3.0, line), "2 exp(3y - 9t)   (product)"),
    (solutions.SumOfExponentialsLine([(1, 1), (1, 2)], line),
     "exp(y-t) + exp(2y-4t) (not a product)"),
]:
    rep = separation_test(sol, ts, ys)
    print(f"{label:<40} mixed residual = {rep.mixed_residual:.3g} "
          f"separable = {rep.separable}")

print()
print("strict positivity of 2 Ric - dg/dt excludes nonconstant linear entropy")
print("-" * 64)
thetas = np.linspace(0, 2 * np.pi, 9, endpoint=False)[:, None]
for sol, label in [
    (solutions.Constant(3.0, circle), "constant on the shrinking circle"),
    (csol, "spectral mode on the shrinking circle"),
]:
    rep = rigidity_check(sol, ckern, np.geomspace(0.2, 1.2, 6), thetas)
    print(f"{label:<40} margin = {rep.min_margin:.4f}  linear = {rep.entropy_linear}"
          f"  max |grad log u| = {rep.max_grad_log:.4f}  consistent = {rep.consistent}")
