"""Closed-form solutions of du/dt + Lap u = 0 and their heat kernels.

Every member of the solution catalog carries exact jets, so the equation
residual and the two pointwise evolution identities can be checked to
floating-point accuracy; every kernel integrates to one against the
evolving volume, the numerical stand-in for non-explosion.
"""

import numpy as np

from entroflow import geometry, kernels, solutions
from entroflow.kernels import adjoint_residual, kernel_mass
from entroflow.solutions import backward_residual, bochner_identities

line = geometry.line()
circle = geometry.circle(1.0, -0.1, time_window=(0.0, 1.25))
sphere = geometry.sphere2(1.0, 2.0, time_window=(0.0, 1.2))

catalog = [
    (solutions.ExponentialLine(1.0, 1.0, line), np.array([1.0]), "exp(y - t)"),
    (solutions.ExponentialLine(2.0, 3.0, line), np.array([0.2]), "2 exp(3y - 9t)"),
    (solutions.SumOfExponentialsLine([(1, 1), (1, 2)], line), np.array([-0.5]),
     "exp(y-t) + exp(2y-4t)"),
    (solutions.CircleSpectral(2.0, [(1, 0.5, 0.0)], circle), np.array([2.0]),
     "2 + 0.5 e^{s(t)} cos(theta)"),
    (solutions.SphereSpectral(2.0, [(1, 0.5)], sphere),
     np.array([0.0, 0.6, 0.8]), "2 + 0.5 e^{2 s(t)} (y . e3)"),
    (solutions.RadialHarmonic3(geometry.punctured3()),
     np.array([1.0, 0.0, 0.0]), "1 / |y|"),
]

print("solution catalog at t = 0.5")
print("-" * 72)
for sol, y, label in catalog:
    u = sol.value(0.5, y[None, :])[0]
    gterm = sol.grad_term(0.5, y[None, :])[0]
    res = backward_residual(sol, 0.5, y)
    r1, r2 = bochner_identities(sol, 0.5, y)
    print(f"{label:<28} u = {u:9.5f}  |grad u|^2/u = {gterm:9.5f}")
    print(f"{'':<28} equation residual {res:.2e}   identities {r1:.2e}, {r2:.2e}")

print()
print("kernel masses (the non-explosion check) and adjoint-equation residuals")
print("-" * 72)
kernel_cases = [
    (kernels.GaussianKernel(np.array([0.0]), line), np.array([1.0]),
     "Gaussian on the line"),
    (kernels.WrappedGaussianKernel(np.array([0.0]), circle), np.array([2.0]),
     "wrapped Gaussian on the circle"),
    (kernels.SphereHeatKernel(np.array([1.0, 0, 0]), sphere),
     np.array([0.0, 0.6, 0.8]), "zonal series on the sphere"),
]
for kern, y, label in kernel_cases:
    for t in (0.5, 1.0):
        mass = kernel_mass(kern, t)
        res = adjoint_residual(kern, t, y)
        print(f"{label:<32} t={t:<4} mass = {mass:.12f}  residual {res:.2e}")
