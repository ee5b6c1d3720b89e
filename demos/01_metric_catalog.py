"""Tour of the metric catalog: curvature data and the flow condition.

Each model reports exact metric, Christoffel, Ricci and volume data in its
chart, plus the largest eigenvalue of (dg/dt - 2 Ric) in the g-frame: a
nonpositive value means the evolution satisfies dg/dt <= 2 Ric there, the
condition under which the entropy functional is convex.
"""

import numpy as np

from entroflow import geometry
from entroflow.geometry import metric_at, super_ricci_gap

cases = [
    (geometry.line(), np.array([0.3]), "static line"),
    (geometry.space(3), np.array([0.1, -0.4, 0.2]), "static 3-space"),
    (geometry.circle(1.0, -0.1, time_window=(0.0, 1.25)), np.array([1.2]),
     "circle shrinking at rate 0.1"),
    (geometry.sphere2(1.0, 2.0, time_window=(0.0, 1.2)),
     np.array([0.0, 0.6, 0.8]), "sphere under c(t) = 1 + 2t"),
    (geometry.circle(1.0, 0.5), np.array([1.2]), "circle expanding at rate 0.5"),
]

print("model catalog at t = 0.5")
print("-" * 64)
for model, y, label in cases:
    t = 0.5
    data = metric_at(model, t, y)
    gap = super_ricci_gap(model, t, y)
    verdict = model.flow_condition
    print(f"{label:<32} dim {model.dim}")
    print(f"  sqrt(det g) = {data.sqrt_det_g:.6f}   tr dg/dt = {data.tr_dg_dt:+.6f}")
    print(f"  flow condition dg/dt <= 2 Ric: gap = {gap:+.4f}  ({verdict})")

print()
print("why the time derivative of |grad f|^2 carries a minus sign:")
model = geometry.circle(1.0, -0.1, time_window=(0.0, 1.25))
y = np.array([0.7])
df = np.array([1.3])  # a fixed covector, think df of a frozen function
t, h = 0.6, 1e-6


def grad_sq(tt):
    data = metric_at(model, tt, y)
    return float(df @ data.g_inv @ df)


lhs = (grad_sq(t + h) - grad_sq(t - h)) / (2 * h)
data = metric_at(model, t, y)
v = data.g_inv @ df
rhs = -float(v @ data.dg_dt @ v)
print(f"  d/dt |grad f|^2      = {lhs:+.8f}   (finite difference)")
print(f"  -(dg/dt)(grad f, ..) = {rhs:+.8f}   (the inverse metric differentiates)")
