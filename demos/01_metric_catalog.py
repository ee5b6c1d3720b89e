"""Tour of the metric catalog: the two scalars and the flow condition.

Every model is g(t) = c(t) g0 with Ric(g0) = K g0, so g, g^-1, dg/dt and
Ric are c, 1/c, rate and K times the identity.  Each model prints those
scalars and the super-Ricci gap (rate - 2K) / c(t), the largest eigenvalue
of (dg/dt - 2 Ric) in the g-frame: a nonpositive value means the evolution
satisfies dg/dt <= 2 Ric, the condition under which the entropy functional
is convex.
"""

from entroflow import geometry

cases = [
    (geometry.line(), "static line"),
    (geometry.space(3), "static 3-space"),
    (geometry.circle(1.0, -0.1, time_window=(0.0, 1.25)), "circle shrinking at rate 0.1"),
    (geometry.sphere2(1.0, 2.0, time_window=(0.0, 1.2)), "sphere under c(t) = 1 + 2t"),
    (geometry.circle(1.0, 0.5), "circle expanding at rate 0.5"),
]

t = 0.5
print(f"model catalog at t = {t}")
print("-" * 64)
for model, label in cases:
    c = float(model.conformal(t))
    gap = model.super_ricci_gap(t)
    print(f"{label:<32} dim {model.dim}")
    print(f"  c = {c:.6f}   1/c = {1.0 / c:.6f}   rate = {model.rate:+.4f}   "
          f"K = {model.ricci_constant:g}")
    print(f"  flow condition dg/dt <= 2 Ric: gap = {gap:+.4f}  ({model.flow_condition})")

print()
print("why the time derivative of |grad f|^2 carries a minus sign:")
model = geometry.circle(1.0, -0.1, time_window=(0.0, 1.25))
df = 1.3  # a fixed covector, think df of a frozen function
t, h = 0.6, 1e-6


def grad_sq(tt):
    # |df|^2 in the metric c(tt) dtheta^2
    return df * df / float(model.conformal(tt))


lhs = (grad_sq(t + h) - grad_sq(t - h)) / (2 * h)
c = float(model.conformal(t))
rhs = -model.rate * df * df / (c * c)
print(f"  d/dt |grad f|^2      = {lhs:+.8f}   (finite difference)")
print(f"  -(dg/dt)(grad f, ..) = {rhs:+.8f}   (the inverse metric differentiates)")
