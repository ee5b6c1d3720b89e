"""Catalog of time-dependent metric families and their curvature data.

Every model is a conformal evolution ``g(t) = c(t) g0`` with
``c(t) = c0 + rate*t`` affine (``c0 = 1``, ``rate = 0`` on the static flat
kinds) and ``g0`` flat or round, so ``Ric(g0) = K g0`` for one constant
``K``: 1 on the unit sphere, 0 elsewhere.  Each model fixes a chart:

* ``euclidean-line`` / ``euclidean-space:n`` / ``punctured-3`` --
  Cartesian coordinates, static flat metric.
* ``circle:c0,rate`` -- angle chart ``theta`` with metric ``c(t) dtheta^2``.
* ``sphere2:c0,rate`` -- points are unit vectors in 3-space; a tangent
  vector is read in the orthonormal frame of `tangent_frame` at its point,
  where the round metric is the identity.

In every gauge ``g``, ``g^-1``, ``dg/dt`` and ``Ric`` are ``c(t)``,
``1/c(t)``, ``rate`` and ``K`` times the identity, and the Christoffel
symbols vanish.  So `MetricModel`'s scalars (``c0``, ``rate``,
``ricci_constant``) and its methods (``conformal``, ``time_change``,
``super_ricci_gap``, ``flow_condition``, the window and chart checks) are
the whole geometry API: no tensor is built per point.  The affine ``c``
keeps the time change ``s(t) = integral_0^t c(sigma)^-1 dsigma`` in
closed form.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ChartViolation, OutOfWindow

EUCLIDEAN_LINE = "euclidean-line"
EUCLIDEAN_SPACE = "euclidean-space"
PUNCTURED_3 = "punctured-3"
CIRCLE = "circle"
SPHERE_2 = "sphere2"

_CONFORMAL_KINDS = (CIRCLE, SPHERE_2)

# the manifold dimension of each kind; euclidean-space takes any n >= 1
_FIXED_DIMS = {EUCLIDEAN_LINE: 1, PUNCTURED_3: 3, CIRCLE: 1, SPHERE_2: 2}

# paths closer to the puncture than this are treated as having left the chart
PUNCTURE_RADIUS = 1e-8

# rate - 2K within this of zero is the equality case dg/dt = 2 Ric
_GAP_TOL = 1e-12

# a time this close past the window counts as inside it, and two times this
# close as one (a snapshot, a cut-off, nested exit times)
TIME_TOL = 1e-12


def finite_params(what, values):
    """The values as a tuple of floats; ValueError unless each is finite."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or not np.all(np.isfinite(vals)):
        raise ValueError(f"{what} must be finite numbers, got {values!r}")
    return tuple(float(v) for v in vals)


@dataclass(frozen=True)
class MetricModel:
    """One member of the analytic metric catalog."""

    kind: str
    dim: int
    c0: float = 1.0
    rate: float = 0.0
    time_window: tuple[float, float] = (0.0, 8.0)

    def __post_init__(self):
        dim = self.dim
        whole = isinstance(dim, numbers.Integral) and not isinstance(dim, bool)
        if self.kind == EUCLIDEAN_SPACE:
            if not (whole and dim >= 1):
                raise ValueError(f"{self.kind} needs a whole dimension >= 1, got {dim!r}")
        elif self.kind not in _FIXED_DIMS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        elif not (whole and dim == _FIXED_DIMS[self.kind]):
            raise ValueError(
                f"{self.kind} has dimension {_FIXED_DIMS[self.kind]}, got {dim!r}"
            )
        t0, t1 = self.time_window
        finite_params("c0, rate and the time window ends", (self.c0, self.rate, t0, t1))
        if not (0.0 <= t0 < t1):
            raise ValueError(f"invalid time window {self.time_window}")
        if self.kind in _CONFORMAL_KINDS:
            if self.min_conformal <= 0:
                raise ValueError(
                    f"conformal factor must stay positive on {self.time_window}"
                )
        elif not (self.c0 == 1.0 and self.rate == 0.0):
            raise ValueError(f"{self.kind} does not take a conformal factor")

    def conformal(self, t):
        """Conformal factor c(t) = c0 + rate*t; identically 1 on the flat kinds."""
        return self.c0 + self.rate * np.asarray(t, dtype=float)

    @property
    def min_conformal(self):
        """The least c(t) on the window; c is affine, so it is taken at an end."""
        return min(float(self.conformal(t)) for t in self.time_window)

    @property
    def dim_chart(self):
        """Length of a chart point: the manifold dimension, but 3 for the
        sphere, whose points live in the 3-space embedding."""
        return 3 if self.kind == SPHERE_2 else self.dim

    @property
    def ricci_constant(self):
        """K with Ric(g0) = K g0: 1 on the sphere, 0 on the other kinds."""
        return 1.0 if self.kind == SPHERE_2 else 0.0

    @property
    def flow_condition(self):
        """Classify dg/dt <= 2 Ric: 'satisfied', 'equality' or 'violated'.

        The gap (rate - 2K) / c(t) has the sign of rate - 2K at every (t, y),
        as c > 0 on the window; rate - 2K within +-_GAP_TOL (1e-12) of zero
        counts as the equality case.
        """
        gap = self.rate - 2.0 * self.ricci_constant
        if abs(gap) <= _GAP_TOL:
            return "equality"
        return "satisfied" if gap < 0 else "violated"

    def super_ricci_gap(self, t):
        """Largest eigenvalue of (dg/dt - 2 Ric) in the g-orthonormal frame.

        Both tensors are multiples of g, so this is (rate - 2K) / c(t) at
        every point.  A value <= 0 means the evolution satisfies
        dg/dt <= 2 Ric at t; exactly 0 is the equality case.
        """
        self.check_time(t)
        return float((self.rate - 2.0 * self.ricci_constant) / self.conformal(t))

    def time_change(self, t):
        """Clock s(t) = integral of 1/c over [0, t], in closed form."""
        t = np.asarray(t, dtype=float)
        if self.kind not in _CONFORMAL_KINDS or self.rate == 0.0:
            return t / self.c0 if self.kind in _CONFORMAL_KINDS else t + 0.0
        return np.log1p(self.rate * t / self.c0) / self.rate

    def check_time(self, t):
        t0, t1 = self.time_window
        tarr = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(tarr)):
            raise OutOfWindow(f"t={t} is not a finite time")
        if np.any(tarr < t0 - TIME_TOL) or np.any(tarr > t1 + TIME_TOL):
            raise OutOfWindow(f"t={t} outside window [{t0}, {t1}] of {self.kind}")

    def check_point(self, y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if y.shape != (self.dim_chart,):
            raise ChartViolation(
                f"expected chart point of shape ({self.dim_chart},), got {y.shape}"
            )
        if not np.all(np.isfinite(y)):
            raise ChartViolation(f"chart points must be finite, got {y.tolist()}")
        if self.kind == PUNCTURED_3:
            if np.linalg.norm(y) <= PUNCTURE_RADIUS:
                raise ChartViolation("point at or inside the puncture radius")
        elif self.kind == SPHERE_2:
            if abs(np.linalg.norm(y) - 1.0) > 1e-6:
                raise ChartViolation("sphere points must be unit vectors")
        return y


def line():
    return MetricModel(EUCLIDEAN_LINE, dim=1)


def space(n):
    """Flat n-space; n must be a whole number >= 1, as `MetricModel` asks."""
    if isinstance(n, numbers.Real) and float(n).is_integer() and not isinstance(n, bool):
        n = int(n)
    return MetricModel(EUCLIDEAN_SPACE, dim=n)


def punctured3():
    return MetricModel(PUNCTURED_3, dim=3)


def circle(c0=1.0, rate=0.0, time_window=None):
    if time_window is None:
        time_window = _default_conformal_window(c0, rate)
    return MetricModel(CIRCLE, dim=1, c0=c0, rate=rate, time_window=time_window)


def sphere2(c0=1.0, rate=0.0, time_window=None):
    if time_window is None:
        time_window = _default_conformal_window(c0, rate)
    return MetricModel(SPHERE_2, dim=2, c0=c0, rate=rate, time_window=time_window)


def _default_conformal_window(c0, rate):
    if rate < 0:
        # keep a 10% safety margin from the degeneration time
        return (0.0, 0.9 * (-c0 / rate))
    return (0.0, 8.0)


def parse_model(spec: str, time_window=None) -> MetricModel:
    """Resolve a catalog id like ``"circle:1,-0.1"`` to a model.

    The forms are those of `CATALOG_IDS`; a spec with the wrong number of
    parameters, or parameters that are not numbers, raises ValueError.
    """
    import dataclasses

    head, sep, args = spec.partition(":")
    head = head.strip()
    usage = {form.partition(":")[0]: form for form in CATALOG_IDS}.get(head)
    if usage is None:
        raise ValueError(f"unknown model id {spec!r}")
    n_params = usage.count(",") + 1 if ":" in usage else 0
    try:
        vals = [float(v) for v in args.split(",")] if sep else []
    except ValueError:
        vals = []
    if len(vals) != n_params or (head == EUCLIDEAN_SPACE and not vals[0].is_integer()):
        raise ValueError(f"model {spec!r} does not read {usage}")
    if head == EUCLIDEAN_LINE:
        model = line()
    elif head == EUCLIDEAN_SPACE:
        model = space(int(vals[0]))
    elif head == PUNCTURED_3:
        model = punctured3()
    else:
        maker = circle if head == CIRCLE else sphere2
        return maker(*vals, time_window=time_window)
    if time_window is not None:
        model = dataclasses.replace(model, time_window=tuple(time_window))
    return model


def tangent_frame(y):
    """Deterministic orthonormal basis of the tangent plane at unit y."""
    y = np.asarray(y, dtype=float)
    helper = np.array([0.0, 0.0, 1.0]) if abs(y[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(helper, y)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(y, e1)
    return e1, e2


def tangent_frames(pts):
    """Vectorized `tangent_frame` for an (n, 3) array of unit points.

    Works column by column: ``np.cross`` and a norm over a length-3 axis
    are numpy's slowest paths, about three times the cost of the same
    arithmetic on whole columns.  The bits are those of the ``np.cross`` /
    ``np.linalg.norm`` form: `_cross_columns` forms the same products and
    differences, and the squared norm is summed left to right,
    ``(a0*a0 + a1*a1) + a2*a2``, the order numpy's length-3 sum takes.
    The helper's zero component is multiplied out, not skipped, so the
    signs of zero results match too.
    """
    pts = np.asarray(pts, dtype=float)
    p = tuple(pts.T)
    # helper (0, 0, 1) away from the poles, (1, 0, 0) near them
    h2 = (np.abs(p[2]) < 0.9).astype(float)
    e1 = _cross_columns((1.0 - h2, 0.0, h2), p)
    a = tuple(e1.T)
    e1 /= np.sqrt((a[0] * a[0] + a[1] * a[1]) + a[2] * a[2])[:, None]
    return e1, _cross_columns(p, a)


def _cross_columns(a, b):
    """``np.cross`` of the column triples a and b, as an (n, 3) array."""
    out = np.empty((b[0].size, 3))
    out[:, 0] = a[1] * b[2] - a[2] * b[1]
    out[:, 1] = a[2] * b[0] - a[0] * b[2]
    out[:, 2] = a[0] * b[1] - a[1] * b[0]
    return out


# ---------------------------------------------------------------------------
# finite-difference Laplacian
#
# The curvature factors of the integrand layers are scalars of t alone,
# g^{ij} = delta^{ij} / c(t), Ric = K delta and dg/dt = rate * delta in
# every gauge, so those layers read ``1 / model.conformal(t)``,
# ``model.ricci_constant`` and ``model.rate`` and build no per-point arrays.


def _second_derivative(func, f0, curve, h):
    """Fourth-order central second derivative of ``func(curve(s))`` at s = 0,
    where ``f0 = func(curve(0))``, from samples at s = -2h, -h, 0, h, 2h."""
    m2, m1, p1, p2 = (func(curve(s * h)) for s in (-2, -1, 1, 2))
    return (-m2 + 16.0 * m1 - 30.0 * f0 + 16.0 * p1 - p2) / (12.0 * h * h)


def fd_laplacian(model: MetricModel, t, y, func, h=4e-4):
    """Finite-difference Laplace-Beltrami of a scalar ``func(point)`` at y.

    Differentiates along straight chart lines (flat charts, circle)
    or great circles (sphere) and divides by c(t), which is exact for the
    catalog since none of the gauges carries first-order correction terms;
    the stencil is fourth order so the check stays below 1e-6 even for the
    singular radial solution near the puncture.
    """
    model.check_time(t)
    y = model.check_point(y)
    if model.kind == SPHERE_2:
        curves = [lambda s, e=e: math.cos(s) * y + math.sin(s) * e for e in tangent_frame(y)]
    else:
        curves = [lambda s, e=e: y + s * e for e in np.eye(model.dim)]
    f0 = func(y)
    acc = sum(_second_derivative(func, f0, curve, h) for curve in curves)
    return acc / float(model.conformal(t))


CATALOG_IDS = (
    "euclidean-line",
    "euclidean-space:n",
    "punctured-3",
    "circle:c0,rate",
    "sphere2:c0,rate",
)
