"""Heat-kernel densities of the time-changed Brownian motion.

``density(t, pts)`` is the law of the process at time t written against the
evolving Riemannian volume, so it solves the adjoint equation
``dp/dt = Lap p - (1/2) tr(dg/dt) p`` and integrates to one whenever the
motion does not explode.  Closed forms:

* flat space: the Gaussian ``(4 pi t)^(-n/2) exp(-|y-x|^2 / 4t)`` (variance
  2t per direction, matching the generator ``Lap`` rather than ``Lap/2``);
* conformal circle: a wrapped Gaussian in the clock ``s(t)`` with density
  prefactor ``c(t)^(-1/2)``;
* conformal 2-sphere: the zonal eigenfunction series in the clock ``s(t)``
  with prefactor ``c(t)^(-1)``.

Each kernel refuses ``t <= 0``, where the law is a point mass.
"""

from __future__ import annotations

import math

import numpy as np

from . import geometry, quadrature
from .geometry import MetricModel
from .solutions import _fd_time, sum_squares, time_step

_SERIES_TAIL = 1e-17
_SERIES_LMAX = 6000


def _positive_time(t):
    """t as a float array; ValueError unless every entry is > 0."""
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0):
        raise ValueError(f"heat kernels need t > 0, got t={t}")
    return t


class HeatKernelField:
    """Base class; density and Laplacian against the evolving volume."""

    model: MetricModel
    base_point: np.ndarray

    def density(self, t, pts):
        raise NotImplementedError

    def laplacian(self, t, pts):
        """Lap_{g(t)} of the density, used by the adjoint-equation check."""
        raise NotImplementedError


class GaussianKernel(HeatKernelField):
    """Free heat kernel on flat n-space (and punctured 3-space)."""

    def __init__(self, x, model=None):
        self.model = model if model is not None else geometry.line()
        if self.model.kind not in (
            geometry.EUCLIDEAN_LINE,
            geometry.EUCLIDEAN_SPACE,
            geometry.PUNCTURED_3,
        ):
            raise ValueError("Gaussian kernels live on the flat catalog models")
        self.base_point = self.model.check_point(x)

    def _r2(self, pts):
        """|y - x|^2 per point, one chart column at a time; `sum_squares`
        adds the squares as ``np.sum(d * d, axis=-1)`` does, without the
        (n, dim) differences and squares."""
        pts = np.asarray(pts, dtype=float)
        return sum_squares([pts[..., j] - x for j, x in enumerate(self.base_point)])

    def density(self, t, pts):
        t = _positive_time(t)
        r2 = self._r2(pts)
        n = self.model.dim
        return (4.0 * np.pi * t) ** (-0.5 * n) * np.exp(-r2 / (4.0 * t))

    def laplacian(self, t, pts):
        t = _positive_time(t)
        r2 = self._r2(pts)
        n = self.model.dim
        return self.density(t, pts) * (r2 / (4.0 * t * t) - n / (2.0 * t))


class WrappedGaussianKernel(HeatKernelField):
    """Wrapped Gaussian on the conformal circle, in the clock s(t)."""

    def __init__(self, x, model):
        if model.kind != geometry.CIRCLE:
            raise ValueError("wrapped kernels require a circle model")
        self.model = model
        self.base_point = model.check_point(x)

    def _wrap_terms(self, t, pts):
        t = _positive_time(t)
        s = float(self.model.time_change(float(np.max(t))))
        k_max = int(math.ceil((math.pi + math.sqrt(160.0 * s)) / (2.0 * math.pi))) + 1
        s_arr = self.model.time_change(t)
        th = np.asarray(pts)[:, 0]
        # reduce to the principal branch first so arbitrary unwrapped angles
        # land inside the finite wrap window
        d0 = np.mod(th - self.base_point[0] + np.pi, 2.0 * np.pi) - np.pi
        wraps = 2.0 * np.pi * np.arange(-k_max, k_max + 1)
        d = d0[..., None] + wraps
        if np.ndim(s_arr):
            s_arr = s_arr[..., None]
        return d, s_arr

    def density(self, t, pts):
        d, s = self._wrap_terms(t, pts)
        q = np.exp(-d * d / (4.0 * s)).sum(-1) / np.sqrt(4.0 * np.pi * s).squeeze()
        c = self.model.conformal(np.asarray(t, dtype=float))
        return q / np.sqrt(c)

    def laplacian(self, t, pts):
        d, s = self._wrap_terms(t, pts)
        gauss = np.exp(-d * d / (4.0 * s)) / np.sqrt(4.0 * np.pi * s)
        qtt = ((d * d / (4.0 * s * s) - 1.0 / (2.0 * s)) * gauss).sum(-1)
        c = self.model.conformal(np.asarray(t, dtype=float))
        return qtt / (c * np.sqrt(c))


class SphereHeatKernel(HeatKernelField):
    """Zonal series kernel on the conformal 2-sphere, in the clock s(t)."""

    def __init__(self, x, model):
        if model.kind != geometry.SPHERE_2:
            raise ValueError("series kernels require a sphere model")
        self.model = model
        x = model.check_point(x)
        self.base_point = x / np.linalg.norm(x)

    def density(self, t, pts):
        k = self._legendre_sum(t, pts, eig_weight=False)
        return k / float(self.model.conformal(t))

    def laplacian(self, t, pts):
        k = self._legendre_sum(t, pts, eig_weight=True)
        return k / float(self.model.conformal(t)) ** 2

    def _legendre_sum(self, t, pts, eig_weight):
        """sum_l weight_l P_l(x . base), with P_l by the three-term recurrence.

        Every step runs in place on three recurrence buffers beside ``dots``
        and ``out``, so no node-sized array is allocated per term; each
        value is the one ``out += weight * p_ell`` and ``((2l+1) x p_cur -
        l p_prev) / (l+1)`` give, as the operations are the same and a
        product with a scalar commutes.
        """
        t = float(_positive_time(t))
        s = float(self.model.time_change(t))
        dots = np.clip(np.asarray(pts, dtype=float) @ self.base_point, -1.0, 1.0)
        out = np.zeros_like(dots)
        p_prev = np.ones_like(dots)  # P_0
        p_cur = dots.copy()  # P_1
        scratch = np.empty_like(dots)
        ell = 0
        p_ell = p_prev
        while True:
            coeff = (2 * ell + 1) / (4.0 * np.pi) * math.exp(-ell * (ell + 1) * s)
            weight = -ell * (ell + 1) * coeff if eig_weight else coeff
            out += np.multiply(p_ell, weight, out=scratch)
            bound = (2 * ell + 3) / (4.0 * np.pi) * math.exp(-(ell + 1) * (ell + 2) * s)
            if eig_weight:
                bound *= (ell + 1) * (ell + 2)
            if ell >= 8 and bound < _SERIES_TAIL:
                break
            if ell >= _SERIES_LMAX:
                raise ValueError("series did not converge; t is too small")
            if ell >= 1:
                # P_{l+1} into scratch; P_{l-1}'s buffer is the next scratch
                np.multiply(dots, 2 * ell + 1, out=scratch)
                scratch *= p_cur
                p_prev *= ell
                scratch -= p_prev
                scratch /= ell + 1
                p_prev, p_cur, scratch = p_cur, scratch, p_prev
            p_ell = p_cur
            ell += 1
        return out


def canonical_kernel(model: MetricModel, x) -> HeatKernelField:
    """The kernel the catalog associates with a model, started at x."""
    if model.kind in (
        geometry.EUCLIDEAN_LINE,
        geometry.EUCLIDEAN_SPACE,
        geometry.PUNCTURED_3,
    ):
        return GaussianKernel(x, model)
    if model.kind == geometry.CIRCLE:
        return WrappedGaussianKernel(x, model)
    if model.kind == geometry.SPHERE_2:
        return SphereHeatKernel(x, model)
    raise ValueError(f"no catalog kernel for model kind {model.kind!r}")


def adjoint_residual(kernel: HeatKernelField, t, y) -> float:
    """|dp/dt - Lap p + (1/2) tr(dg/dt) p| at (t, y), on the kernel's model.

    The space part is analytic per kernel family; the time derivative is a
    central finite difference, so the check is not a tautology.
    """
    model = kernel.model
    model.check_time(t)
    y = model.check_point(y)
    pts = y[None, :]

    def p_at(tt):
        return float(kernel.density(tt, pts)[0])

    ht = time_step(t)
    dpdt = _fd_time(p_at, t, (max(1e-9, t - 2 * ht), model.time_window[1]), ht)
    lap = float(kernel.laplacian(t, pts)[0])
    # tr(g^-1 dg/dt) = dim * rate / c(t), the same at every point
    tr = model.dim * model.rate / float(model.conformal(t))
    return abs(dpdt - lap + 0.5 * tr * p_at(t))


def kernel_mass(kernel: HeatKernelField, t, level=None) -> float:
    """Quadrature of the kernel against its model's evolving volume;
    expected 1."""

    def one(tt, pts):
        return np.ones(pts.shape[0])

    return quadrature.kernel_integral(one, kernel, t, level=level, what="kernel mass")
