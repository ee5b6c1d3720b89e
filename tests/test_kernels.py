import math

import numpy as np
import pytest

from entroflow import geometry, quadrature
from entroflow.kernels import (
    GaussianKernel,
    SphereHeatKernel,
    WrappedGaussianKernel,
    adjoint_residual,
    canonical_kernel,
    kernel_mass,
)


def test_gaussian_mass_is_exact(line_kernel):
    assert kernel_mass(line_kernel, 1.0) == pytest.approx(1.0, abs=1e-10)


def test_gaussian_solves_static_heat_equation(line_kernel):
    # dp/dt = Lap p on a static metric (tr dg/dt = 0)
    assert adjoint_residual(line_kernel, 0.5, [1.0]) <= 1e-8


def test_wrapped_kernel_adjoint_equation(circle_kernel):
    assert adjoint_residual(circle_kernel, 1.0, [2.0]) <= 1e-6


def test_sphere_kernel_adjoint_equation(sphere_kernel):
    y = np.array([0.0, 0.6, 0.8])
    assert adjoint_residual(sphere_kernel, 0.5, y) <= 1e-6


def test_wrapped_mass_against_brute_force_wrap_sum(circle_model, circle_kernel):
    # oracle: 1e4 wrap terms summed directly on a dense angle grid
    t = 2.0
    model = geometry.circle(1.0, -0.1, time_window=(0.0, 4.0))
    kern = WrappedGaussianKernel(np.array([0.0]), model)
    s = float(model.time_change(t))
    thetas = (np.arange(4096) + 0.5) * 2 * np.pi / 4096
    wraps = 2 * np.pi * np.arange(-5000, 5001)
    dense = np.exp(-((thetas[:, None] + wraps) ** 2) / (4 * s)).sum(1)
    dense /= np.sqrt(4 * np.pi * s)
    oracle = float(dense.mean() * 2 * np.pi)  # integral over dtheta
    assert oracle == pytest.approx(1.0, abs=1e-12)
    assert kernel_mass(kern, t) == pytest.approx(1.0, abs=1e-8)


def test_sphere_mass_only_constant_mode(sphere_kernel):
    # every l >= 1 harmonic integrates to zero, so the mass is the l = 0 term
    for t in (0.2, 0.7):
        assert kernel_mass(sphere_kernel, t) == pytest.approx(
            1.0, abs=1e-8
        )


@pytest.mark.parametrize("t", np.geomspace(0.1, 1.0, 5).tolist())
def test_masses_on_log_grid(t, line_kernel, circle_kernel, sphere_kernel):
    assert kernel_mass(line_kernel, t) == pytest.approx(1.0, abs=1e-8)
    assert kernel_mass(circle_kernel, t) == pytest.approx(1.0, abs=1e-8)
    assert kernel_mass(sphere_kernel, t) == pytest.approx(1.0, abs=1e-8)


def test_gaussian_mass_in_three_dimensions():
    model = geometry.space(3)
    kern = GaussianKernel(np.zeros(3), model)
    assert kernel_mass(kern, 0.5) == pytest.approx(1.0, abs=1e-9)


def test_kernel_positivity_on_quadrature_nodes(circle_model, circle_kernel,
                                               sphere_model, sphere_kernel):
    for t in (0.2, 1.0):
        pts, _ = quadrature.build_grid(circle_model, np.array([0.0]), t)
        assert np.min(circle_kernel.density(t, pts)) > 0.0
    for t in (0.2, 1.0):
        pts, _ = quadrature.build_grid(sphere_model, np.array([1.0, 0, 0]), t)
        assert np.min(sphere_kernel.density(t, pts)) > 0.0


def test_sphere_kernel_reproduces_eigenfunctions(sphere_model, sphere_kernel):
    # int P_l(y . a) k(s, x . y) dA = exp(-l(l+1) s) P_l(x . a)
    from numpy.polynomial.legendre import Legendre

    t = 0.5
    s = float(sphere_model.time_change(t))
    pts, w = quadrature.build_grid(sphere_model, sphere_kernel.base_point, t, level=1)
    c = float(sphere_model.conformal(t))
    a = np.array([0.0, 0.0, 1.0])
    for ell in (1, 2, 5):
        p = Legendre.basis(ell)
        vals = p(pts @ a) * sphere_kernel.density(t, pts)
        got = float(np.dot(vals, w))
        want = math.exp(-ell * (ell + 1) * s) * p(sphere_kernel.base_point @ a)
        assert got == pytest.approx(want, abs=1e-10)


def test_wrapped_kernel_first_moment(circle_model, circle_kernel):
    # int cos(theta) q dtheta = exp(-s) for the wrapped Gaussian at x = 0
    t = 1.0
    s = float(circle_model.time_change(t))
    pts, w = quadrature.build_grid(circle_model, np.array([0.0]), t)
    got = float(np.dot(np.cos(pts[:, 0]) * circle_kernel.density(t, pts), w))
    assert got == pytest.approx(math.exp(-s), abs=1e-12)


def test_canonical_and_parse(line_model, circle_model, sphere_model):
    assert isinstance(canonical_kernel(line_model, [0.0]), GaussianKernel)
    assert isinstance(canonical_kernel(circle_model, [0.0]), WrappedGaussianKernel)
    assert isinstance(canonical_kernel(sphere_model, [1.0, 0, 0]), SphereHeatKernel)


# a sample value for each parameter placeholder of the catalog forms
_CATALOG_SAMPLES = {"n": "3", "c0": "1", "rate": "-0.1"}
# a point of each model kind's chart
_CATALOG_POINTS = {
    geometry.EUCLIDEAN_LINE: [0.0], geometry.EUCLIDEAN_SPACE: [0.0, 0.0, 0.0],
    geometry.PUNCTURED_3: [1.0, 0.0, 0.0], geometry.CIRCLE: [0.0],
    geometry.SPHERE_2: [1.0, 0.0, 0.0],
}


@pytest.mark.parametrize("form", geometry.CATALOG_IDS)
def test_every_catalog_model_parses_and_has_a_kernel(form):
    # every catalog entry carries a heat kernel, so every entry can be run
    head, _, params = form.partition(":")
    spec = head
    if params:
        spec += ":" + ",".join(_CATALOG_SAMPLES[p] for p in params.split(","))
    model = geometry.parse_model(spec)
    kern = canonical_kernel(model, _CATALOG_POINTS[model.kind])
    assert kern.model == model
    assert kernel_mass(kern, 0.5) == pytest.approx(1.0, abs=1e-6)


def test_mass_requires_positive_time(line_kernel):
    with pytest.raises(ValueError):
        kernel_mass(line_kernel, 0.0)


def test_kernels_refuse_non_positive_times(line_kernel, circle_kernel, sphere_kernel):
    # the flat kernel used to return nan with RuntimeWarnings at t = 0 and
    # the wrapped one to divide by zero; all three now refuse t <= 0
    punctured = geometry.punctured3()
    flat3 = GaussianKernel(np.array([1.0, 0.0, 0.0]), punctured)
    cases = [
        (line_kernel, np.array([[0.5]])),
        (flat3, np.array([[1.0, 0.5, 0.0]])),
        (circle_kernel, np.array([[0.5]])),
        (sphere_kernel, np.array([[0.0, 1.0, 0.0]])),
    ]
    for kern, pts in cases:
        for t in (0.0, -0.25):
            with pytest.raises(ValueError, match="t > 0"):
                kern.density(t, pts)
            with pytest.raises(ValueError, match="t > 0"):
                kern.laplacian(t, pts)
    with pytest.raises(ValueError, match="t > 0"):
        line_kernel.density(np.array([0.5, 0.0]), np.array([[0.5], [0.5]]))


def _legendre_sum_allocating(kern, t, pts, eig_weight):
    """The series as it was written before it ran in place."""
    s = float(kern.model.time_change(t))
    dots = np.clip(np.asarray(pts, dtype=float) @ kern.base_point, -1.0, 1.0)
    out = np.zeros_like(dots)
    p_prev = np.ones_like(dots)
    p_cur = dots.copy()
    ell, p_ell = 0, p_prev
    while True:
        coeff = (2 * ell + 1) / (4.0 * np.pi) * math.exp(-ell * (ell + 1) * s)
        weight = -ell * (ell + 1) * coeff if eig_weight else coeff
        out += weight * p_ell
        bound = (2 * ell + 3) / (4.0 * np.pi) * math.exp(-(ell + 1) * (ell + 2) * s)
        if eig_weight:
            bound *= (ell + 1) * (ell + 2)
        if ell >= 8 and bound < 1e-17:
            return out
        if ell == 0:
            p_ell = p_cur
        else:
            p_next = ((2 * ell + 1) * dots * p_cur - ell * p_prev) / (ell + 1)
            p_prev, p_cur = p_cur, p_next
            p_ell = p_cur
        ell += 1


@pytest.mark.parametrize("t", [0.12, 0.5, 1.2])
@pytest.mark.parametrize("eig_weight", [False, True])
def test_in_place_series_equals_the_allocating_form(sphere_model, sphere_kernel, t, eig_weight):
    pts, _ = quadrature.build_grid(sphere_model, sphere_kernel.base_point, t, level=2)
    edge = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, -0.0], [0.0, 0.0, 1.0]])
    for p in (pts, edge):
        got = sphere_kernel._legendre_sum(t, p, eig_weight)
        want = _legendre_sum_allocating(sphere_kernel, t, p, eig_weight)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_flat_kernel_distances_equal_the_stacked_sum(dim):
    # the squared distance is summed column by column, in the order
    # np.sum(d * d, axis=-1) takes, so density and Laplacian keep their bits
    model = {1: geometry.line(), 2: geometry.space(2), 3: geometry.punctured3()}[dim]
    x = np.array([1.0, -0.3, 0.2][:dim])
    kern = GaussianKernel(x, model)
    pts = np.random.default_rng(dim).normal(size=(4099, dim)) * 3.0
    pts[0] = x
    d = pts - x
    r2 = np.sum(d * d, axis=-1)
    t = 0.37
    dens = (4.0 * np.pi * t) ** (-0.5 * dim) * np.exp(-r2 / (4.0 * t))
    lap = dens * (r2 / (4.0 * t * t) - dim / (2.0 * t))
    assert np.array_equal(kern.density(t, pts).view(np.uint64), dens.view(np.uint64))
    assert np.array_equal(kern.laplacian(t, pts).view(np.uint64), lap.view(np.uint64))


def test_wrapped_kernel_is_periodic(circle_model, circle_kernel):
    # unwrapped path angles must see the same density as their principal value
    base = circle_kernel.density(1.0, np.array([[1.3]]))
    for shift in (2 * np.pi, -6 * np.pi, 40 * np.pi):
        shifted = circle_kernel.density(1.0, np.array([[1.3 + shift]]))
        assert shifted == pytest.approx(base, rel=1e-14)
