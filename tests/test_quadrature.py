import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from entroflow import geometry, kernels, quadrature, solutions
from entroflow.entropy import first_variation_integrand, ulogu_integrand
from entroflow.errors import QuadratureDivergence
from entroflow.quadrature import (
    Refinement,
    build_grid,
    curve_expectations,
    inner_cutoff,
    kernel_integral,
    refine_expectations,
    truncation_radius,
)


def test_exponential_moments_against_closed_form(line_kernel):
    # E[exp(bY)] = exp(b^2 t) for Y ~ N(0, 2t): the moment generating oracle
    for b in (0.5, 1.0, 2.0, 3.0):
        for t in (0.25, 1.0, 2.0):
            f = lambda tt, pts: np.exp(b * pts[:, 0])
            got = kernel_integral(f, line_kernel, t, growth=b)
            assert got == pytest.approx(math.exp(b * b * t), rel=1e-10)


def test_polynomial_moments(line_kernel):
    # E[Y^2] = 2t, E[Y^4] = 3 (2t)^2
    t = 0.7
    got2 = kernel_integral(lambda tt, p: p[:, 0] ** 2, line_kernel, t)
    got4 = kernel_integral(lambda tt, p: p[:, 0] ** 4, line_kernel, t)
    assert got2 == pytest.approx(2 * t, rel=1e-10)
    assert got4 == pytest.approx(3 * (2 * t) ** 2, rel=1e-10)


def test_fixed_level_values_are_bit_reproducible(line_kernel):
    f = lambda tt, pts: np.exp(pts[:, 0])
    a = kernel_integral(f, line_kernel, 0.5, growth=1.0, level=1)
    b = kernel_integral(f, line_kernel, 0.5, growth=1.0, level=1)
    assert a == b


def test_truncation_radius_covers_growth():
    assert truncation_radius(1.0) == pytest.approx(16.0)
    assert truncation_radius(1.0, growth=2.0) == pytest.approx(4.0 + 16.0)


def test_tail_control_under_radius_growth(line_kernel):
    # enlarging the box through a bigger growth parameter must not move a
    # mild integral
    f = lambda tt, pts: np.exp(pts[:, 0])
    a = kernel_integral(f, line_kernel, 1.0, growth=1.0)
    b = kernel_integral(f, line_kernel, 1.0, growth=3.0)
    assert a == pytest.approx(b, abs=1e-10)


def test_divergence_rule_fires_for_radial_first_variation():
    model = geometry.punctured3()
    sol = solutions.RadialHarmonic3(model)
    kern = kernels.GaussianKernel(np.array([1.0, 0.0, 0.0]), model)
    (ref,) = refine_expectations((first_variation_integrand(sol),), kern, 1.0)
    assert ref.divergent and not ref.converged
    with pytest.raises(QuadratureDivergence) as err:
        kernel_integral(first_variation_integrand(sol), kern, 1.0)
    assert err.value.divergent
    assert len(err.value.levels) >= 4


def test_radial_entropy_integral_stabilizes():
    model = geometry.punctured3()
    sol = solutions.RadialHarmonic3(model)
    kern = kernels.GaussianKernel(np.array([1.0, 0.0, 0.0]), model)
    (ref,) = refine_expectations((ulogu_integrand(sol),), kern, 1.0)
    assert ref.converged
    spread = max(ref.values[:4]) - min(ref.values[:4])
    assert spread <= 1e-4


def test_inner_cutoff_sequence():
    assert [inner_cutoff(k) for k in range(4)] == pytest.approx(
        [1e-2, 1e-3, 1e-4, 1e-5]
    )


def test_punctured_shell_increment_matches_log_rate():
    # the divergent integrand grows by ln(10) * 4pi (4 pi t)^{-3/2} e^{-1/4t}
    # per decade of inner cutoff
    model = geometry.punctured3()
    sol = solutions.RadialHarmonic3(model)
    kern = kernels.GaussianKernel(np.array([1.0, 0.0, 0.0]), model)
    t = 1.0
    vals = [
        kernel_integral(first_variation_integrand(sol), kern, t, level=lv)
        for lv in range(3)
    ]
    rate = math.log(10.0) * 4 * math.pi * (4 * math.pi * t) ** -1.5 * math.exp(-0.25)
    for a, b in zip(vals[:-1], vals[1:]):
        assert b - a == pytest.approx(rate, rel=1e-3)


def test_circle_grid_weights_integrate_volume(circle_model):
    t = 0.5
    pts, w = build_grid(circle_model, np.array([0.0]), t)
    c = float(circle_model.conformal(t))
    assert float(np.sum(w)) == pytest.approx(2 * np.pi * math.sqrt(c), rel=1e-12)


def test_sphere_grid_weights_integrate_volume(sphere_model):
    t = 0.5
    pts, w = build_grid(sphere_model, np.array([1.0, 0, 0]), t)
    c = float(sphere_model.conformal(t))
    assert float(np.sum(w)) == pytest.approx(4 * np.pi * c, rel=1e-12)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


def test_gauss_legendre_rules_are_cached_read_only():
    xs, ws = quadrature._gauss_legendre(64)
    assert quadrature._gauss_legendre(64)[0] is xs
    assert not xs.flags.writeable and not ws.flags.writeable
    with pytest.raises(ValueError):
        xs[0] = 0.0


@pytest.mark.parametrize("level", [0, 1, 2])
def test_cached_rules_leave_grids_bit_unchanged(sphere_model, level, monkeypatch):
    punctured = geometry.punctured3()
    cases = [
        (sphere_model, np.array([1.0, 0.0, 0.0]), 0.5, {}),
        (punctured, np.array([0.0, 0.0, 1.0]), 0.5, {"mesh_scale": 2}),
    ]
    cached = [build_grid(m, x, t, level, **opts) for m, x, t, opts in cases]
    monkeypatch.setattr(quadrature, "_gauss_legendre", leggauss)
    for (m, x, t, opts), (pts, w) in zip(cases, cached):
        ref_pts, ref_w = build_grid(m, x, t, level, **opts)
        assert np.array_equal(pts.view(np.uint64), ref_pts.view(np.uint64))
        assert np.array_equal(w.view(np.uint64), ref_w.view(np.uint64))


def _punctured_points_broadcast(x, t, level, mesh_scale):
    # the punctured grid's points as first written, on (n_r, n_mu, 3) arrays
    delta = inner_cutoff(level)
    nx = float(np.linalg.norm(x))
    r_out = nx + truncation_radius(t)
    decades = max(1, int(math.ceil(math.log10(1.0 / delta))))
    rs_in, _ = quadrature._gl_on_edges(
        np.logspace(math.log10(delta), 0.0, 6 * mesh_scale * decades + 1)
    )
    lin_panels = max(16, int(math.ceil(4.0 * (r_out - 1.0) / math.sqrt(4.0 * t))))
    rs_out, _ = quadrature._composite_gl(1.0, r_out, lin_panels * mesh_scale)
    rs = np.concatenate([rs_in, rs_out])
    mus, _ = leggauss(48 * mesh_scale)
    axis = x / nx
    perp = np.zeros(3)
    perp[int(np.argmin(np.abs(axis)))] = 1.0
    perp = perp - (perp @ axis) * axis
    perp /= np.linalg.norm(perp)
    sin = np.sqrt(1.0 - mus**2)
    pts = (
        rs[:, None, None] * mus[None, :, None] * axis[None, None, :]
        + rs[:, None, None] * sin[None, :, None] * perp[None, None, :]
    )
    return pts.reshape(-1, 3)


@pytest.mark.parametrize("level, mesh_scale", [(0, 1), (2, 1), (3, 2)])
def test_punctured_points_keep_the_broadcast_bits(level, mesh_scale):
    model = geometry.punctured3()
    for x in ([0.0, 0.8, 0.6], [-1.3, 0.0, 0.0]):
        x = np.array(x)
        pts, _ = build_grid(model, x, 0.5, level, mesh_scale=mesh_scale)
        want = _punctured_points_broadcast(x, 0.5, level, mesh_scale)
        assert np.array_equal(pts.view(np.uint64), want.view(np.uint64))


def _bundle(which, request):
    if which == "punctured":
        model = geometry.punctured3()
        kernel = kernels.GaussianKernel(np.array([0.0, 0.8, 0.6]), model)
        return model, solutions.RadialHarmonic3(model), kernel
    return (request.getfixturevalue(f"{which}_{k}") for k in ("model", "sol", "kernel"))


@pytest.mark.parametrize(
    "which, grid_opts",
    [("line", {}), ("circle", {}), ("sphere", {}),
     ("punctured", {"mesh_scale": 2, "outer_scale": 2.0})],
    ids=["line", "circle", "sphere", "punctured"],
)
def test_node_set_gives_the_single_integral_bit_for_bit(which, grid_opts, request):
    # the integrands of one time share its grid and kernel density; each
    # value must equal its own single-integral call
    _, sol, kernel = _bundle(which, request)
    fs = (ulogu_integrand(sol), first_variation_integrand(sol))
    (shared,) = curve_expectations(fs, kernel, (0.5,), 1, 2.0, **grid_opts)
    assert len(shared) == len(fs)
    for f, got in zip(fs, shared):
        ((alone,),) = curve_expectations((f,), kernel, (0.5,), 1, 2.0, **grid_opts)
        assert np.float64(got).view(np.uint64) == np.float64(alone).view(np.uint64)


def test_shared_nodes_are_read_only(line_kernel):
    # an integrand cannot change the nodes the next integrand sees
    def scribble(tt, pts):
        pts[0, 0] = 0.0
        return np.ones(pts.shape[0])

    one = lambda tt, p: np.ones(p.shape[0])  # noqa: E731
    with pytest.raises(ValueError, match="read-only"):
        curve_expectations((one, scribble), line_kernel, (0.5,))


def test_quadrature_refuses_non_positive_times(line_model, line_kernel, circle_model,
                                              circle_kernel, sphere_model, sphere_kernel):
    # one check at the grid: the line used to raise a bare ZeroDivisionError
    punctured = geometry.punctured3()
    cases = [
        (line_model, line_kernel),
        (circle_model, circle_kernel),
        (sphere_model, sphere_kernel),
        (punctured, kernels.GaussianKernel(np.array([1.0, 0.0, 0.0]), punctured)),
    ]
    one = lambda tt, p: np.ones(p.shape[0])  # noqa: E731
    for model, kern in cases:
        with pytest.raises(ValueError, match="t > 0"):
            build_grid(model, kern.base_point, 0.0)
        with pytest.raises(ValueError, match="t > 0"):
            curve_expectations((one, one), kern, (0.0,))
        with pytest.raises(ValueError, match="t > 0"):
            refine_expectations((one,), kern, 0.0)


def test_refinement_refuses_an_empty_level_list(line_kernel):
    # an empty list used to give a Refinement without values, whose .value
    # raised IndexError
    one = lambda tt, p: np.ones(p.shape[0])  # noqa: E731
    for levels in ([], (), range(0)):
        with pytest.raises(ValueError, match="at least one level"):
            refine_expectations((one,), line_kernel, 0.5, levels=levels)
    assert refine_expectations((one,), line_kernel, 0.5, levels=[2])[0].values == (
        kernel_integral(one, line_kernel, 0.5, level=2),
    )


def test_flat_space_radial_grid_mass():
    model = geometry.space(2)
    kern = kernels.GaussianKernel(np.zeros(2), model)
    assert kernel_integral(
        lambda tt, p: np.ones(p.shape[0]), kern, 0.5
    ) == pytest.approx(1.0, abs=1e-9)


def test_refinement_object_shape(line_kernel):
    (ref,) = refine_expectations(
        (lambda tt, p: np.ones(p.shape[0]),), line_kernel, 0.5
    )
    assert isinstance(ref, Refinement)
    assert ref.converged and not ref.divergent
    assert ref.value == pytest.approx(1.0, abs=1e-12)
