import numpy as np
import pytest
from numpy.polynomial.legendre import Legendre

from entroflow import entropy, geometry, quadrature, solutions
from entroflow.errors import LogOfZero
from entroflow.solutions import (
    CircleSpectral,
    Constant,
    ExponentialLine,
    RadialHarmonic3,
    SphereSpectral,
    SumOfExponentialsLine,
    backward_residual,
    bochner_identities,
    parse_solution,
)


def _catalog(line_model, circle_model, sphere_model):
    return [
        Constant(5.0, line_model),
        ExponentialLine(1.0, 1.0, line_model),
        ExponentialLine(2.0, 3.0, line_model),
        SumOfExponentialsLine([(1.0, 1.0), (1.0, 2.0)], line_model),
        CircleSpectral(2.0, [(1, 0.5, 0.0)], circle_model),
        SphereSpectral(2.0, [(1, 0.5)], sphere_model),
        RadialHarmonic3(geometry.punctured3()),
    ]


def _sample(sol, gen):
    kind = sol.model.kind
    t0, t1 = sol.model.time_window
    t = gen.uniform(t0 + 0.1, min(t1, 3.0) - 0.05)
    if kind == geometry.EUCLIDEAN_LINE:
        return t, np.array([gen.uniform(-1.5, 1.5)])
    if kind == geometry.CIRCLE:
        return t, np.array([gen.uniform(0, 2 * np.pi)])
    if kind == geometry.SPHERE_2:
        v = gen.normal(size=3)
        return t, v / np.linalg.norm(v)
    if kind == geometry.PUNCTURED_3:
        v = gen.normal(size=3)
        return t, v / np.linalg.norm(v) * gen.uniform(0.4, 2.0)
    raise AssertionError(kind)


# --- worked jets -----------------------------------------------------------


def _point_jet(sol, t, y):
    """u, du, |grad u|^2, Hess log u, Lap u and du/dt at one point."""
    pts = np.asarray(y, dtype=float)[None, :]
    jet = sol.log_jet(t, pts)
    return (
        float(sol.value(t, pts)[0]),
        np.array([c[0] for c in jet.du]),
        float(sol.grad_norm_sq(t, pts)[0]),
        np.array([[h[0] for h in row] for row in jet.hess]),
        float(sol.laplacian(t, pts)[0]),
        float(sol.du_dt(t, pts)[0]),
    )


def test_exponential_jet(line_model):
    u, du, gns, hess, lap, dudt = _point_jet(ExponentialLine(1.0, 1.0, line_model), 1.0, [1.0])
    assert u == pytest.approx(1.0)
    assert du[0] == pytest.approx(1.0)
    assert gns == pytest.approx(1.0)
    assert np.all(hess == 0.0)
    assert lap == pytest.approx(1.0)
    assert dudt == pytest.approx(-1.0)


def test_constant_jet(line_model):
    u, _, gns, _, lap, dudt = _point_jet(Constant(5.0, line_model), 0.3, [2.0])
    assert u == 5.0
    assert gns == 0.0
    assert lap == 0.0
    assert dudt == 0.0


def test_radial_harmonic_jet():
    sol = RadialHarmonic3(geometry.punctured3())
    u, du, gns, _, lap, dudt = _point_jet(sol, 0.7, [1.0, 0.0, 0.0])
    assert u == pytest.approx(1.0)
    assert gns == pytest.approx(1.0)
    assert lap == pytest.approx(0.0, abs=1e-14)
    assert dudt == 0.0
    assert du == pytest.approx(np.array([-1.0, 0.0, 0.0]))


def test_exponential_grad_term_identity(line_model):
    # |grad u|^2 / u = b^2 u exactly for the exponential family
    sol = ExponentialLine(2.0, 3.0, line_model)
    pts = np.linspace(-1, 1, 7)[:, None]
    assert sol.grad_term(0.5, pts) == pytest.approx(9.0 * sol.value(0.5, pts))


def test_log_hessian_vanishes_for_exponentials(line_model):
    sol = ExponentialLine(0.5, 2.0, line_model)
    pts = np.linspace(-1, 1, 5)[:, None]
    assert np.all(sol.log_jet(0.3, pts).hess[0][0] == 0.0)


# --- finite-difference jet oracle ------------------------------------------


@pytest.mark.parametrize("idx", range(7))
def test_jets_match_finite_differences(idx, line_model, circle_model, sphere_model):
    sol = _catalog(line_model, circle_model, sphere_model)[idx]
    gen = np.random.default_rng(100 + idx)
    model = sol.model
    for _ in range(5):
        t, y = _sample(sol, gen)
        pts = y[None, :]
        h = 1e-6

        du_fd = (sol.value(t + h, pts)[0] - sol.value(t - h, pts)[0]) / (2 * h)
        assert du_fd == pytest.approx(float(sol.du_dt(t, pts)[0]), rel=2e-6, abs=1e-8)

        lap_fd = geometry.fd_laplacian(
            model, t, y, lambda p: float(sol.value(t, p[None, :])[0])
        )
        assert lap_fd == pytest.approx(
            float(sol.laplacian(t, pts)[0]), rel=2e-6, abs=1e-6
        )

        # covector components via directional differences in the gauge
        du = sol.log_jet(t, pts, hess=False).du
        for i, direction in enumerate(_gauge_directions(model, y)):
            if model.kind == geometry.SPHERE_2:
                fp = float(sol.value(t, _geo(y, direction, h)[None, :])[0])
                fm = float(sol.value(t, _geo(y, direction, -h)[None, :])[0])
            else:
                fp = float(sol.value(t, (y + h * direction)[None, :])[0])
                fm = float(sol.value(t, (y - h * direction)[None, :])[0])
            assert (fp - fm) / (2 * h) == pytest.approx(
                float(du[i][0]), rel=5e-6, abs=1e-7
            )


def _gauge_directions(model, y):
    if model.kind == geometry.SPHERE_2:
        return geometry.tangent_frames(y[None, :])[0][0], geometry.tangent_frames(y[None, :])[1][0]
    return list(np.eye(model.dim))


def _geo(y, e, s):
    return np.cos(s) * y + np.sin(s) * e


# --- equation residuals ------------------------------------------------------


@pytest.mark.parametrize("idx", range(7))
def test_backward_residual_vanishes(idx, line_model, circle_model, sphere_model):
    sol = _catalog(line_model, circle_model, sphere_model)[idx]
    gen = np.random.default_rng(idx)
    for _ in range(20):
        t, y = _sample(sol, gen)
        assert backward_residual(sol, t, y) <= 1e-10 * (
            1.0 + abs(float(sol.value(t, y[None, :])[0]))
        )


def test_sum_of_exponentials_closure(line_model):
    sol = SumOfExponentialsLine([(1.0, 1.0), (0.5, -2.0), (2.0, 0.5)], line_model)
    gen = np.random.default_rng(4)
    for _ in range(20):
        t, y = _sample(sol, gen)
        assert backward_residual(sol, t, y) <= 1e-10 * float(sol.value(t, y[None, :])[0])


@pytest.mark.parametrize("idx", range(7))
def test_pointwise_identities(idx, line_model, circle_model, sphere_model):
    sol = _catalog(line_model, circle_model, sphere_model)[idx]
    if isinstance(sol, Constant):
        r1, r2 = bochner_identities(sol, 0.5, _sample(sol, np.random.default_rng(1))[1])
        assert r1 == 0.0 and r2 == 0.0
        return
    gen = np.random.default_rng(idx + 40)
    for _ in range(15):
        t, y = _sample(sol, gen)
        r1, r2 = bochner_identities(sol, t, y)
        assert r1 <= 1e-6
        assert r2 <= 1e-6


def test_exponential_identity_closed_form(line_model):
    # (d/dt + Lap)(u log u) = b^2 u at the symbol level for u = e^{y-t}
    sol = ExponentialLine(1.0, 1.0, line_model)
    r1, r2 = bochner_identities(sol, 1.0, [0.0])
    assert r1 <= 1e-8
    assert r2 <= 1e-8


# --- constructors and addressing -------------------------------------------


def test_negative_spectral_combinations_rejected(circle_model, sphere_model):
    with pytest.raises(ValueError):
        CircleSpectral(1.0, [(1, 2.0, 0.0)], circle_model)
    with pytest.raises(ValueError):
        SphereSpectral(0.2, [(1, 1.0)], sphere_model)


def test_positivity_threshold(circle_model):
    # modes grow with t, so the binding constraint sits at the window end
    s_max = float(circle_model.time_change(circle_model.time_window[1]))
    a0 = 0.5 * np.exp(s_max)
    CircleSpectral(a0 + 1e-9, [(1, 0.5, 0.0)], circle_model)
    with pytest.raises(ValueError):
        CircleSpectral(0.99 * a0, [(1, 0.5, 0.0)], circle_model)


def test_log_of_zero(line_model):
    sol = Constant(0.0, line_model)
    with pytest.raises(LogOfZero):
        bochner_identities(sol, 0.5, [0.0])
    assert sol.ulogu(0.5, np.array([[0.0]]))[0] == 0.0  # 0 log 0 = 0


def test_value_broadcasts_over_path_times(line_model):
    sol = ExponentialLine(1.0, 1.0, line_model)
    ts = np.array([0.1, 0.5, 1.0])
    pts = np.array([[0.0], [1.0], [-1.0]])
    vals = sol.value(ts, pts)
    assert vals == pytest.approx(np.exp(pts[:, 0] - ts))


def test_multi_mode_circle_solution():
    # two modes with phases on a short static window: residuals and
    # identities must close just like the single-mode case
    model = geometry.circle(1.0, 0.0, time_window=(0.0, 0.4))
    sol = CircleSpectral(2.0, [(1, 0.3, 0.5), (2, 0.2, 1.0)], model)
    gen = np.random.default_rng(8)
    for _ in range(15):
        t = gen.uniform(0.05, 0.35)
        y = np.array([gen.uniform(0, 2 * np.pi)])
        assert backward_residual(sol, t, y) <= 1e-10
        r1, r2 = bochner_identities(sol, t, y)
        assert r1 <= 1e-6 and r2 <= 1e-6


def test_multi_mode_sphere_solution():
    model = geometry.sphere2(1.0, 0.0, time_window=(0.0, 0.3))
    sol = SphereSpectral(2.0, [(1, 0.3), (2, 0.2)], model)
    gen = np.random.default_rng(9)
    for _ in range(15):
        t = gen.uniform(0.05, 0.25)
        v = gen.normal(size=3)
        y = v / np.linalg.norm(v)
        assert backward_residual(sol, t, y) <= 1e-10
        r1, r2 = bochner_identities(sol, t, y)
        assert r1 <= 1e-6 and r2 <= 1e-6


_SPEC_PARAMS = {  # spec: the family it names and the parameters it spells
    "const:5": (Constant, {"c": 5.0}),
    "expline:1,1": (ExponentialLine, {"a": 1.0, "b": 1.0}),
    "expline:2,3": (ExponentialLine, {"a": 2.0, "b": 3.0}),
    "expsum:1,1;1,2": (SumOfExponentialsLine, {"terms": [(1.0, 1.0), (1.0, 2.0)]}),
    "radial3": (RadialHarmonic3, {}),
    "circle-spec:2,(1,0.5,0)": (CircleSpectral, {"a0": 2.0, "modes": [(1, 0.5, 0.0)]}),
    "sphere-spec:2,(1,0.5)": (SphereSpectral, {"a0": 2.0, "modes": [(1, 0.5)]}),
}


@pytest.mark.parametrize("spec", list(_SPEC_PARAMS))
def test_solution_specs_parse(spec, line_model, circle_model, sphere_model):
    model = {
        "radial3": geometry.punctured3(),
        "circle-spec": circle_model, "sphere-spec": sphere_model,
    }.get(spec.split(":")[0], line_model)
    sol = parse_solution(spec, model)
    family, params = _SPEC_PARAMS[spec]
    assert type(sol) is family and sol.model is model
    assert {name: getattr(sol, name) for name in params} == params


# --- columnar jets against the stacked forms, bit for bit --------------------
#
# The references are the (n, dim) / (n, dim, dim) row formulas the jets
# replaced; every output must keep their bits, compared through uint64 views.


def _ref_profile(sol, t, mu):
    """SphereSpectral's (A, A', A'') through numpy Legendre objects."""
    s = sol.model.time_change(np.asarray(t, dtype=float))
    a = sol.a0 + np.zeros(np.broadcast_shapes(np.shape(s), np.shape(mu)))
    d1, d2 = np.zeros_like(a), np.zeros_like(a)
    for l, al in sol.modes:
        p = Legendre.basis(l)
        amp = al * np.exp(l * (l + 1) * s)
        a = a + amp * p(mu)
        d1 = d1 + amp * p.deriv()(mu)
        d2 = d2 + amp * p.deriv(2)(mu)
    return a, d1, d2


def _ref_grad(sol, t, pts):
    pts = np.asarray(pts, dtype=float)
    n = pts.shape[0]
    if isinstance(sol, Constant):
        return np.zeros((n, sol.model.dim))
    if isinstance(sol, ExponentialLine):
        return (sol.b * sol.value(t, pts))[:, None]
    if isinstance(sol, SumOfExponentialsLine):
        parts = sol._parts(t, pts)
        return sum(b * p for (_, b), p in zip(sol.terms, parts))[:, None]
    if isinstance(sol, CircleSpectral):
        return sol._dtheta(t, pts)[0][..., None]
    if isinstance(sol, SphereSpectral):
        _, d1, _ = _ref_profile(sol, t, sol._mu(pts))
        e1, e2 = geometry.tangent_frames(pts)
        axis = _axis(sol)
        return np.stack([d1 * (e1 @ axis), d1 * (e2 @ axis)], axis=-1)
    r = np.linalg.norm(pts, axis=-1)
    return np.broadcast_to(-pts / r[:, None] ** 3, (n, 3)).copy()


def _ref_hess_log(sol, t, pts):
    pts = np.asarray(pts, dtype=float)
    n = pts.shape[0]
    if isinstance(sol, Constant):
        return np.zeros((n, sol.model.dim, sol.model.dim))
    if isinstance(sol, ExponentialLine):
        return np.zeros((n, 1, 1))
    if isinstance(sol, SumOfExponentialsLine):
        parts = sol._parts(t, pts)
        u = sum(parts)
        uy = sum(b * p for (_, b), p in zip(sol.terms, parts))
        uyy = sum(b * b * p for (_, b), p in zip(sol.terms, parts))
        return (uyy / u - (uy / u) ** 2)[:, None, None]
    if isinstance(sol, CircleSpectral):
        u = sol.value(t, pts)
        d1, d2 = sol._dtheta(t, pts)
        return (d2 / u - (d1 / u) ** 2)[..., None, None]
    if isinstance(sol, SphereSpectral):
        mu = sol._mu(pts)
        u, d1, d2 = _ref_profile(sol, t, mu)
        e1, e2 = geometry.tangent_frames(pts)
        axis = _axis(sol)
        w = np.stack([e1 @ axis, e2 @ axis], axis=-1)
        coeff = d2 / u - (d1 / u) ** 2
        iso = -mu * d1 / u
        h = coeff[..., None, None] * (w[..., :, None] * w[..., None, :])
        return h + iso[..., None, None] * np.eye(2)
    r2 = np.sum(pts * pts, axis=-1)
    h = -np.eye(3) / r2[:, None, None] + 2.0 * (
        pts[:, :, None] * pts[:, None, :]
    ) / (r2 * r2)[:, None, None]
    return np.broadcast_to(h, (n, 3, 3)).copy()


def _ref_value(sol, t, pts):
    if isinstance(sol, SphereSpectral):
        return _ref_profile(sol, t, sol._mu(pts))[0]
    if isinstance(sol, RadialHarmonic3):
        r = np.linalg.norm(np.asarray(pts, dtype=float), axis=-1)
        return np.broadcast_to(1.0 / r, np.shape(sol.value(t, pts))).copy()
    return sol.value(t, pts)


def _ref_integrands(sol, t, pts):
    """E', E'', cond1, cond2 and cond0a as the stacked forms computed them,
    with g^-1, Ric and dg/dt as arrays of one entry per point."""
    model = sol.model
    u = _ref_value(sol, t, pts)
    g = _ref_grad(sol, t, pts)
    gl = g / u[..., None]
    hess = _ref_hess_log(sol, t, pts)
    shape = np.broadcast_shapes(np.shape(t), (len(pts),))
    scale = np.full(shape, 1.0 / model.conformal(t))
    ricci = np.full(shape, model.ricci_constant)
    dg_dt = np.full(shape, model.rate)
    gns = scale * np.sum(g * g, axis=-1)
    hess_sq = scale**2 * np.sum(hess * hess, axis=(-2, -1))
    curv = ricci - 0.5 * dg_dt
    second = 2.0 * u * (hess_sq + curv * scale**2 * np.sum(gl * gl, axis=-1))
    gl_sq = scale * np.sum(gl * gl, axis=-1)
    hess_gl = np.einsum("...ij,...j->...i", hess, gl) * scale[..., None]
    w = u[..., None] * (gl_sq[..., None] * gl + 2.0 * hess_gl)
    cond2 = scale * np.sum(w * w, axis=-1)
    return {
        "first": gns / u, "second": second,
        "cond1": (np.log(u) + 1.0) ** 2 * gns, "cond2": cond2, "cond0a": gns,
    }


def _integrands(sol, t, pts):
    return {
        "first": entropy.first_variation_integrand(sol)(t, pts),
        "second": entropy.second_variation_integrand(sol)(t, pts),
        "cond1": entropy.cond1_integrand(sol)(t, pts),
        "cond2": entropy.cond2_integrand(sol)(t, pts),
        "cond0a": entropy.cond0a_integrand(sol)(t, pts),
    }


def _bits_equal(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64)
    )


_OBLIQUE_AXIS = np.array([1.0, -2.0, 0.5]) / np.linalg.norm([1.0, -2.0, 0.5])


class _ObliqueSphere(SphereSpectral):
    """The zonal family about an oblique axis, where both frame components
    w1, w2 of the axis are generic (about the z axis w1 is 0 away from the
    poles), so every jet entry's arithmetic is exercised."""

    def _mu(self, v):
        return np.asarray(v) @ _OBLIQUE_AXIS


def _axis(sol):
    return _OBLIQUE_AXIS if isinstance(sol, _ObliqueSphere) else solutions.SPHERE_AXIS


def _six_classes():
    line = geometry.line()
    circle = geometry.circle(1.0, -0.1, time_window=(0.0, 0.4))
    sphere = geometry.sphere2(1.0, 2.0, time_window=(0.0, 1.2))
    return {
        "const": Constant(5.0, line),
        "expline": ExponentialLine(2.0, 3.0, line),
        "expsum": SumOfExponentialsLine([(1.0, 1.0), (0.5, -2.0)], line),
        "circle": CircleSpectral(2.0, [(1, 0.3, 0.5), (2, 0.2, 1.0)], circle),
        "sphere": SphereSpectral(2.0, [(1, 0.5)], sphere),
        "sphere-oblique": _ObliqueSphere(
            2.0, [(1, 0.3), (2, 0.2)], geometry.sphere2(1.0, 2.0, time_window=(0.0, 0.4))
        ),
        "radial3": RadialHarmonic3(geometry.punctured3()),
    }


_CLASSES = list(_six_classes())


def _base_point(model):
    return {1: np.array([0.0]), 3: np.array([1.0, 0.0, 0.0])}[model.dim_chart]


def _edge_points(sol):
    """Exact +-0 components, and on the sphere |z| just below, at and above
    0.9 on both signs, where `tangent_frames` switches its helper axis."""
    kind = sol.model.kind
    if kind in (geometry.EUCLIDEAN_LINE, geometry.CIRCLE):
        return np.array([[0.0], [-0.0], [1.0], [-1.5], [3.0]])
    if kind == geometry.SPHERE_2:
        zs = [np.nextafter(0.9, 0.0), 0.9, np.nextafter(0.9, 1.0)]
        zs = zs + [-z for z in zs]
        phis = [0.3, 2.0, -2.7]
        ring = [
            [np.sqrt(1.0 - z * z) * np.cos(f), np.sqrt(1.0 - z * z) * np.sin(f), z]
            for z in zs for f in phis
        ]
        signed = [
            [1.0, 0.0, -0.0], [-0.0, 1.0, 0.0], [0.0, -0.0, 1.0], [-0.0, 0.0, -1.0],
            [-1.0, -0.0, 0.0], [0.6, 0.0, -0.8], [0.0, -0.6, 0.8],
        ]
        return np.array(ring + signed)
    return np.array([
        [1.0, 0.0, -0.0], [-0.0, 2.0, 0.0], [0.0, -0.0, -0.5], [0.3, -0.4, 1.2],
        [-2.0, 0.0, 0.7],
    ])


def _cloud(sol, n, seed=7):
    """n random points off any grid's symmetry planes."""
    gen = np.random.default_rng(seed)
    if sol.model.dim_chart == 1:
        return gen.uniform(-3.0, 3.0, (n, 1))
    v = gen.normal(size=(n, 3))
    if sol.model.kind == geometry.SPHERE_2:
        return v / np.linalg.norm(v, axis=-1)[:, None]
    return v * gen.uniform(0.05, 3.0, (n, 1))


def _check_all_bits(sol, t, pts):
    jet = sol.log_jet(t, pts)
    assert _bits_equal(jet.u, _ref_value(sol, t, pts))
    assert _bits_equal(sol.value(t, pts), _ref_value(sol, t, pts))
    assert _bits_equal(np.stack(jet.du, axis=-1), _ref_grad(sol, t, pts))
    hess = np.stack([np.stack(row, axis=-1) for row in jet.hess], axis=-2)
    assert _bits_equal(hess, _ref_hess_log(sol, t, pts))
    ref = _ref_integrands(sol, t, pts)
    for name, vals in _integrands(sol, t, pts).items():
        assert _bits_equal(vals, ref[name]), name
    assert _bits_equal(sol.grad_norm_sq(t, pts), ref["cond0a"])


@pytest.mark.parametrize("level", [0, 2])
@pytest.mark.parametrize("name", _CLASSES)
def test_jets_equal_the_stacked_forms_on_quadrature_grids(name, level):
    sol = _six_classes()[name]
    model = sol.model
    t = 0.35
    pts, _ = quadrature.build_grid(model, _base_point(model), t, level=level, growth=2.0)
    _check_all_bits(sol, t, pts)


@pytest.mark.parametrize("name", _CLASSES)
def test_jets_equal_the_stacked_forms_at_edge_points(name):
    sol = _six_classes()[name]
    pts = _edge_points(sol)
    for t in (0.15, 0.35):
        _check_all_bits(sol, t, pts)
        for i in range(len(pts)):  # single points, as bochner_identities passes them
            _check_all_bits(sol, t, pts[i : i + 1])


@pytest.mark.parametrize("name", _CLASSES)
def test_jet_u_is_the_value_bit_for_bit(name):
    # the entropy integrand reads jet.u (or value, when it is alone), so
    # both must be the same bits, with and without the Hessian
    sol = _six_classes()[name]
    model = sol.model
    grid, _ = quadrature.build_grid(model, _base_point(model), 0.35, level=2, growth=2.0)
    cloud = _cloud(sol, 1001)
    per_path = np.linspace(0.05, 0.4, len(cloud))
    for t, pts in ((0.35, grid), (0.15, _edge_points(sol)), (per_path, cloud)):
        value = sol.value(t, pts)
        for hess in (True, False):
            assert _bits_equal(sol.log_jet(t, pts, hess=hess).u, value)
        assert _bits_equal(entropy.ulogu_integrand(sol)(t, pts), sol.ulogu(t, pts))
        shared = entropy.JetIntegrands(
            (entropy.ulogu_integrand(sol), entropy.second_variation_integrand(sol))
        )
        e, _ = shared.reduce_columns(t, pts, lambda col: col)
        assert _bits_equal(e, sol.ulogu(t, pts))


@pytest.mark.parametrize("name", _CLASSES)
def test_jets_equal_the_stacked_forms_at_per_path_times(name):
    # a time per point, as along stopped paths, on random points
    sol = _six_classes()[name]
    pts = _cloud(sol, 5000)
    t0, t1 = sol.model.time_window
    ts = np.random.default_rng(8).uniform(t0 + 0.05, min(t1, 3.0) - 0.05, len(pts))
    _check_all_bits(sol, ts, pts)
    _check_all_bits(sol, 0.35, pts)


def _left_to_right_reversed(cols):
    sq = [c * c for c in cols][::-1]
    return sum(sq[1:], sq[0])


def _plain_left_to_right(cols):
    sq = [c * c for c in cols]
    return sum(sq[1:], sq[0])


@pytest.mark.parametrize("name", ["sphere", "sphere-oblique"])
def test_sphere_profile_equals_the_legendre_objects(name):
    # a Legendre object maps its argument through 0.0 + 1.0 * mu, so -0.0
    # reaches legval as +0.0; points never give mu = -0.0, so it is passed
    # here directly
    sol = _six_classes()[name]
    mu = np.array([-0.0, 0.0, -1.0, 1.0, -0.9, 0.9, np.nextafter(0.0, 1.0), -2.0**-1074])
    mu = np.concatenate([mu, np.linspace(-1.0, 1.0, 1001)])
    for t in (0.15, 0.35, np.linspace(0.05, 0.35, mu.size)):
        for got, want in zip(sol._profile(t, mu), _ref_profile(sol, t, mu)):
            assert _bits_equal(got, want)
        for m in mu[:3]:  # one scalar at a time
            for got, want in zip(sol._profile(0.35, m), _ref_profile(sol, 0.35, m)):
                assert _bits_equal(got, want)
    # du_dt evaluates P_l alone
    pts = np.concatenate([_edge_points(sol), _cloud(sol, 500)])
    t = 0.35
    s, c = sol.model.time_change(t), sol.model.conformal(t)
    want = np.zeros(len(pts))
    for l, al in sol.modes:
        lam = l * (l + 1)
        want = want + al * lam / c * np.exp(lam * s) * Legendre.basis(l)(sol._mu(pts))
    assert _bits_equal(sol.du_dt(t, pts), want)


@pytest.mark.parametrize(
    "name, mutant",
    [("sphere", _left_to_right_reversed), ("radial3", _plain_left_to_right)],
    ids=["sphere-reversed", "radial3-no-tree"],
)
def test_another_summation_order_changes_bits(name, mutant, monkeypatch):
    # the bit comparisons above can see the order of a sum: summing the
    # squares right to left (sphere), or the nine Hessian squares of the
    # radial harmonic left to right instead of numpy's tree, must fail them
    sol = _six_classes()[name]
    pts = _cloud(sol, 5000)
    ref = _ref_integrands(sol, 0.5, pts)["second"]
    assert _bits_equal(entropy.second_variation_integrand(sol)(0.5, pts), ref)
    monkeypatch.setattr(entropy, "sum_squares", mutant)
    assert not _bits_equal(entropy.second_variation_integrand(sol)(0.5, pts), ref)


def test_cond2_contraction_order_is_seen(monkeypatch):
    # the three-term contraction adds first and last before the middle term,
    # as einsum does; adding left to right must change cond2's bits
    sol = _six_classes()["radial3"]
    pts = _cloud(sol, 5000)
    ref = _ref_integrands(sol, 0.5, pts)["cond2"]
    assert _bits_equal(entropy.cond2_integrand(sol)(0.5, pts), ref)
    monkeypatch.setattr(
        entropy, "_row_times", lambda row, v: (row[0] * v[0] + row[1] * v[1]) + row[2] * v[2]
    )
    assert not _bits_equal(entropy.cond2_integrand(sol)(0.5, pts), ref)


def test_sum_squares_matches_numpy_short_axis_sums():
    gen = np.random.default_rng(3)
    for k in range(1, 16):
        for n in (1, 2, 3, 7, 8, 100, 4097):
            a = gen.normal(size=(n, k)) * np.exp(8.0 * gen.normal(size=(n, k)))
            assert _bits_equal(solutions.sum_squares(a.T), np.sum(a * a, axis=-1)), (k, n)


def test_one_jet_per_integrand_call(monkeypatch):
    # the E'' integrand evaluates the sphere's profile and frames once
    sol = _six_classes()["sphere"]
    calls = {"profile": 0, "frames": 0}
    profile, frames = sol._profile, geometry.tangent_frames

    def counted_profile(*a):
        calls["profile"] += 1
        return profile(*a)

    def counted_frames(*a):
        calls["frames"] += 1
        return frames(*a)

    monkeypatch.setattr(sol, "_profile", counted_profile)
    monkeypatch.setattr(geometry, "tangent_frames", counted_frames)
    pts, _ = quadrature.build_grid(sol.model, _base_point(sol.model), 0.5, level=0)
    entropy.second_variation_integrand(sol)(0.5, pts)
    assert calls == {"profile": 1, "frames": 1}


def test_hess_log_refuses_a_vanishing_solution(line_model):
    sol = ExponentialLine(1.0, 1.0, line_model)
    pts = np.array([[0.0], [-800.0]])  # exp underflows to 0 at y = -800
    assert sol.value(0.5, pts)[1] == 0.0
    with pytest.raises(LogOfZero):
        entropy.second_variation_integrand(sol)(0.5, pts)
    with pytest.raises(LogOfZero):
        bochner_identities(sol, 0.5, pts[1])
    assert sol.log_jet(0.5, pts, hess=False).du[0][1] == 0.0


def test_backward_residual_accepts_a_vanishing_solution():
    # the equation check reads du/dt and Lap u alone, so u = 0 is no error
    assert backward_residual(Constant(0.0), 0.5, [0.1]) == 0.0
