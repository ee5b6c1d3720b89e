import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.linalg import eigh

from entroflow import geometry
from entroflow.errors import ChartViolation, OutOfWindow
from entroflow.geometry import (
    flow_condition_verdict,
    metric_at,
    parse_model,
    strict_positivity_margin,
    super_ricci_gap,
)


def _all_models():
    return [
        geometry.line(),
        geometry.space(3),
        geometry.punctured3(),
        geometry.circle(1.0, -0.1, time_window=(0.0, 1.25)),
        geometry.circle(2.0, 0.5),
        geometry.sphere2(1.0, 2.0, time_window=(0.0, 1.2)),
    ]


def _sample_point(model, gen):
    if model.kind == geometry.EUCLIDEAN_LINE:
        return np.array([gen.uniform(-2, 2)])
    if model.kind == geometry.EUCLIDEAN_SPACE:
        return gen.uniform(-2, 2, size=model.dim)
    if model.kind == geometry.PUNCTURED_3:
        v = gen.normal(size=3)
        return v / np.linalg.norm(v) * gen.uniform(0.2, 3.0)
    if model.kind == geometry.CIRCLE:
        return np.array([gen.uniform(0, 2 * np.pi)])
    if model.kind == geometry.SPHERE_2:
        v = gen.normal(size=3)
        return v / np.linalg.norm(v)
    raise AssertionError(model.kind)


# --- worked examples -------------------------------------------------------


def test_flat_line_is_trivial():
    data = metric_at(geometry.line(), 1.0, [0.3])
    assert data.g == pytest.approx(np.eye(1))
    assert np.all(data.christoffel == 0)
    assert data.ricci == pytest.approx(np.zeros((1, 1)))
    assert data.sqrt_det_g == 1.0
    assert data.tr_dg_dt == 0.0


def test_sphere_under_the_flow_rate_has_zero_gap():
    # c(t) = 1 + 2t scales the round metric so dg/dt = 2 Ric identically
    model = geometry.sphere2(1.0, 2.0, time_window=(0.0, 1.2))
    y = np.array([0.0, 0.6, 0.8])
    data = metric_at(model, 0.5, y)
    assert data.dg_dt == pytest.approx(2.0 * data.ricci, abs=1e-14)
    assert super_ricci_gap(model, 0.5, y) == pytest.approx(0.0, abs=1e-14)
    # oracle: differentiate the conformal factor numerically
    h = 1e-6
    fd = (metric_at(model, 0.5 + h, y).g - metric_at(model, 0.5 - h, y).g) / (2 * h)
    assert fd == pytest.approx(data.dg_dt, abs=1e-8)


def test_super_ricci_gap_examples():
    assert super_ricci_gap(geometry.line(), 0.7, [0.1]) == 0.0
    model = geometry.circle(1.0, -0.1, time_window=(0.0, 1.25))
    gap = super_ricci_gap(model, 1.0, [0.0])
    assert gap == pytest.approx(-0.1 / 0.9)
    assert gap < 0
    assert strict_positivity_margin(model, 1.0, [0.0]) == pytest.approx(-gap)
    assert flow_condition_verdict(model, 1.0, [0.0]) == "satisfied"
    assert flow_condition_verdict(geometry.line(), 0.7, [0.1]) == "equality"
    # an expanding flat circle: dg/dt = 0.5 > 0 = 2 Ric, so the condition fails
    model = geometry.circle(1.0, 0.5)
    assert super_ricci_gap(model, 1.0, [0.0]) == pytest.approx(0.5 / 1.5)
    assert flow_condition_verdict(model, 1.0, [0.0]) == "violated"


# --- invariants ------------------------------------------------------------


@pytest.mark.parametrize("model", _all_models(), ids=lambda m: m.kind)
def test_metric_data_invariants(model):
    gen = np.random.default_rng(hash(model.kind) % 2**32)
    t0, t1 = model.time_window
    for _ in range(25):
        t = gen.uniform(t0, t1)
        y = _sample_point(model, gen)
        data = metric_at(model, t, y)
        d = model.dim
        assert data.g @ data.g_inv == pytest.approx(np.eye(d), abs=1e-12)
        assert data.g == pytest.approx(data.g.T)
        assert np.all(np.linalg.eigvalsh(data.g) > 0)
        assert data.christoffel == pytest.approx(
            np.swapaxes(data.christoffel, 1, 2), abs=0
        )
        assert data.sqrt_det_g == pytest.approx(
            np.sqrt(np.linalg.det(data.g)), rel=1e-12
        )
        assert data.tr_dg_dt == pytest.approx(
            np.trace(data.g_inv @ data.dg_dt), abs=1e-12
        )


@pytest.mark.parametrize(
    "model",
    [geometry.circle(1.0, -0.1, time_window=(0.0, 1.25)),
     geometry.sphere2(1.0, 2.0, time_window=(0.0, 1.2))],
    ids=["circle", "sphere"],
)
def test_conformal_trace_identity(model):
    n = model.dim
    for t in (0.1, 0.7):
        y = _sample_point(model, np.random.default_rng(3))
        data = metric_at(model, t, y)
        c = float(model.conformal(t))
        assert data.tr_dg_dt == pytest.approx(n * model.rate / c, rel=1e-12)


@pytest.mark.parametrize("model", _all_models(), ids=lambda m: m.kind)
def test_christoffel_against_finite_difference_oracle(model):
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij) from the
    # closed-form local metric, differentiated numerically
    gen = np.random.default_rng(11)
    t = 0.5 * sum(model.time_window) / 1.0
    h = 1e-5
    d = model.dim
    for _ in range(5):
        y = _sample_point(model, gen)
        data = metric_at(model, t, y)
        dg = np.zeros((d, d, d))  # dg[l, i, j] = d_l g_ij
        for l in range(d):
            e = np.zeros(d)
            e[l] = h
            gp = _metric_in_local_chart(model, t, e)
            gm = _metric_in_local_chart(model, t, -e)
            dg[l] = (gp - gm) / (2 * h)
        gamma = _christoffel_fd(data.g_inv, dg)
        assert gamma == pytest.approx(data.christoffel, abs=1e-6)


def _metric_in_local_chart(model, t, dy):
    """Metric components at chart displacement ``dy`` from the chart's center.

    The closed form the Christoffel oracle differentiates; for the sphere it
    is the round metric in normal coordinates centered at the base point.
    """
    if model.kind in (geometry.EUCLIDEAN_LINE, geometry.EUCLIDEAN_SPACE, geometry.PUNCTURED_3):
        return np.eye(model.dim)
    if model.kind == geometry.CIRCLE:
        return np.array([[float(model.conformal(t))]])
    if model.kind == geometry.SPHERE_2:
        c = float(model.conformal(t))
        r = np.linalg.norm(dy)
        if r < 1e-12:
            return c * np.eye(2)
        rad = np.outer(dy, dy) / (r * r)
        return c * (rad + (math.sin(r) / r) ** 2 * (np.eye(2) - rad))
    raise ValueError(f"unhandled model kind {model.kind}")


def _christoffel_fd(g_inv, dg):
    # dg[l, i, j] = d_l g_ij
    d = g_inv.shape[0]
    gamma = np.zeros((d, d, d))
    for k in range(d):
        for i in range(d):
            for j in range(d):
                acc = 0.0
                for l in range(d):
                    acc += g_inv[k, l] * (dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
                gamma[k, i, j] = 0.5 * acc
    return gamma


@given(
    t=st.floats(0.0, 1.2),
    theta=st.floats(0.0, 6.28),
)
@settings(max_examples=40, deadline=None)
def test_gap_is_a_pure_function_on_the_circle(t, theta):
    model = geometry.circle(1.0, -0.1, time_window=(0.0, 1.25))
    a = super_ricci_gap(model, t, [theta])
    b = super_ricci_gap(model, t, [theta])
    assert a == b
    assert a == pytest.approx(-0.1 / float(model.conformal(t)))


def _eigen_gap(model, t, y):
    # the largest lambda of (dg/dt - 2 Ric) v = lambda g v, solved from
    # metric_at's tensors: the oracle for the closed form (rate - 2K) / c(t)
    data = metric_at(model, t, y)
    return float(eigh(data.dg_dt - 2.0 * data.ricci, data.g, eigvals_only=True)[-1])


@pytest.mark.parametrize(
    "model",
    _all_models() + [geometry.sphere2(1.0, 0.0), geometry.sphere2(1.5, -0.2)],
    ids=lambda m: f"{m.kind}:{m.c0:g},{m.rate:g}",
)
def test_super_ricci_gap_matches_the_eigen_solve(model):
    gen = np.random.default_rng(17)
    for t in np.linspace(*model.time_window, 25):
        y = _sample_point(model, gen)
        oracle = _eigen_gap(model, t, y)
        assert super_ricci_gap(model, t, y) == pytest.approx(oracle, rel=1e-14, abs=0.0)


@pytest.mark.parametrize(
    "model",
    [geometry.circle(1.5, -0.2, time_window=(0.0, 3.0)),
     geometry.sphere2(1.0, 2.0, time_window=(0.0, 1.2))],
    ids=["circle", "sphere"],
)
def test_gradient_norm_time_derivative_sign(model):
    # d/dt |grad f|^2 = -(dg/dt)(grad f, grad f) for a fixed function f;
    # checked by finite differences in t on a fixed covector
    gen = np.random.default_rng(5)
    y = _sample_point(model, gen)
    df = gen.normal(size=model.dim)  # components of df in the gauge

    def grad_sq(t):
        data = metric_at(model, t, y)
        return float(df @ data.g_inv @ df)

    t = 0.6
    h = 1e-6
    lhs = (grad_sq(t + h) - grad_sq(t - h)) / (2 * h)
    data = metric_at(model, t, y)
    grad_vec = data.g_inv @ df
    rhs = -float(grad_vec @ data.dg_dt @ grad_vec)
    assert lhs == pytest.approx(rhs, abs=1e-6)


def test_time_change_against_quadrature():
    model = geometry.circle(1.0, -0.1, time_window=(0.0, 1.25))
    for t in (0.3, 1.0):
        oracle, _ = integrate.quad(lambda s: 1.0 / (1.0 - 0.1 * s), 0.0, t)
        assert float(model.time_change(t)) == pytest.approx(oracle, rel=1e-12)
    assert float(model.time_change(1.0)) == pytest.approx(-10.0 * np.log(0.9))


def test_chart_and_window_validation():
    with pytest.raises(ChartViolation):
        metric_at(geometry.punctured3(), 1.0, [0.0, 0.0, 0.0])
    with pytest.raises(ChartViolation):
        metric_at(geometry.sphere2(), 0.0, [0.0, 0.0, 2.0])
    with pytest.raises(OutOfWindow):
        metric_at(geometry.line(), 99.0, [0.0])
    # non-finite times and points are refused, not carried into a NaN result
    sphere = geometry.sphere2(1.0, 2.0, time_window=(0.0, 1.2))
    for model, t, y in (
        (geometry.line(), math.nan, [0.0]),
        (geometry.line(), math.inf, [0.0]),
        (sphere, math.nan, [1.0, 0.0, 0.0]),
        (geometry.circle(1.0, -0.1, time_window=(0.0, 1.25)), math.nan, [0.0]),
    ):
        with pytest.raises(OutOfWindow, match="not a finite time"):
            model.check_time(t)
        with pytest.raises(OutOfWindow, match="not a finite time"):
            model.check_time(np.array([0.5, t]))
        with pytest.raises(OutOfWindow, match="not a finite time"):
            metric_at(model, t, y)
    for model, y in (
        (sphere, [math.nan, 0.0, 0.0]),
        (geometry.line(), [math.inf]),
        (geometry.punctured3(), [1.0, math.nan, 0.0]),
        (geometry.space(2), [-math.inf, 1.0]),
    ):
        with pytest.raises(ChartViolation, match="chart points must be finite"):
            model.check_point(y)
    with pytest.raises(ValueError):
        geometry.circle(1.0, -1.0, time_window=(0.0, 2.0))  # c hits zero


def test_model_parsing_round_trip():
    for spec, model in (
        ("euclidean-line", geometry.line()),
        ("euclidean-space:3", geometry.space(3)),
        ("punctured-3", geometry.punctured3()),
        ("circle:1,-0.1", geometry.circle(1.0, -0.1)),
        ("sphere2:1,2", geometry.sphere2(1.0, 2.0)),
    ):
        assert parse_model(spec) == model


def test_space_takes_a_whole_dimension():
    assert geometry.space(3.0) == geometry.space(np.int64(3)) == parse_model("euclidean-space:3")
    assert type(geometry.space(3.0).dim) is int
    for n in (2.5, 0, -1, math.nan, True):
        with pytest.raises(ValueError, match="whole dimension >= 1"):
            geometry.space(n)


def test_tangent_frames_are_orthonormal():
    gen = np.random.default_rng(0)
    pts = gen.normal(size=(50, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    e1, e2 = geometry.tangent_frames(pts)
    assert np.allclose(np.sum(e1 * e2, axis=1), 0.0, atol=1e-14)
    assert np.allclose(np.sum(e1 * pts, axis=1), 0.0, atol=1e-14)
    assert np.allclose(np.linalg.norm(e1, axis=1), 1.0, atol=1e-14)
    assert np.allclose(np.linalg.norm(e2, axis=1), 1.0, atol=1e-14)


def _frames_with_np_cross(pts):
    # the vectorized frame as first written: np.cross and np.linalg.norm
    helper = np.where(
        (np.abs(pts[:, 2]) < 0.9)[:, None],
        np.array([0.0, 0.0, 1.0]),
        np.array([1.0, 0.0, 0.0]),
    )
    e1 = np.cross(helper, pts)
    e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
    return e1, np.cross(pts, e1)


def _signed_zero_points():
    # exact +-0 components, and |z| just below, at and just above 0.9
    pts = [[s0 * 0.0, s1 * 1.0, 0.0] for s0 in (1, -1) for s1 in (1, -1)]
    pts += [[s0 * 1.0, 0.0, s2 * 0.0] for s0 in (1, -1) for s2 in (1, -1)]
    pts += [[0.0, s1 * 0.0, s2 * 1.0] for s1 in (1, -1) for s2 in (1, -1)]
    pts += [[-0.0, 0.6, -0.8], [0.6, -0.0, 0.8], [-0.8, 0.6, -0.0]]
    for z in (np.nextafter(0.9, 0.0), 0.9, np.nextafter(0.9, 1.0)):
        for sz in (1.0, -1.0):
            r = math.sqrt(1.0 - z * z)
            pts += [[r, 0.0, sz * z], [-0.0, -r, sz * z], [0.6 * r, 0.8 * r, sz * z]]
    return np.array(pts)


def test_tangent_frames_equal_the_np_cross_form_bit_for_bit():
    from entroflow import quadrature

    sphere = geometry.sphere2(1.0, 2.0, time_window=(0.0, 1.2))
    grid, _ = quadrature.build_grid(sphere, np.array([1.0, 0.0, 0.0]), 0.5, level=2)
    gen = np.random.default_rng(3)
    rand = gen.normal(size=(20_000, 3))
    rand /= np.linalg.norm(rand, axis=1, keepdims=True)
    special = _signed_zero_points()
    assert np.any(np.signbit(special) & (special == 0.0))
    assert np.any(np.abs(special[:, 2]) < 0.9) and np.any(np.abs(special[:, 2]) >= 0.9)
    for pts in (grid, rand, special):
        got = geometry.tangent_frames(pts)
        want = _frames_with_np_cross(pts)
        for g, w in zip(got, want):
            assert g.shape == w.shape == pts.shape
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


def test_fd_laplacian_matches_analytic_laplacian():
    from entroflow import solutions

    cases = [
        (geometry.line(), solutions.ExponentialLine(1.0, 1.0, geometry.line()), [0.4]),
        (geometry.punctured3(), solutions.RadialHarmonic3(geometry.punctured3()),
         [0.8, 0.2, 0.2]),
    ]
    circle = geometry.circle(1.0, -0.1, time_window=(0.0, 1.25))
    cases.append((circle, solutions.CircleSpectral(2.0, [(1, 0.5, 0.0)], circle), [1.0]))
    sphere = geometry.sphere2(1.0, 2.0, time_window=(0.0, 1.2))
    cases.append(
        (sphere, solutions.SphereSpectral(2.0, [(1, 0.5)], sphere),
         np.array([0.6, 0.64, 0.48]) / np.linalg.norm([0.6, 0.64, 0.48]))
    )
    for model, sol, y in cases:
        y = np.asarray(y, dtype=float)
        t = 0.5
        fd = geometry.fd_laplacian(
            model, t, y, lambda p: float(sol.value(t, p[None, :])[0])
        )
        assert fd == pytest.approx(float(sol.laplacian(t, y[None, :])[0]), abs=1e-7)
