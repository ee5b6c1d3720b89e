import math
import types
import warnings

import numpy as np
import pytest

from entroflow import analysis, geometry, kernels, quadrature, solutions, stochastic
from entroflow.analysis import (
    GROWTH_CONSTANT,
    GROWTH_LINEAR,
    GROWTH_SUPERLINEAR,
    classify_growth,
    corollary_bounds,
    divergence_demo,
    gradient_entropy_check,
    rigidity_check,
    separation_test,
)
from entroflow.entropy import (
    entropy_curve,
    entropy_q,
    first_variation_integrand,
    ulogu_integrand,
)
from entroflow.errors import ChartViolation, InsufficientCurve
from entroflow.solutions import Constant, ExponentialLine, SumOfExponentialsLine


def _curve(sol, kernel, t_lo=0.25, t_hi=4.0, n=16):
    return entropy_curve(sol, kernel, np.geomspace(t_lo, t_hi, n), with_conditions=False)


# --- growth classification -----------------------------------------------------


def test_constant_classification(line_model, line_kernel):
    sol = Constant(5.0, line_model)
    rep = classify_growth(sol, line_kernel, _curve(sol, line_kernel))
    assert rep.growth_class == GROWTH_CONSTANT
    assert rep.theta == pytest.approx(0.0, abs=1e-12)
    assert not rep.inconsistent


def test_linear_classification_eternal(line_sol, line_kernel):
    rep = classify_growth(line_sol, line_kernel, _curve(line_sol, line_kernel))
    assert rep.growth_class == GROWTH_LINEAR
    assert rep.theta == pytest.approx(1.0, abs=1e-9)
    assert rep.slope == pytest.approx(1.0, abs=1e-6)
    assert rep.fit_residual <= 1e-3


@pytest.mark.parametrize("a,b", [(2.0, 3.0), (0.5, 1.0)])
def test_linear_classification_general(a, b, line_model, line_kernel):
    sol = ExponentialLine(a, b, line_model)
    rep = classify_growth(sol, line_kernel, _curve(sol, line_kernel))
    assert rep.growth_class == GROWTH_LINEAR
    assert rep.slope == pytest.approx(a * b * b, abs=1e-6)


def test_theta_scales_with_amplitude(line_model, line_kernel):
    # replacing u by a*u multiplies the long-time slope by a
    one, three = ExponentialLine(1.0, 1.0, line_model), ExponentialLine(3.0, 1.0, line_model)
    base = classify_growth(one, line_kernel, _curve(one, line_kernel)).theta
    tripled = classify_growth(three, line_kernel, _curve(three, line_kernel)).theta
    assert tripled == pytest.approx(3.0 * base, rel=1e-9)


def test_spectral_modes_grow_superlinearly(circle_sol, circle_kernel):
    curve = _curve(circle_sol, circle_kernel, 0.125, 1.25, 12)
    rep = classify_growth(circle_sol, circle_kernel, curve)
    assert rep.growth_class == GROWTH_SUPERLINEAR
    assert rep.theta_infinite
    assert not rep.inconsistent


def test_insufficient_curve(line_sol, line_kernel):
    with pytest.raises(InsufficientCurve):
        classify_growth(line_sol, line_kernel, _curve(line_sol, line_kernel, 1.0, 2.0, 8))
    with pytest.raises(InsufficientCurve):
        classify_growth(line_sol, line_kernel, _curve(line_sol, line_kernel, 0.25, 4.0, 4))


def test_constant_class_probes_the_solution(line_model, line_kernel, monkeypatch):
    # a flat entropy curve is constant only if the solution's |grad u|^2/u
    # is small too; the probe runs only on such curves
    sol = ExponentialLine(1.0, 1.0, line_model)
    flat = _curve(Constant(5.0, line_model), line_kernel)
    assert classify_growth(sol, line_kernel, flat).growth_class != GROWTH_CONSTANT
    monkeypatch.setattr(analysis, "_max_grad_term", lambda *a: pytest.fail("probed"))
    rep = classify_growth(sol, line_kernel, _curve(sol, line_kernel))
    assert rep.growth_class == GROWTH_LINEAR


@pytest.mark.parametrize("rate, inconsistent", [(0.0, True), (-0.1, True), (0.1, False)])
def test_sublinear_flag_reads_the_flow_condition(rate, inconsistent):
    # E = log(1 + t) is sublinear; under dg/dt <= 2 Ric (rate <= 0 on the
    # circle) that is flagged as inconsistent, not reported as a finding
    model = geometry.circle(1.0, rate, time_window=(0.0, 4.0))
    kernel = kernels.WrappedGaussianKernel(np.array([0.0]), model)
    t = np.geomspace(0.25, 4.0, 16)
    curve = types.SimpleNamespace(
        t_grid=t, E=np.log1p(t), E_prime=1.0 / (1.0 + t), E_second=-1.0 / (1.0 + t) ** 2
    )
    rep = classify_growth(Constant(1.0, model), kernel, curve)
    assert rep.growth_class == analysis.GROWTH_SUBLINEAR
    assert rep.inconsistent is inconsistent


# --- separation ------------------------------------------------------------------


def test_product_solution_separates(line_model):
    sol = ExponentialLine(2.0, 3.0, line_model)
    rep = separation_test(sol, np.linspace(0.0, 1.0, 6), np.linspace(-1, 1, 9))
    assert rep.mixed_residual <= 1e-12
    assert rep.separable
    assert rep.ode_residual <= 1e-10
    # reconstructed factors reproduce u on the grid
    ys = np.linspace(-1, 1, 9)
    ts = np.linspace(0.0, 1.0, 6)
    recon = rep.phi[:, None] * rep.psi[None, :]
    truth = np.stack([sol.value(t, ys[:, None]) for t in ts])
    assert recon == pytest.approx(truth, rel=1e-12)


def test_witness_sum_is_not_separable(line_model):
    sol = SumOfExponentialsLine([(1.0, 1.0), (1.0, 2.0)], line_model)
    rep = separation_test(sol, np.linspace(0.0, 1.0, 6), np.linspace(-1, 1, 9))
    assert rep.mixed_residual >= 0.01
    assert not rep.separable


def test_constant_separates(line_model):
    rep = separation_test(
        Constant(3.0, line_model), np.linspace(0.0, 1.0, 6), np.linspace(-1, 1, 9)
    )
    assert rep.mixed_residual <= 1e-14
    assert np.allclose(rep.psi * rep.phi[0], 3.0)


@pytest.mark.parametrize(
    "ts, ys, grid",
    [([], np.linspace(-1, 1, 9), "t_grid"), (np.linspace(0.0, 1.0, 6), [], "y_grid"),
     (np.linspace(0.0, 1.0, 6), np.empty((0, 1)), "y_grid"),
     ([0.5], np.linspace(-1, 1, 9), "t_grid"), (np.linspace(0.0, 1.0, 6), [0.3], "y_grid")],
    ids=["empty-t", "empty-y", "empty-y-2d", "one-time", "one-point"],
)
def test_separation_refuses_an_empty_grid(ts, ys, grid, line_model):
    # the empty grids raised numpy's bare stacking ValueError and an
    # IndexError; a single time or point has no mixed difference, and the
    # two-mode witness, not separable on a 6 x 9 grid, read as separable
    witness = SumOfExponentialsLine([(1.0, 1.0), (1.0, 2.0)], line_model)
    with pytest.raises(ValueError, match=rf"at least two .* in {grid}"):
        separation_test(witness, ts, ys)


def test_static_solution_separates_on_punctured_space():
    model = geometry.punctured3()
    sol = solutions.RadialHarmonic3(model)
    ys = np.linspace(0.5, 2.0, 7)[:, None] * np.array([1.0, 0.0, 0.0])
    rep = separation_test(sol, np.linspace(0.0, 1.0, 5), ys)
    assert rep.mixed_residual == 0.0


# --- gradient-entropy bounds ------------------------------------------------------


def test_gradient_bound_saturates(line_sol, line_kernel):
    gb = gradient_entropy_check(line_sol, line_kernel, 1.0, level=2)
    assert gb.lhs == pytest.approx(1.0, abs=1e-12)
    assert gb.rhs == pytest.approx(1.0, abs=1e-8)
    assert gb.holds


def test_gradient_bound_trivial_for_constants(line_model, line_kernel):
    gb = gradient_entropy_check(Constant(1.0, line_model), line_kernel, 1.0)
    assert gb.lhs == 0.0
    assert gb.rhs == pytest.approx(0.0, abs=1e-12)
    assert gb.holds


def test_gradient_bound_strict_on_circle(circle_sol, circle_kernel):
    gb = gradient_entropy_check(circle_sol, circle_kernel, 0.5, level=2)
    assert gb.holds
    assert gb.lhs < gb.rhs  # base point at the flat spot of the mode


def test_gradient_bound_reads_the_start_point_of_its_target(line_model):
    # |grad u/u|^2 (0, y) varies for a sum of exponentials, so the bound
    # depends on where the kernel or the paths start
    sol = SumOfExponentialsLine([(1, 1), (1, 2)], line_model)
    t = 0.5
    cfg = stochastic.SdeConfig(dt=1e-2, n_paths=2000, seed=0xC0FFEE)
    lhs = {}
    for x in (-0.5, 0.5):
        pt = np.array([[x]])
        u0 = float(sol.value(0.0, pt)[0])
        want = t * float(sol.grad_term(0.0, pt)[0]) / u0
        kern = kernels.GaussianKernel(np.array([x]), line_model)
        gb = gradient_entropy_check(sol, kern, t, level=2)
        assert gb.lhs == want and gb.holds
        # E[u(t, X_t)] = u0, so the normalized entropy is (E(t) - u0 log u0) / u0
        e = entropy_q(sol, kern, t, level=2)
        assert gb.rhs == pytest.approx((e - u0 * math.log(u0)) / u0, rel=1e-9)
        ens = stochastic.simulate(line_model, [x], t, cfg, record_times=[t])
        gb = gradient_entropy_check(sol, ens, t)
        assert gb.lhs == want and gb.holds
        lhs[x] = want
    assert lhs[0.5] > 1.3 * lhs[-0.5]


def test_delta_bound_equality_case(line_sol, line_kernel):
    cb = corollary_bounds(line_sol, line_kernel, 1.0, 1.0, level=2)
    assert cb.delta_lhs == pytest.approx(1.0, abs=1e-12)
    assert cb.delta_rhs == pytest.approx(1.0, abs=1e-8)
    assert cb.delta_bound_holds
    # the grid sup of e^{y-t} grows with the box: sup form not applicable
    assert cb.sup_unbounded
    assert cb.sup_bound_holds is None


def test_delta_bound_reads_the_gradient_not_its_square(line_model, line_kernel):
    # delta/(2t) + N/(2 delta) is Young's bound on sqrt(N/t), so it bounds
    # |grad log u| = b = 3 here, not its square 9, which used to fail it
    t = 1.0968
    cb = corollary_bounds(ExponentialLine(2.0, 3.0, line_model), line_kernel, t, 1.0, level=2)
    assert cb.delta_lhs == pytest.approx(3.0, rel=1e-12)
    assert cb.delta_lhs == cb.sup_lhs
    assert cb.delta_rhs == pytest.approx(1.0 / (2.0 * t) + 9.0 * t / 2.0, rel=1e-8)
    assert cb.delta_bound_holds


def test_sup_probe_reads_an_overflow_as_unbounded(line_model, line_kernel):
    # 2 exp(3y - 9t) overflows on the fourth doubled box; that used to print
    # two numpy overflow RuntimeWarnings
    sol = ExponentialLine(2.0, 3.0, line_model)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cb = corollary_bounds(sol, line_kernel, 1.0968, 1.0, level=2)
    assert cb.sup_value == math.inf
    assert cb.sup_unbounded
    assert cb.sup_bound_holds is None


def test_bounds_trivial_for_constants(line_model, line_kernel):
    cb = corollary_bounds(Constant(2.0, line_model), line_kernel, 1.0, 0.7)
    assert cb.delta_bound_holds
    assert not cb.sup_unbounded
    assert cb.sup_bound_holds


def test_bounds_on_compact_circle(circle_sol, circle_kernel):
    cb = corollary_bounds(circle_sol, circle_kernel, 1.0, 0.5, level=2)
    assert cb.delta_bound_holds
    assert not cb.sup_unbounded
    assert cb.sup_bound_holds
    assert cb.sup_value < 5.0  # compactness keeps the sup finite


# --- rigidity ---------------------------------------------------------------------


def test_rigidity_antecedent_false_on_static_circle():
    model = geometry.circle(1.0, 0.0, time_window=(0.0, 1.3))
    sol = solutions.CircleSpectral(2.0, [(1, 0.5, 0.0)], model)
    kern = kernels.WrappedGaussianKernel(np.array([0.0]), model)
    rep = rigidity_check(
        sol, kern, np.geomspace(0.2, 1.2, 6),
        np.linspace(0, 2 * np.pi, 9, endpoint=False)[:, None],
    )
    assert rep.min_margin == pytest.approx(0.0, abs=1e-12)
    assert not rep.antecedent
    assert rep.consistent


def test_rigidity_holds_for_constant_on_shrinking_circle(circle_model, circle_kernel):
    sol = Constant(3.0, circle_model)
    rep = rigidity_check(
        sol, circle_kernel, np.geomspace(0.2, 1.2, 6),
        np.linspace(0, 2 * np.pi, 9, endpoint=False)[:, None],
    )
    assert rep.min_margin > 0
    assert rep.antecedent and rep.entropy_linear
    assert rep.max_grad_log == 0.0
    assert rep.consistent


def test_rigidity_sharpness_on_the_flat_line(line_sol, line_kernel):
    # gap matrix vanishes identically: linear entropy is permitted
    rep = rigidity_check(
        line_sol, line_kernel, np.geomspace(0.25, 2.0, 6),
        np.linspace(-1, 1, 9)[:, None],
    )
    assert not rep.antecedent
    assert rep.entropy_linear
    assert rep.max_grad_log > 0.5
    assert rep.consistent


@pytest.mark.parametrize("which", ["circle", "sphere"])
def test_rigidity_entropy_is_entropy_q_bit_for_bit(which, request, monkeypatch):
    # one curve serves every time of the series (the nodes do not move
    # with t here); each value equals its own entropy_q
    sol, kern = (request.getfixturevalue(f"{which}_{k}") for k in ("sol", "kernel"))
    ts = np.geomspace(0.2, 1.1, 5)
    seen = []
    fit = analysis._linear_fit_residual

    def recorded(t, e):
        seen.append(e)
        return fit(t, e)

    monkeypatch.setattr(analysis, "_linear_fit_residual", recorded)
    y_grid = [[0.0]] if which == "circle" else [[0.0, 0.0, 1.0]]
    rigidity_check(sol, kern, ts, y_grid, level=1)
    want = [entropy_q(sol, kern, t, level=1) for t in ts]
    assert np.asarray(seen[0]).view(np.uint64).tolist() == (
        np.asarray(want).view(np.uint64).tolist()
    )


def test_rigidity_takes_one_margin_per_time(circle_model, circle_kernel, monkeypatch):
    # the margin (2K - rate) / c(t) is the same at every point: one value
    # per time, the minimum over the (t, y) grid; every point is still
    # checked against the chart
    sol = Constant(3.0, circle_model)
    ts = np.geomspace(0.2, 1.2, 6)
    y_grid = np.linspace(0, 2 * np.pi, 9, endpoint=False)[:, None]
    want = min(-circle_model.super_ricci_gap(t) for t in ts)
    seen = []
    gap = geometry.MetricModel.super_ricci_gap

    def counted(model, t):
        seen.append(t)
        return gap(model, t)

    monkeypatch.setattr(geometry.MetricModel, "super_ricci_gap", counted)
    rep = rigidity_check(sol, circle_kernel, ts, y_grid)
    assert seen == list(ts)
    assert np.float64(rep.min_margin).view(np.uint64) == np.float64(want).view(np.uint64)
    sphere = geometry.sphere2(1.0, 2.0, time_window=(0.0, 1.2))
    with pytest.raises(ChartViolation):
        rigidity_check(
            Constant(1.0, sphere),
            kernels.SphereHeatKernel(np.array([0.0, 0.0, 1.0]), sphere),
            ts[:2], [[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]],
        )
    with pytest.raises(ValueError, match="at least one point"):
        rigidity_check(sol, circle_kernel, ts, np.empty((0, 1)))


@pytest.mark.parametrize(
    "ts", [[], [0.5], [0.5, 1.0], [0.5, 0.5, 1.0]], ids=["none", "one", "two", "two-distinct"]
)
def test_rigidity_refuses_fewer_than_three_times(ts, circle_model, circle_kernel):
    # two points always fit a line, so a nonconstant solution under strict
    # positivity would read as a counterexample to the rigidity statement
    sol = solutions.CircleSpectral(2.0, [(1, 0.5, 0.0)], circle_model)
    with pytest.raises(InsufficientCurve, match="at least three distinct times"):
        rigidity_check(sol, circle_kernel, ts, [[0.0], [1.0]])


def test_rigidity_flags_nonconstant_under_strict_positivity(circle_model, circle_kernel):
    # the spectral mode has nonzero gradient; with a strictly positive
    # margin the implication would only fire if the entropy were linear,
    # which it is not, so the report stays consistent
    sol = solutions.CircleSpectral(2.0, [(1, 0.5, 0.0)], circle_model)
    rep = rigidity_check(
        sol, circle_kernel, np.geomspace(0.2, 1.2, 8),
        np.linspace(0, 2 * np.pi, 9, endpoint=False)[:, None],
    )
    assert rep.antecedent
    assert not rep.entropy_linear
    assert rep.consistent


# --- the punctured-space dichotomy ------------------------------------------------


def _punctured(x=(1.0, 0.0, 0.0)):
    """1/|y| on punctured 3-space and the kernel started at x."""
    model = geometry.punctured3()
    return solutions.RadialHarmonic3(model), kernels.GaussianKernel(np.asarray(x), model)


def test_divergence_demo_tables():
    rep = divergence_demo(*_punctured(), 1.0)
    assert rep.cutoffs == pytest.approx([1e-2, 1e-3, 1e-4, 1e-5])
    assert rep.entropy_stable
    assert rep.entropy_spread <= 1e-4
    assert rep.prime_divergent
    assert min(rep.prime_growths) > 0.10
    assert rep.tail_shift <= 1e-6
    assert rep.stable_under_mesh_doubling
    # the divergent integral grows by the derived log rate per decade
    rate = math.log(10.0) * 4 * math.pi * (4 * math.pi) ** -1.5 * math.exp(-0.25)
    diffs = np.diff(rep.prime_values)
    assert diffs == pytest.approx(rate, rel=1e-3)


def test_divergence_demo_equals_separate_integrals_bit_for_bit():
    # E and E' of a level share one grid; each must equal the value of
    # its own kernel_integral call
    t = 0.5
    sol, kernel = _punctured((0.0, 0.8, 0.6))
    rep = divergence_demo(sol, kernel, t, levels=range(3))
    for lv in range(3):
        e = quadrature.kernel_integral(ulogu_integrand(sol), kernel, t, level=lv)
        p = quadrature.kernel_integral(first_variation_integrand(sol), kernel, t, level=lv)
        assert np.float64(rep.entropy_values[lv]).view(np.uint64) == np.float64(e).view(np.uint64)
        assert np.float64(rep.prime_values[lv]).view(np.uint64) == np.float64(p).view(np.uint64)
    ((tail,),) = quadrature.curve_expectations(
        (ulogu_integrand(sol),), kernel, (t,), 0, outer_scale=2.0
    )
    assert rep.tail_shift == abs(tail - rep.entropy_values[0])


def test_divergence_demo_takes_one_jet_per_grid(monkeypatch):
    # E and E' of a level read one jet per block of its grid, without the
    # Hessian; the tail's lone entropy reads the value; each grid is built
    # once and its blocks cover every node once
    monkeypatch.setattr(quadrature, "_NODE_BLOCK", 1000)
    grids, calls = [], []
    cls = solutions.RadialHarmonic3
    build_grid, log_jet, value = quadrature.build_grid, cls.log_jet, cls.value

    def recorded_build(*args, **kwargs):
        pts, w = build_grid(*args, **kwargs)
        grids.append(pts)
        return pts, w

    def counted_jet(self, t, pts, hess=True):
        calls.append(("jet", hess, np.array(pts)))
        return log_jet(self, t, pts, hess=hess)

    def counted_value(self, t, pts):
        calls.append(("value", None, np.array(pts)))
        return value(self, t, pts)

    monkeypatch.setattr(quadrature, "build_grid", recorded_build)
    monkeypatch.setattr(cls, "log_jet", counted_jet)
    monkeypatch.setattr(cls, "value", counted_value)
    divergence_demo(*_punctured(), 1.0, levels=range(3))
    assert len(grids) == 7
    for grid, kind in zip(grids, [("jet", False)] * 6 + [("value", None)]):
        n = -(-len(grid) // 1000)
        blocks, calls = calls[:n], calls[n:]
        assert [call[:2] for call in blocks] == [kind] * n
        assert np.array_equal(np.concatenate([call[2] for call in blocks]), grid)
    assert calls == []


def test_divergence_demo_refuses_bad_input(line_sol, line_kernel):
    # t = 0 raised a bare ZeroDivisionError, no levels "max() arg is an
    # empty sequence"
    with pytest.raises(ValueError, match="t > 0"):
        divergence_demo(*_punctured(), 0.0)
    with pytest.raises(ValueError, match="at least one level"):
        divergence_demo(*_punctured(), 1.0, levels=[])
    # its grids refine toward the puncture, which no other model has
    with pytest.raises(ValueError, match="need a kernel on punctured-3, not on euclidean-line"):
        divergence_demo(line_sol, line_kernel, 1.0)


# --- corollary bounds ---------------------------------------------------------------


@pytest.mark.parametrize("delta", [math.inf, math.nan, -1.0, 0.0])
def test_corollary_bounds_refuse_a_bad_delta(line_sol, line_kernel, delta):
    # delta = inf used to report delta_bound_holds with delta_rhs = inf
    with pytest.raises(ValueError, match="delta must be positive and finite"):
        corollary_bounds(line_sol, line_kernel, 1.0, delta)
