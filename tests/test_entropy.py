import math
import weakref

import numpy as np
import pytest

from entroflow import analysis, entropy, geometry, kernels, quadrature, solutions
from entroflow.entropy import (
    EntropyCurve,
    conditions,
    entropy_curve,
    entropy_mc,
    entropy_prime,
    entropy_q,
    entropy_second,
    local_entropy,
    stopped_increment_residual,
    submartingale_gap,
)
from entroflow.errors import OutOfWindow, QuadratureDivergence
from entroflow.solutions import Constant, ExponentialLine
from entroflow.stochastic import DomainSpec


# --- worked values -----------------------------------------------------------


@pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
def test_entropy_is_time_for_the_eternal_exponential(t, line_sol, line_kernel):
    assert entropy_q(line_sol, line_kernel, t, level=2) == pytest.approx(
        t, abs=1e-8
    )


def test_entropy_of_a_constant(line_model, line_kernel):
    sol = Constant(5.0, line_model)
    got = entropy_q(sol, line_kernel, 1.0)
    assert got == pytest.approx(5.0 * math.log(5.0), abs=1e-10)


def test_entropy_of_the_general_family(line_model, line_kernel):
    sol = ExponentialLine(2.0, 3.0, line_model)
    got = entropy_q(sol, line_kernel, 0.5, level=2)
    assert got == pytest.approx(2.0 * math.log(2.0) + 9.0, abs=1e-8)


def test_first_variation_values(line_model, line_kernel):
    # |grad u|^2/u = b^2 u and u(s, X_s) has constant mean u(0, x)
    sol = ExponentialLine(1.0, 1.0, line_model)
    for t in (0.25, 1.0, 3.0):
        assert entropy_prime(sol, line_kernel, t, level=2) == pytest.approx(
            1.0, abs=1e-8
        )
    sol = ExponentialLine(2.0, 3.0, line_model)
    assert entropy_prime(sol, line_kernel, 1.0, level=2) == pytest.approx(
        18.0, abs=1e-8
    )
    assert entropy_prime(Constant(3.0, line_model), line_kernel, 1.0) == 0.0


def test_second_variation_vanishes_for_exponentials(line_model, line_kernel):
    sol = ExponentialLine(1.0, 1.0, line_model)
    assert entropy_second(sol, line_kernel, 1.0, level=2) == pytest.approx(
        0.0, abs=1e-12
    )


def test_second_variation_matches_second_difference_on_static_circle():
    model = geometry.circle(1.0, 0.0, time_window=(0.0, 1.3))
    sol = solutions.CircleSpectral(2.0, [(1, 0.5, 0.0)], model)
    kern = kernels.WrappedGaussianKernel(np.array([0.0]), model)
    t, h = 0.25, 1e-3
    fd2 = (
        entropy_q(sol, kern, t + h, level=2)
        - 2 * entropy_q(sol, kern, t, level=2)
        + entropy_q(sol, kern, t - h, level=2)
    ) / (h * h)
    got = entropy_second(sol, kern, t, level=2)
    assert got > 0
    assert got == pytest.approx(fd2, abs=1e-4)


def test_multi_mode_derivative_consistency_off_center():
    # two circle modes with phases, kernel based away from the symmetry
    # point: E' and E'' still match the differences of E
    model = geometry.circle(1.0, 0.0, time_window=(0.0, 0.4))
    sol = solutions.CircleSpectral(2.0, [(1, 0.3, 0.5), (2, 0.2, 1.0)], model)
    kern = kernels.WrappedGaussianKernel(np.array([0.7]), model)
    t, h = 0.2, 1e-3
    e = [entropy_q(sol, kern, t + s * h, level=2) for s in (-1, 0, 1)]
    fd1 = (e[2] - e[0]) / (2 * h)
    fd2 = (e[2] - 2 * e[1] + e[0]) / (h * h)
    assert fd1 == pytest.approx(
        entropy_prime(sol, kern, t, level=2), abs=1e-5
    )
    second = entropy_second(sol, kern, t, level=2)
    assert fd2 == pytest.approx(second, abs=1e-4)
    assert second > 0


def test_condition_integrals_worked_example(line_sol, line_kernel):
    rep = conditions(line_sol, line_kernel, 0.5)
    assert rep.cond1 == pytest.approx(7.25 * math.e, rel=1e-6)
    assert rep.cond2 == pytest.approx(math.e, rel=1e-6)
    assert rep.cond0a == pytest.approx(math.e, rel=1e-6)  # b^2 E[u^2] = e^{2t}
    assert rep.all_finite


def test_conditions_divergent_on_the_radial_harmonic():
    model = geometry.punctured3()
    sol = solutions.RadialHarmonic3(model)
    kern = kernels.GaussianKernel(np.array([1.0, 0.0, 0.0]), model)
    rep = conditions(sol, kern, 1.0)
    assert math.isinf(rep.cond1) and rep.cond1_divergent
    assert math.isinf(rep.cond2) and rep.cond2_divergent
    assert math.isinf(rep.cond0a) and rep.cond0a_divergent
    assert not rep.all_finite
    with pytest.raises(QuadratureDivergence):
        entropy_prime(sol, kern, 1.0)


def test_constant_conditions_vanish(line_model, line_kernel):
    rep = conditions(Constant(2.0, line_model), line_kernel, 1.0)
    assert (rep.cond1, rep.cond2, rep.cond0a) == (0.0, 0.0, 0.0)


# --- Monte Carlo -------------------------------------------------------------


def test_entropy_mc_matches_quadrature(line_sol, line_kernel, line_ensemble):
    r = entropy_mc(line_sol, line_ensemble, 1.0)
    eq = entropy_q(line_sol, line_kernel, 1.0, level=2)
    assert abs(r.mean - eq) <= 3 * r.stderr


def test_entropy_mc_of_constant_one(line_model, line_ensemble):
    r = entropy_mc(Constant(1.0, line_model), line_ensemble, 1.0)
    assert r.mean == 0.0 and r.stderr == 0.0


def test_circle_mc_matches_quadrature(circle_sol, circle_kernel, circle_ensemble):
    r = entropy_mc(circle_sol, circle_ensemble, 1.0)
    eq = entropy_q(circle_sol, circle_kernel, 1.0, level=2)
    assert abs(r.mean - eq) <= 3 * r.stderr
    rp = entropy_prime(circle_sol, circle_ensemble, 1.0)
    ep = entropy_prime(circle_sol, circle_kernel, 1.0, level=2)
    assert abs(rp.mean - ep) <= 3 * rp.stderr


def test_sphere_mc_matches_quadrature(sphere_sol, sphere_kernel, sphere_ensemble):
    # exercises the vectorized sphere jets (frames, Hessians) on simulated
    # states; the projected scheme carries an O(dt) weak bias well inside
    # the Monte Carlo band at this ensemble size
    t = 0.5
    r = entropy_mc(sphere_sol, sphere_ensemble, t)
    eq = entropy_q(sphere_sol, sphere_kernel, t, level=2)
    assert abs(r.mean - eq) <= 3 * r.stderr + 2e-3
    rp = entropy_prime(sphere_sol, sphere_ensemble, t)
    ep = entropy_prime(sphere_sol, sphere_kernel, t, level=2)
    assert abs(rp.mean - ep) <= 3 * rp.stderr + 2e-3
    rs = entropy_second(sphere_sol, sphere_ensemble, t)
    es = entropy_second(sphere_sol, sphere_kernel, t, level=2)
    assert abs(rs.mean - es) <= 3 * rs.stderr + 2e-3


# --- local entropies ----------------------------------------------------------


def test_stopped_outside_start_is_frozen(line_model, line_sol, line_ensemble):
    table = local_entropy(
        line_sol, line_ensemble, [DomainSpec.interval(2.0, 3.0)], [0.25, 0.5, 1.0]
    )
    start = float(line_sol.ulogu(0.0, np.array([[0.0]]))[0])
    assert np.allclose(table.E_D[0], start)
    assert np.allclose(table.stderr[0], 0.0)


def test_a_domain_no_path_leaves_equals_plain_expectation(line_sol, line_ensemble):
    whole = DomainSpec.interval(-50.0, 50.0)
    table = local_entropy(line_sol, line_ensemble, [whole], [0.5, 1.0])
    for i, t in enumerate((0.5, 1.0)):
        r = entropy_mc(line_sol, line_ensemble, t)
        assert table.E_D[0, i] == r.mean
    assert table.E_D_exit[0].dominated  # no exits ever happen
    assert table.exit_censored_frac[0] == 1.0


def test_nested_domains_increase_toward_global_entropy(line_model, line_sol, line_ensemble):
    domains = [DomainSpec.interval(-n, n) for n in (1, 2, 3, 4)]
    table = local_entropy(line_sol, line_ensemble, domains, [0.25, 0.5, 1.0])
    vals = table.E_D[:, -1]
    assert np.all(np.diff(vals) > -3 * np.hypot(table.stderr[1:, -1], table.stderr[:-1, -1]))
    se = table.stderr[-1, -1]
    assert abs(table.E_D[-1, -1] - 1.0) <= 3 * se
    assert table.monotone_t_z >= -3.0
    assert table.monotone_D_z >= -3.0


def test_stopped_increment_identity(line_model, line_sol, line_ensemble):
    mean, se = stopped_increment_residual(
        line_sol, line_ensemble, DomainSpec.interval(-1.0, 1.0), 1.0
    )
    assert abs(mean) <= max(3 * se, 1e-3)


@pytest.mark.parametrize("t", [0.52, 0.549, 1.5])
def test_stopped_increment_refuses_a_time_it_did_not_record(line_sol, line_ensemble, t):
    # snapshots lie every 0.05 up to 1.0; this answered from the last
    # snapshot before t, with that snapshot's states read as the states at t
    domain = DomainSpec.interval(-1.0, 1.0)
    with pytest.raises(ValueError, match="not a recorded snapshot"):
        stopped_increment_residual(line_sol, line_ensemble, domain, t)
    with pytest.raises(ValueError, match="not a recorded snapshot"):
        local_entropy(line_sol, line_ensemble, [domain], [t])


def test_a_domain_the_ensemble_was_not_simulated_with_is_refused(line_sol, line_ensemble):
    # exits are found when the ensemble is simulated, and only there
    untracked = DomainSpec.interval(-7.0, 7.0)
    message = r"no exits from .*-7\.0, 7\.0.*simulated with domains=\[.*\(2\.0, 3\.0\)"
    with pytest.raises(ValueError, match=message):
        local_entropy(line_sol, line_ensemble, [DomainSpec.interval(-1, 1), untracked], [0.5])
    with pytest.raises(ValueError, match=message):
        stopped_increment_residual(line_sol, line_ensemble, untracked, 0.5)
    assert untracked not in line_ensemble.exits


# --- submartingale gaps --------------------------------------------------------


def test_gap_of_a_constant_is_exactly_zero(line_model, line_ensemble):
    g = submartingale_gap(Constant(4.0, line_model), line_ensemble, 1.0)
    assert g.gap == 0.0
    assert g.midpoint_gap == 0.0


def test_gap_saturates_for_the_eternal_exponential(line_sol, line_ensemble):
    g = submartingale_gap(line_sol, line_ensemble, 1.0)
    assert abs(g.gap) <= 3 * g.stderr


def test_gap_positive_on_the_shrinking_circle(circle_sol, circle_ensemble):
    g = submartingale_gap(circle_sol, circle_ensemble, 1.0)
    assert g.gap >= -3 * g.stderr
    assert g.midpoint_gap >= -3 * g.midpoint_stderr


def test_gap_warns_when_the_flow_condition_fails(line_ensemble):
    # a growing circle violates dg/dt <= 2 Ric; reuse the line ensemble shape
    model = geometry.circle(1.0, 0.5)
    sol = solutions.CircleSpectral(2.0, [(1, 0.1, 0.0)], geometry.circle(1.0, 0.5, (0.0, 1.0)))
    with pytest.warns(UserWarning):
        entropy._warn_if_super_ricci_fails(model, 0.5)


# --- curves and CSV -------------------------------------------------------------


def test_quadrature_curve_is_deterministic(line_sol, line_kernel):
    grid = np.geomspace(0.25, 2.0, 6)
    a = entropy_curve(line_sol, line_kernel, grid, with_conditions=False)
    b = entropy_curve(line_sol, line_kernel, grid, with_conditions=False)
    assert np.array_equal(a.E, b.E)
    assert np.array_equal(a.E_prime, b.E_prime)
    assert a.method == ["quadrature"] * 6
    with pytest.raises(ValueError, match="t > 0"):
        entropy_curve(line_sol, line_kernel, [0.0], with_conditions=False)


def test_entropy_at_a_non_finite_time_is_refused(
    circle_sol, circle_kernel, sphere_sol, sphere_kernel
):
    # t = nan used to fail inside the kernel series (sphere) or its integer
    # cast (circle)
    for sol, kernel in ((circle_sol, circle_kernel), (sphere_sol, sphere_kernel)):
        for t in (math.nan, math.inf):
            with pytest.raises(OutOfWindow, match="not a finite time"):
                entropy_q(sol, kernel, t)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("which", ["line", "circle", "sphere"])
@pytest.mark.parametrize("level", [0, entropy.DEFAULT_CURVE_LEVEL])
def test_curve_shares_nodes_bit_for_bit(which, level, request):
    # E, E', E'' of one time share a grid; each must equal its own
    # single-integral quadrature bit for bit
    sol, kernel = (request.getfixturevalue(f"{which}_{k}") for k in ("sol", "kernel"))
    grid = np.array([0.25, 0.5, 0.75])
    curve = entropy_curve(sol, kernel, grid, level=level, with_conditions=False)
    for i, t in enumerate(grid):
        assert _bits(curve.E[i]) == _bits(entropy_q(sol, kernel, t, level=level))
        assert _bits(curve.E_prime[i]) == _bits(
            entropy_prime(sol, kernel, t, level=level)
        )
        assert _bits(curve.E_second[i]) == _bits(
            entropy_second(sol, kernel, t, level=level)
        )


def test_curve_matches_exact_line(line_sol, line_kernel):
    grid = np.geomspace(0.25, 2.0, 6)
    curve = entropy_curve(line_sol, line_kernel, grid, with_conditions=True)
    assert curve.E == pytest.approx(grid, abs=1e-8)
    assert curve.E_prime == pytest.approx(np.ones(6), abs=1e-8)
    assert curve.cond2 == pytest.approx(np.exp(2 * grid), rel=1e-6)


def test_csv_schema_and_inf_encoding(tmp_path):
    curve = EntropyCurve(
        t_grid=np.array([1.0]),
        E=np.array([0.5]), E_stderr=np.array([0.0]),
        E_prime=np.array([1.0]), E_prime_stderr=np.array([0.0]),
        E_second=np.array([0.0]), E_second_stderr=np.array([0.0]),
        method=["quadrature"],
        cond1=np.array([np.inf]), cond2=np.array([2.0]), cond0a=np.array([3.0]),
        cond1_divergent=np.array([True]), cond2_divergent=np.array([False]),
        cond0a_divergent=np.array([False]),
    )
    path = tmp_path / "entropy.csv"
    curve.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "t,E,E_stderr,Eprime,Eprime_stderr,Esecond,Esecond_stderr,"
        "cond1,cond2,cond0a,method,cond1_divergent,cond2_divergent,cond0a_divergent"
    )
    fields = lines[1].split(",")
    assert fields[7] == "inf"
    assert fields[11] == "true"
    assert fields[12] == "false"


def test_monte_carlo_curve(line_sol, line_ensemble):
    grid = [0.25, 0.5, 1.0]
    curve = entropy_curve(line_sol, line_ensemble, grid, with_conditions=False)
    assert curve.method == ["monte-carlo"] * 3
    for i, t in enumerate(grid):
        assert abs(curve.E[i] - t) <= 3 * curve.E_stderr[i]
        assert curve.E_stderr[i] > 0


def _condition_cases():
    punctured = geometry.punctured3()
    circle = geometry.circle(1.0, -0.1, time_window=(0.0, 1.25))
    sphere = geometry.sphere2(1.0, 2.0, time_window=(0.0, 1.2))
    line = geometry.line()
    return {
        "line": (ExponentialLine(1.0, 1.0, line),
                 kernels.GaussianKernel(np.array([0.0]), line), 0.5),
        "circle": (solutions.CircleSpectral(2.0, [(1, 0.5, 0.0)], circle),
                   kernels.WrappedGaussianKernel(np.array([0.0]), circle), 0.5),
        "sphere": (solutions.SphereSpectral(2.0, [(1, 0.5)], sphere),
                   kernels.SphereHeatKernel(np.array([1.0, 0.0, 0.0]), sphere), 0.5),
        "punctured": (solutions.RadialHarmonic3(punctured),
                      kernels.GaussianKernel(np.array([1.0, 0.0, 0.0]), punctured), 1.0),
    }


@pytest.mark.parametrize("which", ["line", "circle", "sphere", "punctured"])
def test_conditions_share_nodes_bit_for_bit(which, monkeypatch):
    # one grid per level serves all three integrals; each must end where
    # and as it ends when refined alone, with the same bits
    sol, kern, t = _condition_cases()[which]
    alone = {
        name: quadrature.refine_expectations(
            (f(sol),), kern, t, growth=entropy.shared_growth(sol)
        )[0]
        for name, f in (
            ("cond1", entropy.cond1_integrand),
            ("cond2", entropy.cond2_integrand),
            ("cond0a", entropy.cond0a_integrand),
        )
    }
    built = []
    build_grid = quadrature.build_grid

    def counted(model, x, t, level=0, growth=0.0, **opts):
        built.append(level)
        return build_grid(model, x, t, level=level, growth=growth, **opts)

    monkeypatch.setattr(quadrature, "build_grid", counted)
    rep = conditions(sol, kern, t)
    deepest = max(len(ref.values) for ref in alone.values())
    assert built == list(range(deepest))  # one build per level
    for name, ref in alone.items():
        assert tuple(_bits(rep.tables[name])) == tuple(_bits(ref.values))
        assert getattr(rep, f"{name}_divergent") == ref.divergent
        value = math.inf if ref.divergent else ref.value
        assert _bits(getattr(rep, name)) == _bits(value)
    if which == "punctured":
        assert not rep.all_finite
    else:
        assert rep.all_finite


def test_refinements_stop_at_their_own_levels(line_kernel):
    # a constant settles at level 1; a kink inside a panel never settles and
    # runs through every level without it
    one = lambda tt, p: np.ones(p.shape[0])  # noqa: E731
    kink = lambda tt, p: np.abs(p[:, 0] - 0.1)  # noqa: E731
    refs = quadrature.refine_expectations((one, kink), line_kernel, 0.5)
    assert refs == (
        quadrature.refine_expectations((one,), line_kernel, 0.5)[0],
        quadrature.refine_expectations((kink,), line_kernel, 0.5)[0],
    )
    assert len(refs[0].values) == 2 and refs[0].converged
    assert len(refs[1].values) == 5 and not (refs[1].converged or refs[1].divergent)


# --- one solution jet per node set ------------------------------------------------


_ALL_INTEGRANDS = (
    entropy.ulogu_integrand, entropy.first_variation_integrand,
    entropy.second_variation_integrand, entropy.cond1_integrand,
    entropy.cond2_integrand, entropy.cond0a_integrand,
)


@pytest.mark.parametrize("which", ["line", "circle", "sphere", "punctured"])
@pytest.mark.parametrize("level", [0, 2])
def test_shared_jet_gives_each_single_integral_bit_for_bit(which, level):
    # every subset of the six integrands (with and without the Hessian,
    # u alone) shares one jet; each value equals its own kernel_integral
    sol, kern, t = _condition_cases()[which]
    growth = entropy.shared_growth(sol)
    fs = [make(sol) for make in _ALL_INTEGRANDS]
    alone = [
        quadrature.kernel_integral(f, kern, t, growth=growth, level=level)
        for f in fs
    ]
    for pick in ((0, 1, 2, 3, 4, 5), (0, 1, 2), (3, 5), (0,), (4, 0)):
        (shared,) = quadrature.curve_expectations(
            entropy.JetIntegrands(fs[i] for i in pick), kern, (t,), level, growth
        )
        assert _bits(shared).tolist() == _bits([alone[i] for i in pick]).tolist(), pick


def _unblocked(f, kern, t, level, growth):
    """The integral as one product over the whole node set and one dot."""
    pts, w = quadrature.build_grid(kern.model, kern.base_point, t, level, growth)
    return float(np.dot(np.asarray(f(t, pts), dtype=float) * kern.density(t, pts), w))


def _refinement_bits(refs):
    return [(_bits(r.values).tolist(), r.converged, r.divergent) for r in refs]


# one node a block costs about a millisecond a node on the sphere and the
# punctured space (over a minute for the sphere at level 2), so only the
# line and the circle take it here
_BLOCK_CASES = [
    (which, level, block)
    for which in ("line", "circle", "sphere", "punctured")
    for level in (0, 2)
    for block in (1, 1000, 1 << 30)
    if block > 1 or which in ("line", "circle")
]


@pytest.mark.parametrize("which, level, block", _BLOCK_CASES)
def test_node_blocks_keep_every_bit(which, level, block, monkeypatch):
    # one node, 1,000 nodes or the whole set a block: the same products in
    # the same full-length vector, so the same dot, through all three entry
    # points, for the six integrands and the kernel mass
    sol, kern, t = _condition_cases()[which]
    growth = entropy.shared_growth(sol)
    fs = entropy.JetIntegrands(make(sol) for make in _ALL_INTEGRANDS)
    times = (t, 0.8 * t)
    levels = range(level + 1)
    refined = quadrature.refine_expectations(fs, kern, t, growth, levels)
    mass = kernels.kernel_mass(kern, t)
    monkeypatch.setattr(quadrature, "_NODE_BLOCK", block)
    got = quadrature.curve_expectations(fs, kern, times, level, growth)
    want = [[_unblocked(f, kern, s, level, growth) for f in fs] for s in times]
    assert _bits(got).tolist() == _bits(want).tolist()
    assert _refinement_bits(
        quadrature.refine_expectations(fs, kern, t, growth, levels)
    ) == _refinement_bits(refined)
    ones = lambda tt, p: np.ones(len(p))  # noqa: E731
    assert _bits(kernels.kernel_mass(kern, t, level=level)) == _bits(
        _unblocked(ones, kern, t, level, 0.0)
    )
    assert _bits(kernels.kernel_mass(kern, t)) == _bits(mass)


def _count_jets(monkeypatch, sol, nodes=None):
    """Record the jets and values asked of ``sol`` from outside its own
    methods (some families' jets call `value`); each jet's time and points
    go to ``nodes`` too when it is a list."""
    calls = []
    inside = []
    log_jet, value = sol.log_jet, sol.value

    def counted_jet(t, pts, hess=True, **shared):
        calls.append(("jet", len(pts), hess))
        if nodes is not None:
            nodes.append((t, np.array(pts)))
        inside.append(1)
        try:
            return log_jet(t, pts, hess=hess, **shared)
        finally:
            inside.pop()

    def counted_value(t, pts):
        if not inside:
            calls.append(("value", len(pts), None))
        return value(t, pts)

    monkeypatch.setattr(sol, "log_jet", counted_jet)
    monkeypatch.setattr(sol, "value", counted_value)
    return calls


def _assert_jets_cover_each_grid(nodes, kern, times, level, growth):
    """Each time's jets, in the order taken, are its grid's blocks of
    `quadrature._NODE_BLOCK` nodes: every node once."""
    block = quadrature._NODE_BLOCK
    for t in times:
        pts, _ = quadrature.build_grid(kern.model, kern.base_point, t, level, growth)
        blocks = [p for s, p in nodes if s == t]
        assert len(blocks) == -(-len(pts) // block) > 1
        assert np.array_equal(np.concatenate(blocks), pts)
    assert len(nodes) == sum(s in times for s, _ in nodes)


@pytest.mark.parametrize("which", ["line", "circle", "sphere"])
def test_curve_takes_one_jet_per_time(which, monkeypatch):
    # at 1,000 nodes a block, each time's jets cover its nodes once, all
    # with the Hessian
    monkeypatch.setattr(quadrature, "_NODE_BLOCK", 1000)
    sol, kern, _ = _condition_cases()[which]
    grid = [0.25, 0.5, 0.75]
    nodes = []
    calls = _count_jets(monkeypatch, sol, nodes)
    entropy_curve(sol, kern, grid, with_conditions=False)
    assert {(kind, hess) for kind, _, hess in calls} == {("jet", True)}
    _assert_jets_cover_each_grid(
        nodes, kern, grid, entropy.DEFAULT_CURVE_LEVEL, entropy.shared_growth(sol)
    )


# --- one node set per curve --------------------------------------------------------


_CURVE_TIMES = (0.3, 0.5, 0.9)


@pytest.mark.parametrize("which", ["line", "circle", "sphere", "punctured"])
@pytest.mark.parametrize("level", [0, 2])
def test_curve_gives_each_single_time_bit_for_bit(which, level):
    # nodes built once for the curve (circle, sphere) or per time (line,
    # punctured): each value equals its own one-time call
    sol, kern, _ = _condition_cases()[which]
    growth = entropy.shared_growth(sol)
    row = entropy.JetIntegrands(make(sol) for make in _ALL_INTEGRANDS[:3])
    got = quadrature.curve_expectations(row, kern, _CURVE_TIMES, level, growth)
    want = [
        quadrature.curve_expectations(row, kern, (t,), level, growth)[0]
        for t in _CURVE_TIMES
    ]
    assert _bits(got).tolist() == _bits(want).tolist()
    curve = entropy_curve(sol, kern, _CURVE_TIMES, level=level, with_conditions=False)
    for i, t in enumerate(_CURVE_TIMES):
        assert _bits(curve.E[i]) == _bits(entropy_q(sol, kern, t, level=level))
        assert _bits(curve.E_prime[i]) == _bits(entropy_prime(sol, kern, t, level=level))
        assert _bits(curve.E_second[i]) == _bits(
            entropy_second(sol, kern, t, level=level)
        )


def _count_builds(monkeypatch):
    """Record the level of each grid built and of each set of tangent
    frames taken."""
    calls = []
    build_grid, frames = quadrature.build_grid, geometry.tangent_frames

    def counted_build(model, x, t, level=0, growth=0.0, **opts):
        calls.append(("grid", level))
        return build_grid(model, x, t, level=level, growth=growth, **opts)

    def counted_frames(pts):
        calls.append(("frames", len(pts)))
        return frames(pts)

    monkeypatch.setattr(quadrature, "build_grid", counted_build)
    monkeypatch.setattr(geometry, "tangent_frames", counted_frames)
    return calls


@pytest.mark.parametrize("which", ["line", "circle", "sphere"])
def test_curve_builds_fixed_nodes_once(which, monkeypatch):
    # the sphere's nodes and tangent frames, and the circle's nodes, once
    # per curve, however many blocks; the line's grid moves with t; each
    # time's jets cover its nodes once
    monkeypatch.setattr(quadrature, "_NODE_BLOCK", 500)
    sol, kern, _ = _condition_cases()[which]
    nodes = []
    jets = _count_jets(monkeypatch, sol, nodes)
    builds = _count_builds(monkeypatch)
    entropy_curve(sol, kern, _CURVE_TIMES, level=1, with_conditions=False)
    assert {(kind, hess) for kind, _, hess in jets} == {("jet", True)}
    if which == "line":
        assert builds == [("grid", 1)] * len(_CURVE_TIMES)
    elif which == "circle":
        assert builds == [("grid", 1)]
    else:
        assert builds == [("grid", 1), ("frames", 64 * 2 * 96 * 2)]
    _assert_jets_cover_each_grid(nodes, kern, _CURVE_TIMES, 1, entropy.shared_growth(sol))


def test_curve_keeps_no_nodes(monkeypatch):
    # the nodes and the jet's node terms are dropped when the curve returns
    sol, kern, _ = _condition_cases()["sphere"]
    refs = []
    build_grid, node_terms = quadrature.build_grid, sol.node_terms

    def watched_build(*args, **kwargs):
        pts, w = build_grid(*args, **kwargs)
        refs.extend((weakref.ref(pts), weakref.ref(pts.base)))
        return pts, w

    def watched_terms(pts):
        terms = node_terms(pts)
        refs.extend(weakref.ref(a) for a in terms)
        return terms

    monkeypatch.setattr(quadrature, "build_grid", watched_build)
    monkeypatch.setattr(sol, "node_terms", watched_terms)
    entropy_curve(sol, kern, _CURVE_TIMES, level=1, with_conditions=False)
    assert len(refs) == 5
    assert all(ref() is None for ref in refs)


def test_conditions_take_one_jet_per_level(monkeypatch):
    sol, kern, t = _condition_cases()["line"]
    calls = _count_jets(monkeypatch, sol)
    rep = conditions(sol, kern, t)
    assert len(calls) == max(len(v) for v in rep.tables.values())


def test_hessian_only_while_a_reader_refines(line_model, line_kernel, monkeypatch):
    # cond2 settles at level 1; a kink inside a panel runs through every
    # level, and reads no Hessian
    sol = ExponentialLine(1.0, 1.0, line_model)

    def kink(sol, t, pts, jet):
        return np.abs(pts[:, 0] - 0.1) * jet.u

    fs = entropy.JetIntegrands(
        (entropy.cond2_integrand(sol), entropy.JetIntegrand(sol, kink))
    )
    alone = [quadrature.refine_expectations((f,), line_kernel, 0.5)[0] for f in fs]
    calls = _count_jets(monkeypatch, sol)
    refs = quadrature.refine_expectations(fs, line_kernel, 0.5)
    assert refs == tuple(alone)
    assert [len(r.values) for r in refs] == [2, 5]
    assert [(kind, hess) for kind, _, hess in calls] == (
        [("jet", True)] * 2 + [("jet", False)] * 3
    )


def test_monte_carlo_curve_equals_the_single_estimates(line_model, line_ensemble,
                                                       sphere_sol, sphere_ensemble,
                                                       monkeypatch):
    sol = ExponentialLine(1.0, 1.0, line_model)
    for sol, ens, grid in (
        (sol, line_ensemble, [0.25, 0.5, 1.0]),
        (sphere_sol, sphere_ensemble, [0.25, 0.5]),
    ):
        curve = entropy_curve(sol, ens, grid, with_conditions=False)
        for i, t in enumerate(grid):
            for got, got_se, r in (
                (curve.E, curve.E_stderr, entropy_mc(sol, ens, t)),
                (curve.E_prime, curve.E_prime_stderr, entropy_prime(sol, ens, t)),
                (curve.E_second, curve.E_second_stderr, entropy_second(sol, ens, t)),
            ):
                assert _bits(got[i]) == _bits(r.mean)
                assert _bits(got_se[i]) == _bits(r.stderr)
    sol = ExponentialLine(1.0, 1.0, line_model)
    calls = _count_jets(monkeypatch, sol)
    entropy_curve(sol, line_ensemble, [0.25, 0.5], with_conditions=False)
    assert calls == [("jet", line_ensemble.n_paths, True)] * 2


def test_shared_jet_columns_are_read_only(line_model):
    # a formula cannot change the jet the next integrand reads
    sol = ExponentialLine(1.0, 1.0, line_model)

    def scribble(sol, t, pts, jet):
        jet.u[0] = 0.0
        return jet.u

    fs = entropy.JetIntegrands(
        (entropy.ulogu_integrand(sol), entropy.JetIntegrand(sol, scribble))
    )
    with pytest.raises(ValueError, match="read-only"):
        fs.reduce_columns(0.5, np.array([[0.0], [1.0]]), lambda c: c)


def test_one_jet_serves_one_solution(line_model):
    a, b = ExponentialLine(1.0, 1.0, line_model), ExponentialLine(1.0, 1.0, line_model)
    with pytest.raises(ValueError, match="one solution"):
        entropy.JetIntegrands((entropy.ulogu_integrand(a), entropy.ulogu_integrand(b)))


def test_quadrature_entry_points_refuse_t_zero(line_sol, line_kernel):
    # these raised a bare ZeroDivisionError on the line
    with pytest.raises(ValueError, match="t > 0"):
        entropy_prime(line_sol, line_kernel, 0.0)
    with pytest.raises(ValueError, match="t > 0"):
        entropy_second(line_sol, line_kernel, 0.0)
    with pytest.raises(ValueError, match="t > 0"):
        conditions(line_sol, line_kernel, 0.0)
    with pytest.raises(ValueError, match="t > 0"):
        entropy_q(line_sol, line_kernel, 0.0, level=2)


# --- one model per call ------------------------------------------------------------


_DOMAIN = DomainSpec.interval(0.5, 1.0)

# each entry point of entropy and analysis that pairs a solution with a
# kernel or an ensemble
_PAIRED_CALLS = {
    "entropy_q": ("kernel", lambda sol, k: entropy_q(sol, k, 0.5, level=0)),
    "entropy_mc": ("ensemble", lambda sol, e: entropy_mc(sol, e, 0.5)),
    "entropy_prime-kernel": ("kernel", lambda sol, k: entropy_prime(sol, k, 0.5, level=0)),
    "entropy_prime-ensemble": ("ensemble", lambda sol, e: entropy_prime(sol, e, 0.5)),
    "entropy_second-kernel": ("kernel", lambda sol, k: entropy_second(sol, k, 0.5, level=0)),
    "entropy_second-ensemble": ("ensemble", lambda sol, e: entropy_second(sol, e, 0.5)),
    "conditions": ("kernel", lambda sol, k: conditions(sol, k, 0.5)),
    "entropy_curve-kernel": ("kernel", lambda sol, k: entropy_curve(sol, k, [0.5], level=0)),
    "entropy_curve-ensemble": (
        "ensemble", lambda sol, e: entropy_curve(sol, e, [0.5], with_conditions=False)
    ),
    "submartingale_gap": ("ensemble", lambda sol, e: submartingale_gap(sol, e, 1.0)),
    "local_entropy": ("ensemble", lambda sol, e: local_entropy(sol, e, [_DOMAIN], [0.5])),
    "stopped_increment_residual": (
        "ensemble", lambda sol, e: stopped_increment_residual(sol, e, _DOMAIN, 0.5)
    ),
    "gradient_entropy_check-kernel": (
        "kernel", lambda sol, k: analysis.gradient_entropy_check(sol, k, 0.5, level=0)
    ),
    "gradient_entropy_check-ensemble": (
        "ensemble", lambda sol, e: analysis.gradient_entropy_check(sol, e, 0.5)
    ),
    "corollary_bounds": (
        "kernel", lambda sol, k: analysis.corollary_bounds(sol, k, 0.5, 1.0, level=0)
    ),
    "rigidity_check": (
        "kernel", lambda sol, k: analysis.rigidity_check(sol, k, [0.5], [[0.0]], level=0)
    ),
    # the target is checked before the curve is read
    "classify_growth": ("kernel", lambda sol, k: analysis.classify_growth(sol, k, None)),
    "divergence_demo": (
        "kernel", lambda sol, k: analysis.divergence_demo(sol, k, 0.5, levels=[0])
    ),
}


@pytest.mark.parametrize("name", sorted(_PAIRED_CALLS))
def test_a_target_on_another_model_is_refused(
    name, circle_sol, static_circle_kernel, static_circle_ensemble
):
    # the shrinking circle's solution against the static circle's kernel or
    # paths, a pairing that gives wrong values, not an error, unless refused
    what, call = _PAIRED_CALLS[name]
    target = static_circle_kernel if what == "kernel" else static_circle_ensemble
    with pytest.raises(
        ValueError, match=rf"solution lives on .*rate=-0\.1.* but the {what} on .*rate=0\.0"
    ):
        call(circle_sol, target)


_ONE_METHOD_CALLS = sorted(n for n in _PAIRED_CALLS if not n.endswith(("-kernel", "-ensemble")))
_KIND_NAMES = {"kernel": "a heat kernel", "ensemble": "a path ensemble"}


@pytest.mark.parametrize("name", _ONE_METHOD_CALLS)
def test_the_wrong_kind_of_target_is_refused(name, line_sol, line_kernel, line_ensemble):
    # an ensemble where a kernel is needed, or the reverse, on the same
    # model; this used to fail as a bare AttributeError inside the call
    what, call = _PAIRED_CALLS[name]
    other = line_ensemble if what == "kernel" else line_kernel
    with pytest.raises(ValueError, match=f"needs {_KIND_NAMES[what]}, not a {type(other).__name__}"):
        call(line_sol, other)


@pytest.mark.parametrize("name", sorted(set(_PAIRED_CALLS) - set(_ONE_METHOD_CALLS)))
def test_a_target_of_neither_kind_is_refused(name, line_sol):
    # the target's kind picks the method; anything else is not guessed at
    with pytest.raises(ValueError, match="needs a heat kernel or a path ensemble, not a str"):
        _PAIRED_CALLS[name][1](line_sol, "kernel")


def test_monte_carlo_curve_refuses_conditions(line_sol, line_ensemble):
    with pytest.raises(ValueError, match="condition integrals need a kernel"):
        entropy_curve(line_sol, line_ensemble, [0.5])


def test_local_entropy_refuses_an_empty_domain_list(line_sol, line_ensemble):
    # this raised a bare IndexError
    with pytest.raises(ValueError, match="at least one domain"):
        local_entropy(line_sol, line_ensemble, [], [0.5])
