import math

import numpy as np
import pytest
from scipy import stats

from entroflow import geometry, harness, stochastic
from entroflow.errors import CensoredDominates, ConfigError
from entroflow.stochastic import (
    AtExit,
    AtTime,
    DomainSpec,
    SdeConfig,
    Stopped,
    expect,
    first_exit,
    load_ensemble,
    parse_domain,
    save_ensemble,
    simulate,
)


def test_reproducibility_and_ensemble_size_independence(line_model):
    cfg_small = SdeConfig(dt=1e-3, n_paths=50, seed=7)
    cfg_large = SdeConfig(dt=1e-3, n_paths=500, seed=7)
    a = simulate(line_model, [0.0], 0.2, cfg_small, record_times=[0.1, 0.2])
    b = simulate(line_model, [0.0], 0.2, cfg_large, record_times=[0.1, 0.2])
    c = simulate(line_model, [0.0], 0.2, cfg_small, record_times=[0.1, 0.2])
    assert np.array_equal(a.states, b.states[:50])
    assert np.array_equal(a.states, c.states)
    d = simulate(line_model, [0.0], 0.2, SdeConfig(dt=1e-3, n_paths=50, seed=8),
                 record_times=[0.1, 0.2])
    assert not np.array_equal(a.states, d.states)


def test_line_marginal_variance(line_ensemble):
    # generator d^2/dy^2 doubles the usual variance: Var X_t = 2t
    x = line_ensemble.state_at(0.5)[:, 0]
    assert 0.97 <= x.var() / 1.0 <= 1.03
    x = line_ensemble.state_at(1.0)[:, 0]
    assert 0.97 <= x.var() / 2.0 <= 1.03


def test_line_marginal_ks(line_ensemble):
    x = line_ensemble.state_at(1.0)[:, 0]
    ks = stats.kstest(x, stats.norm(scale=math.sqrt(2.0)).cdf)
    assert ks.statistic < 1.6276 / math.sqrt(x.size)


def test_circle_marginal_matches_clock(circle_model, circle_ensemble):
    # wrapped Gaussian in s(t): moment k decays like exp(-k^2 s)
    th = circle_ensemble.state_at(1.0)[:, 0]
    s = float(circle_model.time_change(1.0))
    for k in (1, 2):
        vals = np.cos(k * th)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - math.exp(-k * k * s)) <= 3 * se


def test_projected_scheme_stays_on_sphere(sphere_model):
    cfg = SdeConfig(dt=1e-3, n_paths=2000, seed=3)
    ens = simulate(sphere_model, [1.0, 0.0, 0.0], 0.5, cfg, record_times=[0.25, 0.5])
    assert np.allclose(np.linalg.norm(ens.states, axis=-1), 1.0, atol=1e-12)


def _projected_step_by_rows(model, states, t, dt, xi):
    # the projected sphere step as first written, on whole rows
    c = float(model.conformal(t))
    tang = xi - (np.sum(xi * states, axis=-1, keepdims=True)) * states
    cand = states + math.sqrt(2.0 * dt / c) * tang
    cand /= np.linalg.norm(cand, axis=-1, keepdims=True)
    states[...] = cand


@pytest.mark.parametrize(
    "x", [[1.0, 0.0, 0.0], [0.0, -0.0, -1.0], [0.36, 0.48, 0.8]], ids=["equator", "pole", "tilted"]
)
def test_projected_step_equals_the_row_form_bit_for_bit(sphere_model, x):
    n, dt = 5_000, 1e-3
    idx = np.arange(n, dtype=np.uint64)
    columns = np.tile(np.array(x), (n, 1))
    rows = columns.copy()
    for k in range(60):
        xi = stochastic._draw_increment(17, idx, k, 3)
        _projected_step_by_rows(sphere_model, rows, k * dt, dt, xi.copy())
        assert stochastic._advance(sphere_model, columns, k * dt, dt, xi, None) is None
        assert np.array_equal(columns.view(np.uint64), rows.view(np.uint64)), k


def test_sphere_marginal_mean_eigenmode(sphere_model):
    # E[P_1(X_t . a)] = exp(-2 s(t)) P_1(x . a) under the time-changed flow
    cfg = SdeConfig(dt=1e-3, n_paths=30_000, seed=9)
    ens = simulate(sphere_model, [1.0, 0.0, 0.0], 1.0, cfg, record_times=[1.0])
    dots = ens.state_at(1.0) @ np.array([1.0, 0.0, 0.0])
    s = float(sphere_model.time_change(1.0))
    se = dots.std(ddof=1) / math.sqrt(dots.size)
    assert abs(dots.mean() - math.exp(-2 * s)) <= 3 * se + 2e-3  # O(dt) weak bias


def test_em_drift_vanishes_on_catalog_charts():
    # the stepper assumes -g^{ij} Gamma^k_{ij} = 0; verify from metric data
    gen = np.random.default_rng(2)
    models = [geometry.line(), geometry.space(3), geometry.punctured3(),
              geometry.circle(1.0, -0.1, time_window=(0.0, 1.25)),
              geometry.hyperbolic()]
    for model in models:
        for _ in range(10):
            if model.kind == geometry.PUNCTURED_3:
                y = gen.normal(size=3)
                y = y / np.linalg.norm(y) * gen.uniform(0.5, 2.0)
            elif model.kind == geometry.HYPERBOLIC:
                y = np.array([gen.uniform(-1, 1), gen.uniform(0.3, 2.0)])
            else:
                y = gen.uniform(-1, 1, size=model.dim)
            t = gen.uniform(*model.time_window)
            data = geometry.metric_at(model, t, y)
            drift = np.einsum("ij,kij->k", data.g_inv, data.christoffel)
            assert drift == pytest.approx(np.zeros(model.dim), abs=1e-12)
            scale = geometry.inv_metric_scale(model, t, y[None, :])[0]
            assert data.g_inv == pytest.approx(scale * np.eye(model.dim), rel=1e-12)


def test_exit_convention_outside_start(line_ensemble):
    rec = first_exit(line_ensemble, DomainSpec.interval(2.0, 3.0))
    assert np.all(rec.tau == 0.0)
    assert np.all(rec.state == 0.0)
    assert not np.any(rec.censored)


def test_exit_time_against_interval_oracle(line_model):
    # E[tau] = (r^2 - x^2)/2 for the generator d^2/dy^2 on (-r, r); the
    # first-grid-crossing estimator carries an O(sqrt(dt)) upward bias, so
    # the 10% check runs at dt = 1e-5 (at dt = 1e-4 the bias is near 17%)
    r = 0.1
    target = r * r / 2.0
    means = {}
    for dt, n in ((1e-4, 20_000), (1e-5, 20_000)):
        cfg = SdeConfig(dt=dt, n_paths=n, seed=13)
        ens = simulate(line_model, [0.0], 0.2, cfg, record_times=[0.2])
        rec = first_exit(ens, DomainSpec.interval(-r, r))
        assert not np.any(rec.censored)
        means[dt] = float(rec.tau.mean())
    assert abs(means[1e-5] - target) / target < 0.10
    assert abs(means[1e-4] - target) / target < 0.25
    # the bias shrinks like sqrt(dt): a factor 10 in dt gives about sqrt(10)
    ratio = (means[1e-4] - target) / (means[1e-5] - target)
    assert 2.0 < ratio < 5.0


def test_full_circle_never_exits(circle_model):
    cfg = SdeConfig(dt=1e-3, n_paths=500, seed=21)
    ens = simulate(circle_model, [0.0], 0.5, cfg, record_times=[0.5])
    rec = first_exit(ens, DomainSpec.ball([0.0], 4.0))  # arc radius > pi
    assert np.all(rec.censored)
    with pytest.raises(CensoredDominates):
        expect(ens, lambda t, y: np.ones(y.shape[0]), AtExit(DomainSpec.ball([0.0], 4.0)))


def test_exit_monotonicity_in_nested_domains(line_ensemble):
    taus = []
    for n in (0.5, 1.0, 2.0):
        taus.append(first_exit(line_ensemble, DomainSpec.interval(-n, n)).tau)
    assert np.all(taus[0] <= taus[1] + 1e-12)
    assert np.all(taus[1] <= taus[2] + 1e-12)


def test_stopped_equals_at_time_without_exits(line_ensemble, line_sol):
    big = DomainSpec.interval(-50.0, 50.0)
    a = expect(line_ensemble, line_sol.ulogu, AtTime(1.0))
    b = expect(line_ensemble, line_sol.ulogu, Stopped(1.0, big))
    assert a.mean == b.mean
    assert a.stderr == b.stderr


def test_constant_observable(line_model):
    # exact at every path count: plain summation of 3, 7, 9973 or 20000
    # copies of 0.1 or 4 log 4 lands an ulp off, with a nonzero stderr
    dom = DomainSpec.interval(-0.2, 0.2)
    modes = (AtTime(0.2), Stopped(0.2, dom), AtExit(dom))
    for n in (1, 3, 7, 9973, 20_000):
        cfg = SdeConfig(dt=0.05, n_paths=n, seed=0xC0FFEE)
        ens = simulate(line_model, [0.0], 0.4, cfg, record_times=[0.2, 0.4])
        for c in (1.0, 0.1, math.pi, 4.0 * math.log(4.0)):
            for mode in modes:
                r = expect(ens, lambda t, y, c=c: np.full(y.shape[0], c), mode)
                assert (r.mean, r.stderr) == (c, 0.0), (n, c, mode)


def test_mean_stays_as_accurate_as_an_exactly_rounded_sum(line_ensemble):
    # centring on the first sample buys exactness for constants without
    # losing accuracy elsewhere
    eps = np.finfo(float).eps
    pts = line_ensemble.state_at(1.0)
    for offset in (0.0, -7.25, 1e3):
        f = lambda t, y, offset=offset: offset + y[:, 0] ** 3
        v = f(1.0, pts)
        r = expect(line_ensemble, f, AtTime(1.0))
        assert abs(r.mean - math.fsum(v) / v.size) <= 4.0 * eps * np.max(np.abs(v))
    # a non-finite first sample is not used as the centre
    with np.errstate(invalid="ignore"):
        assert stochastic.mean_stderr(np.array([np.inf, 1.0]))[0] == np.inf


def test_weak_consistency_under_step_halving(line_model):
    # smooth observable at a fixed time; the line scheme is exact, so the
    # two estimates differ only through the draws
    f = lambda t, y: y[:, 0] ** 2
    vals = []
    for dt in (2e-3, 1e-3):
        cfg = SdeConfig(dt=dt, n_paths=50_000, seed=31)
        ens = simulate(line_model, [0.0], 0.5, cfg, record_times=[0.5])
        vals.append(expect(ens, f, AtTime(0.5)))
    diff = abs(vals[0].mean - vals[1].mean)
    assert diff <= 3.0 * math.hypot(vals[0].stderr, vals[1].stderr)


def test_serialization_round_trip(line_ensemble, tmp_path):
    path = tmp_path / "ens.bin"
    save_ensemble(line_ensemble, path)
    loaded = load_ensemble(path)
    assert np.array_equal(loaded.states, line_ensemble.states)
    assert np.array_equal(loaded.times, line_ensemble.times)
    assert loaded.cfg == line_ensemble.cfg
    rec_a = first_exit(loaded, DomainSpec.interval(-1, 1))
    rec_b = first_exit(line_ensemble, DomainSpec.interval(-1, 1))
    assert np.array_equal(rec_a.tau, rec_b.tau)
    assert np.array_equal(rec_a.state, rec_b.state)


def test_config_validation(line_model):
    with pytest.raises(ValueError):
        SdeConfig(dt=-1e-3, n_paths=10)
    with pytest.raises(ValueError):
        SdeConfig(dt=1e-3, n_paths=0)
    with pytest.raises(ValueError):
        SdeConfig(dt=1.0, n_paths=10).validate_against(line_model)
    # numpy integers are stored as Python ints, so the ensemble header saves
    cfg = SdeConfig(dt=1e-3, n_paths=np.int64(10), seed=np.uint64(5))
    assert (type(cfg.n_paths), type(cfg.seed)) == (int, int)


def test_domain_validation():
    with pytest.raises(ValueError):
        DomainSpec.interval(1.0, -1.0)
    with pytest.raises(ValueError):
        DomainSpec.ball([0.0, 0.0, 0.0], 0.5).validate_against(geometry.punctured3())
    d = parse_domain("interval:-1,1")
    assert d.kind == "interval" and d.params == (-1.0, 1.0)
    assert stochastic.domain_id(d) == "interval:-1,1"


@pytest.mark.parametrize(
    "spec",
    [
        "cap:0,0,0,0.5",  # a zero axis has no direction
        "interval:1",
        "cap:1,0,0",
        "ball:0.5",  # a radius and no center
        "interval:a,b",
        "interval:-1,nan",
        "interval:-inf,1",
        "ball:nan,1",
        "ball:0,inf",
        "cap:inf,0,0,0.5",
        "cap:1,0,0,nan",
    ],
)
def test_malformed_domain_specs_raise_value_error(spec):
    with pytest.raises(ValueError, match="domain|finite|axis|center"):
        parse_domain(spec)


def test_malformed_domain_constructors_raise_value_error():
    for build in (
        lambda: DomainSpec.cap([0.0, 0.0, 0.0], 0.5),
        lambda: DomainSpec.cap([1.0, 0.0], 0.5),
        lambda: DomainSpec.cap([[1.0, 0.0, 0.0]], 0.5),
        lambda: DomainSpec.ball([], 1.0),
        lambda: DomainSpec.ball([0.0], math.nan),
        lambda: DomainSpec.interval(0.0, math.inf),
    ):
        with pytest.raises(ValueError):
            build()


def test_zero_cap_axis_is_a_config_error():
    # normalising a zero axis gives NaNs, and every path would "exit" at tau = 0
    text = harness.bundled_scenarios()["sphere_ricci_flow"].read_text()
    with pytest.raises(ConfigError, match="nonzero axis"):
        harness.parse_scenario(text + 'domains = ["cap:0,0,0,0.5"]\n')


@pytest.mark.parametrize(
    "spec", ["interval:-1,1", "interval:1,9"], ids=["negative-end", "over-a-period"]
)
def test_circle_intervals_must_lie_in_one_period(spec):
    # contains() reduces angles into [0, 2 pi): interval:-1,1 would act as the
    # arc [0, 1), and interval:1,9 as [1, 2 pi)
    with pytest.raises(ValueError, match="0 <= a < b <= 2 pi"):
        parse_domain(spec).validate_against(geometry.circle(1.0, -0.1))
    parse_domain(spec).validate_against(geometry.line())  # fine on the line
    text = harness.bundled_scenarios()["circle_shrinking"].read_text()
    with pytest.raises(ConfigError, match="0 <= a < b <= 2 pi"):
        harness.parse_scenario(text + f'domains = ["{spec}"]\n')
    for a, b in ((0.0, 1.0), (0.1, 3.0), (1.0, 2.0 * np.pi)):
        DomainSpec.interval(a, b).validate_against(geometry.circle(1.0, -0.1))


def test_snapshot_lookup_errors(line_ensemble):
    with pytest.raises(ValueError):
        line_ensemble.state_at(0.123456)


def test_chart_exit_paths_are_flagged_not_dropped():
    # a coarse step near the half-plane boundary pushes some paths across
    # y2 = 0; they must be flagged and frozen, never silently removed
    model = geometry.hyperbolic()
    cfg = SdeConfig(dt=0.5, n_paths=2000, seed=77)
    ens = simulate(model, [0.0, 0.1], 5.0, cfg, record_times=[5.0])
    assert 0.0 < ens.blowup_fraction < 1.0
    assert ens.states.shape[0] == 2000  # nothing dropped
    frozen = ens.state_at(5.0)[ens.blowup]
    assert np.all(frozen[:, 1] <= 0.0)


def test_euler_step_leaves_frozen_paths_bit_unchanged():
    model = geometry.hyperbolic()
    gen = np.random.default_rng(12)
    states = np.column_stack([gen.normal(size=400), gen.uniform(-0.5, 2.0, size=400)])
    blown = states[:, 1] <= 0.0
    assert 0 < blown.sum() < blown.size
    before = states.copy()
    xi = gen.normal(size=states.shape)
    want = before + (math.sqrt(2.0 * 0.01) * xi) * before[:, 1:2]
    out = stochastic._advance(model, states, 0.0, 0.01, xi.copy(), blown.copy())
    assert np.array_equal(states[blown].view(np.uint64), before[blown].view(np.uint64))
    assert np.array_equal(states[~blown], want[~blown])
    assert np.array_equal(out, blown | (states[:, 1] <= 0.0))


@pytest.mark.parametrize(
    "model, x, horizon, dt, domain",
    [
        (geometry.line(), [0.0], 0.5, 1e-3, DomainSpec.interval(-0.5, 0.7)),
        (geometry.circle(1.0, -0.1, time_window=(0.0, 1.25)), [1.5], 0.3, 1e-3,
         DomainSpec.interval(0.1, 3.0)),
        (geometry.sphere2(1.0, 2.0, time_window=(0.0, 1.2)), [1.0, 0.0, 0.0], 0.3, 1e-3,
         DomainSpec.cap([1.0, 0.0, 0.0], 0.5)),
        (geometry.hyperbolic(), [0.0, 0.1], 5.0, 0.5, DomainSpec.ball([0.0, 1.0], 0.95)),
    ],
    ids=["line-interval", "circle-arc", "sphere-cap", "hyperbolic-ball-frozen"],
)
def test_replayed_exits_match_the_recorded_path(model, x, horizon, dt, domain):
    # a snapshot at every step shows each path's first grid exit directly;
    # the replay must find the same exit, bit for bit
    cfg = SdeConfig(dt=dt, n_paths=500, seed=41)
    n_steps = int(round(horizon / dt))
    ens = simulate(model, x, horizon, cfg, record_times=np.arange(n_steps + 1) * dt)
    assert ens.times.size == n_steps + 1
    if model.kind == geometry.HYPERBOLIC:
        assert 0.0 < ens.blowup_fraction < 1.0
    inside = np.stack(
        [domain.contains(model, ens.states[:, k, :]) for k in range(n_steps + 1)], axis=1
    )
    censored = inside.all(axis=1)
    first_out = np.argmin(inside, axis=1)
    rows = np.arange(cfg.n_paths)
    tau = np.where(censored, np.inf, ens.times[first_out])
    state = np.where(censored[:, None], ens.states[:, 0, :], ens.states[rows, first_out, :])
    assert 0 < censored.sum() < cfg.n_paths
    rec = first_exit(ens, domain)
    assert np.array_equal(rec.tau, tau)
    assert np.array_equal(rec.state, state)
    assert np.array_equal(rec.censored, censored)


def test_mean_stderr_refuses_an_empty_sample():
    for empty in ([], np.empty(0), np.empty((0, 3))):
        with pytest.raises(ValueError, match="empty"):
            stochastic.mean_stderr(empty)
    assert stochastic.mean_stderr([2.5]) == (2.5, 0.0)
