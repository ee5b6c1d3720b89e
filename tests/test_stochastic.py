import math
import re

import numpy as np
import pytest
from scipy import stats

from entroflow import entropy, geometry, harness, rng, stochastic
from entroflow.errors import CensoredDominates, ConfigError
from entroflow.solutions import Constant
from test_geometry import _metric_at
from entroflow.stochastic import DomainSpec, SdeConfig, parse_domain, simulate


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
              geometry.circle(1.0, -0.1, time_window=(0.0, 1.25))]
    for model in models:
        for _ in range(10):
            if model.kind == geometry.PUNCTURED_3:
                y = gen.normal(size=3)
                y = y / np.linalg.norm(y) * gen.uniform(0.5, 2.0)
            else:
                y = gen.uniform(-1, 1, size=model.dim)
            t = gen.uniform(*model.time_window)
            data = _metric_at(model, t, y)
            drift = np.einsum("ij,kij->k", data.g_inv, data.christoffel)
            assert drift == pytest.approx(np.zeros(model.dim), abs=1e-12)
            scale = 1.0 / float(model.conformal(t))
            assert data.g_inv == pytest.approx(scale * np.eye(model.dim), rel=1e-12)


def test_exit_convention_outside_start(line_ensemble):
    rec = line_ensemble.exit_records(DomainSpec.interval(2.0, 3.0))
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
        rec = ens.exit_records(DomainSpec.interval(-r, r))
        assert not np.any(rec.censored)
        means[dt] = float(rec.tau.mean())
    assert abs(means[1e-5] - target) / target < 0.10
    assert abs(means[1e-4] - target) / target < 0.25
    # the bias shrinks like sqrt(dt): a factor 10 in dt gives about sqrt(10)
    ratio = (means[1e-4] - target) / (means[1e-5] - target)
    assert 2.0 < ratio < 5.0


def test_an_interval_no_path_leaves_is_never_exited(line_model):
    cfg = SdeConfig(dt=1e-3, n_paths=500, seed=21)
    ens = simulate(line_model, [0.0], 0.5, cfg, record_times=[0.5])
    rec = ens.exit_records(DomainSpec.interval(-50.0, 50.0))
    assert np.all(rec.censored)
    with pytest.raises(CensoredDominates):
        entropy._exit_entry(Constant(1.0, line_model), rec)


def test_exit_monotonicity_in_nested_domains(line_ensemble):
    taus = []
    for n in (0.5, 1.0, 2.0):
        taus.append(line_ensemble.exit_records(DomainSpec.interval(-n, n)).tau)
    assert np.all(taus[0] <= taus[1] + 1e-12)
    assert np.all(taus[1] <= taus[2] + 1e-12)


def test_stopped_equals_at_time_without_exits(line_ensemble, line_sol):
    big = DomainSpec.interval(-50.0, 50.0)
    a = line_ensemble.mean(line_sol.ulogu, 1.0)
    b = entropy.local_entropy(line_sol, line_ensemble, [big], [1.0])
    assert a.mean == b.E_D[0, 0]
    assert a.stderr == b.stderr[0, 0]


def test_constant_observable(line_model):
    # exact at every path count: plain summation of 3, 7, 9973 or 20000
    # copies of 0.1 or 4 log 4 lands an ulp off, with a nonzero stderr; the
    # stopped and exit means are local_entropy's, of u log u for u = c
    dom = DomainSpec.interval(-0.2, 0.2)
    for n in (1, 3, 7, 9973, 20_000):
        cfg = SdeConfig(dt=0.05, n_paths=n, seed=0xC0FFEE)
        ens = simulate(line_model, [0.0], 0.4, cfg, record_times=[0.2, 0.4])
        for c in (1.0, 0.1, math.pi, 4.0 * math.log(4.0)):
            r = ens.mean(lambda t, y, c=c: np.full(y.shape[0], c), 0.2)
            assert (r.mean, r.stderr) == (c, 0.0), (n, c)
            sol = Constant(c, line_model)
            v = float(sol.ulogu(0.0, ens.x[None, :])[0])
            table = entropy.local_entropy(sol, ens, [dom], [0.2])
            assert (table.E_D[0, 0], table.stderr[0, 0]) == (v, 0.0), (n, c)
            (at_exit,) = table.E_D_exit
            assert not at_exit.dominated, (n, c)
            assert (at_exit.mean, at_exit.stderr) == (v, 0.0), (n, c)


def test_mean_stays_as_accurate_as_an_exactly_rounded_sum(line_ensemble):
    # centring on the first sample buys exactness for constants without
    # losing accuracy elsewhere
    eps = np.finfo(float).eps
    pts = line_ensemble.state_at(1.0)
    for offset in (0.0, -7.25, 1e3):
        f = lambda t, y, offset=offset: offset + y[:, 0] ** 3
        v = f(1.0, pts)
        r = line_ensemble.mean(f, 1.0)
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
        vals.append(ens.mean(f, 0.5))
    diff = abs(vals[0].mean - vals[1].mean)
    assert diff <= 3.0 * math.hypot(vals[0].stderr, vals[1].stderr)


def test_config_validation(line_model):
    with pytest.raises(ValueError):
        SdeConfig(dt=-1e-3, n_paths=10)
    with pytest.raises(ValueError):
        SdeConfig(dt=1e-3, n_paths=0)
    with pytest.raises(ValueError):
        SdeConfig(dt=1.0, n_paths=10).validate_against(line_model)
    # numpy integers are stored as Python ints, so the run manifest saves them
    cfg = SdeConfig(dt=1e-3, n_paths=np.int64(10), seed=np.uint64(5))
    assert (type(cfg.n_paths), type(cfg.seed)) == (int, int)


def test_domain_validation():
    with pytest.raises(ValueError):
        DomainSpec.interval(1.0, -1.0)
    with pytest.raises(ValueError, match="intervals apply to the line and the circle"):
        DomainSpec.interval(-1.0, 1.0).validate_against(geometry.punctured3())
    d = parse_domain("interval:-1,1")
    assert d.kind == "interval" and d.params == (-1.0, 1.0)


def test_exit_records_refuse_a_domain_the_model_lacks(sphere_ensemble):
    interval = DomainSpec.interval(-1.0, 1.0)
    with pytest.raises(ValueError, match="intervals apply to the line and the circle"):
        sphere_ensemble.exit_records(interval)
    assert interval not in sphere_ensemble._exits


@pytest.mark.parametrize(
    "spec",
    [
        # ball and cap are unknown kinds
        "cap:0,0,0,0.5",
        "interval:1",
        "cap:1,0,0",
        "ball:0.5",
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
    with pytest.raises(ValueError, match="domain|finite"):
        parse_domain(spec)


def test_malformed_domain_constructors_raise_value_error():
    for build in (
        lambda: DomainSpec.interval(0.0, math.inf),
        lambda: DomainSpec.interval(math.nan, 1.0),
        lambda: DomainSpec.interval(1.0, 1.0),
    ):
        with pytest.raises(ValueError):
            build()


@pytest.mark.parametrize("spec", ["ball:0,1", "cap:1,0,0,0.5"])
def test_deleted_domain_kinds_are_config_errors(spec):
    text = harness.bundled_scenarios()["line_eternal"].read_text()
    text = re.sub("^domains = .*$", f'domains = ["{spec}"]', text, flags=re.M)
    with pytest.raises(ConfigError, match=re.escape(f"unknown domain id '{spec}'")):
        harness.parse_scenario(text)


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


def _send_into_the_puncture(monkeypatch, model, x, dt, cfg, hit, chosen):
    # the draw of step `hit` carries the chosen paths onto the origin
    before = simulate(model, x, hit * dt, cfg, record_times=[hit * dt])
    assert not before.blowup.any()
    draw = stochastic._draw_increment

    def into_the_puncture(seed, idx, k, dim):
        xi = draw(seed, idx, k, dim)
        if k == hit:
            xi[chosen] = -before.state_at(hit * dt)[chosen] / math.sqrt(2.0 * dt)
        return xi

    monkeypatch.setattr(stochastic, "_draw_increment", into_the_puncture)


def test_chart_exit_paths_are_flagged_not_dropped(monkeypatch):
    # paths that land inside the puncture, outside punctured-3's chart, must
    # be flagged and frozen, never silently removed
    model = geometry.punctured3()
    x, dt, n_steps, hit = [0.3, 0.0, 0.0], 1e-3, 40, 10
    cfg = SdeConfig(dt=dt, n_paths=500, seed=41)
    chosen = np.array([3, 17, 250])
    _send_into_the_puncture(monkeypatch, model, x, dt, cfg, hit, chosen)
    ens = simulate(model, x, n_steps * dt, cfg, record_times=np.arange(n_steps + 1) * dt)
    assert np.array_equal(np.flatnonzero(ens.blowup), chosen)
    assert ens.states.shape == (cfg.n_paths, n_steps + 1, 3)  # nothing dropped
    landed = ens.states[chosen, hit + 1, :]
    assert np.all(np.linalg.norm(landed, axis=-1) <= geometry.PUNCTURE_RADIUS)
    for k in range(hit + 1, n_steps + 1):  # frozen from then on
        assert np.array_equal(ens.states[chosen, k, :].view(np.uint64), landed.view(np.uint64))


def test_euler_step_leaves_frozen_paths_bit_unchanged():
    model = geometry.punctured3()
    gen = np.random.default_rng(12)
    states = gen.normal(size=(400, 3))
    # rows at or inside the puncture radius are the blown ones
    blown = gen.uniform(size=400) < 0.3
    blown[0], blown[1], blown[2] = True, False, True
    radii = geometry.PUNCTURE_RADIUS * gen.uniform(size=(blown.sum(), 1))
    states[blown] *= radii / np.linalg.norm(states[blown], axis=-1, keepdims=True)
    # paths at the origin itself, at +0.0 and at -0.0: a frozen row keeps
    # the sign of its zeros
    states[0] = 0.0
    states[2] = -0.0
    assert np.array_equal(blown, np.linalg.norm(states, axis=-1) <= geometry.PUNCTURE_RADIUS)
    before = states.copy()
    xi = gen.normal(size=states.shape)
    xi[1] = -before[1] / math.sqrt(2.0 * 0.01)  # a live path that lands on the origin
    want = before + math.sqrt(2.0 * 0.01) * xi
    out = stochastic._advance(model, states, 0.0, 0.01, xi.copy(), blown.copy())
    assert np.array_equal(states[blown].view(np.uint64), before[blown].view(np.uint64))
    assert np.array_equal(states[~blown], want[~blown])
    assert out[1] and not blown[1]
    assert np.array_equal(out, blown | (np.linalg.norm(states, axis=-1) <= geometry.PUNCTURE_RADIUS))


@pytest.mark.parametrize(
    "model, x, horizon, dt, domain",
    [
        (geometry.line(), [0.0], 0.5, 1e-3, DomainSpec.interval(-0.5, 0.7)),
        (geometry.circle(1.0, -0.1, time_window=(0.0, 1.25)), [1.5], 0.3, 1e-3,
         DomainSpec.interval(0.1, 3.0)),
    ],
    ids=["line-interval", "circle-arc"],
)
def test_replayed_exits_match_the_recorded_path(model, x, horizon, dt, domain):
    # a snapshot at every step shows each path's first grid exit directly;
    # the replay must find the same exit, bit for bit
    cfg = SdeConfig(dt=dt, n_paths=500, seed=41)
    n_steps = int(round(horizon / dt))
    ens = simulate(model, x, horizon, cfg, record_times=np.arange(n_steps + 1) * dt)
    assert ens.times.size == n_steps + 1
    inside = np.stack(
        [domain.contains(model, ens.states[:, k, :]) for k in range(n_steps + 1)], axis=1
    )
    censored = inside.all(axis=1)
    first_out = np.argmin(inside, axis=1)
    rows = np.arange(cfg.n_paths)
    tau = np.where(censored, np.inf, ens.times[first_out])
    state = np.where(censored[:, None], ens.states[:, 0, :], ens.states[rows, first_out, :])
    assert 0 < censored.sum() < cfg.n_paths
    rec = ens.exit_records(domain)
    assert np.array_equal(rec.tau, tau)
    assert np.array_equal(rec.state, state)
    assert np.array_equal(rec.censored, censored)


def test_mean_stderr_refuses_an_empty_sample():
    for empty in ([], np.empty(0), np.empty((0, 3))):
        with pytest.raises(ValueError, match="empty"):
            stochastic.mean_stderr(empty)
    assert stochastic.mean_stderr([2.5]) == (2.5, 0.0)


# --- stepping with the rng lookahead -------------------------------------------
#
# _march opens an rng lookahead, so the helper transforms step k+1's draw
# while step k is finished.  The ensembles must equal ensembles stepped with
# the helper switched off, bit for bit.

_STEPPED = {  # model, start, horizon, dt, domain (intervals apply to the line and circle)
    "line": (geometry.line(), [0.0], 0.02, 1e-3, DomainSpec.interval(-0.1, 0.15)),
    "circle": (geometry.circle(1.0, -0.1, time_window=(0.0, 1.25)), [1.5], 0.02, 1e-3,
               DomainSpec.interval(1.4, 1.7)),
    "sphere": (geometry.sphere2(1.0, 2.0, time_window=(0.0, 1.2)), [1.0, 0.0, 0.0], 0.02,
               1e-3, None),
    "punctured": (geometry.punctured3(), [0.3, 0.0, 0.0], 0.02, 1e-3, None),
}


def _stepped(name, n):
    """The ensemble and, where the model has a domain, its replayed exits."""
    model, x, horizon, dt, domain = _STEPPED[name]
    ens = simulate(model, x, horizon, SdeConfig(dt=dt, n_paths=n, seed=41),
                   record_times=[horizon / 2])
    rec = None if domain is None else stochastic.replay_exits(ens, [domain])[0]
    return ens, rec


def _assert_same_ensemble(a, b):
    (ens_a, rec_a), (ens_b, rec_b) = a, b
    pairs = [(ens_a.states, ens_b.states)]
    if rec_a is not None:
        pairs += [(rec_a.tau, rec_b.tau), (rec_a.state, rec_b.state)]
        assert np.array_equal(rec_a.censored, rec_b.censored)
    for x, y in pairs:
        assert x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))
    assert np.array_equal(ens_a.blowup, ens_b.blowup)


@pytest.mark.parametrize("n", [rng._SPLIT_MIN - 1, rng._SPLIT_MIN, 25_000, 100_003])
@pytest.mark.parametrize("name", list(_STEPPED))
def test_lookahead_stepping_equals_serial_stepping_bit_for_bit(name, n, helper, monkeypatch):
    monkeypatch.setattr(rng, "_pool", False)
    serial = _stepped(name, n)
    monkeypatch.setattr(rng, "_pool", helper)
    ahead = _stepped(name, n)
    _assert_same_ensemble(ahead, serial)
    assert (helper.submitted > 0) == (n >= rng._SPLIT_MIN)
    if ahead[1] is not None:
        assert 0 < ahead[1].censored.sum() < n  # some paths exit, some do not
    assert rng._slot.ahead is None


def test_two_threads_stepping_one_ensemble_get_the_same_bits(monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    monkeypatch.setattr(rng, "_pool", False)
    serial = _stepped("sphere", 25_000)
    monkeypatch.undo()
    with ThreadPoolExecutor(2) as pool:
        jobs = [pool.submit(_stepped, "sphere", 25_000) for _ in range(2)]
        results = [job.result(timeout=120) for job in jobs]
    for got in results:
        _assert_same_ensemble(got, serial)


def _counting_normals(monkeypatch):
    calls = []
    draw = rng.normals

    def counted(*args, **kwargs):
        calls.append(args[2])
        return draw(*args, **kwargs)

    monkeypatch.setattr(rng, "normals", counted)
    return calls


@pytest.mark.parametrize("name", ["line", "sphere"])
def test_normals_calls_per_simulate_and_replay_pass(name, monkeypatch):
    # steps x chart dimension calls per full pass: the lookahead starts draws
    # early, but every draw is still one rng.normals call from the stepping loop
    model, x, horizon, dt, domain = _STEPPED[name]
    calls = _counting_normals(monkeypatch)
    n_steps = int(round(horizon / dt))
    ens = simulate(model, x, horizon, SdeConfig(dt=dt, n_paths=25_000, seed=41),
                   record_times=[horizon / 2])
    per_pass = [k for k in range(n_steps) for _ in range(model.dim_chart)]
    assert sorted(calls) == per_pass
    if domain is not None:
        calls.clear()
        rec = stochastic.replay_exits(ens, [domain])[0]
        assert rec.censored.any()  # so the replay ran to the horizon
        assert sorted(calls) == per_pass


def test_early_stopped_replay_leaves_no_job_pending(helper, monkeypatch):
    monkeypatch.setattr(rng, "_pool", helper)
    calls = _counting_normals(monkeypatch)
    ens = simulate(geometry.line(), [0.0], 1.0, SdeConfig(dt=1e-3, n_paths=25_000, seed=41))
    calls.clear()
    before = helper.submitted
    rec = stochastic.replay_exits(ens, [DomainSpec.interval(-0.01, 0.01)])[0]
    assert not rec.censored.any() and len(calls) < 1000  # stopped early
    # one job per draw, plus the next step's, started and then waited for
    assert helper.submitted - before == len(calls) + 1
    assert helper.last.done() and rng._slot.ahead is None


def test_exception_in_the_stepping_loop_leaves_no_job_pending(helper, monkeypatch):
    monkeypatch.setattr(rng, "_pool", helper)
    advance, steps = stochastic._advance, []

    def failing(*args):
        steps.append(1)
        if len(steps) == 3:
            raise RuntimeError("step failed")
        return advance(*args)

    monkeypatch.setattr(stochastic, "_advance", failing)
    with pytest.raises(RuntimeError, match="step failed"):
        simulate(geometry.sphere2(1.0, 2.0, time_window=(0.0, 1.2)), [1.0, 0.0, 0.0], 0.02,
                 SdeConfig(dt=1e-3, n_paths=25_000, seed=41))
    assert helper.submitted == 3 * 3 + 1  # three steps' draws and the next one
    assert helper.last.done() and rng._slot.ahead is None
