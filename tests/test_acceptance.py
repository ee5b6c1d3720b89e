"""The acceptance gate: every exit criterion at its stated tolerance.

Each criterion of the verification matrix is exercised through
``acceptance.verify`` and printed as one pass/fail line; the suite fails
if any row fails.  Criteria covered:

 1. exact entropy E(t) = t for the eternal exponential (quadrature 1e-8,
    Monte Carlo 3 stderr, under 30 s of process time);
 2. condition integrals (9t^2+8t+1)e^{2t} and e^{2t} to relative 1e-6;
 3. the a(log a + b^2 t) family and its linear classification;
 4. E' / E'' against central differences of E (1e-5 / 1e-4);
 5. monotonicity and convexity on the flow-compatible scenarios;
 6. submartingale gaps (nonnegative; zero at the saturating solution);
 7. the gradient-entropy bound, with its quadrature equality case;
 8. stopped-entropy monotonicity in t and domain, nested-interval limit;
 9. the punctured-space dichotomy (stable entropy, divergent variation);
10. marginal laws (KS against N(0, 2t); circular moments in the clock);
11. separation of variables (product vs two-mode witness);
12. the two pointwise evolution identities on randomized samples.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from entroflow import acceptance, geometry, stochastic
from entroflow.stochastic import DomainSpec

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


@pytest.fixture(scope="module")
def all_rows():
    rows, elapsed = acceptance.verify("all")
    return rows, elapsed


def test_acceptance_criteria(all_rows):
    rows, elapsed = all_rows
    print()
    for row in rows:
        print(row.line())
    print(f"(acceptance suite wall time: {elapsed:.1f}s)")
    failed = [row for row in rows if not row.passed]
    assert not failed, "failed criteria:\n" + "\n".join(r.line() for r in failed)


def test_every_criterion_is_represented(all_rows):
    rows, _ = all_rows
    idents = {row.ident.split("-")[0] for row in rows}
    assert idents == {str(k) for k in range(1, 13)}


def test_suite_selection(monkeypatch):
    # which groups and horizons run does not depend on the path counts
    _small_plan(monkeypatch)
    horizons = _count_calls(monkeypatch, "simulate", lambda args: args[2])
    rows, _ = acceptance.verify("paper-examples")
    groups = {row.ident.split("-")[0] for row in rows}
    assert groups == {"1", "2", "3", "9"}
    # ensembles are built on first use: only ens-line-t4, inside 1-runtime
    assert horizons == [4.0]
    with pytest.raises(ValueError):
        acceptance.verify("nope")


def _count_calls(monkeypatch, name, record):
    """Wrap ``stochastic.<name>``; returns the list it appends record(args) to."""
    seen = []
    inner = getattr(stochastic, name)

    def counted(*args, **kwargs):
        seen.append(record(args))
        return inner(*args, **kwargs)

    monkeypatch.setattr(stochastic, name, counted)
    return seen


def _small_plan(monkeypatch):
    """The ensembles at 200 paths: the same horizons, snapshots and exits."""
    small = {
        name: (bundle, horizon, 200, record, widths)
        for name, (bundle, horizon, _, record, widths) in acceptance.ENSEMBLES.items()
    }
    monkeypatch.setattr(acceptance, "ENSEMBLES", small)
    return small


def test_every_plan_entry_builds(monkeypatch):
    small = _small_plan(monkeypatch)
    replays = _count_calls(monkeypatch, "replay_exits", lambda args: list(args[1]))
    ctx = acceptance._Context()
    for name, (_, _, _, x) in acceptance.BUNDLES.items():
        model, sol, kern = ctx.bundle(name)
        assert sol.model is model and kern.model is model
        assert kern.base_point.tolist() == list(x)
    for name, (bundle, horizon, _, record, widths) in small.items():
        model, _, kern = ctx.bundle(bundle)
        ens = ctx.ensemble(name)
        assert ens.model is model
        assert ens.x.tolist() == kern.base_point.tolist()
        assert ens.horizon == pytest.approx(horizon)
        assert set(np.round(record, 9)) <= set(np.round(ens.times, 9))
        assert ctx.ensemble(name) is ens
    # one replay pass, for the one ensemble with exit intervals
    assert replays == [[DomainSpec.interval(-n, n) for n in (1, 2, 3, 4)]]


def test_plan_records_only_what_verify_reads(monkeypatch):
    # every snapshot time of a plan entry is a (paths, dim) array held until
    # the entry's last reader in verify; t = 0 is exempt: simulate always
    # keeps it, and stopped_increment_residual reads it
    small = _small_plan(monkeypatch)
    built = {}
    build = acceptance._Context.ensemble

    def named(ctx, name):
        built[name] = build(ctx, name)
        return built[name]

    read = {name: set() for name in small}
    index = stochastic.PathEnsemble.snapshot_index

    def spied(ens, t):
        name = next(n for n, e in built.items() if e is ens)
        read[name].add(round(float(t), 9))
        return index(ens, t)

    monkeypatch.setattr(acceptance._Context, "ensemble", named)
    monkeypatch.setattr(stochastic.PathEnsemble, "snapshot_index", spied)
    acceptance.verify("all")
    recorded = {
        name: {round(float(t), 9) for t in ens.times} - {0.0} for name, ens in built.items()
    }
    assert recorded == read


def _spy_reads(monkeypatch):
    """Wrap ``_Context.ensemble``; returns the list of names it is asked for."""
    asked = []
    build = acceptance._Context.ensemble

    def spied(ctx, name):
        asked.append(name)
        return build(ctx, name)

    monkeypatch.setattr(acceptance._Context, "ensemble", spied)
    return asked


def _suite(name):
    crit = acceptance._CRITERIA
    return crit["paper-examples"] + crit["properties"] if name == "all" else crit[name]


def test_reads_table_names_what_each_criterion_reads(monkeypatch):
    # verify drops an ensemble after the last criterion READS lists for it;
    # a criterion that read an unlisted ensemble would find it gone
    _small_plan(monkeypatch)
    asked = _spy_reads(monkeypatch)
    for fn in _suite("all"):
        asked.clear()
        fn(acceptance._Context(), [])
        assert set(asked) == set(acceptance.READS.get(fn, ())), fn.__name__


@pytest.mark.parametrize("suite", ["all", "properties", "paper-examples"])
def test_verify_drops_each_ensemble_after_its_last_reader(suite, monkeypatch):
    _small_plan(monkeypatch)
    simulated = _count_calls(monkeypatch, "simulate", lambda args: args[2])
    replays = _count_calls(monkeypatch, "replay_exits", lambda args: len(args[1]))
    asked = _spy_reads(monkeypatch)
    held = []
    release = acceptance._Context.release

    def spied(ctx, keep):
        release(ctx, keep)
        held.append(set(ctx._ensembles))

    monkeypatch.setattr(acceptance._Context, "release", spied)
    acceptance.verify(suite)
    funcs = _suite(suite)
    reads = [set(acceptance.READS.get(fn, ())) for fn in funcs]
    # after each criterion, exactly the ensembles read before it and after it
    expected = [set().union(*reads[: i + 1]) & set().union(*reads[i + 1:])
                for i in range(len(funcs))]
    assert held == expected and held[-1] == set()
    # each entry is simulated once, and ens-line-t1 replayed once if read
    assert len(simulated) == len(set(asked))
    assert replays == ([4] if "ens-line-t1" in asked else [])
    # criterion 10 runs before criterion 8, which alone reads ens-line-t1
    if suite != "paper-examples":
        assert held[funcs.index(acceptance._criterion_8) - 1] == set()


def test_a_released_ensemble_is_not_simulated_again(monkeypatch):
    _small_plan(monkeypatch)
    simulated = _count_calls(monkeypatch, "simulate", lambda args: args[2])
    ctx = acceptance._Context()
    ens = ctx.ensemble("ens-sphere")
    ctx.release(["ens-sphere"])
    assert ctx.ensemble("ens-sphere") is ens
    ctx.release(())
    assert ctx._ensembles == {}
    with pytest.raises(RuntimeError, match="'ens-sphere' was released"):
        ctx.ensemble("ens-sphere")
    assert simulated == [1.0]


def test_benchmark_restates_the_ensemble_plan(monkeypatch):
    # perfbench derives its expected traced counts from VERIFY_ENSEMBLES; a
    # plan change that leaves it behind fails here before the benchmark
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    derived = []
    for bundle, horizon, paths, _, widths in acceptance.ENSEMBLES.values():
        model_id, window, _, _ = acceptance.BUNDLES[bundle]
        dim = geometry.parse_model(model_id, time_window=window).dim_chart
        derived.append((paths, round(horizon / acceptance.DT), dim, bool(widths)))
    assert tuple(derived) == worker.VERIFY_ENSEMBLES


@pytest.mark.parametrize("n", [1, 2, 7, 20_000])
@pytest.mark.parametrize("law", ["on", "off"])
def test_ks_distance_equals_scipy_kstest_bit_for_bit(n, law):
    t = 0.25
    sigma = math.sqrt(2 * t)
    gen = np.random.default_rng(n)
    if law == "on":
        samples = gen.normal(0.0, sigma, size=n)
    else:
        samples = gen.standard_t(3, size=n) + 0.3
    want = stats.kstest(samples, stats.norm(scale=sigma).cdf).statistic
    got = np.float64(acceptance._ks_distance(samples, sigma))
    assert got.view(np.uint64) == np.float64(want).view(np.uint64)
