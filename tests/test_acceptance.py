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
        name: (bundle, horizon, 200, widths)
        for name, (bundle, horizon, _, widths) in acceptance.ENSEMBLES.items()
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
    for name, (bundle, horizon, _, widths) in small.items():
        model, _, kern = ctx.bundle(bundle)
        ctx.reader = next(fn for fn, reads in acceptance.READS.items() if name in reads)
        ens = ctx.ensemble(name)
        assert ens.model is model
        assert ens.x.tolist() == kern.base_point.tolist()
        assert ens.horizon == pytest.approx(horizon)
        # the union of the times every criterion declares, and t = 0
        declared = {t for reads in acceptance.READS.values() for t in reads.get(name, ())}
        assert set(np.round(ens.times, 9)) == declared | {0.0}
        assert ctx.ensemble(name) is ens
    # one replay pass, for the one ensemble with exit intervals
    assert replays == [[DomainSpec.interval(-n, n) for n in (1, 2, 3, 4)]]


def _spy_builds(monkeypatch):
    """Wrap ``_Context.ensemble``; returns the dict of name -> ensemble it
    handed out, and the list of (reader, name) it was asked for."""
    built, asked = {}, []
    build = acceptance._Context.ensemble

    def spied(ctx, name):
        asked.append((ctx.reader, name))
        built[name] = build(ctx, name)
        return built[name]

    monkeypatch.setattr(acceptance._Context, "ensemble", spied)
    return built, asked


@pytest.fixture(scope="module")
def spied_reads():
    """One ``verify("all")`` on the 200-path plan; returns the ensembles
    built, criterion -> names it asked for, and criterion -> the nonzero
    (ensemble, time) pairs it read."""
    with pytest.MonkeyPatch.context() as mp:
        _small_plan(mp)
        built, asked = _spy_builds(mp)
        read = {}
        index = stochastic.PathEnsemble.snapshot_index

        def spied(ens, t):
            # a criterion asks for an ensemble before it reads a snapshot
            name = next(n for n, e in built.items() if e is ens)
            if round(float(t), 9) != 0.0:
                read.setdefault(asked[-1][0], set()).add((name, round(float(t), 9)))
            return index(ens, t)

        mp.setattr(stochastic.PathEnsemble, "snapshot_index", spied)
        acceptance.verify("all")
    names = {}
    for fn, name in asked:
        names.setdefault(fn, set()).add(name)
    return built, names, read


def _suite(name):
    crit = acceptance._CRITERIA
    return crit["paper-examples"] + crit["properties"] if name == "all" else crit[name]


def test_reads_table_names_what_each_criterion_reads(spied_reads):
    # verify drops an ensemble after the last criterion READS declares it
    # for and refuses an undeclared one; a declared one no row asks for
    # would be simulated or held for nothing
    _, names, _ = spied_reads
    for fn in _suite("all"):
        assert names.get(fn, set()) == set(acceptance.READS.get(fn, {})), fn.__name__


def test_plan_records_only_what_verify_reads(spied_reads):
    # READS is the one declaration: an ensemble records the times declared
    # for it, so each criterion reads exactly the (ensemble, time) pairs it
    # declares, and every snapshot an ensemble keeps is read by some row.
    # t = 0 is exempt: simulate always keeps it, and
    # stopped_increment_residual reads it
    built, _, read = spied_reads
    declared = {
        fn: {(name, round(t, 9)) for name, ts in reads.items() for t in ts}
        for fn, reads in acceptance.READS.items()
    }
    assert read == declared
    recorded = {
        name: {round(float(t), 9) for t in ens.times} - {0.0} for name, ens in built.items()
    }
    assert recorded == {
        name: {t for pairs in read.values() for n, t in pairs if n == name} for name in built
    }


@pytest.mark.parametrize("suite", ["paper-examples", "all"])
def test_record_times_do_not_depend_on_the_suite(suite, monkeypatch):
    # paper-examples reads ens-line-t4 only at 0.25, 1 and 4, yet builds it
    # with the snapshots that properties reads too
    _small_plan(monkeypatch)
    built, _ = _spy_builds(monkeypatch)
    acceptance.verify(suite)
    assert built["ens-line-t4"].times.tolist() == [0.0, 0.25, 0.5, 1.0, 4.0]


@pytest.mark.parametrize("suite", ["all", "properties", "paper-examples"])
def test_verify_drops_each_ensemble_after_its_last_reader(suite, monkeypatch):
    _small_plan(monkeypatch)
    simulated = _count_calls(monkeypatch, "simulate", lambda args: args[2])
    replays = _count_calls(monkeypatch, "replay_exits", lambda args: len(args[1]))
    built, _ = _spy_builds(monkeypatch)
    held = []
    release = acceptance._Context.release

    def spied(ctx, keep):
        release(ctx, keep)
        held.append(set(ctx._ensembles))

    monkeypatch.setattr(acceptance._Context, "release", spied)
    acceptance.verify(suite)
    funcs = _suite(suite)
    reads = [set(acceptance.READS.get(fn, {})) for fn in funcs]
    # after each criterion, exactly the ensembles read before it and after it
    expected = [set().union(*reads[: i + 1]) & set().union(*reads[i + 1:])
                for i in range(len(funcs))]
    assert held == expected and held[-1] == set()
    # each entry is simulated once, and ens-line-t1 replayed once if read
    assert len(simulated) == len(built)
    assert replays == ([4] if "ens-line-t1" in built else [])
    # criterion 10 runs before criterion 8, which alone reads ens-line-t1
    if suite != "paper-examples":
        assert held[funcs.index(acceptance._criterion_8) - 1] == set()


def test_an_undeclared_ensemble_read_is_refused_before_it_is_simulated(monkeypatch):
    _small_plan(monkeypatch)
    simulated = _count_calls(monkeypatch, "simulate", lambda args: args[2])
    # a held ensemble is refused to a criterion that does not declare it
    ctx = acceptance._Context()
    ctx.reader = acceptance._criterion_6
    ctx.ensemble("ens-sphere")
    ctx.reader = acceptance._criterion_10
    with pytest.raises(RuntimeError, match="_criterion_10 reads ensemble 'ens-sphere', "
                                           "which READS does not declare for it"):
        ctx.ensemble("ens-sphere")
    assert simulated == [1.0]
    # and verify refuses an undeclared one before simulating it
    monkeypatch.setitem(acceptance.READS, acceptance._criterion_1, {})
    with pytest.raises(RuntimeError, match="_criterion_1 reads ensemble 'ens-line-t4'"):
        acceptance.verify("paper-examples")
    assert simulated == [1.0]


def test_benchmark_restates_the_ensemble_plan(monkeypatch):
    # perfbench derives its expected traced counts from VERIFY_ENSEMBLES; a
    # plan change that leaves it behind fails here before the benchmark
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    derived = []
    for bundle, horizon, paths, widths in acceptance.ENSEMBLES.values():
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
