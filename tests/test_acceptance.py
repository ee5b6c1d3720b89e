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
