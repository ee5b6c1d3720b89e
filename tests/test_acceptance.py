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

import math

import numpy as np
import pytest
from scipy import stats

from entroflow import acceptance


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


def test_suite_selection():
    rows, _ = acceptance.verify("paper-examples")
    groups = {row.ident.split("-")[0] for row in rows}
    assert groups == {"1", "2", "3", "9"}
    with pytest.raises(ValueError):
        acceptance.verify("nope")


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
