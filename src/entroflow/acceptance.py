"""The acceptance matrix: every exit criterion as a measurable row.

``verify(suite)`` runs the requested rows and returns them with measured
value, target, tolerance and pass/fail status; the CLI prints the table
and exits nonzero on any failure, and the test suite asserts each row.

Suites: ``paper-examples`` (exact worked-example values), ``properties``
(derivative consistency, monotonicity, bound and identity checks), and
``all``.

`BUNDLES` names each (model, solution, kernel) triple as catalog ids, and
`ENSEMBLES` each path ensemble as a bundle, horizon, path count and exit
intervals.  `READS`, the one declaration of what the rows read from the
ensembles, gives each criterion's ensembles and their snapshot times.  An
ensemble records the union of the times declared for it, in every suite,
is built on first use (``paper-examples`` simulates only ``ens-line-t4``)
and is dropped after the last criterion of its suite that declares it.  A
criterion asking for an ensemble it does not declare is refused before
anything is simulated.  ``properties`` runs criterion 10 before criterion
8, so ``ens-line-t4`` and ``ens-circle`` are gone before ``ens-line-t1`` is
simulated with its exits.  The benchmark's
``perfbench/worker.VERIFY_ENSEMBLES`` restates the ensemble plan as (paths,
steps, chart dimension, replayed); it must match `ENSEMBLES` until the
benchmark reads the table, and a test checks that it does.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import analysis, geometry, kernels, solutions, stochastic
from .entropy import (
    conditions,
    entropy_curve,
    entropy_mc,
    entropy_q,
    local_entropy,
    submartingale_gap,
)
from .solutions import bochner_identities
from .stochastic import DEFAULT_SEED, DomainSpec, SdeConfig

LEVEL = 2  # fixed refinement level for every quadrature row


@dataclass
class CheckRow:
    ident: str
    description: str
    measured: float
    target: float
    tol: float
    passed: bool
    note: str = ""

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.ident:<28} {self.description}: "
            f"measured {self.measured:.9g} vs {self.target:.9g} (tol {self.tol:.3g})"
            + (f"  [{self.note}]" if self.note else "")
        )


def _row(ident, desc, measured, target, tol, note=""):
    return CheckRow(
        ident=ident, description=desc, measured=float(measured),
        target=float(target), tol=float(tol),
        passed=bool(abs(measured - target) <= tol), note=note,
    )


def _row_le(ident, desc, measured, bound, note=""):
    """measured <= bound."""
    return CheckRow(
        ident=ident, description=desc, measured=float(measured),
        target=float(bound), tol=0.0, passed=bool(measured <= bound), note=note,
    )


def _row_ge(ident, desc, measured, bound, note=""):
    return CheckRow(
        ident=ident, description=desc, measured=float(measured),
        target=float(bound), tol=0.0, passed=bool(measured >= bound), note=note,
    )


def _row_bool(ident, desc, flag, note=""):
    return CheckRow(
        ident=ident, description=desc, measured=1.0 if flag else 0.0,
        target=1.0, tol=0.0, passed=bool(flag), note=note,
    )


# ---------------------------------------------------------------------------
# the plan: every bundle and ensemble the criteria read, each named once

# name -> (model id, time window, solution id, kernel base point); a window of
# None keeps the model's default
BUNDLES = {
    "line-eternal": ("euclidean-line", None, "expline:1,1", (0.0,)),
    "line-a2b3": ("euclidean-line", None, "expline:2,3", (0.0,)),
    "line-a05b1": ("euclidean-line", None, "expline:0.5,1", (0.0,)),
    "line-sum": ("euclidean-line", None, "expsum:1,1;1,2", (0.0,)),
    "line-const": ("euclidean-line", None, "const:5", (0.0,)),
    "circle-static": ("circle:1,0", (0.0, 1.3), "circle-spec:2,(1,0.5,0)", (0.0,)),
    "circle-shrink": ("circle:1,-0.1", (0.0, 1.25), "circle-spec:2,(1,0.5,0)", (0.0,)),
    "sphere-ricci": ("sphere2:1,2", (0.0, 1.2), "sphere-spec:2,(1,0.5)", (1.0, 0.0, 0.0)),
    "punctured": ("punctured-3", None, "radial3", (1.0, 0.0, 0.0)),
}

# name -> (bundle, horizon, paths, exit half-widths); each ensemble starts at
# its bundle's kernel base point and is simulated with the intervals (-n, n)
# of the half-widths n, whose exits simulate finds by one replay at build.
# The snapshot times it records are those READS declares for it
ENSEMBLES = {
    "ens-line-t4": ("line-eternal", 4.0, 100_000, ()),
    "ens-line-t1": ("line-eternal", 1.0, 100_000, (1, 2, 3, 4)),
    "ens-circle": ("circle-shrink", 1.0, 100_000, ()),
    "ens-sphere": ("sphere-ricci", 1.0, 20_000, ()),
}
DT = 1e-3  # the step of every ensemble; each runs at DEFAULT_SEED


class _Context:
    """Builds each bundle and ensemble of the plan on first use.

    A bundle is kept to the end.  An ensemble is handed only to the running
    criterion, `reader`, if `READS` declares it, and kept until `release`.
    """

    def __init__(self):
        self._bundles = {}
        self._ensembles = {}  # name -> PathEnsemble, the ones still held
        self.reader = None

    def bundle(self, name):
        """(model, solution, kernel) of the `BUNDLES` entry `name`."""
        if name not in self._bundles:
            model_id, window, sol_id, x = BUNDLES[name]
            model = geometry.parse_model(model_id, time_window=window)
            sol = solutions.parse_solution(sol_id, model)
            self._bundles[name] = model, sol, kernels.canonical_kernel(model, x)
        return self._bundles[name]

    def ensemble(self, name):
        """The `PathEnsemble` of the `ENSEMBLES` entry `name`."""
        if name not in READS.get(self.reader, {}):
            raise RuntimeError(f"{self.reader.__name__} reads ensemble {name!r}, "
                               "which READS does not declare for it")
        if name not in self._ensembles:
            bundle, horizon, paths, widths = ENSEMBLES[name]
            model, _, kern = self.bundle(bundle)
            cfg = SdeConfig(dt=DT, n_paths=paths, seed=DEFAULT_SEED)
            record = {t for reads in READS.values() for t in reads.get(name, ())}
            self._ensembles[name] = stochastic.simulate(
                model, kern.base_point, horizon, cfg, record_times=sorted(record),
                domains=[DomainSpec.interval(-n, n) for n in widths],
            )
        return self._ensembles[name]

    def release(self, keep):
        """Drop every held ensemble whose name is not in `keep`."""
        for name in set(self._ensembles) - set(keep):
            del self._ensembles[name]


def _paired(ctx, name):
    """(solution, ensemble) of the `ENSEMBLES` entry `name`."""
    return ctx.bundle(ENSEMBLES[name][0])[1], ctx.ensemble(name)


# (bundle, (t_lo, t_hi)) of the derivative and identity sweeps
_SWEEP = (
    ("line-eternal", (0.25, 3.0)),
    ("line-a2b3", (0.25, 2.0)),
    ("line-a05b1", (0.25, 3.0)),
    ("line-sum", (0.25, 2.0)),
    ("line-const", (0.25, 3.0)),
    ("circle-static", (0.2, 1.1)),
    ("circle-shrink", (0.2, 1.1)),
    ("sphere-ricci", (0.15, 1.0)),
)


# ---------------------------------------------------------------------------
# criteria


def _criterion_1(ctx, rows):
    t0 = time.perf_counter()
    cpu0 = time.process_time()
    _, sol, kern = ctx.bundle("line-eternal")
    for t in (0.25, 1.0, 4.0):
        eq = entropy_q(sol, kern, t, level=LEVEL)
        rows.append(_row(f"1-quad-t{t:g}", "entropy equals t (quadrature)", eq, t, 1e-8))
    ens = ctx.ensemble("ens-line-t4")
    for t in (0.25, 1.0, 4.0):
        r = entropy_mc(sol, ens, t)
        rows.append(
            _row(
                f"1-mc-t{t:g}", "entropy equals t (Monte Carlo)",
                r.mean, t, 3.0 * r.stderr, note=f"stderr {r.stderr:.3g}",
            )
        )
    elapsed = time.perf_counter() - t0
    # gated on process time (both threads), which a loaded host does not
    # inflate as it does wall time; the wall time shows in the note
    cpu = time.process_time() - cpu0
    rows.append(
        _row_le("1-runtime", "process seconds", cpu, 30.0, note=f"wall {elapsed:.3g} s")
    )


def _criterion_2(ctx, rows):
    _, sol, kern = ctx.bundle("line-eternal")
    for t in (0.5, 1.0, 2.0):
        rep = conditions(sol, kern, t)
        c1_target = (9 * t * t + 8 * t + 1) * math.exp(2 * t)
        c2_target = math.exp(2 * t)
        rows.append(
            _row(
                f"2-cond1-t{t:g}", "first condition integral",
                rep.cond1, c1_target, 1e-6 * c1_target,
            )
        )
        rows.append(
            _row(
                f"2-cond2-t{t:g}", "second condition integral",
                rep.cond2, c2_target, 1e-6 * c2_target,
            )
        )


def _criterion_3(ctx, rows):
    for name in ("line-a2b3", "line-a05b1"):
        _, sol, kern = ctx.bundle(name)
        a, b = sol.a, sol.b
        worst = 0.0
        for t in (0.5, 1.0, 2.0):
            eq = entropy_q(sol, kern, t, level=LEVEL)
            worst = max(worst, abs(eq - a * (math.log(a) + b * b * t)))
        rows.append(
            _row(f"3-entropy-a{a:g}b{b:g}", "a(log a + b^2 t) family", worst, 0.0, 1e-8)
        )
        grid = np.geomspace(0.25, 4.0, 16)
        curve = entropy_curve(sol, kern, grid, level=LEVEL, with_conditions=False)
        rep = analysis.classify_growth(sol, kern, curve)
        rows.append(
            _row_bool(
                f"3-class-a{a:g}b{b:g}", "classified as linear growth",
                rep.growth_class == analysis.GROWTH_LINEAR,
            )
        )
        slope = rep.slope if rep.slope is not None else math.nan
        rows.append(
            _row(f"3-slope-a{a:g}b{b:g}", "linear slope a*b^2", slope, a * b * b, 1e-6)
        )


def _criterion_4(ctx, rows):
    h = 1e-3
    for ident, (t_lo, t_hi) in _SWEEP:
        _, sol, kern = ctx.bundle(ident)
        worst1 = 0.0
        worst2 = 0.0
        ts = np.geomspace(max(t_lo, 2 * h), t_hi, 3)
        # E, E' and E'' of each t share one grid and one solution jet
        curve = entropy_curve(sol, kern, ts, level=LEVEL, with_conditions=False)
        for t, e_mid, ep, es in zip(ts, curve.E, curve.E_prime, curve.E_second):
            e_minus = entropy_q(sol, kern, t - h, level=LEVEL)
            e_plus = entropy_q(sol, kern, t + h, level=LEVEL)
            fd1 = (e_plus - e_minus) / (2 * h)
            fd2 = (e_plus - 2 * e_mid + e_minus) / (h * h)
            worst1 = max(worst1, abs(fd1 - ep))
            worst2 = max(worst2, abs(fd2 - es))
        rows.append(_row(f"4-first-{ident}", "E' matches dE/dt", worst1, 0.0, 1e-5))
        rows.append(_row(f"4-second-{ident}", "E'' matches d2E/dt2", worst2, 0.0, 1e-4))


def _criterion_5(ctx, rows):
    cases = (
        ("line-eternal", (0.25, 3.0)),
        ("circle-shrink", (0.125, 1.25)),
        ("sphere-ricci", (0.12, 1.2)),
    )
    for ident, (t_lo, t_hi) in cases:
        _, sol, kern = ctx.bundle(ident)
        grid = np.geomspace(t_lo, t_hi, 16)
        curve = entropy_curve(sol, kern, grid, level=LEVEL, with_conditions=False)
        ep, es = curve.E_prime.tolist(), curve.E_second.tolist()
        rows.append(_row_ge(f"5-mono-{ident}", "min E' over log grid", min(ep), -1e-10))
        rows.append(_row_ge(f"5-convex-{ident}", "min E'' over log grid", min(es), -1e-10))


def _criterion_6(ctx, rows):
    g = submartingale_gap(*_paired(ctx, "ens-line-t4"), 1.0)
    rows.append(
        _row(
            "6-saturation-line", "gap vanishes for the eternal exponential",
            g.gap, 0.0, 3.0 * g.stderr, note=f"stderr {g.stderr:.3g}",
        )
    )
    g = submartingale_gap(*_paired(ctx, "ens-circle"), 1.0)
    rows.append(
        _row_ge(
            "6-gap-circle", "gap nonnegative within error",
            g.gap, -3.0 * g.stderr, note=f"gap {g.gap:.4g}",
        )
    )
    rows.append(
        _row_ge(
            "6-midpoint-circle", "midpoint gap nonnegative within error",
            g.midpoint_gap, -3.0 * g.midpoint_stderr,
        )
    )
    g = submartingale_gap(*_paired(ctx, "ens-sphere"), 1.0)
    rows.append(
        _row_ge(
            "6-gap-sphere", "gap nonnegative within error",
            g.gap, -3.0 * g.stderr, note=f"gap {g.gap:.4g}",
        )
    )


def _criterion_7(ctx, rows):
    quad_cases = (
        ("line-eternal", 1.0),
        ("line-a2b3", 1.0),
        ("line-a05b1", 1.0),
        ("circle-static", 0.5),
        ("circle-shrink", 0.5),
        ("sphere-ricci", 0.5),
    )
    checks = {}
    for ident, t in quad_cases:
        _, sol, kern = ctx.bundle(ident)
        gb = checks[ident] = analysis.gradient_entropy_check(sol, kern, t, level=LEVEL)
        rows.append(
            _row_bool(f"7-holds-{ident}", "gradient bound holds (quadrature)", gb.holds,
                      note=f"lhs {gb.lhs:.6g} rhs {gb.rhs:.6g}")
        )
    gb = checks["line-eternal"]  # the bound at t = 1, where it is saturated
    rows.append(
        _row("7-equality-line", "saturation: lhs equals rhs", gb.lhs - gb.rhs, 0.0, 1e-6)
    )
    mc_cases = (
        ("line-mc", "ens-line-t4"),
        ("circle-mc", "ens-circle"),
        ("sphere-mc", "ens-sphere"),
    )
    for ident, name in mc_cases:
        sol, ens = _paired(ctx, name)
        gb = analysis.gradient_entropy_check(sol, ens, 1.0)
        rows.append(
            _row_bool(f"7-holds-{ident}", "gradient bound holds (Monte Carlo)", gb.holds,
                      note=f"lhs {gb.lhs:.6g} rhs {gb.rhs:.6g} se {gb.stderr:.3g}")
        )


def _criterion_8(ctx, rows):
    sol, ens = _paired(ctx, "ens-line-t1")
    table = local_entropy(sol, ens, list(ens.exits), [0.25, 0.5, 1.0])
    rows.append(
        _row_ge("8-monotone-t", "stopped entropy nondecreasing in t (z)",
                table.monotone_t_z, -3.0)
    )
    rows.append(
        _row_ge("8-monotone-D", "stopped entropy nondecreasing in D (z)",
                table.monotone_D_z, -3.0)
    )
    j = table.t_grid.tolist().index(1.0)
    se = table.stderr[-1, j]
    rows.append(
        _row("8-limit", "largest-domain value near E(1)=1",
             table.E_D[-1, j], 1.0, 3.0 * se, note=f"stderr {se:.3g}")
    )


def _criterion_9(ctx, rows):
    _, sol, kern = ctx.bundle("punctured")
    rep = analysis.divergence_demo(sol, kern, 1.0)
    rows.append(
        _row_le("9-entropy-stable", "entropy spread across inner cutoffs",
                rep.entropy_spread, 1e-4)
    )
    rows.append(
        _row_ge("9-prime-growth", "min growth of E' integral per refinement",
                min(rep.prime_growths), 0.10)
    )
    rows.append(_row_bool("9-prime-divergent", "E' integral flagged divergent",
                          rep.prime_divergent))
    rows.append(
        _row_le("9-tail-control", "entropy shift when outer radius doubles",
                rep.tail_shift, 1e-6)
    )


def _ks_distance(samples, sigma):
    """Two-sided Kolmogorov-Smirnov distance of the samples to N(0, sigma^2).

    The arithmetic of ``scipy.stats.kstest(samples, norm(scale=sigma).cdf)``
    step for step, so the statistic is the same to the last bit; importing
    ``scipy.stats`` for it would add about 1 s to every start-up.
    """
    x = np.sort(samples)
    n = x.size
    cdf = ndtr(x / sigma)
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    return float(max(d_plus, d_minus))


def _criterion_10(ctx, rows):
    ens = ctx.ensemble("ens-line-t4")
    n = ens.n_paths
    crit = 1.6276 / math.sqrt(n)  # asymptotic 1% Kolmogorov-Smirnov point
    for t in (0.25, 1.0):
        samples = ens.state_at(t)[:, 0]
        ks = _ks_distance(samples, math.sqrt(2 * t))
        rows.append(_row_le(f"10-ks-t{t:g}", "KS distance to N(0, 2t)", ks, crit))
    cens = ctx.ensemble("ens-circle")
    s1 = float(cens.model.time_change(1.0))
    th = cens.state_at(1.0)[:, 0]
    for k in (1, 2):
        target = math.exp(-k * k * s1)
        mean, se = stochastic.mean_stderr(np.cos(k * th))
        rows.append(
            _row(f"10-moment-k{k}", f"circular moment {k} vs wrapped Gaussian",
                 mean, target, 3.0 * se, note=f"clock {s1:.5f}")
        )


def _criterion_11(ctx, rows):
    _, product, _ = ctx.bundle("line-a2b3")
    _, witness, _ = ctx.bundle("line-sum")
    ts = np.linspace(0.0, 1.0, 6)
    ys = np.linspace(-1.0, 1.0, 9)
    rep_p = analysis.separation_test(product, ts, ys)
    rep_w = analysis.separation_test(witness, ts, ys)
    rows.append(
        _row_le("11-product", "mixed residual of a product solution",
                rep_p.mixed_residual, 1e-12)
    )
    rows.append(
        _row_ge("11-witness", "mixed residual of the two-mode witness",
                rep_w.mixed_residual, 0.01)
    )
    rows.append(
        _row_le("11-ode", "factor equation residual", rep_p.ode_residual, 1e-10)
    )


def _criterion_12(ctx, rows):
    gen = np.random.default_rng(214748364)
    for ident, (t_lo, t_hi) in _SWEEP + (("punctured", (0.2, 3.0)),):
        model, sol, _ = ctx.bundle(ident)
        worst1 = 0.0
        worst2 = 0.0
        for _ in range(100):
            t = float(gen.uniform(t_lo, t_hi))
            y = _random_point(gen, model)
            r1, r2 = bochner_identities(sol, t, y)
            worst1 = max(worst1, r1)
            worst2 = max(worst2, r2)
        rows.append(_row(f"12-first-{ident}", "pointwise identity for u log u",
                         worst1, 0.0, 1e-6))
        rows.append(_row(f"12-second-{ident}", "pointwise identity for |grad u|^2/u",
                         worst2, 0.0, 1e-6))


def _random_point(gen, model):
    if model.kind == geometry.EUCLIDEAN_LINE:
        return np.array([gen.uniform(-2.0, 2.0)])
    if model.kind == geometry.CIRCLE:
        return np.array([gen.uniform(0.0, 2.0 * np.pi)])
    if model.kind == geometry.SPHERE_2:
        v = gen.normal(size=3)
        return v / np.linalg.norm(v)
    if model.kind == geometry.PUNCTURED_3:
        # the float64 FD floor for r^-3 reaches 1e-6 around r = 0.3,
        # so the identity samples stay a little further off the puncture
        v = gen.normal(size=3)
        return v / np.linalg.norm(v) * gen.uniform(0.4, 2.5)
    raise ValueError(model.kind)


# criterion -> {ENSEMBLES entry: the snapshot times it reads}, checked both
# ways by a test; simulate also keeps t = 0, which no row reads
READS = {
    _criterion_1: {"ens-line-t4": (0.25, 1.0, 4.0)},
    _criterion_6: {
        "ens-line-t4": (0.5, 1.0), "ens-circle": (0.5, 1.0), "ens-sphere": (0.5, 1.0),
    },
    _criterion_7: {"ens-line-t4": (1.0,), "ens-circle": (1.0,), "ens-sphere": (1.0,)},
    _criterion_8: {"ens-line-t1": (0.25, 0.5, 1.0)},
    _criterion_10: {"ens-line-t4": (0.25, 1.0), "ens-circle": (1.0,)},
}

# criterion 10 runs before criterion 8: ens-line-t4 and ens-circle are
# dropped before ens-line-t1 is simulated with its exits
_CRITERIA = {
    "paper-examples": (_criterion_1, _criterion_2, _criterion_3, _criterion_9),
    "properties": (
        _criterion_4, _criterion_5, _criterion_6, _criterion_7,
        _criterion_10, _criterion_8, _criterion_11, _criterion_12,
    ),
}


def verify(suite="all"):
    """Run a suite; returns (rows, elapsed_seconds)."""
    if suite == "all":
        funcs = _CRITERIA["paper-examples"] + _CRITERIA["properties"]
    elif suite in _CRITERIA:
        funcs = _CRITERIA[suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose paper-examples, properties, all")
    ctx = _Context()
    rows = []
    t0 = time.perf_counter()
    for i, fn in enumerate(funcs):
        ctx.reader = fn
        fn(ctx, rows)
        ctx.release(name for later in funcs[i + 1:] for name in READS.get(later, {}))
    return rows, time.perf_counter() - t0


def format_rows(rows):
    lines = [r.line() for r in rows]
    n_fail = sum(not r.passed for r in rows)
    lines.append("")
    lines.append(f"{len(rows) - n_fail}/{len(rows)} checks passed")
    return "\n".join(lines)
