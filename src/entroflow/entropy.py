"""The heat-kernel weighted entropy and its first two variations.

The functional is ``E(t) = E[(u log u)(t, X_t)]``, the expectation of
``u log u`` along the time-changed Brownian motion, equivalently the
integral of ``u log u`` against the kernel measure ``p vol``.  Under the
integrability conditions the first variation integrand is ``|grad u|^2/u``
and the second is ``2u (|hess log u|^2 + (Ric - dg/dt / 2)(grad log u,
grad log u))``; both are computed here by quadrature and by Monte Carlo.

No function here takes a metric model: each reads it from the solution
(``sol.model``), and the heat kernel or path ensemble it is paired with
must live on that same model, or the call raises ValueError before any
work.  A target that is a kernel means quadrature, one that is a
`PathEnsemble` means Monte Carlo (`entropy_prime`, `entropy_second`,
`entropy_curve`).

Every kernel-measure integral of one scenario shares a single truncation
policy (growth rate ``2 * b_max``), so E, E', E'' and the condition
integrals live on identical grids and finite-difference cross-checks do
not suffer cancellation artifacts.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import xlogy

from . import geometry, quadrature
from .errors import CensoredDominates, QuadratureDivergence
from .solutions import LogJet, SolutionField, require_positive, sum_squares
from .stochastic import (
    AtExit,
    AtTime,
    ExpectResult,
    PathEnsemble,
    Stopped,
    expect,
    mean_stderr,
)

DEFAULT_CURVE_LEVEL = 2


def shared_growth(sol: SolutionField) -> float:
    """Common truncation growth rate for all integrals of one scenario."""
    return 2.0 * sol.growth_rate


# ---------------------------------------------------------------------------
# integrands (all vectorized over points, broadcastable in t)
#
# Each formula reads the solution's log jet at the points; the integrands of
# one node set share a single jet (`JetIntegrands`), and a lone integrand is
# the one-integrand case of the same evaluation.


def _ulogu(sol, t, pts, jet):
    return xlogy(jet.u, jet.u)


def _first_variation(sol, t, pts, jet):
    return sol.grad_term(t, pts, jet)


def _second_variation(sol, t, pts, jet):
    model = sol.model
    u, gl, hess = _log_parts(jet)
    scale = geometry.inv_metric_scale(model, t, pts)
    hess_sq = scale**2 * sum_squares([h for row in hess for h in row])
    curv = geometry.ricci_scale(model, t, pts) - 0.5 * geometry.dg_dt_scale(
        model, t, pts
    )
    quad = curv * scale**2 * sum_squares(gl)
    return 2.0 * u * (hess_sq + quad)


def _log_parts(jet):
    """u (LogOfZero unless u > 0), the columns of grad log u and the rows of
    Hess log u."""
    u = require_positive(jet.u)
    return u, [c / u for c in jet.du], jet.hess


def _cond1(sol, t, pts, jet):
    """|grad(u log u)|^2 = (log u + 1)^2 |grad u|^2."""
    return (np.log(jet.u) + 1.0) ** 2 * sol.grad_norm_sq(t, pts, jet)


def _cond2(sol, t, pts, jet):
    """|grad(|grad u|^2 / u)|^2 via the log-jet.

    grad(u |grad log u|^2) = u (|grad log u|^2 grad log u
                                 + 2 hess log u (grad log u, .)).
    """
    u, gl, hess = _log_parts(jet)
    scale = geometry.inv_metric_scale(sol.model, t, pts)
    gl_sq = scale * sum_squares(gl)
    w = [
        u * (gl_sq * g + 2.0 * (_row_times(row, gl) * scale))
        for g, row in zip(gl, hess)
    ]
    return scale * sum_squares(w)


def _row_times(row, v):
    """sum_j row[j] * v[j], in the order ``np.einsum("...ij,...j->...i")``
    adds the products: left to right for two terms, the first and the last
    before the middle one for three.
    """
    p = [h * c for h, c in zip(row, v)]
    if len(p) == 3:
        return (p[0] + p[2]) + p[1]
    return sum(p[1:], p[0])


def _cond0a(sol, t, pts, jet):
    return sol.grad_norm_sq(t, pts, jet)


_READS_HESS = frozenset({_second_variation, _cond2})


@dataclass(frozen=True)
class JetIntegrand:
    """One entropy integrand: ``formula(sol, t, pts, jet)`` of the
    solution's log jet at the points, on the solution's model.  Called
    alone, it is a one-integrand `JetIntegrands`."""

    sol: SolutionField
    formula: object

    def __call__(self, t, pts):
        return JetIntegrands((self,)).reduce_columns(t, pts, _column)[0]


def _column(col):
    return col


class JetIntegrands(quadrature.Integrands):
    """`JetIntegrand`s of one solution, evaluated on one log jet per node set.

    The jet holds only what the integrands read: u alone is the solution's
    `value` (which `log_jet` equals bit for bit), and the Hessian is taken
    only when one of them reads it.  Its columns are read-only, so no
    formula can change what the next one sees, and it is dropped when the
    evaluation returns.  Each column is the one its integrand gives alone,
    bit for bit.
    """

    def __new__(cls, fs=()):
        fs = tuple.__new__(cls, fs)
        if any(f.sol is not fs[0].sol for f in fs):
            raise ValueError("the integrands of one jet need one solution")
        return fs

    def node_terms(self, pts):
        """The solution's `node_terms`, when the integrands read a jet."""
        if self._reads() <= {_ulogu}:
            return None
        return self[0].sol.node_terms(pts)

    def _reads(self):
        return {f.formula for f in self}

    def reduce_columns(self, t, pts, reduce, terms=None):
        if not self:
            return ()
        sol = self[0].sol
        reads = self._reads()
        if reads == {_ulogu}:
            jet = LogJet(sol.value(t, pts), (), None)
        else:
            # only the families that share terms take them
            shared = {} if terms is None else {"terms": terms}
            jet = sol.log_jet(t, pts, hess=not reads.isdisjoint(_READS_HESS), **shared)
        for col in (jet.u, *jet.du, *(h for row in jet.hess or () for h in row)):
            col.flags.writeable = False
        return tuple(reduce(f.formula(sol, t, pts, jet)) for f in self)


def _integrands(sol, *formulas):
    return JetIntegrands(JetIntegrand(sol, f) for f in formulas)


def ulogu_integrand(sol):
    return JetIntegrand(sol, _ulogu)


def first_variation_integrand(sol):
    return JetIntegrand(sol, _first_variation)


def second_variation_integrand(sol):
    return JetIntegrand(sol, _second_variation)


def cond1_integrand(sol):
    return JetIntegrand(sol, _cond1)


def cond2_integrand(sol):
    return JetIntegrand(sol, _cond2)


def cond0a_integrand(sol):
    return JetIntegrand(sol, _cond0a)


# ---------------------------------------------------------------------------
# pointwise functionals


def _same_model(sol, target):
    """Refuse a kernel or ensemble on another model than the solution's."""
    if target.model != sol.model:
        what = "ensemble" if isinstance(target, PathEnsemble) else "kernel"
        raise ValueError(
            f"the solution lives on {sol.model!r} but the {what} on {target.model!r}"
        )


def entropy_q(sol, kernel, t, level=None) -> float:
    """Quadrature value of the entropy at time t (requires t > 0)."""
    _same_model(sol, kernel)
    return quadrature.kernel_integral(
        ulogu_integrand(sol), kernel, t,
        growth=shared_growth(sol), level=level, what="entropy",
    )


def entropy_mc(sol, ensemble: PathEnsemble, t) -> ExpectResult:
    """Monte Carlo estimate of the entropy at a recorded snapshot time."""
    _same_model(sol, ensemble)
    return expect(ensemble, sol.ulogu, AtTime(t))


def entropy_prime(sol, target, t, level=None):
    """First variation; quadrature against a kernel or MC over an ensemble."""
    _same_model(sol, target)
    if isinstance(target, PathEnsemble):
        return expect(target, sol.grad_term, AtTime(t))
    return quadrature.kernel_integral(
        first_variation_integrand(sol), target, t,
        growth=shared_growth(sol), level=level, what="first variation",
    )


def entropy_second(sol, target, t, level=None):
    """Second variation; nonnegative whenever dg/dt <= 2 Ric pointwise."""
    _same_model(sol, target)
    f = second_variation_integrand(sol)
    if isinstance(target, PathEnsemble):
        return expect(target, f, AtTime(t))
    return quadrature.kernel_integral(
        f, target, t,
        growth=shared_growth(sol), level=level, what="second variation",
    )


@dataclass(frozen=True)
class ConditionReport:
    """Values of the three integrability conditions; inf when divergent."""

    cond1: float
    cond2: float
    cond0a: float
    cond1_divergent: bool = False
    cond2_divergent: bool = False
    cond0a_divergent: bool = False
    tables: dict = field(default_factory=dict)

    @property
    def all_finite(self):
        return not (self.cond1_divergent or self.cond2_divergent or self.cond0a_divergent)


def conditions(sol, kernel, t) -> ConditionReport:
    """Refine the three condition integrals, recording divergence as a value.

    The three share one grid and one solution jet per refinement level
    (with the Hessian only while cond2 is refining); each stops at its own.
    """
    _same_model(sol, kernel)
    return _conditions(sol, kernel, t)


def _conditions(sol, kernel, t):
    vals = {}
    flags = {}
    tables = {}
    integrands = _integrands(sol, _cond1, _cond2, _cond0a)
    refs = quadrature.refine_expectations(integrands, kernel, t, growth=shared_growth(sol))
    for name, ref in zip(("cond1", "cond2", "cond0a"), refs):
        tables[name] = ref.values
        if ref.converged:
            vals[name], flags[name] = ref.value, False
        elif ref.divergent:
            vals[name], flags[name] = math.inf, True
        else:
            raise QuadratureDivergence(
                f"{name} neither stabilized nor diverged", levels=ref.values
            )
    return ConditionReport(
        cond1=vals["cond1"], cond2=vals["cond2"], cond0a=vals["cond0a"],
        cond1_divergent=flags["cond1"], cond2_divergent=flags["cond2"],
        cond0a_divergent=flags["cond0a"], tables=tables,
    )


@dataclass(frozen=True)
class GapResult:
    """Submartingale gaps E[N_t] - E[N_0] and E[N_t] - E[N_{t/2}]."""

    gap: float
    stderr: float
    midpoint_gap: float
    midpoint_stderr: float


def submartingale_gap(sol, ensemble: PathEnsemble, t) -> GapResult:
    """Gap of N_s = (t-s) |grad u|^2/u (s, X_s) + (u log u)(s, X_s).

    Nonnegative within Monte Carlo error when the evolution satisfies
    dg/dt <= 2 Ric and the condition integrals are finite.
    """
    _same_model(sol, ensemble)
    _warn_if_super_ricci_fails(sol.model, ensemble.x, (0.0, t / 2.0, t))
    x = ensemble.x[None, :]
    n0 = t * float(sol.grad_term(0.0, x)[0]) + float(sol.ulogu(0.0, x)[0])
    end = expect(ensemble, sol.ulogu, AtTime(t))
    gap = end.mean - n0

    half = t / 2.0
    states_half = ensemble.state_at(half)
    states_end = ensemble.state_at(t)
    n_half = half * np.asarray(sol.grad_term(half, states_half)) + np.asarray(
        sol.ulogu(half, states_half)
    )
    diffs = np.asarray(sol.ulogu(t, states_end)) - n_half
    mid, mid_se = mean_stderr(diffs)
    return GapResult(gap=gap, stderr=end.stderr, midpoint_gap=mid, midpoint_stderr=mid_se)


def _warn_if_super_ricci_fails(model, x, ts, tol=1e-10):
    for t in ts:
        try:
            gap = geometry.super_ricci_gap(model, t, x)
        except Exception:
            continue
        if gap > tol:
            warnings.warn(
                f"dg/dt <= 2 Ric fails at t={t} (gap {gap:.3g}); "
                "monotonicity guarantees do not apply",
                stacklevel=3,
            )
            return


# ---------------------------------------------------------------------------
# entropy curves


@dataclass
class EntropyCurve:
    """Sampled t -> (E, E', E'') with method tags and standard errors."""

    t_grid: np.ndarray
    E: np.ndarray
    E_stderr: np.ndarray
    E_prime: np.ndarray
    E_prime_stderr: np.ndarray
    E_second: np.ndarray
    E_second_stderr: np.ndarray
    method: list
    cond1: np.ndarray
    cond2: np.ndarray
    cond0a: np.ndarray
    cond1_divergent: np.ndarray
    cond2_divergent: np.ndarray
    cond0a_divergent: np.ndarray

    def to_csv(self, path):
        cols = (
            "t,E,E_stderr,Eprime,Eprime_stderr,Esecond,Esecond_stderr,"
            "cond1,cond2,cond0a,method,"
            "cond1_divergent,cond2_divergent,cond0a_divergent"
        )
        lines = [cols]
        for i in range(len(self.t_grid)):
            row = [
                _fmt(self.t_grid[i]), _fmt(self.E[i]), _fmt(self.E_stderr[i]),
                _fmt(self.E_prime[i]), _fmt(self.E_prime_stderr[i]),
                _fmt(self.E_second[i]), _fmt(self.E_second_stderr[i]),
                _fmt(self.cond1[i]), _fmt(self.cond2[i]), _fmt(self.cond0a[i]),
                self.method[i],
                _fmt_bool(self.cond1_divergent[i]),
                _fmt_bool(self.cond2_divergent[i]),
                _fmt_bool(self.cond0a_divergent[i]),
            ]
            lines.append(",".join(row))
        _write_text(path, "\n".join(lines) + "\n")


def _fmt(x):
    if np.isinf(x):
        return "inf"
    return f"{float(x):.17g}"


def _fmt_bool(b):
    return "true" if b else "false"


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def entropy_curve(
    sol,
    target,
    t_grid,
    level=DEFAULT_CURVE_LEVEL,
    with_conditions=True,
) -> EntropyCurve:
    """Tabulate E, E', E'' over a time grid, against a kernel or an ensemble.

    The target's type picks the method, as in `entropy_prime`: quadrature
    against a heat kernel, Monte Carlo over a path ensemble (whose snapshots
    must hold every time of the grid).  Condition integrals are evaluated by
    refinement quadrature, so they need a kernel: asking for them with an
    ensemble raises ValueError.
    The quadrature entries use a fixed refinement level so the curve is a
    smooth deterministic function of t.  E, E' and E'' of one time share its
    grid (quadrature) or its snapshot (Monte Carlo) and one solution jet;
    each equals its own `entropy_q`/`entropy_prime`/`entropy_second` (or
    `entropy_mc`) value bit for bit.  Where the nodes do not move with t
    (circle, sphere), the quadrature curve builds them, and the jet's terms
    that depend on them alone, once for all times
    (`quadrature.curve_expectations`) and drops them on return.
    """
    _same_model(sol, target)
    monte_carlo = isinstance(target, PathEnsemble)
    if monte_carlo and with_conditions:
        raise ValueError("the condition integrals need a kernel, not an ensemble")
    t_grid = np.asarray(t_grid, dtype=float)
    n = t_grid.size
    E = np.empty(n)
    Ese = np.zeros(n)
    Ep = np.empty(n)
    Epse = np.zeros(n)
    Es = np.empty(n)
    Esse = np.zeros(n)
    c1 = np.full(n, np.nan)
    c2 = np.full(n, np.nan)
    c0 = np.full(n, np.nan)
    d1 = np.zeros(n, dtype=bool)
    d2 = np.zeros(n, dtype=bool)
    d0 = np.zeros(n, dtype=bool)
    row = _integrands(sol, _ulogu, _first_variation, _second_variation)
    if monte_carlo:
        method = "monte-carlo"
        for i, t in enumerate(t_grid):
            (E[i], Ese[i]), (Ep[i], Epse[i]), (Es[i], Esse[i]) = row.reduce_columns(
                t, target.state_at(t), mean_stderr
            )
    else:
        method = "quadrature"
        rows = quadrature.curve_expectations(row, target, t_grid, level, shared_growth(sol))
        for i, values in enumerate(rows):
            E[i], Ep[i], Es[i] = values
    if with_conditions:
        for i, t in enumerate(t_grid):
            rep = _conditions(sol, target, t)
            c1[i], c2[i], c0[i] = rep.cond1, rep.cond2, rep.cond0a
            d1[i], d2[i], d0[i] = (
                rep.cond1_divergent, rep.cond2_divergent, rep.cond0a_divergent,
            )
    return EntropyCurve(
        t_grid=t_grid, E=E, E_stderr=Ese,
        E_prime=Ep, E_prime_stderr=Epse,
        E_second=Es, E_second_stderr=Esse,
        method=[method] * n,
        cond1=c1, cond2=c2, cond0a=c0,
        cond1_divergent=d1, cond2_divergent=d2, cond0a_divergent=d0,
    )


# ---------------------------------------------------------------------------
# local (stopped) entropies


@dataclass
class ExitEntry:
    mean: float
    stderr: float
    censored_frac: float
    dominated: bool


@dataclass
class LocalEntropyTable:
    """Stopped entropies over a nested family of domains."""

    domains: list
    t_grid: np.ndarray
    E_D: np.ndarray              # (n_domains, n_times) stopped means
    stderr: np.ndarray
    exit_censored_frac: np.ndarray   # per domain, fraction never exiting
    E_D_exit: list               # per-domain ExitEntry
    E_M: np.ndarray              # largest-domain value per time
    E_M_stabilized: np.ndarray   # plateau flag per time
    monotone_t_z: float          # worst violation z-score along t (>= 0 good)
    monotone_D_z: float          # worst violation z-score along domains

    def to_csv(self, path):
        lines = ["domain_index,t,E_D,stderr,censored_frac"]
        for j in range(len(self.domains)):
            for i, t in enumerate(self.t_grid):
                lines.append(
                    ",".join(
                        [
                            str(j), _fmt(t), _fmt(self.E_D[j, i]),
                            _fmt(self.stderr[j, i]),
                            _fmt(self.exit_censored_frac[j]),
                        ]
                    )
                )
        _write_text(path, "\n".join(lines) + "\n")


def local_entropy(sol, ensemble: PathEnsemble, domains, t_grid) -> LocalEntropyTable:
    """Stopped entropies E_D(t), exit entropies E_D, and the exhaustion value.

    Domains must be nested (checked per path through exit monotonicity).
    The exhaustion value at each t is reported as the largest-domain entry
    together with a plateau flag instead of an extrapolated limit.
    """
    _same_model(sol, ensemble)
    if not domains:
        raise ValueError("local entropies need at least one domain")
    t_grid = np.asarray(t_grid, dtype=float)
    m, n = len(domains), t_grid.size
    means = np.empty((m, n))
    ses = np.empty((m, n))
    cens = np.empty(m)
    exits = []
    ensemble.ensure_exits(domains)
    for j, dom in enumerate(domains):
        rec = ensemble.exit_records(dom)
        cens[j] = rec.censored_fraction
        for i, t in enumerate(t_grid):
            r = expect(ensemble, sol.ulogu, Stopped(t, dom))
            means[j, i], ses[j, i] = r.mean, r.stderr
        try:
            r = expect(ensemble, sol.ulogu, AtExit(dom))
            exits.append(ExitEntry(r.mean, r.stderr, r.censored_frac, False))
        except CensoredDominates:
            exits.append(ExitEntry(math.nan, math.nan, cens[j], True))
    for j in range(m - 1):
        tau_small = ensemble.exit_records(domains[j]).tau
        tau_big = ensemble.exit_records(domains[j + 1]).tau
        if np.any(tau_small > tau_big + 1e-12):
            raise ValueError("domains are not nested: exit times decreased")
    e_m = means[-1].copy()
    if m >= 2:
        gap = np.abs(means[-1] - means[-2])
        tol = 3.0 * np.sqrt(ses[-1] ** 2 + ses[-2] ** 2)
        stab = gap <= tol
    else:
        stab = np.zeros(n, dtype=bool)
    mono_t = _worst_z(np.diff(means, axis=1), _combined(ses[:, 1:], ses[:, :-1]))
    mono_d = _worst_z(np.diff(means, axis=0), _combined(ses[1:, :], ses[:-1, :]))
    return LocalEntropyTable(
        domains=list(domains), t_grid=t_grid, E_D=means, stderr=ses,
        exit_censored_frac=cens, E_D_exit=exits, E_M=e_m, E_M_stabilized=stab,
        monotone_t_z=mono_t, monotone_D_z=mono_d,
    )


def _combined(a, b):
    return np.sqrt(a * a + b * b)


def _worst_z(diffs, ses):
    if diffs.size == 0:
        return math.inf
    z = diffs / np.maximum(ses, 1e-300)
    return float(np.min(z))


# ---------------------------------------------------------------------------
# the along-path identity (a paired per-path estimator)


def stopped_increment_residual(sol, ensemble, domain, t):
    """Mean and stderr of (u log u)(t^tau) - (u log u)(0,x) - int G ds.

    The per-path time integral of the stopped first-variation integrand is
    a trapezoid over the recorded snapshots, with an exact partial cell up
    to the exit time using the stored exit state.  Zero in expectation.
    """
    _same_model(sol, ensemble)
    rec = ensemble.exit_records(domain)
    times = [s for s in ensemble.times if s <= t + 1e-12]
    n = ensemble.n_paths
    integral = np.zeros(n)
    g_prev = np.asarray(sol.grad_term(times[0], ensemble.state_at(times[0])))
    for s_prev, s_next in zip(times[:-1], times[1:]):
        g_next = np.asarray(sol.grad_term(s_next, ensemble.state_at(s_next)))
        alive = rec.tau >= s_next
        integral += np.where(alive, 0.5 * (s_next - s_prev) * (g_prev + g_next), 0.0)
        # partial cell for paths exiting inside (s_prev, s_next)
        part = (rec.tau > s_prev) & (rec.tau < s_next)
        if np.any(part):
            g_exit = np.asarray(
                sol.grad_term(rec.tau[part], rec.state[part])
            )
            integral[part] += 0.5 * (rec.tau[part] - s_prev) * (
                g_prev[part] + g_exit
            )
        g_prev = g_next
    stopped_before = rec.tau <= t
    ts = np.where(stopped_before, rec.tau, t)
    pts = np.where(stopped_before[:, None], rec.state, ensemble.state_at(times[-1]))
    end_vals = np.asarray(sol.ulogu(ts, pts))
    start = float(sol.ulogu(0.0, ensemble.x[None, :])[0])
    resid = end_vals - start - integral
    return mean_stderr(resid)

