"""Estimates and rigidity classifications built on the entropy functional.

Contents: the gradient-entropy bound and its two corollaries, growth
classification of a sampled entropy curve (constant / sublinear / linear /
superlinear, with the long-time slope estimate), the separation-of-
variables test for exactly linear entropy, the strict-positivity rigidity
check, and the refinement tables demonstrating a bounded entropy whose
first variation diverges on the punctured space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from . import geometry, quadrature
from .entropy import (
    JetIntegrands,
    _kernel_or_ensemble,
    _target,
    first_variation_integrand,
    shared_growth,
    ulogu_integrand,
)
from .errors import InsufficientCurve, LogOfZero

GROWTH_CONSTANT = "constant-solution"
GROWTH_SUBLINEAR = "sublinear"
GROWTH_LINEAR = "linear"
GROWTH_SUPERLINEAR = "superlinear"

# relative residual of a linear fit to E (and relative E' spread) below
# which an entropy curve counts as linear, in the growth and rigidity checks
_LINEAR_RTOL = 1e-3
# the rigidity antecedent needs min (2 Ric - dg/dt) at least this
_MARGIN_EPS = 1e-9
# max |grad log u| below which the rigidity check calls u spatially constant
_GRAD_TOL = 1e-6
# max |mixed second difference of log u| of a separable solution
_SEPARATION_TOL = 1e-8
# times in the grid sup of u over [0, t] on the circle and the sphere
_SUP_TIMES = 33


# ---------------------------------------------------------------------------
# gradient-entropy bound


@dataclass(frozen=True)
class GradientBound:
    lhs: float          # t * |grad u / u|^2 (0, x)
    rhs: float          # normalized entropy expectation at t
    stderr: float       # 0 for quadrature
    holds: bool


def gradient_entropy_check(sol, target, t, level=None) -> GradientBound:
    """Check t |grad u/u|^2(0,x) <= E[(u/u0) log(u/u0)(t, X_t)].

    ``target`` is a heat kernel (quadrature) or a path ensemble (Monte
    Carlo) on the solution's model; x is where it starts, the kernel's base
    point or the ensemble's start point.  ``level`` applies to a kernel
    only.  Equality is attained by the exponential eternal solutions.
    """
    monte_carlo = _target(sol, target)
    x = target.x if monte_carlo else target.base_point
    u0 = float(sol.value(0.0, x[None, :])[0])
    if u0 <= 0:
        raise LogOfZero("the bound needs u(0, x) > 0")
    lhs = t * float(sol.grad_term(0.0, x[None, :])[0]) / u0

    def normalized(tt, pts):
        u = sol.value(tt, pts) / u0
        return xlogy(u, u)

    r = _kernel_or_ensemble(sol, target, t, level, normalized, "normalized entropy")
    rhs, se = (r.mean, r.stderr) if monte_carlo else (r, 0.0)
    holds = lhs <= rhs + 3.0 * se + 1e-8 * (1.0 + abs(rhs))
    return GradientBound(lhs=lhs, rhs=rhs, stderr=se, holds=holds)


@dataclass(frozen=True)
class CorollaryBounds:
    gradient: GradientBound     # the gradient-entropy check both forms read
    delta_lhs: float
    delta_rhs: float
    delta_bound_holds: bool
    sup_value: float            # sup of u over [0, t] x M (or the box)
    sup_unbounded: bool         # grid sup kept growing under enlargement
    sup_lhs: float
    sup_rhs: float
    sup_bound_holds: bool | None    # None = NotApplicable (unbounded sup)


def corollary_bounds(sol, kernel, t, delta, level=None) -> CorollaryBounds:
    """The delta-form and sup-form corollaries of the gradient bound, at
    the kernel's base point x.

    Both bound |grad log u|(0, x), ``delta_lhs`` = ``sup_lhs``: the delta
    form by delta/(2t) + N/(2 delta), Young's bound on sqrt(N/t) with N the
    normalized entropy; the sup form by sqrt(log(sup u / u0) / t), unless
    the sup is unbounded (it grows with the box, or overflows).  The
    `GradientBound` both read is the report's ``gradient``.
    """
    if not (delta > 0 and math.isfinite(delta)):
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    # gradient_entropy_check takes either kind; the base point is a kernel's
    _target(sol, kernel, "kernel")
    base = gradient_entropy_check(sol, kernel, t, level=level)
    x = kernel.base_point
    u0 = float(sol.value(0.0, x[None, :])[0])
    grad = math.sqrt(base.lhs / t)  # |grad u / u| (0, x)
    delta_rhs = delta / (2.0 * t) + base.rhs / (2.0 * delta)
    delta_holds = grad <= delta_rhs + 1e-8 * (1.0 + abs(delta_rhs))

    sup_value, unbounded = _sup_over_window(sol, x, t)
    sup_rhs, sup_holds = math.inf, None
    if not unbounded:
        sup_rhs = math.sqrt(math.log(max(sup_value / u0, 1.0)) / t)
        sup_holds = grad <= sup_rhs + 1e-8 * (1.0 + sup_rhs)
    return CorollaryBounds(
        gradient=base, delta_lhs=grad, delta_rhs=delta_rhs, delta_bound_holds=delta_holds,
        sup_value=sup_value, sup_unbounded=unbounded,
        sup_lhs=grad, sup_rhs=sup_rhs, sup_bound_holds=sup_holds,
    )


def _sup_over_window(sol, x, t):
    """Grid sup of u over [0, t] x M, at `_SUP_TIMES` (33) times on the
    compact kinds; detects growth under box enlargement."""
    model = sol.model
    ts = np.linspace(0.0, t, _SUP_TIMES)
    if model.kind == geometry.CIRCLE:
        pts = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)[:, None]
        return max(float(np.max(sol.value(s, pts))) for s in ts), False
    if model.kind == geometry.SPHERE_2:
        pts, _ = quadrature.build_grid(model, x, max(t, 1e-6), level=1)
        return max(float(np.max(sol.value(s, pts))) for s in ts), False
    # noncompact: sample boxes of doubling radius and watch the sup
    sups = []
    for k in range(4):
        r = quadrature.truncation_radius(max(t, 0.25), shared_growth(sol)) * 2**k
        offsets = np.linspace(-r, r, 4097)
        if model.kind == geometry.EUCLIDEAN_LINE:
            pts = x[0] + offsets[:, None]
        else:
            # radial probe covers the catalog's radial solutions
            direction = np.zeros(model.dim_chart)
            direction[0] = 1.0
            radii = np.linspace(1e-3, r, 4097)
            pts = x[None, :] + radii[:, None] * direction[None, :]
        # u overflowing a box is itself the sign of an unbounded solution
        with np.errstate(over="ignore"):
            sups.append(max(float(np.max(sol.value(s, pts))) for s in (0.0, t)))
        if not math.isfinite(sups[-1]):
            return math.inf, True
    growths = np.diff(sups) / np.maximum(np.abs(sups[:-1]), 1e-300)
    unbounded = bool(np.any(growths > 0.01))
    return sups[-1], unbounded


# ---------------------------------------------------------------------------
# growth classification


@dataclass
class GrowthReport:
    theta: float                    # estimated long-time first variation
    theta_infinite: bool
    growth_class: str
    slope: float | None             # set for the linear class
    fit_residual: float             # relative residual of a linear fit to E
    tol_theta: float
    inconsistent: bool              # sublinear-but-nonconstant under the gap check


def require_classifiable(t_grid) -> np.ndarray:
    """The times as floats; InsufficientCurve unless there are at least 8
    spanning at least a decade, as `classify_growth` needs."""
    t = np.asarray(t_grid, dtype=float)
    if t.size < 8 or t[-1] / max(t[0], 1e-300) < 10.0:
        raise InsufficientCurve("need >= 8 points spanning at least a decade")
    return t


def classify_growth(sol, kernel, curve) -> GrowthReport:
    """Classify the solution's entropy curve, sampled against ``kernel``, by
    its long-time first variation.

    The constant class also needs max |grad u|^2/u at most 1e-6, probed on
    the kernel's level-1 grids at the curve's first and last time.  Unless
    the model violates dg/dt <= 2 Ric (``model.flow_condition``), a
    sublinear-but-nonconstant outcome is flagged as a numerical
    inconsistency rather than reported as a finding.  The linear class
    takes `_LINEAR_RTOL` (1e-3) as its relative tolerance, and the report's
    ``tol_theta``, the absolute tolerance on E', is
    ``1e-4 * (1 + |E(t_end)| / t_end)``.
    """
    _target(sol, kernel, "kernel")
    t = require_classifiable(curve.t_grid)
    ep = np.asarray(curve.E_prime, dtype=float)
    es = np.asarray(curve.E_second, dtype=float)
    e = np.asarray(curve.E, dtype=float)
    tol_theta = 1e-4 * (1.0 + abs(e[-1]) / t[-1])

    i_third = (2 * t.size) // 3
    theta = float(np.mean(ep[i_third:]))
    # theta -> infinity when E' doubles across the last decade
    i_decade = int(np.searchsorted(t, t[-1] / 10.0))
    theta_inf = bool(ep[-1] >= 2.0 * max(ep[i_decade], tol_theta) and ep[-1] > tol_theta)

    fit_residual = _linear_fit_residual(t, e)

    flat = float(np.max(ep[i_third:]) - np.min(ep[i_third:]))
    increasing = ep[-1] - ep[i_third] > max(0.05 * theta, 10.0 * tol_theta)
    second_small = float(np.max(np.abs(es))) <= max(
        _LINEAR_RTOL * (1.0 + theta) / max(1.0, t[-1]), 10.0 * tol_theta
    )

    inconsistent = False
    if theta_inf or increasing:
        cls, slope = GROWTH_SUPERLINEAR, None
    elif theta <= tol_theta and _max_grad_term(sol, kernel, (t[0], t[-1])) <= 1e-6:
        cls, slope = GROWTH_CONSTANT, 0.0
    elif second_small and flat <= max(_LINEAR_RTOL * abs(theta), 10.0 * tol_theta) \
            and fit_residual <= _LINEAR_RTOL:
        cls, slope = GROWTH_LINEAR, theta
    else:
        cls, slope = GROWTH_SUBLINEAR, None
        inconsistent = sol.model.flow_condition != "violated"
    return GrowthReport(
        theta=theta, theta_infinite=theta_inf, growth_class=cls, slope=slope,
        fit_residual=fit_residual, tol_theta=tol_theta,
        inconsistent=inconsistent,
    )


def _max_grad_term(sol, kernel, times):
    """Max of |grad u|^2/u over the kernel's level-1 grid at each time."""
    model, x, growth = kernel.model, kernel.base_point, shared_growth(sol)
    grids = (quadrature.build_grid(model, x, t, level=1, growth=growth)[0] for t in times)
    return max(float(np.max(sol.grad_term(t, pts))) for t, pts in zip(times, grids))


def _linear_fit_residual(t, e):
    """RMS residual of the least-squares line through (t, e), relative to
    1 + max |e|."""
    resid = e - np.polyval(np.polyfit(t, e, 1), t)
    return float(np.sqrt(np.mean(resid**2)) / (1.0 + np.max(np.abs(e))))


# ---------------------------------------------------------------------------
# separation of variables


@dataclass
class SeparationReport:
    mixed_residual: float
    separable: bool
    psi: np.ndarray | None      # spatial factor samples over y_grid
    phi: np.ndarray | None      # temporal factor samples over t_grid
    ode_residual: float         # |phi'/phi + (Lap psi)/psi|, max over the grid


def separation_test(sol, t_grid, y_grid) -> SeparationReport:
    """Mixed second differences of log u decide whether u = psi(y) phi(t).

    The residual is the unnormalized discrete mixed difference, exactly
    zero (to rounding) for product solutions, and separable means at most
    `_SEPARATION_TOL` (1e-8); the factor gauge is fixed by
    psi(y0) = phi(t0) = sqrt(u(t0, y0)) at the grid anchor.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    pts = _as_points(sol.model, y_grid)
    # with one time or one point there is no mixed difference to test
    if t_grid.size < 2:
        raise ValueError("the separation test needs at least two times in t_grid")
    if len(pts) < 2:
        raise ValueError("the separation test needs at least two points in y_grid")
    vals = np.stack([np.asarray(sol.value(t, pts)) for t in t_grid])
    if np.any(vals <= 0.0):
        raise LogOfZero("separation test needs u > 0 on the grid")
    logu = np.log(vals)
    mixed = logu[1:, 1:] - logu[1:, :-1] - logu[:-1, 1:] + logu[:-1, :-1]
    mixed_residual = float(np.max(np.abs(mixed)))
    separable = mixed_residual <= _SEPARATION_TOL

    j0 = pts.shape[0] // 2
    anchor = math.sqrt(vals[0, j0])
    psi = vals[0, :] / anchor
    phi = vals[:, j0] / anchor

    dlog_dt = np.stack(
        [np.asarray(sol.du_dt(t, pts[j0 : j0 + 1]))[0] / vals[i, j0]
         for i, t in enumerate(t_grid)]
    )
    lap_ratio = np.asarray(sol.laplacian(t_grid[0], pts)) / vals[0, :]
    ode_residual = float(np.max(np.abs(dlog_dt[:, None] + lap_ratio[None, :])))
    return SeparationReport(
        mixed_residual=mixed_residual, separable=separable,
        psi=psi, phi=phi, ode_residual=ode_residual,
    )


def _as_points(model, y_grid):
    pts = np.asarray(y_grid, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] != model.dim_chart:
        raise ValueError("y_grid has the wrong chart dimension")
    return pts


# ---------------------------------------------------------------------------
# strict-positivity rigidity


@dataclass
class RigidityReport:
    min_margin: float           # min eigenvalue of (2 Ric - dg/dt), g-frame
    antecedent: bool            # margin strictly positive over the grid
    entropy_fit_residual: float
    entropy_linear: bool
    max_grad_log: float
    consistent: bool            # implication holds on this instance


def rigidity_check(sol, kernel, t_grid, y_grid, level=2) -> RigidityReport:
    """Instance check: strict 2 Ric - dg/dt > 0 plus linear entropy forces
    a spatially constant solution (max |grad log u| below tolerance).

    The entropy is the quadrature against ``kernel`` at the fixed
    refinement ``level``.  Strict means a margin of at least `_MARGIN_EPS`
    (1e-9), linear a fit residual of at most `_LINEAR_RTOL` (1e-3), and
    constant a max |grad log u| of at most `_GRAD_TOL` (1e-6).  The fit
    needs at least three distinct times (InsufficientCurve otherwise).
    """
    model = sol.model
    _target(sol, kernel, "kernel")
    t_grid = np.asarray(t_grid, dtype=float)
    pts = _as_points(model, y_grid)
    if not len(pts):
        raise ValueError("the rigidity check needs at least one point")
    for y in pts:
        model.check_point(y)
    # two times always fit a line, which would read as linear entropy
    if np.unique(t_grid).size < 3:
        raise InsufficientCurve("the rigidity check needs at least three distinct times")
    # (2K - rate) / c(t): one margin per time, the same at every point
    margin = min(-model.super_ricci_gap(t) for t in t_grid)
    antecedent = margin >= _MARGIN_EPS
    rows = quadrature.curve_expectations(
        (ulogu_integrand(sol),), kernel, t_grid, level, shared_growth(sol)
    )
    e_vals = np.array([e for (e,) in rows])
    fit_residual = _linear_fit_residual(t_grid, e_vals)
    entropy_linear = fit_residual <= _LINEAR_RTOL

    max_grad_log = 0.0
    for t in t_grid:
        jet = sol.log_jet(t, pts, hess=False)
        if np.any(jet.u <= 0):
            raise LogOfZero("rigidity check needs u > 0 on the grid")
        gns = sol.grad_norm_sq(t, pts, jet)
        max_grad_log = max(max_grad_log, float(np.max(np.sqrt(gns) / jet.u)))
    consistent = (not (antecedent and entropy_linear)) or max_grad_log <= _GRAD_TOL
    return RigidityReport(
        min_margin=float(margin), antecedent=antecedent,
        entropy_fit_residual=fit_residual, entropy_linear=entropy_linear,
        max_grad_log=max_grad_log, consistent=consistent,
    )


# ---------------------------------------------------------------------------
# bounded entropy with divergent first variation on the punctured space


@dataclass
class DivergenceReport:
    t: float
    cutoffs: list
    entropy_values: list
    entropy_spread: float
    entropy_stable: bool
    prime_values: list
    prime_growths: list
    prime_divergent: bool
    tail_shift: float           # entropy change when the outer radius doubles
    stable_under_mesh_doubling: bool


def divergence_demo(sol, kernel, t, levels=range(4)) -> DivergenceReport:
    """Refinement tables of the entropy and first-variation integrals of
    ``sol`` against ``kernel`` at t, with the inner cutoff shrinking toward
    the puncture level by level.

    The kernel must be on punctured 3-space, where the grids refine (the
    catalog's solutions there have no growth to truncate for).  For 1/|y|
    the entropy integral stabilizes while the first-variation
    integral grows logarithmically and is flagged divergent; doubling the
    outer radius or the mesh density must not change either
    classification.
    """
    _target(sol, kernel, "kernel")
    if kernel.model.kind != geometry.PUNCTURED_3:
        raise ValueError(f"the tables need a kernel on punctured-3, not on {kernel.model.kind}")
    levels = list(levels)
    if not levels:
        raise ValueError("the divergence demo needs at least one level")
    fs = JetIntegrands((ulogu_integrand(sol), first_variation_integrand(sol)))

    def tables(mesh_scale):
        # E and E' of one level share its grid and one jet per block of
        # nodes, dropped before the next
        rows = [
            quadrature.curve_expectations(
                fs, kernel, (t,), lv, mesh_scale=mesh_scale
            )[0]
            for lv in levels
        ]
        return [e for e, _ in rows], [p for _, p in rows]

    def classify(e_vals, p_vals):
        spread = max(e_vals) - min(e_vals)
        growths = [
            (b - a) / max(abs(a), 1e-300) for a, b in zip(p_vals[:-1], p_vals[1:])
        ]
        divergent = len(growths) >= 3 and all(g > 0.10 for g in growths)
        return spread, growths, divergent

    e_vals, p_vals = tables(1)
    spread, growths, divergent = classify(e_vals, p_vals)
    e2, p2 = tables(2)
    spread2, _, divergent2 = classify(e2, p2)
    stable_mesh = (spread2 <= 1e-4) == (spread <= 1e-4) and divergent2 == divergent

    ((tail,),) = quadrature.curve_expectations(
        (ulogu_integrand(sol),), kernel, (t,), levels[0], outer_scale=2.0
    )
    return DivergenceReport(
        t=t,
        cutoffs=[quadrature.inner_cutoff(lv) for lv in levels],
        entropy_values=e_vals,
        entropy_spread=spread,
        entropy_stable=spread <= 1e-4,
        prime_values=p_vals,
        prime_growths=growths,
        prime_divergent=divergent,
        tail_shift=abs(tail - e_vals[0]),
        stable_under_mesh_doubling=stable_mesh,
    )
