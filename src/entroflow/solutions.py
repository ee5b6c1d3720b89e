"""Closed-form nonnegative solutions of the backward heat equation.

Each family carries exact jets: value, chart gradient, log-Hessian,
Laplacian and time derivative are all analytic, so downstream functionals
have independent oracles.  The equation being solved is
``du/dt + Lap_{g(t)} u = 0`` on the owning metric model.

All evaluation methods are vectorized: ``pts`` has shape ``(n, chart_dim)``
and ``t`` may be a scalar or an ``(n,)`` array (needed along stopped paths).

Each family computes its jet in one place, `SolutionField.log_jet`: u, the
components of grad u and the entries of Hess log u, each an ``(n,)``
column, from one evaluation of the shared parts (the sphere's zonal
profile, ``mu`` and tangent frames; the radius of the radial harmonic).
Its ``u`` is `value` bit for bit, so an integrand may read either.  The
parts that depend on the points alone (the sphere's ``mu`` and frame
components) come from `SolutionField.node_terms`, a tuple of per-node
arrays; a quadrature curve whose nodes do not move with t takes them once
and hands each block's slices to that block's `log_jet`.
`grad_norm_sq` and `grad_term` sum those columns.  The entropy
integrands of one block of quadrature nodes read one jet between them
(`entropy.JetIntegrands`), taken with the Hessian
only when one of them needs it; nothing keeps a jet once the call that
asked for it returns, here or there, so a solution object holds no
per-point state.
Working on whole columns also avoids numpy's slow path for arithmetic on
``(n, 2, 2)`` arrays and for sums over an axis of length 2 or 3.  The bits
are those of the stacked forms: every entry is the same sequence of
elementwise operations, and `sum_squares` adds the squares in the order
numpy's sum over a short last axis takes (left to right below eight
terms; see there for nine).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import Legendre, legval
from scipy.special import xlogy

from . import geometry
from .errors import LogOfZero
from .geometry import MetricModel, finite_params

SPHERE_AXIS = np.array([0.0, 0.0, 1.0])


def _mode_number(k):
    if not (float(k).is_integer() and k >= 1):
        raise ValueError(f"mode numbers must be whole numbers >= 1, got {k!r}")
    return int(k)


def _nonempty(modes):
    modes = list(modes)
    if not modes:
        raise ValueError("spectral solutions need at least one mode")
    return modes


class SolutionField:
    """Base class; subclasses provide the analytic jets."""

    model: MetricModel

    def value(self, t, pts):
        raise NotImplementedError

    def du_dt(self, t, pts):
        raise NotImplementedError

    def log_jet(self, t, pts, hess=True) -> "LogJet":
        """u, du and Hess log u at the points, as columns (see `LogJet`).

        With ``hess=False`` the Hessian is left out (``None``): callers that
        need only u and du do not pay for it in time or memory.  u > 0 is
        not checked here, so du is there wherever u is; the Hessian entries
        mean nothing where u <= 0, and the integrands and identities that
        read them raise LogOfZero there.
        """
        raise NotImplementedError

    def node_terms(self, pts):
        """The parts of `log_jet` that depend on the points alone, or None.

        A caller taking jets at several times on the same points forms them
        once and hands them to each `log_jet` call as ``terms``; without
        them `log_jet` forms them itself, to the same bits.  Families with
        nothing worth sharing return None, and their `log_jet` takes no
        ``terms``.
        """
        return None

    def laplacian(self, t, pts):
        raise NotImplementedError

    def grad_norm_sq(self, t, pts, jet=None):
        """|grad u|^2 = |du|^2 / c(t) in the time-t metric; ``jet`` is
        `log_jet` at (t, pts)."""
        if jet is None:
            jet = self.log_jet(t, pts, hess=False)
        total = sum_squares(jet.du)
        # in place: the bits of (1/c) * total, without one more array alive
        total *= 1.0 / self.model.conformal(t)
        return total

    def ulogu(self, t, pts):
        """(u log u)(t, y) with the continuous extension 0*log(0) = 0."""
        u = self.value(t, pts)
        return xlogy(u, u)

    def grad_term(self, t, pts, jet=None):
        """|grad u|^2 / u, the first-variation integrand; ``jet`` as in
        `grad_norm_sq`."""
        if jet is None:
            jet = self.log_jet(t, pts, hess=False)
        return self.grad_norm_sq(t, pts, jet) / require_positive(jet.u)

    # truncation support: fastest exponential growth rate along the chart
    growth_rate = 0.0

    # largest |d/dt log(mode)| across the family; scales FD time steps so
    # truncation error stays below the identity tolerances on stiff members
    time_rate_scale = 0.0

    def space_scale(self, t, y):
        """Characteristic spatial frequency near y; scales FD space steps."""
        return 1.0


def require_positive(u):
    """u itself; LogOfZero where any entry is <= 0."""
    if np.any(u <= 0.0):
        raise LogOfZero("solution vanishes at a queried point")
    return u


def sum_squares(cols):
    """Sum of ``c * c`` over the columns, as numpy sums a short last axis.

    ``np.sum(a * a, axis=-1)`` of an (n, k) array, and the sum of an
    (n, d, d) array over its last two axes with the d * d entries in row
    order, take each row's k terms as one run: fewer than eight are added
    left to right, ``((s0 + s1) + s2) + ...``; eight to fifteen go into
    eight partial sums added as a tree, the rest after it,
    ``(((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))) + s8``.  Adding
    the columns in that order gives the same bits without the (n, k)
    array, whose short-axis sum is numpy's slow path.
    """
    sq = [c * c for c in cols]
    if len(sq) >= 8:
        for i in range(0, 8, 2):
            sq[i] += sq[i + 1]
        sq[0] += sq[2]
        sq[4] += sq[6]
        sq[0] += sq[4]
        sq = [sq[0]] + sq[8:]
    total = sq[0]
    for s in sq[1:]:
        total += s
    return total


@dataclass(frozen=True)
class LogJet:
    """u, du and Hess log u at n points, each component an (n,) column.

    ``du[i]`` is the i-th covector component of grad u in the model's
    gauge and ``hess[i][j]`` the (i, j) entry of Hess log u (``None`` when
    the jet was taken without it).  Symmetric entries may be one array and
    the columns may share memory, so they are read, never written.
    """

    u: np.ndarray
    du: tuple
    hess: tuple


class Constant(SolutionField):
    """u identically equal to a nonnegative constant."""

    def __init__(self, c, model=None):
        (c,) = finite_params("the constant c", (c,))
        if c < 0:
            raise ValueError("constant solutions must be nonnegative")
        self.c = c
        self.model = model if model is not None else geometry.line()

    def value(self, t, pts):
        return np.broadcast_to(self.c, _out_shape(t, pts)).copy()

    def du_dt(self, t, pts):
        return np.zeros(_out_shape(t, pts))

    def log_jet(self, t, pts, hess=True):
        u = self.value(t, pts)
        d = self.model.dim
        zero = np.zeros(u.shape)
        return LogJet(u, (zero,) * d, ((zero,) * d,) * d if hess else None)

    def laplacian(self, t, pts):
        return np.zeros(_out_shape(t, pts))


class ExponentialLine(SolutionField):
    """u(t, y) = a * exp(b*y - b^2*t) on the static line."""

    def __init__(self, a, b, model=None):
        a, b = finite_params("a and b", (a, b))
        if a <= 0:
            raise ValueError("amplitude must be positive")
        self.a = a
        self.b = b
        self.model = model if model is not None else geometry.line()
        if self.model.kind != geometry.EUCLIDEAN_LINE:
            raise ValueError("exponential solutions live on the euclidean line")

    @property
    def growth_rate(self):
        return abs(self.b)

    @property
    def time_rate_scale(self):
        return self.b**2

    def space_scale(self, t, y):
        return max(1.0, abs(self.b))

    def value(self, t, pts):
        y = np.asarray(pts)[:, 0]
        t = np.asarray(t, dtype=float)
        return self.a * np.exp(self.b * y - self.b**2 * t)

    def du_dt(self, t, pts):
        return -self.b**2 * self.value(t, pts)

    def log_jet(self, t, pts, hess=True):
        u = self.value(t, pts)
        return LogJet(u, (self.b * u,), ((np.zeros(u.shape),),) if hess else None)

    def laplacian(self, t, pts):
        return self.b**2 * self.value(t, pts)


class SumOfExponentialsLine(SolutionField):
    """Positive combination sum_i a_i exp(b_i y - b_i^2 t) on the line."""

    def __init__(self, terms, model=None):
        terms = [finite_params("each term's a and b", (a, b)) for a, b in terms]
        if not terms or any(a <= 0 for a, _ in terms):
            raise ValueError("need at least one term, all amplitudes positive")
        self.terms = terms
        self.model = model if model is not None else geometry.line()
        if self.model.kind != geometry.EUCLIDEAN_LINE:
            raise ValueError("exponential solutions live on the euclidean line")

    @property
    def growth_rate(self):
        return max(abs(b) for _, b in self.terms)

    @property
    def time_rate_scale(self):
        return max(b * b for _, b in self.terms)

    def space_scale(self, t, y):
        return max(1.0, max(abs(b) for _, b in self.terms))

    def _parts(self, t, pts):
        y = np.asarray(pts)[:, 0]
        t = np.asarray(t, dtype=float)
        return [a * np.exp(b * y - b * b * t) for a, b in self.terms]

    def value(self, t, pts):
        return sum(self._parts(t, pts))

    def du_dt(self, t, pts):
        parts = self._parts(t, pts)
        return sum(-b * b * p for (_, b), p in zip(self.terms, parts))

    def log_jet(self, t, pts, hess=True):
        parts = self._parts(t, pts)
        u = sum(parts)
        uy = sum(b * p for (_, b), p in zip(self.terms, parts))
        if not hess:
            return LogJet(u, (uy,), None)
        uyy = sum(b * b * p for (_, b), p in zip(self.terms, parts))
        return LogJet(u, (uy,), ((uyy / u - (uy / u) ** 2,),))

    def laplacian(self, t, pts):
        parts = self._parts(t, pts)
        return sum(b * b * p for (_, b), p in zip(self.terms, parts))


class CircleSpectral(SolutionField):
    """Fourier combination on the conformal circle.

    u(t, theta) = a0 + sum_k a_k exp(k^2 s(t)) cos(k theta + phi_k)
    where s is the model's time change; each mode solves the backward
    equation since d/dt exp(k^2 s(t)) = k^2 / c(t) * exp(k^2 s(t)).
    """

    def __init__(self, a0, modes, model):
        if model.kind != geometry.CIRCLE:
            raise ValueError("circle solutions require a circle model")
        (self.a0,) = finite_params("a0", (a0,))
        self.modes = [
            (_mode_number(k), *finite_params("amplitudes and phases", (ak, phik)))
            for k, ak, phik in _nonempty(modes)
        ]
        self.model = model
        self._reject_if_negative()

    def _reject_if_negative(self):
        t0, t1 = self.model.time_window
        thetas = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)[:, None]
        for t in np.linspace(t0, t1, 9):
            if np.min(self.value(t, thetas)) < 0.0:
                raise ValueError(
                    "coefficients produce a negative solution inside the window"
                )

    @property
    def time_rate_scale(self):
        return max(k * k for k, _, _ in self.modes) / self.model.min_conformal

    def space_scale(self, t, y):
        return max(1.0, 2.0 * max(k for k, _, _ in self.modes))

    def _mode_amps(self, t):
        s = self.model.time_change(np.asarray(t, dtype=float))
        return [ak * np.exp(k * k * s) for k, ak, _ in self.modes]

    def value(self, t, pts):
        th = np.asarray(pts)[:, 0]
        amps = self._mode_amps(t)
        out = self.a0 + np.zeros(_out_shape(t, pts))
        for (k, _, phik), amp in zip(self.modes, amps):
            out = out + amp * np.cos(k * th + phik)
        return out

    def du_dt(self, t, pts):
        th = np.asarray(pts)[:, 0]
        c = self.model.conformal(np.asarray(t, dtype=float))
        amps = self._mode_amps(t)
        out = np.zeros(_out_shape(t, pts))
        for (k, _, phik), amp in zip(self.modes, amps):
            out = out + (k * k / c) * amp * np.cos(k * th + phik)
        return out

    def _dtheta(self, t, pts):
        th = np.asarray(pts)[:, 0]
        amps = self._mode_amps(t)
        d1 = np.zeros(_out_shape(t, pts))
        d2 = np.zeros(_out_shape(t, pts))
        for (k, _, phik), amp in zip(self.modes, amps):
            d1 = d1 - k * amp * np.sin(k * th + phik)
            d2 = d2 - k * k * amp * np.cos(k * th + phik)
        return d1, d2

    def log_jet(self, t, pts, hess=True):
        u = self.value(t, pts)
        d1, d2 = self._dtheta(t, pts)
        return LogJet(u, (d1,), ((d2 / u - (d1 / u) ** 2,),) if hess else None)

    def laplacian(self, t, pts):
        _, d2 = self._dtheta(t, pts)
        return d2 / self.model.conformal(np.asarray(t, dtype=float))


class SphereSpectral(SolutionField):
    """Zonal spherical-harmonic combination on the conformal 2-sphere.

    u(t, y) = a0 + sum_l a_l exp(l(l+1) s(t)) P_l(y . SPHERE_AXIS), with
    P_l the Legendre polynomial and the axis the unit z vector; the
    eigenvalue of the round Laplacian is -l(l+1) and the conformal factor
    enters only through the time change s.
    """

    def __init__(self, a0, modes, model):
        if model.kind != geometry.SPHERE_2:
            raise ValueError("sphere solutions require a sphere model")
        (self.a0,) = finite_params("a0", (a0,))
        self.modes = [
            (_mode_number(l), *finite_params("amplitudes", (al,))) for l, al in _nonempty(modes)
        ]
        self.model = model
        # coefficients of P_l, P_l' and P_l'', evaluated with legval
        self._legendre = {
            l: tuple(Legendre.basis(l).deriv(m).coef for m in range(3)) for l, _ in self.modes
        }
        self._reject_if_negative()

    def _reject_if_negative(self):
        t0, t1 = self.model.time_window
        mus = np.linspace(-1.0, 1.0, 1024)
        for t in np.linspace(t0, t1, 9):
            if np.min(self._profile(t, mus, 1)[0]) < 0.0:
                raise ValueError(
                    "coefficients produce a negative solution inside the window"
                )

    @property
    def time_rate_scale(self):
        return max(l * (l + 1) for l, _ in self.modes) / self.model.min_conformal

    def space_scale(self, t, y):
        return max(1.0, 2.0 * max(l for l, _ in self.modes))

    def _profile(self, t, mu, orders=3):
        """(A, dA/dmu, d2A/dmu2) for u = A(t, mu), the first ``orders``."""
        s = self.model.time_change(np.asarray(t, dtype=float))
        out = [self.a0 + np.zeros(np.broadcast_shapes(np.shape(s), np.shape(mu)))]
        out += [np.zeros_like(out[0]) for _ in range(orders - 1)]
        # what a Legendre object hands legval: its identity domain map,
        # 0.0 + 1.0 * mu, turns -0.0 into +0.0
        x = mu + 0.0
        for l, al in self.modes:
            amp = al * np.exp(l * (l + 1) * s)
            for m, coef in enumerate(self._legendre[l][:orders]):
                out[m] = out[m] + amp * legval(x, coef)
        return out

    def _mu(self, v):
        """Components ``v . SPHERE_AXIS`` of points or tangent vectors."""
        return np.asarray(v) @ SPHERE_AXIS

    def value(self, t, pts):
        return self._profile(t, self._mu(pts), 1)[0]

    def du_dt(self, t, pts):
        mu = self._mu(pts)
        t = np.asarray(t, dtype=float)
        s = self.model.time_change(t)
        c = self.model.conformal(t)
        out = np.zeros(np.broadcast_shapes(np.shape(t), np.shape(mu)))
        x = mu + 0.0  # as in _profile
        for l, al in self.modes:
            lam = l * (l + 1)
            out = out + al * lam / c * np.exp(lam * s) * legval(x, self._legendre[l][0])
        return out

    def node_terms(self, pts):
        """``mu = y . SPHERE_AXIS`` and the axis' components ``w1``, ``w2``
        in the tangent frame at each point, read-only."""
        pts = np.asarray(pts, dtype=float)
        mu = self._mu(pts)
        e1, e2 = geometry.tangent_frames(pts)
        w1 = self._mu(e1)
        del e1  # one (n, 3) frame fewer alive beside the terms
        terms = (mu, w1, self._mu(e2))
        for a in terms:
            a.flags.writeable = False
        return terms

    def log_jet(self, t, pts, hess=True, terms=None):
        mu, w1, w2 = self.node_terms(pts) if terms is None else terms
        u, d1, d2 = self._profile(t, mu)
        du = (d1 * w1, d1 * w2)
        if not hess:
            return LogJet(u, du, None)
        # round Hessian of a zonal profile: A'' w w^T - mu A' on the tangent
        # plane; subtract the gradient square for the log-Hessian.  The
        # identity's zero off the diagonal is multiplied out, as the (n, 2, 2)
        # form did, so signed zeros and non-finite values carry over
        coeff = d2 / u - (d1 / u) ** 2
        iso = -mu * d1 / u
        h11 = coeff * (w1 * w1) + iso
        h12 = coeff * (w1 * w2) + iso * 0.0
        h22 = coeff * (w2 * w2) + iso
        return LogJet(u, du, ((h11, h12), (h12, h22)))

    def laplacian(self, t, pts):
        mu = self._mu(pts)
        _, d1, d2 = self._profile(t, mu)
        c = self.model.conformal(np.asarray(t, dtype=float))
        return ((1.0 - mu * mu) * d2 - 2.0 * mu * d1) / c


class RadialHarmonic3(SolutionField):
    """The static solution 1/|y| on punctured 3-space."""

    def __init__(self, model=None):
        self.model = model if model is not None else geometry.punctured3()
        if self.model.kind != geometry.PUNCTURED_3:
            raise ValueError("the radial harmonic lives on punctured 3-space")

    def _r2(self, pts):
        # |y|^2 summed as np.linalg.norm sums it, so sqrt gives its bits
        return sum_squares(np.asarray(pts, dtype=float).T)

    def space_scale(self, t, y):
        r = float(np.linalg.norm(np.asarray(y, dtype=float)))
        return 6.0 / max(r, 1e-3)

    def value(self, t, pts):
        return np.broadcast_to(1.0 / np.sqrt(self._r2(pts)), _out_shape(t, pts)).copy()

    def du_dt(self, t, pts):
        return np.zeros(_out_shape(t, pts))

    def log_jet(self, t, pts, hess=True):
        p = np.asarray(pts, dtype=float).T
        r2 = self._r2(pts)
        r = np.sqrt(r2)
        r3 = r**3
        du = tuple(-c / r3 for c in p)
        if not hess:
            return LogJet(1.0 / r, du, None)
        # Hess log u = -I / r^2 + 2 y y^T / r^4; adding the -0 / r^2 off the
        # diagonal changes no value, so it is left out
        diag = -1.0 / r2
        r4 = r2 * r2
        h = [[None] * 3 for _ in range(3)]
        for i in range(3):
            h[i][i] = diag + 2.0 * (p[i] * p[i]) / r4
            for j in range(i + 1, 3):
                h[i][j] = h[j][i] = 2.0 * (p[i] * p[j]) / r4
        return LogJet(1.0 / r, du, tuple(map(tuple, h)))

    def laplacian(self, t, pts):
        return np.zeros(_out_shape(t, pts))


def _out_shape(t, pts):
    return np.broadcast_shapes(np.shape(np.asarray(t)), (np.asarray(pts).shape[0],))


# ---------------------------------------------------------------------------
# residuals and pointwise identities


def _fd_time(f, t, window, h):
    """Second-order time derivative stencil staying inside the window."""
    t0, t1 = window
    if t - h >= t0 and t + h <= t1:
        return (f(t + h) - f(t - h)) / (2.0 * h)
    if t + 2 * h <= t1:
        return (-3.0 * f(t) + 4.0 * f(t + h) - f(t + 2 * h)) / (2.0 * h)
    return (3.0 * f(t) - 4.0 * f(t - h) + f(t - 2 * h)) / (2.0 * h)


def time_step(t):
    """Central-difference step for time derivatives, h = 1e-5 * max(1, t)."""
    return 1e-5 * max(1.0, abs(t))


# the Bochner check's space step at unit frequency: the optimum of the
# fourth-order stencil, (720 eps)^(1/6)
_BOCHNER_SPACE_STEP = 7.4e-3


def backward_residual(sol: SolutionField, t, y) -> float:
    """|du/dt + Lap u| from the analytic jets (zero for exact solutions);
    u may vanish."""
    sol.model.check_time(t)
    pts = sol.model.check_point(y)[None, :]
    return abs(float(sol.du_dt(t, pts)[0]) + float(sol.laplacian(t, pts)[0]))


def bochner_identities(sol: SolutionField, t, y):
    """Residuals of the two pointwise evolution identities behind E' and E''.

    residual1 checks (d/dt + Lap)(u log u) = |grad u|^2 / u,
    residual2 checks (d/dt + Lap)(|grad u|^2/u)
        = u (2 |hess log u|^2 + (2 Ric - dg/dt)(grad log u, grad log u)).

    Space derivatives are analytic (first identity) or finite-difference
    Laplacians of analytically evaluated fields (second identity); time
    derivatives are always finite differences, so both checks exercise the
    time-dependence of the metric rather than cancelling symbolically.
    The metric is the solution's model.  The Laplacian's space step is
    `_BOCHNER_SPACE_STEP` (7.4e-3) over the solution's `space_scale`.
    """
    model = sol.model
    model.check_time(t)
    y = model.check_point(y)
    pts = y[None, :]
    jet = sol.log_jet(t, pts)
    u = float(require_positive(jet.u)[0])
    ht = time_step(t) / max(1.0, sol.time_rate_scale)

    def ulogu_at(tt):
        return float(sol.ulogu(tt, pts)[0])

    lap_u = float(sol.laplacian(t, pts)[0])
    gterm = float(sol.grad_term(t, pts, jet)[0])
    lhs1 = _fd_time(ulogu_at, t, model.time_window, ht)
    lhs1 += (np.log(u) + 1.0) * lap_u + gterm
    residual1 = abs(lhs1 - gterm)

    def gterm_at_point(p):
        return float(sol.grad_term(t, p[None, :])[0])

    def gterm_at_time(tt):
        return float(sol.grad_term(tt, pts)[0])

    h_space = _BOCHNER_SPACE_STEP / sol.space_scale(t, y)
    scale = float(1.0 / model.conformal(t))
    hess_sq = scale * scale * float(sum_squares([h for row in jet.hess for h in row])[0])
    curv = 2.0 * model.ricci_constant - model.rate
    quad = curv * scale * scale * float(sum_squares([c / u for c in jet.du])[0])
    rhs2 = u * (2.0 * hess_sq + quad)
    lhs2 = _fd_time(gterm_at_time, t, model.time_window, ht)
    lhs2 += geometry.fd_laplacian(model, t, y, gterm_at_point, h=h_space)
    residual2 = abs(lhs2 - rhs2)
    return residual1, residual2


# ---------------------------------------------------------------------------
# catalog addressing


# each family's id head, and the form of its id as `entroflow list-solutions`
# prints it; `parse_solution` names the form when a spec does not follow it
_FAMILIES = {
    "const": (Constant, "const:c"),
    "expline": (ExponentialLine, "expline:a,b"),
    "expsum": (SumOfExponentialsLine, "expsum:a1,b1;a2,b2;..."),
    "circle-spec": (CircleSpectral, "circle-spec:a0,(k,ak,phik)..."),
    "radial3": (RadialHarmonic3, "radial3"),
    "sphere-spec": (SphereSpectral, "sphere-spec:a0,(l,al)..."),
}
CATALOG_IDS = tuple(form for _, form in _FAMILIES.values())


def parse_solution(spec: str, model: MetricModel) -> SolutionField:
    """Resolve a solution id like ``"expline:1,1"`` against a model."""
    head, sep, args = spec.partition(":")
    head = head.strip()
    if head not in _FAMILIES:
        raise ValueError(f"unknown solution id {spec!r}")
    family, form = _FAMILIES[head]
    try:
        params = _read_params(head, args if sep else None)
    except ValueError:
        raise ValueError(f"solution {spec!r} does not read {form}") from None
    return family(*params, model)


def _read_params(head, args):
    """The constructor arguments spelled by the text after an id's colon
    (None when there is no colon)."""
    if head == "radial3":
        if args is not None:
            raise ValueError("radial3 takes no parameters")
        return ()
    if args is None:
        raise ValueError("missing parameters")
    if head in ("const", "expline"):
        vals = _floats(args)
        if len(vals) != (1 if head == "const" else 2):
            raise ValueError("wrong number of parameters")
        return vals
    if head == "expsum":
        terms = [_floats(chunk) for chunk in args.split(";")]
        if any(len(term) != 2 for term in terms):
            raise ValueError("each term takes a and b")
        return (terms,)
    a0_s, groups = _split_mode_groups(args)
    modes = [_floats(g) for g in groups]
    width = 3 if head == "circle-spec" else 2
    if head == "circle-spec":  # the phase defaults to 0
        modes = [m + [0.0] if len(m) == 2 else m for m in modes]
    if any(len(m) != width for m in modes):
        raise ValueError("wrong number of mode parameters")
    return float(a0_s), modes


# the mode groups after a0: (...) groups, optionally comma-separated
_MODE_GROUP = r"\(([^()]*)\)"
_MODE_GROUPS = re.compile(rf"\s*({_MODE_GROUP}(\s*,?\s*{_MODE_GROUP})*)?\s*")


def _floats(text):
    return [float(v) for v in text.split(",")]


def _split_mode_groups(args: str):
    """a0 and the text of each parenthesized mode group after it; the groups
    may be separated by commas and spaces, and nothing else."""
    head, _, rest = args.partition(",")
    if not _MODE_GROUPS.fullmatch(rest):
        raise ValueError(f"{args!r} does not list (...) mode groups")
    return head, re.findall(_MODE_GROUP, rest)
