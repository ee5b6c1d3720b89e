"""Brownian motion with time-dependent generator ``Lap_{g(t)}``.

The coordinate Euler-Maruyama step is ``dX = -g^{ij} Gamma^k_{ij} dt
+ sqrt(2) sigma dW`` with ``sigma sigma^T = g^{-1}``; across the catalog
charts the contracted Christoffel drift vanishes identically (verified by
a property test against the metric data), so a step is a scaled Gaussian
increment.  On the sphere the scheme takes a tangential increment of
covariance ``2 dt / c(t)`` and renormalizes.

Paths are pure functions of ``(seed, path index)`` via the counter-based
generator, so `simulate` records states only at the requested snapshot
times and finds the first exits from its domains (intervals, `DomainSpec`)
by replaying the paths once, at build.  `PathEnsemble.mean` is the one
Monte Carlo mean over a snapshot; the means stopped at an exit are read in
`entropy`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import geometry, rng
from .geometry import MetricModel, PUNCTURE_RADIUS, finite_params

DEFAULT_SEED = 0xC0FFEE


@dataclass(frozen=True)
class SdeConfig:
    """Step size, ensemble size and seed.

    The scheme follows from the model: projected steps on the sphere,
    Euler-Maruyama elsewhere.
    """

    dt: float
    n_paths: int
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        dt = self.dt
        if isinstance(dt, bool) or not (
            isinstance(dt, numbers.Real) and math.isfinite(dt) and dt > 0
        ):
            raise ValueError(f"dt must be positive and finite, got {dt!r}")
        for name in ("n_paths", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be a whole number, got {value!r}")
            object.__setattr__(self, name, int(value))  # numpy ints are not JSON
        if self.n_paths < 1:
            raise ValueError("need at least one path")
        if self.n_paths > rng.MAX_PATHS:
            raise ValueError(
                f"n_paths must not exceed rng.MAX_PATHS = 2**36, got {self.n_paths}"
            )
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")

    def validate_against(self, model: MetricModel):
        t0, t1 = model.time_window
        if self.dt > (t1 - t0) / 10.0:
            raise ValueError("dt must not exceed a tenth of the time window")
        if model.kind in (geometry.CIRCLE, geometry.SPHERE_2):
            if self.dt > 0.1 * model.min_conformal:
                raise ValueError(
                    "dt is too coarse for the conformal scale "
                    f"(dt={self.dt} vs min c = {model.min_conformal})"
                )


@dataclass(frozen=True)
class DomainSpec:
    """A relatively compact domain in the chart.

    The one kind is ``interval``: a < y < b on the line, and the arc
    a < theta < b with 0 <= a < b <= 2 pi on the circle.  Stopped values on
    intervals are the ones a second method can check (a killed eigen-series
    or a bridge exit estimator).
    """

    kind: str
    params: tuple

    @staticmethod
    def interval(a, b):
        a, b = finite_params("interval ends", (a, b))
        if not a < b:
            raise ValueError("interval needs a < b")
        return DomainSpec("interval", (a, b))

    def validate_against(self, model: MetricModel):
        if self.kind != "interval":
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if model.kind not in (geometry.EUCLIDEAN_LINE, geometry.CIRCLE):
            raise ValueError("intervals apply to the line and the circle")
        # contains() reduces angles into [0, 2 pi) before comparing
        a, b = self.params
        if model.kind == geometry.CIRCLE and not 0.0 <= a < b <= 2.0 * np.pi:
            raise ValueError("circle intervals need 0 <= a < b <= 2 pi")

    def contains(self, model: MetricModel, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        a, b = self.params
        if model.kind == geometry.CIRCLE:
            th = np.mod(pts[:, 0], 2.0 * np.pi)
            return (th > a) & (th < b)
        return (pts[:, 0] > a) & (pts[:, 0] < b)


def parse_domain(spec: str) -> DomainSpec:
    """Grammar: ``interval:a,b``."""
    head, _, args = spec.partition(":")
    if head.strip() != "interval":
        raise ValueError(f"unknown domain id {spec!r}")
    try:
        vals = [float(v) for v in args.split(",")]
    except ValueError:
        vals = []
    if len(vals) != 2:
        raise ValueError(f"domain {spec!r} does not read interval:a,b")
    return DomainSpec.interval(*vals)


@dataclass(frozen=True)
class ExitRecord:
    """Per-path first-exit data for one domain."""

    tau: np.ndarray        # exit time; +inf while censored
    state: np.ndarray      # state at exit (or start point when tau = 0)

    @property
    def censored(self):
        """Paths that never exited within the horizon."""
        return ~np.isfinite(self.tau)

    @property
    def censored_fraction(self):
        return float(np.mean(self.censored))


@dataclass(frozen=True)
class ExpectResult:
    mean: float
    stderr: float


@dataclass(frozen=True)
class PathEnsemble:
    """Snapshots of a simulated ensemble and the first exits, replayed once
    at build, from the domains `simulate` was given, in order; frozen."""

    model: MetricModel
    x: np.ndarray
    cfg: SdeConfig
    horizon: float
    times: np.ndarray            # recorded snapshot times (includes 0 and T)
    states: np.ndarray           # (n_paths, len(times), chart_dim)
    blowup: np.ndarray           # paths that left the chart and were frozen
    exits: MappingProxyType      # domain -> ExitRecord, read-only

    @property
    def n_paths(self):
        return self.cfg.n_paths

    @property
    def blowup_fraction(self):
        return float(np.mean(self.blowup))

    def snapshot_index(self, t):
        hits = np.nonzero(np.isclose(self.times, t, rtol=0.0, atol=geometry.TIME_TOL))[0]
        if hits.size == 0:
            raise ValueError(
                f"t={t} is not a recorded snapshot; available: {self.times.tolist()}"
            )
        return int(hits[0])

    def state_at(self, t):
        return self.states[:, self.snapshot_index(t), :]

    def mean(self, f, t) -> ExpectResult:
        """Monte Carlo mean and standard error of ``f(t, points)`` over the
        paths at a recorded snapshot time; ``f`` is vectorized over paths.
        A constant observable yields exactly that constant with stderr 0.0,
        for any path count (see ``mean_stderr``).
        """
        return ExpectResult(*mean_stderr(f(t, self.state_at(t))))


def _frozen_mask(model: MetricModel, states):
    """Paths that left the chart; they stay frozen from then on."""
    if model.kind == geometry.PUNCTURED_3:
        return np.linalg.norm(states, axis=-1) <= PUNCTURE_RADIUS
    return None


def _draw_increment(seed, idx, k, dim):
    cols = [rng.normals(seed, idx, k, stream=d) for d in range(dim)]
    return np.stack(cols, axis=-1) if dim > 1 else cols[0][:, None]


def _advance(model, states, t, dt, xi, blown):
    """One step in place (projected on the sphere, Euler elsewhere);
    returns the updated blown mask.  Both steps overwrite xi."""
    if model.kind == geometry.SPHERE_2:
        # the projected step y + h (xi - <xi, y> y), renormalized, in place
        # on column views: a sum or norm over a length-3 axis is numpy's
        # slow path.  numpy sums that axis left to right, (q0 + q1) + q2,
        # and so do the dot product and the squared norm here, which keeps
        # every bit of the row-wise form
        (y0, y1, y2), (x0, x1, x2) = states.T, xi.T
        h = math.sqrt(2.0 * dt / float(model.conformal(t)))
        dot = (x0 * y0 + x1 * y1) + x2 * y2
        for xc, yc in ((x0, y0), (x1, y1), (x2, y2)):
            xc -= dot * yc
            xc *= h
            yc += xc
        norm = np.sqrt((y0 * y0 + y1 * y1) + y2 * y2)
        for yc in (y0, y1, y2):
            yc /= norm
        return blown
    # sigma with sigma^2 = g^{-1} = 1/c(t); exactly 1.0 on the flat kinds
    sig = 1.0 / math.sqrt(float(model.conformal(t)))
    xi *= math.sqrt(2.0 * dt)
    if sig != 1.0:
        xi *= sig
    if blown is None:
        states += xi
    else:
        # frozen rows are put back, not stepped by zero, which would turn a
        # -0.0 into +0.0
        frozen = np.flatnonzero(blown)
        held = states[frozen]
        states += xi
        states[frozen] = held
    fresh = _frozen_mask(model, states)
    if fresh is not None:
        return np.logical_or(blown, fresh) if blown is not None else fresh
    return blown


def _march(model, x, cfg, n_steps, record, domains):
    """Step the ensemble from x, keeping snapshots and first grid exits.

    ``record`` holds the sorted step indices whose states are kept and
    ``domains`` the domains whose first exits are wanted.  Stepping stops
    once no snapshot is pending and no path is inside any domain, so an
    exit replay ends at the last exit.  Returns the snapshots
    ``(n_paths, len(record), dim)``, the blow-up mask and one ExitRecord
    per domain.
    """
    n, dim = cfg.n_paths, model.dim_chart
    idx = np.arange(n, dtype=np.uint64)
    idx.flags.writeable = False  # the lookahead serves calls on this array
    states = np.tile(x, (n, 1))
    blown = np.zeros(n, dtype=bool) if _frozen_mask(model, states) is not None else None
    snaps = np.empty((n, len(record), dim))
    taus = [np.full(n, np.inf) for _ in domains]
    exit_states = [np.tile(x, (n, 1)) for _ in domains]
    open_mask = [np.ones(n, dtype=bool) for _ in domains]
    n_open = [n for _ in domains]
    cursor = 0
    keys = ((k, d) for k in range(n_steps) for d in range(dim))
    with rng._lookahead(cfg.seed, idx, keys):
        for k in range(n_steps + 1):
            if k:
                xi = _draw_increment(cfg.seed, idx, k - 1, dim)
                blown = _advance(model, states, (k - 1) * cfg.dt, cfg.dt, xi, blown)
            for j, d in enumerate(domains):
                if not n_open[j]:
                    continue
                # by index: boolean-mask row scatters take numpy's slow path
                m = open_mask[j]
                left = np.flatnonzero(m & ~d.contains(model, states))
                if left.size:
                    taus[j][left] = k * cfg.dt
                    exit_states[j][left] = states[left]
                    m[left] = False
                    n_open[j] -= left.size
            if cursor < len(record) and record[cursor] == k:
                snaps[:, cursor, :] = states
                cursor += 1
            if cursor == len(record) and not any(n_open):
                break
    if blown is None:
        blown = np.zeros(n, dtype=bool)
    exits = [ExitRecord(tau, st) for tau, st in zip(taus, exit_states)]
    return snaps, blown, exits


def simulate(model: MetricModel, x, horizon, cfg: SdeConfig, record_times=None,
             domains=()) -> PathEnsemble:
    """Run the ensemble to the horizon, recording states at snapshot times,
    then replay it once for the first exits from the distinct ``domains``,
    each checked against the model before the first step."""
    cfg.validate_against(model)
    x = model.check_point(x)
    model.check_time(horizon)
    domains = list(dict.fromkeys(domains))
    for d in domains:
        if not isinstance(d, DomainSpec):
            raise ValueError(f"domains must be DomainSpec values, got {d!r}")
        d.validate_against(model)
    n_steps = int(round(horizon / cfg.dt))
    if abs(n_steps * cfg.dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError("horizon must be a whole number of steps")
    if n_steps > rng.MAX_STEPS:
        raise ValueError(
            f"{n_steps} steps exceed the counter capacity of {rng.MAX_STEPS} steps"
        )
    record = _snap_indices(record_times, horizon, cfg.dt, n_steps)
    states, blown, _ = _march(model, x, cfg, n_steps, record, ())
    exits = {}
    ens = PathEnsemble(
        model=model,
        x=x,
        cfg=cfg,
        horizon=n_steps * cfg.dt,
        times=np.asarray(record, dtype=float) * cfg.dt,
        states=states,
        blowup=blown,
        exits=MappingProxyType(exits),
    )
    if domains:
        exits.update(zip(domains, replay_exits(ens, domains)))
    return ens


def _snap_indices(record_times, horizon, dt, n_steps):
    wanted = {0, n_steps}
    if record_times is not None:
        for t in record_times:
            if not math.isfinite(t):
                raise ValueError(f"record time {t} is not finite")
            k = int(round(t / dt))
            if abs(k * dt - t) > 1e-9 * max(1.0, t):
                raise ValueError(f"record time {t} is not a multiple of dt={dt}")
            if not 0 <= k <= n_steps:
                raise ValueError(f"record time {t} outside the horizon")
            wanted.add(k)
    return sorted(wanted)


def replay_exits(ensemble: PathEnsemble, domains) -> list[ExitRecord]:
    """Recover first-exit data by re-running the deterministic dynamics.

    Exit is the first grid time at which a path is outside the (open)
    domain; no overshoot correction is applied, so exit times carry an
    O(sqrt(dt)) upward bias.  Paths starting outside get tau = 0 with the
    start point as exit state; paths never leaving within the horizon are
    censored.
    """
    model, cfg = ensemble.model, ensemble.cfg
    for d in domains:
        d.validate_against(model)
    n_steps = int(round(ensemble.horizon / cfg.dt))
    return _march(model, ensemble.x, cfg, n_steps, (), domains)[2]


def mean_stderr(vals):
    """Sample mean and its standard error (0.0 for a single sample).

    Both are taken on the samples centred on the first one, so a constant
    sample reduces exactly: every centred value is 0.0, the mean is the
    constant itself and the stderr is 0.0, whatever the sample size.  Plain
    pairwise summation of n copies of a non-dyadic constant is off by an
    ulp for some n.  A non-finite first sample is not used as the centre.
    """
    vals = np.asarray(vals, dtype=float)
    n = vals.size
    if n == 0:
        raise ValueError("mean_stderr needs at least one sample; the sample is empty")
    v0 = vals.flat[0]
    if not math.isfinite(v0):
        v0 = 0.0
    centred = vals - v0
    mean = float(v0 + np.mean(centred))
    stderr = float(np.std(centred, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return mean, stderr
