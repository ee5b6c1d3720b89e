"""Deterministic quadrature of observables against the heat-kernel measure.

Integrals have the form ``int f(t, y) p(t, x, y) vol(dy)``; grids depend on
the model only:

* line / flat space: composite Gauss-Legendre on a truncation box around
  the kernel base point, with the radius enlarged when the integrand
  carries exponential growth ``exp(beta |y|)``;
* circle: uniform (spectrally accurate) angle grid;
* sphere: Gauss-Legendre in the polar cosine times a uniform azimuth grid;
* punctured 3-space: a radial-times-polar product grid about the puncture
  with an inner cutoff ``delta``; refinement shrinks ``delta`` through
  ``10^-2 .. 10^-8`` so genuinely divergent integrands are exposed instead
  of silently truncated.

Summation order is fixed at a given refinement level, so values are
bit-reproducible.  Refinement stops on stabilization, or declares the
integral divergent when three successive refinements each grow the value
by more than 10%.

The integrals take the heat kernel and build their grid on the kernel's
model (``kernel.model``) about the kernel's base point; none takes a model
of its own, so the grid and the density cannot come from two different
manifolds.  `build_grid` alone takes a model: the model is what it builds
for.

Three entry points integrate against the kernel measure, one for each
need:

* `curve_expectations`: several integrands at a fixed level, at each time
  of a curve (a single time is the one-time curve ``(t,)``);
* `refine_expectations`: several integrands at one time, each refined
  until it stabilizes or diverges, on its own;
* `kernel_integral`: one integrand, one value at a fixed level or refined,
  or a typed `QuadratureDivergence`.

The grid, its volume weights and the kernel density at the nodes depend
on the kernel, time and level but on no integrand, so `curve_expectations`
builds them once for the integrands of one time (E, E' and E'' of one time
step, or the integrals still refining at one level) and drops them on
return: building the grid, and above all summing the sphere's zonal
kernel series, is most of the cost of a quadrature.  The integrands of one
call come as an `Integrands` tuple, whose `reduce_columns` hands each
integrand's column to the reduction as soon as it is formed;
`entropy.JetIntegrands` evaluates the solution's jet once per block that
way.  Where the nodes do not move with t (circle, sphere: only their
weights scale with ``c(t)``) a curve builds them once, with the
integrands' `node_terms` on them (the sphere solution's ``mu`` and frame
components), and forms only the weights, the density and the columns per
time.

A node set is evaluated in blocks of `_NODE_BLOCK` (16,384) nodes: the
kernel density, the slices of the node terms, the jet and each column of
a block are formed together, and each integrand's ``column * density``
goes into that block's slice of one full-length product per integrand.
After the last block each value is one dot of its product with the
weights, as over the whole set at once: the products are elementwise and
the dot sees the same vector, so every value keeps its bits.  No
decision depends on which nodes share a block: the sphere series' term
count and the wrapped kernel's wrap count read t alone, and
`solutions.require_positive` raises LogOfZero in whichever block holds a
zero, as it did over the whole set.  A block's (n,) columns are 128 KiB,
so its density, jet and columns fit a 2 MiB L2 cache where a whole set's
(98,304 sphere nodes at level 2, up to 190,464 punctured ones at level 3
with the doubled mesh) did not.  Peak RSS of one quad-catalog run
(`perfbench/worker.py`, 2 cores, 2 MiB L2 per core, three runs each) read
74.8-75.0 MB with no blocks and no product buffers, 67.6-67.8 at 2^12
nodes a block, 67.6-67.7 at 2^13, 67.8-67.9 at 2^14, 68.1-68.7 at 2^15,
71.6-71.7 at 2^16 and 77.7-77.8 with the whole set as one block; wall
time was lowest at 2^13 and 2^14 (0.28-0.36 s against 0.38-0.42 s with
no blocks).  A curve holds one node set, its products and one block's
temporaries until it returns; nothing caches a grid, a density or a jet
beyond the call that made it, whatever the length of the time grid.  In
`refine_expectations` each integrand keeps its own stopping level and
divergence flag, so its values are those it gets refined alone.

Every entry point refuses ``t <= 0`` (`build_grid`): the kernel measure is
a point mass at ``t = 0``.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import geometry
from .errors import QuadratureDivergence
from .geometry import MetricModel


@functools.lru_cache(maxsize=32)  # the grids use fewer than ten sizes
def _gauss_legendre(n):
    """n-point Gauss-Legendre nodes and weights on [-1, 1], computed once.

    The arrays are shared between callers, so they are made read-only.
    """
    nodes, weights = leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


_GL16 = _gauss_legendre(16)
_GROWTH_FRACTION = 0.10
_GROWTH_STREAK = 3
# a refinement has stabilized when two successive levels differ by at most
# _STABLE_ATOL + _STABLE_RTOL * |value|
_STABLE_RTOL = 1e-10
_STABLE_ATOL = 1e-12
# nodes evaluated together: each (n,) column of a block is 128 KiB, so a
# block's density, jet and columns stay in a 2 MiB L2 cache
_NODE_BLOCK = 1 << 14


class Integrands(tuple):
    """Integrands ``f(t, pts)`` evaluated together on one block of nodes.

    `curve_expectations` calls `reduce_columns` once per block of
    `_NODE_BLOCK` (16,384) nodes; it hands each integrand's column to
    ``reduce``, in the integrands' order, as soon as it is formed, so one
    column is alive at a time, and ``reduce`` writes ``column * density``
    into that block's slice of the integrand's full-length product.  Here
    each integrand is evaluated alone; a subclass may share work between
    them, and keeps the tuple constructor, which `refine_expectations` uses
    to keep the integrands still refining.
    """

    def node_terms(self, pts):
        """What the integrands share on ``pts`` at every time, as a tuple of
        per-node arrays, taken once for a curve whose nodes do not move with
        t and sliced per block; None here."""
        return None

    def reduce_columns(self, t, pts, reduce, terms=None):
        """``reduce`` of each integrand's column at (t, pts); ``terms`` is
        `node_terms` of these points, or None to form what it holds."""
        return tuple(reduce(f(t, pts)) for f in self)


@dataclass(frozen=True)
class Refinement:
    """Per-level values of a refined integral and how the loop ended."""

    values: tuple
    converged: bool
    divergent: bool

    @property
    def value(self):
        return self.values[-1]


def truncation_radius(t, growth=0.0):
    """Box radius keeping the relative Gaussian tail mass below ~1e-12.

    An integrand growing like exp(growth * y) against the kernel peaks at
    distance 2 * growth * t from the base point; the box extends a further
    8 * sqrt(4t), leaving a relative tail factor exp(-256).  Centering the
    box at the shifted peak (rather than inflating a symmetric radius until
    the raw product is small) keeps every node's exponent within float64
    range even for fast-growing condition integrands.
    """
    return 2.0 * float(growth) * t + 8.0 * math.sqrt(4.0 * t)


def _composite_gl(a, b, panels):
    """Composite 16-point Gauss-Legendre nodes/weights on [a, b]."""
    return _gl_on_edges(np.linspace(a, b, panels + 1))


def _grid_line(model, x, t, level, growth):
    r = truncation_radius(t, growth)
    panels = max(48, int(math.ceil(4.0 * r / math.sqrt(4.0 * t)))) * 2**level
    ys, w = _composite_gl(x[0] - r, x[0] + r, panels)
    return ys[:, None], w


def _grid_circle(model, x, t, level, growth):
    n = 256 * 2**level
    th = (np.arange(n) + 0.5) * (2.0 * np.pi / n)
    return th[:, None], _circle_weights(model, t, level)


def _circle_weights(model, t, level):
    n = 256 * 2**level
    return np.full(n, 2.0 * np.pi / n) * math.sqrt(float(model.conformal(t)))


def _grid_sphere(model, x, t, level, growth):
    nmu, nphi = _sphere_shape(level)
    mus, _ = _gauss_legendre(nmu)
    phis = (np.arange(nphi) + 0.5) * (2.0 * np.pi / nphi)
    sin = np.sqrt(1.0 - mus**2)
    pts = np.empty((nmu, nphi, 3))
    pts[..., 0] = sin[:, None] * np.cos(phis)[None, :]
    pts[..., 1] = sin[:, None] * np.sin(phis)[None, :]
    pts[..., 2] = mus[:, None]
    return pts.reshape(-1, 3), _sphere_weights(model, t, level)


def _sphere_weights(model, t, level):
    nmu, nphi = _sphere_shape(level)
    _, wmu = _gauss_legendre(nmu)
    wphi = 2.0 * np.pi / nphi
    w = (wmu[:, None] * wphi) * float(model.conformal(t))
    return np.broadcast_to(w, (nmu, nphi)).ravel().copy()


def _sphere_shape(level):
    """(polar, azimuthal) node counts of the sphere grid."""
    return 64 * 2**level, 96 * 2**level


# models whose nodes do not move with t: their weights only scale with c(t),
# so a curve builds the nodes once and forms only these weights per time
_WEIGHTS_OF_FIXED_NODES = {
    geometry.CIRCLE: _circle_weights,
    geometry.SPHERE_2: _sphere_weights,
}


def _grid_radial_flat(model, x, t, level, growth):
    """Radial grid about the base point; for integrands radial about x."""
    n = model.dim
    r = truncation_radius(t, growth)
    panels = max(48, int(math.ceil(4.0 * r / math.sqrt(4.0 * t)))) * 2**level
    rs, wr = _composite_gl(0.0, r, panels)
    surface = 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)
    direction = np.zeros(n)
    direction[0] = 1.0
    pts = x[None, :] + rs[:, None] * direction[None, :]
    return pts, surface * rs ** (n - 1) * wr


def inner_cutoff(level):
    """Inner radial cutoff for the punctured model at a refinement level."""
    return 10.0 ** (-(2 + level))


def _grid_punctured(model, x, t, level, growth, outer_scale=1.0, mesh_scale=1):
    """(r, mu) product grid about the puncture, axis through the base point.

    Valid for integrands of the form f(|y|) weighted by a kernel centered
    at x, which covers the radial catalog solutions; the azimuthal average
    is exact for such axisymmetric integrands.
    """
    delta = inner_cutoff(level)
    nx = float(np.linalg.norm(x))
    r_out = (nx + truncation_radius(t, growth)) * outer_scale
    # log-composite panels from delta to 1, linear panels beyond
    decades = max(1, int(math.ceil(math.log10(1.0 / delta))))
    log_edges = np.logspace(math.log10(delta), 0.0, 6 * mesh_scale * decades + 1)
    rs_in, wr_in = _gl_on_edges(log_edges)
    lin_panels = max(16, int(math.ceil(4.0 * (r_out - 1.0) / math.sqrt(4.0 * t))))
    rs_out, wr_out = _composite_gl(1.0, r_out, lin_panels * mesh_scale)
    rs = np.concatenate([rs_in, rs_out])
    wr = np.concatenate([wr_in, wr_out])
    mus, wmu = _gauss_legendre(48 * mesh_scale)
    axis = x / nx
    perp = np.zeros(3)
    perp[int(np.argmin(np.abs(axis)))] = 1.0
    perp = perp - (perp @ axis) * axis
    perp /= np.linalg.norm(perp)
    sin = np.sqrt(1.0 - mus**2)
    # coordinate by coordinate, the bits of r mu axis + r sin perp formed
    # on (n_r, n_mu, 3) arrays, without four such temporaries
    along = rs[:, None] * mus[None, :]
    across = rs[:, None] * sin[None, :]
    pts = np.empty(along.shape + (3,))
    for k in range(3):
        pts[..., k] = along * axis[k] + across * perp[k]
    w = 2.0 * np.pi * (rs**2 * wr)[:, None] * wmu[None, :]
    return pts.reshape(-1, 3), w.ravel()


def _gl_on_edges(edges):
    xs, ws = _GL16
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mid[:, None] + half[:, None] * xs[None, :]).ravel()
    w = (half[:, None] * ws[None, :]).ravel()
    return pts, w


def build_grid(model: MetricModel, x, t, level=0, growth=0.0, **grid_opts):
    """Quadrature nodes and volume weights for the model at time t > 0."""
    x = _check_grid(model, x, t, level)
    if model.kind == geometry.EUCLIDEAN_LINE:
        return _grid_line(model, x, t, level, growth)
    if model.kind == geometry.EUCLIDEAN_SPACE:
        return _grid_radial_flat(model, x, t, level, growth)
    if model.kind == geometry.PUNCTURED_3:
        return _grid_punctured(model, x, t, level, growth, **grid_opts)
    if model.kind == geometry.CIRCLE:
        return _grid_circle(model, x, t, level, growth)
    if model.kind == geometry.SPHERE_2:
        return _grid_sphere(model, x, t, level, growth)
    raise ValueError(f"no quadrature rule for model kind {model.kind!r}")


def _check_grid(model, x, t, level):
    """Refuse a bad level or time; the base point x as a chart point."""
    if isinstance(level, bool) or not isinstance(level, numbers.Integral) or level < 0:
        raise ValueError(f"level must be a non-negative integer, got {level!r}")
    model.check_time(t)
    if not t > 0:
        raise ValueError(f"the kernel measure needs t > 0, got t={t!r}")
    return model.check_point(x)


def curve_expectations(fs, kernel, ts, level=0, growth=0.0, **grid_opts):
    """Single-level quadrature of each integrand against the kernel measure,
    at each time of ``ts``: one tuple of values per time.

    ``fs`` is a sequence of integrands or an `Integrands` tuple.  The nodes
    and the kernel density are made read-only, so every integrand sees the
    same ones.  Where the nodes do not move with t (circle, sphere) the
    curve builds them once, with what the integrands share on them
    (`Integrands.node_terms`), and each later time forms only its weights,
    the kernel density and the integrands' columns; elsewhere each time
    builds its own grid.  Each time's nodes are evaluated in blocks of
    `_NODE_BLOCK` into one product per integrand, reduced by one dot after
    the last block.  Nothing outlives the call.  Every value equals the one
    its integrand gets alone, at its time alone, over the whole node set at
    once, bit for bit.
    """
    fs = fs if isinstance(fs, Integrands) else Integrands(fs)
    model, x = kernel.model, kernel.base_point
    reweigh = _WEIGHTS_OF_FIXED_NODES.get(model.kind)
    nodes = None  # (pts, terms) of the last grid built
    rows = []
    for t in ts:
        if nodes is not None and reweigh is not None:
            _check_grid(model, x, t, level)
            w = reweigh(model, t, level)
        else:
            pts, w = build_grid(model, x, t, level=level, growth=growth, **grid_opts)
            pts.flags.writeable = False
            nodes = pts, fs.node_terms(pts)
        pts, terms = nodes
        w.flags.writeable = False
        prods = [np.empty(len(w)) for _ in fs]
        for start in range(0, len(w), _NODE_BLOCK):
            block = slice(start, start + _NODE_BLOCK)
            dens = np.asarray(kernel.density(t, pts[block]), dtype=float)
            dens.flags.writeable = False
            outs = iter([p[block] for p in prods])
            fs.reduce_columns(
                t, pts[block], functools.partial(_product, dens, outs),
                None if terms is None else tuple(a[block] for a in terms),
            )
        rows.append(tuple(float(np.dot(p, w)) for p in prods))
    return rows


def _product(dens, outs, col):
    """Write ``col * dens`` into the next integrand's slice of the block."""
    np.multiply(np.asarray(col, dtype=float), dens, out=next(outs))


def refine_expectations(fs, kernel, t, growth=0.0, levels=None) -> tuple:
    """Refine each integrand until it stabilizes or the divergence rule
    fires, on one grid per level; stable means two successive levels within
    `_STABLE_ATOL` + `_STABLE_RTOL` * |value| (1e-12 and 1e-10).

    Each integrand stops at its own level, so each `Refinement` is the one
    it gets alone, bit for bit; a level's grid is built only while some
    integrand is still refining.
    """
    if levels is None:
        levels = range(7) if kernel.model.kind == geometry.PUNCTURED_3 else range(5)
    levels = tuple(levels)
    if not levels:
        raise ValueError("refinement needs at least one level")
    fs = fs if isinstance(fs, Integrands) else Integrands(fs)
    values = [[] for _ in fs]
    streaks = [0] * len(fs)
    ends = [None] * len(fs)  # (converged, divergent) once stopped
    for level in levels:
        live = [i for i, end in enumerate(ends) if end is None]
        if not live:
            break
        live_fs = type(fs)(fs[i] for i in live)
        got = curve_expectations(live_fs, kernel, (t,), level, growth)[0]
        for i, v in zip(live, got):
            vals = values[i]
            vals.append(v)
            if len(vals) >= 2:
                prev = vals[-2]
                if abs(v - prev) <= _STABLE_ATOL + _STABLE_RTOL * abs(v):
                    ends[i] = (True, False)
                    continue
                grew = (v - prev) / max(abs(prev), 1e-300)
                streaks[i] = streaks[i] + 1 if grew > _GROWTH_FRACTION else 0
                if streaks[i] >= _GROWTH_STREAK:
                    ends[i] = (False, True)
    return tuple(
        Refinement(tuple(vals), *(end or (False, False)))
        for vals, end in zip(values, ends)
    )


def kernel_integral(f, kernel, t, growth=0.0, level=None, what="integral"):
    """One integral: at ``level``, or refined when ``level`` is None; raises
    QuadratureDivergence when the refinement cannot settle."""
    if level is not None:
        return curve_expectations((f,), kernel, (t,), level, growth)[0][0]
    (ref,) = refine_expectations((f,), kernel, t, growth)
    if ref.converged:
        return ref.value
    raise QuadratureDivergence(
        f"{what} failed to stabilize under refinement",
        levels=ref.values,
        divergent=ref.divergent,
    )
