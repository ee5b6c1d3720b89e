"""In-place span tracing of entroflow's public functions.

``Tracer.install()`` wraps every public function and every public method of
the classes defined in the traced modules, and rebinds each wrapper under
every name that held the original in any loaded ``entroflow`` module, so
names imported with ``from ... import`` (``acceptance`` binds ``entropy_q``
and friends directly) are traced too.  The library itself is not edited.

A span is ``[name, start, end, parent, work]``; spans stay in memory until
``write`` dumps them.  ``layer_metrics(spans)`` turns them into the
per-layer numbers listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

# the layers, in the order they are reported; cli is a thin shell over
# harness and acceptance and is not traced separately
LAYERS = (
    "rng", "stochastic", "quadrature", "kernels", "solutions",
    "geometry", "entropy", "analysis", "harness", "acceptance",
)


def _rows(a):
    shape = np.shape(a)
    return int(shape[0]) if len(shape) >= 2 else 1


def _steps(span, dt):
    return int(round(span / dt))


# work recorded per span, by span name: draws, path-steps, points or nodes
_WORK = {
    "rng.normals": lambda a, r: int(np.size(a[1])),
    "rng.uniforms": lambda a, r: int(np.size(a[1])),
    "stochastic.simulate": lambda a, r: a[3].n_paths * _steps(a[2], a[3].dt),
    "stochastic.replay_exits": lambda a, r: a[0].n_paths * _steps(a[0].horizon, a[0].cfg.dt),
    "stochastic.DomainSpec.contains": lambda a, r: _rows(a[2]),
    "quadrature.build_grid": lambda a, r: int(len(r[0])),
    "quadrature.refine_expectation": lambda a, r: len(r.values),
    "acceptance.verify": lambda a, r: len(r[0]),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    # -- installation ----------------------------------------------------

    def install(self):
        import entroflow  # noqa: F401  (loads every layer module)

        mods = {name: sys.modules[f"entroflow.{name}"] for name in LAYERS}
        originals = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    originals[obj] = self._wrap(name, obj, _WORK.get(name))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(layer, obj)
        # rebind under every name that held an original, in every module
        for name, mod in list(sys.modules.items()):
            if name != "entroflow" and not name.startswith("entroflow."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    setattr(mod, attr, originals[obj])

    def _wrap_methods(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            work = _WORK.get(name)
            if work is None and layer in ("solutions", "kernels"):
                work = _points_arg
            setattr(cls, attr, self._wrap(name, obj, work))

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        # integrand closures run inside quadrature and expect; tracing them
        # keeps their arithmetic in entropy.self_s, not in the caller's
        wrap_result = name.startswith("entropy.") and name.endswith("_integrand")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(args, result)
            if wrap_result:
                result = self._wrap("entropy.integrand", result, None)
            return result

        return traced

    # -- output ----------------------------------------------------------

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "work"],
                    "names": names,
                    "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
                },
                fh,
            )


def _points_arg(args, result):
    # (self, t, pts) methods of solution fields and kernels
    return _rows(args[2]) if len(args) >= 3 else 0


def layer_metrics(spans):
    """Per-layer counts and times from a list of spans.

    * self time of a span: its duration minus the durations of its direct
      children (children never overlap: one thread, one stack);
    * busy time of a group: the summed duration of the group's spans that
      have no ancestor in the same group.
    """
    n = len(spans)
    child = [0.0] * n
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]

    def has_ancestor(i, pred):
        p = spans[i][3]
        while p >= 0:
            if pred(p):
                return True
            p = spans[p][3]
        return False

    def select(pred):
        return [i for i in range(n) if pred(spans[i][0])]

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    def work(idx):
        return sum(spans[i][4] for i in idx)

    def self_s(idx):
        return float(sum(spans[i][2] - spans[i][1] - child[i] for i in idx))

    def busy(pred):
        idx = [i for i in select(pred) if not has_ancestor(i, lambda p: pred(spans[p][0]))]
        return float(sum(spans[i][2] - spans[i][1] for i in idx)), idx

    def exact(name):
        return lambda nm: nm == name

    def prefix(p):
        return lambda nm: nm.startswith(p)

    m = {}
    rng_busy, rng_outer = busy(prefix("rng."))
    m["rng.normals.calls"] = calls("rng.normals")
    m["rng.draws"] = work(rng_outer)
    m["rng.busy_s"] = rng_busy
    m["rng.draws_per_s"] = m["rng.draws"] / rng_busy if rng_busy > 0 else 0.0

    sim = select(exact("stochastic.simulate"))
    rep = select(exact("stochastic.replay_exits"))
    m["stochastic.simulate.calls"] = len(sim)
    m["stochastic.simulate.path_steps"] = work(sim)
    m["stochastic.simulate.self_s"] = self_s(sim)
    m["stochastic.replay.passes"] = len(rep)
    m["stochastic.replay.path_steps"] = work(rep)
    m["stochastic.replay.self_s"] = self_s(rep)
    sim_steps = m["stochastic.simulate.path_steps"]
    m["stochastic.replay_ratio"] = (
        m["stochastic.replay.path_steps"] / sim_steps if sim_steps else 0.0
    )
    con_busy, con = busy(exact("stochastic.DomainSpec.contains"))
    m["stochastic.contains.calls"] = len(con)
    m["stochastic.contains.points"] = work(con)
    m["stochastic.contains.busy_s"] = con_busy
    exp_busy, exp = busy(exact("stochastic.expect"))
    m["stochastic.expect.calls"] = len(exp)
    m["stochastic.expect.busy_s"] = exp_busy

    ref = select(exact("quadrature.refine_expectation"))
    m["quadrature.integrals"] = calls("quadrature.kernel_expectation")
    m["quadrature.nodes"] = work(select(exact("quadrature.build_grid")))
    m["quadrature.self_s"] = self_s(select(prefix("quadrature.")))
    m["quadrature.refined"] = len(ref)
    m["quadrature.levels_per_refined"] = work(ref) / len(ref) if ref else 0.0

    for tag, cls in (
        ("gaussian", "GaussianKernel"),
        ("wrapped", "WrappedGaussianKernel"),
        ("sphere", "SphereHeatKernel"),
    ):
        m[f"kernels.{tag}.busy_s"] = busy(prefix(f"kernels.{cls}."))[0]
    m["kernels.density.points"] = work(
        select(lambda nm: nm.startswith("kernels.") and nm.endswith(".density"))
    )

    # points handed to solution methods by callers outside the solution
    # classes (a method calling another method is not counted twice)
    def is_method(nm):
        return nm.startswith("solutions.") and nm.count(".") == 2

    meth = [
        i for i in select(is_method)
        if spans[i][3] < 0 or not is_method(spans[spans[i][3]][0])
    ]
    m["solutions.eval.points"] = work(meth)
    m["solutions.busy_s"] = busy(prefix("solutions."))[0]
    m["solutions.bochner.calls"] = calls("solutions.bochner_identities")
    m["geometry.busy_s"] = busy(prefix("geometry."))[0]

    m["entropy.self_s"] = self_s(select(prefix("entropy.")))
    m["analysis.self_s"] = self_s(select(prefix("analysis.")))
    m["acceptance.rows"] = work(select(exact("acceptance.verify")))
    return m
