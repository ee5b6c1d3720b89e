"""Scenario engine: configs and the run pipeline.

Scenario files use a flat key-path grammar, one assignment per line::

    # line scenario
    id = "line-eternal"
    model = "euclidean-line"
    solution = "expline:1,1"
    kernel = "auto"
    x = [0.0]
    t.min = 0.25
    t.max = 4.0
    t.count = 16
    t.spacing = "log"
    mc.paths = 100000
    mc.dt = 0.001
    mc.seed = 12648430
    domains = ["interval:-1,1", "interval:-2,2"]
    analyses = ["entropy-curve", "classify"]

Values are quoted strings, numbers, ``true``/``false``, or flat lists of
numbers/strings; ``#`` starts a comment.  Parsing then serializing then
parsing is the identity on scenarios.
"""

from __future__ import annotations

import json
import math
import numbers
import time
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis, entropy, geometry, kernels, quadrature, rng, solutions, stochastic
from .entropy import DEFAULT_CURVE_LEVEL
from .errors import ConfigError, EntroflowError
from .stochastic import DEFAULT_SEED, SdeConfig

ANALYSES = (
    "entropy-curve",
    "conditions",
    "local",
    "bounds",
    "classify",
    "separation",
    "rigidity",
    "divergence",
)

# the settings `run` lets a caller override (the CLI's --paths, --dt, --seed
# and --refine)
OVERRIDE_KEYS = ("paths", "dt", "seed", "refine")

_KEY_ORDER = (
    "id", "model", "window.min", "window.max", "solution", "kernel", "x",
    "t.min", "t.max", "t.count", "t.spacing",
    "mc.paths", "mc.dt", "mc.seed",
    "domains", "analyses", "bounds.delta",
)


# ---------------------------------------------------------------------------
# flat key-path grammar


def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        if not key or any(not p.strip() for p in key.split(".")):
            raise ConfigError(f"line {lineno}: bad key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = _parse_value(val.strip(), lineno)
    return out


def _strip_comment(line: str) -> str:
    in_str = False
    for i, ch in enumerate(line):
        if ch == '"':
            in_str = not in_str
        elif ch == "#" and not in_str:
            return line[:i]
    return line


def _parse_value(val: str, lineno: int):
    if not val:
        raise ConfigError(f"line {lineno}: empty value")
    if val.startswith("["):
        if not val.endswith("]"):
            raise ConfigError(f"line {lineno}: unterminated list")
        inner = val[1:-1].strip()
        if not inner:
            return []
        return [_parse_scalar(part.strip(), lineno) for part in _split_list(inner)]
    return _parse_scalar(val, lineno)


def _split_list(inner: str):
    parts, buf, in_str = [], [], False
    for ch in inner:
        if ch == '"':
            in_str = not in_str
            buf.append(ch)
        elif ch == "," and not in_str:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    return parts


def _parse_scalar(val: str, lineno: int):
    if val.startswith('"') and val.endswith('"') and len(val) >= 2:
        return val[1:-1]
    if val == "true":
        return True
    if val == "false":
        return False
    try:
        if any(c in val for c in ".eE") and not val.lstrip("+-").isdigit():
            return float(val)
        return int(val)
    except ValueError:
        raise ConfigError(f"line {lineno}: cannot parse value {val!r}") from None


def serialize_config(mapping: dict) -> str:
    keys = [k for k in _KEY_ORDER if k in mapping]
    keys += [k for k in mapping if k not in _KEY_ORDER]
    lines = [f"{k} = {_format_value(mapping[k])}" for k in keys]
    return "\n".join(lines) + "\n"


def _format_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return f'"{v}"'
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_format_value(x) for x in v) + "]"
    raise ConfigError(f"cannot serialize value {v!r}")


# ---------------------------------------------------------------------------
# scenarios


@dataclass(frozen=True)
class Scenario:
    id: str
    model: str
    solution: str
    x: tuple
    t_min: float
    t_max: float
    t_count: int = 16
    t_spacing: str = "log"
    kernel: str = "auto"
    window: tuple | None = None
    mc: SdeConfig | None = None
    domains: tuple = ()
    analyses: tuple = ("entropy-curve",)
    bounds_delta: float = 1.0

    @classmethod
    def from_mapping(cls, m: dict) -> "Scenario":
        m = dict(m)
        try:
            window = None
            if "window.min" in m or "window.max" in m:
                window = (float(m.pop("window.min")), float(m.pop("window.max")))
            mc = None
            if "mc.paths" in m:
                mc = SdeConfig(
                    dt=_step("mc.dt", m.pop("mc.dt")),
                    n_paths=_path_count("mc.paths", m.pop("mc.paths")),
                    seed=_whole("mc.seed", m.pop("mc.seed", DEFAULT_SEED)),
                )
            sc = cls(
                id=str(m.pop("id")),
                model=str(m.pop("model")),
                solution=str(m.pop("solution")),
                kernel=str(m.pop("kernel", "auto")),
                x=tuple(float(v) for v in m.pop("x")),
                t_min=float(m.pop("t.min")),
                t_max=float(m.pop("t.max")),
                t_count=_whole("t.count", m.pop("t.count", 16)),
                t_spacing=str(m.pop("t.spacing", "log")),
                window=window,
                mc=mc,
                domains=tuple(str(d) for d in m.pop("domains", [])),
                analyses=tuple(str(a) for a in m.pop("analyses", ["entropy-curve"])),
                bounds_delta=float(m.pop("bounds.delta", 1.0)),
            )
        except KeyError as exc:
            raise ConfigError(f"missing config key {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        if m:
            raise ConfigError(f"unknown config keys: {sorted(m)}")
        sc.validate()
        return sc

    def to_mapping(self) -> dict:
        m = {"id": self.id, "model": self.model}
        if self.window is not None:
            m["window.min"], m["window.max"] = self.window
        m.update(
            {
                "solution": self.solution,
                "kernel": self.kernel,
                "x": list(self.x),
                "t.min": self.t_min,
                "t.max": self.t_max,
                "t.count": self.t_count,
                "t.spacing": self.t_spacing,
            }
        )
        if self.mc is not None:
            m["mc.paths"] = self.mc.n_paths
            m["mc.dt"] = self.mc.dt
            m["mc.seed"] = self.mc.seed
        m["domains"] = list(self.domains)
        m["analyses"] = list(self.analyses)
        m["bounds.delta"] = self.bounds_delta
        return m

    def validate(self):
        try:
            model, _, _, _, doms = self.build()
            for dom in doms:
                dom.validate_against(model)
            if self.mc is not None:
                self.mc.validate_against(model)
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"scenario {self.id!r}: {exc}") from exc
        t0, t1 = model.time_window
        if not (t0 <= self.t_min < self.t_max <= t1):
            raise ConfigError(
                f"scenario {self.id!r}: t grid [{self.t_min}, {self.t_max}] outside "
                f"the model window [{t0}, {t1}]"
            )
        if self.t_min <= 0:
            raise ConfigError(f"scenario {self.id!r}: t.min must be positive")
        if self.t_spacing not in ("log", "linear"):
            raise ConfigError(f"scenario {self.id!r}: bad spacing {self.t_spacing!r}")
        if isinstance(self.t_count, bool) or not isinstance(self.t_count, numbers.Integral):
            raise ConfigError(
                f"scenario {self.id!r}: t.count must be a whole number, got {self.t_count!r}"
            )
        if self.t_count < 2:
            raise ConfigError(f"scenario {self.id!r}: need at least two grid points")
        unknown = set(self.analyses) - set(ANALYSES)
        if unknown:
            raise ConfigError(f"scenario {self.id!r}: unknown analyses {sorted(unknown)}")
        if not (math.isfinite(self.bounds_delta) and self.bounds_delta > 0):
            raise ConfigError(
                f"scenario {self.id!r}: bounds.delta must be positive and finite, "
                f"got {self.bounds_delta!r}"
            )
        if self.mc is not None:
            horizon = self._mc_horizon()
            # the tolerance of geometry's check_time, which simulate applies
            if horizon > t1 + 1e-12:
                raise ConfigError(
                    f"scenario {self.id!r}: mc.dt = {self.mc.dt} steps to "
                    f"t = {horizon:.12g}, past the window end {t1}"
                )

    def _mc_horizon(self) -> float:
        """t.max rounded up to a whole number of Monte Carlo steps."""
        dt = self.mc.dt
        return math.ceil(self.t_max / dt - 1e-9) * dt

    def t_grid(self) -> np.ndarray:
        if self.t_spacing == "log":
            return np.geomspace(self.t_min, self.t_max, self.t_count)
        return np.linspace(self.t_min, self.t_max, self.t_count)

    def build(self):
        model = geometry.parse_model(self.model, time_window=self.window)
        sol = solutions.parse_solution(self.solution, model)
        x = model.check_point(np.asarray(self.x, dtype=float))
        kern = None
        if _needs_kernel(self.analyses):
            kern = kernels.parse_kernel(self.kernel, model, x)
        doms = [stochastic.parse_domain(d) for d in self.domains]
        return model, sol, kern, x, doms


def _whole(key, value):
    """An integer config value; integral floats such as 2.5e4 are accepted."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def _path_count(key, value):
    """A whole number of paths no larger than `rng.MAX_PATHS`."""
    n = _whole(key, value)
    if n > rng.MAX_PATHS:
        raise ConfigError(f"{key} must not exceed 2**36 (rng.MAX_PATHS), got {n}")
    return n


def _step(key, value):
    """A positive, finite step size; "nan" and "inf" parse as floats."""
    try:
        dt = float(value)
    except (TypeError, ValueError):
        dt = math.nan
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigError(f"{key} must be positive and finite, got {value!r}")
    return dt


def _needs_kernel(analyses):
    return any(
        a in analyses
        for a in ("entropy-curve", "conditions", "bounds", "classify", "rigidity")
    )


def parse_scenario(text: str) -> Scenario:
    return Scenario.from_mapping(parse_config_text(text))


def load_scenario(path) -> Scenario:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


def bundled_scenarios() -> dict:
    """Shipped example configs, name -> path."""
    root = Path(__file__).parent / "configs"
    return {p.stem: p for p in sorted(root.glob("*.cfg"))}


# ---------------------------------------------------------------------------
# run pipeline


@dataclass
class RunManifest:
    scenario_id: str
    version: str
    seed: int | None
    refinement_level: int
    outputs: list
    wall_clock: dict

    def write(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _package_version():
    try:
        from importlib.metadata import version

        return "entroflow-" + version("entroflow")
    except Exception:
        return "entroflow-unreleased"


def run(scenario, outdir, overrides=None) -> RunManifest:
    """Execute a scenario's analyses and write CSV/JSON artifacts."""
    if not isinstance(scenario, Scenario):
        scenario = load_scenario(scenario)
    level = DEFAULT_CURVE_LEVEL
    if overrides:
        unknown = sorted(set(overrides) - set(OVERRIDE_KEYS))
        if unknown:
            raise ConfigError(
                f"unknown override keys {unknown}; the keys are {list(OVERRIDE_KEYS)}"
            )
        scenario = _apply_overrides(scenario, overrides)
        level = _whole("refine", overrides.get("refine", level))
        if level < 0:
            raise ConfigError(f"refine must not be negative, got {level}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run_stages(scenario, outdir, level)
    except EntroflowError as exc:
        exc.args = (f"scenario {scenario.id!r}: {exc}",) + exc.args[1:]
        raise


def _run_stages(scenario, outdir, level) -> RunManifest:
    model, sol, kern, x, doms = scenario.build()
    t_grid = scenario.t_grid()
    outputs = []
    clocks = {}
    report = {"scenario_id": scenario.id}

    ensemble = None
    if scenario.mc is not None:
        with _timed(clocks, "simulate"):
            dt = scenario.mc.dt
            horizon = scenario._mc_horizon()
            # snap requested times onto the step grid (within half a step)
            record = sorted(
                {round(t / dt) * dt for t in np.concatenate([t_grid, t_grid / 2.0])}
            )
            record = [t for t in record if 0.0 < t <= horizon + 1e-12]
            ensemble = stochastic.simulate(
                model, x, horizon, scenario.mc, record_times=record
            )
            if doms:
                ensemble.ensure_exits(doms)

    curve = None
    if "entropy-curve" in scenario.analyses or "conditions" in scenario.analyses:
        with _timed(clocks, "entropy-curve"):
            with_conds = "conditions" in scenario.analyses
            curve = entropy.entropy_curve(
                sol, kern, t_grid, level=level, with_conditions=with_conds
            )
            curve.to_csv(outdir / "entropy.csv")
            outputs.append("entropy.csv")
            if ensemble is not None:
                mc_curve = entropy.entropy_curve(
                    sol, ensemble, _mc_times(t_grid, ensemble), with_conditions=False
                )
                mc_curve.to_csv(outdir / "entropy_mc.csv")
                outputs.append("entropy_mc.csv")

    if "local" in scenario.analyses:
        if ensemble is None or not doms:
            raise ConfigError("the local analysis needs mc.* settings and domains")
        with _timed(clocks, "local"):
            table = entropy.local_entropy(sol, ensemble, doms, _mc_times(t_grid, ensemble))
            table.to_csv(outdir / "local.csv")
            outputs.append("local.csv")
            report["local"] = {
                "monotone_t_z": table.monotone_t_z,
                "monotone_D_z": table.monotone_D_z,
                "E_M": table.E_M.tolist(),
                "E_M_stabilized": table.E_M_stabilized.tolist(),
                "exit_values": [_jsonable(asdict(e)) for e in table.E_D_exit],
            }

    t_ref = float(t_grid[len(t_grid) // 2])
    if "bounds" in scenario.analyses:
        with _timed(clocks, "bounds"):
            gb = analysis.gradient_entropy_check(sol, kern, t_ref, level=level)
            cb = analysis.corollary_bounds(
                sol, kern, t_ref, scenario.bounds_delta, level=level
            )
            report["bounds"] = {
                "t": t_ref,
                "gradient": _jsonable(asdict(gb)),
                "corollaries": _jsonable(asdict(cb)),
            }

    if "classify" in scenario.analyses:
        with _timed(clocks, "classify"):
            if curve is None:
                curve = entropy.entropy_curve(
                    sol, kern, t_grid, level=level, with_conditions=False
                )
            sup_grad = _sup_grad_sample(sol, kern, t_grid, level)
            ok = _super_ricci_verified(model, x, t_grid)
            rep = analysis.classify_growth(curve, sup_grad_sample=sup_grad, super_ricci_ok=ok)
            d = {k: v for k, v in asdict(rep).items() if k != "evidence"}
            report["classify"] = _jsonable(d)

    if "separation" in scenario.analyses:
        with _timed(clocks, "separation"):
            ts = np.linspace(scenario.t_min, min(scenario.t_max, scenario.t_min + 1.0), 6)
            rep = analysis.separation_test(sol, ts, _default_ygrid(model))
            report["separation"] = _jsonable(
                {k: v for k, v in asdict(rep).items() if k not in ("psi", "phi")}
            )

    if "rigidity" in scenario.analyses:
        with _timed(clocks, "rigidity"):
            rep = analysis.rigidity_check(
                sol, kern, t_grid[:: max(1, len(t_grid) // 8)],
                _default_ygrid(model), level=level,
            )
            report["rigidity"] = _jsonable(asdict(rep))

    if "divergence" in scenario.analyses:
        with _timed(clocks, "divergence"):
            rep = analysis.divergence_demo(t_ref)
            report["divergence"] = _jsonable(asdict(rep))

    if len(report) > 1:
        with open(outdir / "analysis.json", "w", encoding="utf-8", newline="\n") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        outputs.append("analysis.json")

    manifest = RunManifest(
        scenario_id=scenario.id,
        version=_package_version(),
        seed=scenario.mc.seed if scenario.mc else None,
        refinement_level=level,
        outputs=outputs,
        wall_clock={k: round(v, 6) for k, v in clocks.items()},
    )
    manifest.write(outdir / "manifest.json")
    return manifest


@contextmanager
def _timed(clocks, stage):
    """Store the wall time of the block in ``clocks[stage]``."""
    t0 = time.perf_counter()
    yield
    clocks[stage] = time.perf_counter() - t0


def _apply_overrides(sc: Scenario, overrides: dict) -> Scenario:
    mc = sc.mc
    if mc is None:
        # not refused: a caller may pass one seed to every config it runs
        ignored = sorted(set(overrides) & {"paths", "dt", "seed"})
        if ignored:
            warnings.warn(
                f"scenario {sc.id!r} runs no Monte Carlo; ignoring overrides {ignored}",
                UserWarning, stacklevel=3,
            )
        return sc
    mc = SdeConfig(
        dt=_step("dt", overrides.get("dt", mc.dt)),
        n_paths=_path_count("paths", overrides.get("paths", mc.n_paths)),
        seed=_whole("seed", overrides.get("seed", mc.seed)),
    )
    sc = replace(sc, mc=mc)
    sc.validate()
    return sc


def _mc_times(t_grid, ensemble):
    dt = ensemble.cfg.dt
    snapped = sorted({round(t / dt) * dt for t in t_grid})
    return np.asarray([t for t in snapped if _on_grid(t, ensemble.times)])


def _on_grid(t, times):
    return bool(np.any(np.isclose(times, t, rtol=0.0, atol=1e-12)))


def _default_ygrid(model):
    if model.kind == geometry.EUCLIDEAN_LINE:
        return np.linspace(-1.0, 1.0, 9)[:, None]
    if model.kind == geometry.CIRCLE:
        return np.linspace(0.0, 2.0 * np.pi, 9, endpoint=False)[:, None]
    if model.kind == geometry.SPHERE_2:
        angles = np.linspace(0.15, np.pi - 0.15, 9)
        return np.stack(
            [np.sin(angles), np.zeros_like(angles), np.cos(angles)], axis=-1
        )
    if model.kind == geometry.PUNCTURED_3:
        radii = np.linspace(0.4, 2.5, 9)
        return radii[:, None] * np.array([1.0, 0.0, 0.0])[None, :]
    raise ValueError(model.kind)


def _sup_grad_sample(sol, kern, t_grid, level):
    worst = 0.0
    for t in (t_grid[0], t_grid[-1]):
        pts, _ = quadrature.build_grid(
            kern.model, kern.base_point, t, level=min(level, 1),
            growth=entropy.shared_growth(sol),
        )
        worst = max(worst, float(np.max(sol.grad_term(t, pts))))
    return worst


def _super_ricci_verified(model, x, t_grid, tol=1e-10):
    for t in (t_grid[0], t_grid[-1]):
        if geometry.super_ricci_gap(model, t, x) > tol:
            return False
    return True


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    if isinstance(obj, float) and math.isnan(obj):
        return "nan"
    return obj
