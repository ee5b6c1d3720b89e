"""Scenario engine: configs and the run pipeline.

A scenario file is TOML, read by the standard library's ``tomllib``::

    # line scenario
    id = "line-eternal"
    model = "euclidean-line"
    solution = "expline:1,1"
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

Tables read as dotted keys: an ``[mc]`` table holding ``paths = 100000``
is the key ``mc.paths``.
"""

from __future__ import annotations

import json
import math
import numbers
import time
import tomllib
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis, entropy, geometry, kernels, rng, solutions, stochastic
from .entropy import DEFAULT_CURVE_LEVEL, MAX_LEVEL
from .errors import ConfigError, EntroflowError, InsufficientCurve
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


# ---------------------------------------------------------------------------
# config text


def parse_config_text(text: str) -> dict:
    """The config's values under flat dotted keys: a table's ``paths`` in
    ``[mc]`` and a dotted ``mc.paths`` both read as ``mc.paths``."""
    try:
        doc = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"invalid config: {exc}") from None
    return _flatten(doc)


def _flatten(table, prefix=""):
    out = {}
    for key, value in table.items():
        key = prefix + key
        items = _flatten(value, key + ".") if isinstance(value, dict) else {key: value}
        for k, v in items.items():
            # a quoted "t.min" and a dotted t.min are two TOML keys but one here
            if k in out:
                raise ConfigError(f"duplicate key {k!r}")
            out[k] = v
    return out


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
                window = (
                    _real("window.min", m.pop("window.min")),
                    _real("window.max", m.pop("window.max")),
                )
            mc = None
            if "mc.paths" in m:
                mc = _sde_config(
                    "mc.", m.pop("mc.dt"), m.pop("mc.paths"), m.pop("mc.seed", DEFAULT_SEED)
                )
            sc = cls(
                id=_text("id", m.pop("id")),
                model=_text("model", m.pop("model")),
                solution=_text("solution", m.pop("solution")),
                x=_items(_real, "x", m.pop("x")),
                t_min=_real("t.min", m.pop("t.min")),
                t_max=_real("t.max", m.pop("t.max")),
                t_count=_whole("t.count", m.pop("t.count", 16)),
                t_spacing=_text("t.spacing", m.pop("t.spacing", "log")),
                window=window,
                mc=mc,
                domains=_items(_text, "domains", m.pop("domains", [])),
                analyses=_items(_text, "analyses", m.pop("analyses", ["entropy-curve"])),
                bounds_delta=_real("bounds.delta", m.pop("bounds.delta", 1.0)),
            )
        except KeyError as exc:
            raise ConfigError(f"missing config key {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        if m:
            raise ConfigError(f"unknown config keys: {sorted(m)}")
        sc.validate()
        return sc

    def validate(self):
        """Check the scenario; returns the (model, sol, kern, x, doms) it built."""
        try:
            built = self.build()
            model, _, _, _, doms = built
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
        if "classify" in self.analyses:
            try:
                analysis.require_classifiable(self.t_grid())
            except InsufficientCurve as exc:
                raise ConfigError(f"scenario {self.id!r}: classify: {exc}") from None
        if "local" in self.analyses and (self.mc is None or not self.domains):
            raise ConfigError(
                f"scenario {self.id!r}: the local analysis needs mc.* settings and domains"
            )
        if "divergence" in self.analyses and model.kind != geometry.PUNCTURED_3:
            # the divergence tables refine toward the puncture
            raise ConfigError(
                f"scenario {self.id!r}: the divergence analysis needs model "
                f"'punctured-3', got {self.model!r}"
            )
        if "rigidity" in self.analyses and self.t_count < 3:
            # two times always fit a line; run's subsample of t_grid keeps
            # at least three of any three or more
            raise ConfigError(
                f"scenario {self.id!r}: the rigidity analysis needs t.count >= 3, "
                f"got {self.t_count}"
            )
        if not (math.isfinite(self.bounds_delta) and self.bounds_delta > 0):
            raise ConfigError(
                f"scenario {self.id!r}: bounds.delta must be positive and finite, "
                f"got {self.bounds_delta!r}"
            )
        if self.mc is not None:
            horizon = self._mc_horizon()
            # the tolerance of geometry's check_time, which simulate applies
            if horizon > t1 + geometry.TIME_TOL:
                raise ConfigError(
                    f"scenario {self.id!r}: mc.dt = {self.mc.dt} steps to "
                    f"t = {horizon:.12g}, past the window end {t1}"
                )
        return built

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
        kern = kernels.canonical_kernel(model, x)
        doms = [stochastic.parse_domain(d) for d in self.domains]
        return model, sol, kern, x, doms


def _whole(key, value):
    """An integer config value; integral floats such as 2.5e4 are accepted."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def _real(key, value):
    """A number config value as a float; true and "0.5" are refused, not
    read as 1.0 and 0.5."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{key} is too large for a float, got {value!r}") from None


def _text(key, value):
    """A string config value; 5 is refused, not read as "5"."""
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _items(read, key, value):
    """A list config value read entry by entry as ``read(f"{key}[i]", v)``;
    a string would otherwise iterate as characters."""
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list, got {value!r}")
    return tuple(read(f"{key}[{i}]", v) for i, v in enumerate(value))


def _sde_config(prefix, dt, paths, seed):
    """The `SdeConfig` of a config's ``mc.*`` values (``prefix`` "mc.") or of
    run overrides (prefix ""); each bad value is a ConfigError naming its key."""
    dt = _step(prefix + "dt", dt)
    n = _whole(prefix + "paths", paths)
    if n < 1:
        raise ConfigError(f"{prefix}paths must be at least 1, got {n}")
    if n > rng.MAX_PATHS:
        raise ConfigError(f"{prefix}paths must not exceed 2**36 (rng.MAX_PATHS), got {n}")
    seed = _whole(prefix + "seed", seed)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{prefix}seed must lie in [0, 2**64), got {seed}")
    return SdeConfig(dt=dt, n_paths=n, seed=seed)


def _step(key, value):
    """A positive, finite step size."""
    dt = _real(key, value)
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigError(f"{key} must be positive and finite, got {value!r}")
    return dt


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
        if level > MAX_LEVEL:
            raise ConfigError(f"refine must not exceed {MAX_LEVEL}, got {level}")
    built = scenario.validate()
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run_stages(scenario, built, outdir, level)
    except EntroflowError as exc:
        exc.args = (f"scenario {scenario.id!r}: {exc}",) + exc.args[1:]
        raise


def _run_stages(scenario, built, outdir, level) -> RunManifest:
    model, sol, kern, x, doms = built
    t_grid = scenario.t_grid()
    outputs = []
    clocks = {}
    report = {"scenario_id": scenario.id}

    ensemble = None
    if scenario.mc is not None:
        with _timed(clocks, "simulate"):
            mc_times = _mc_times(t_grid, scenario.mc.dt)
            ensemble = stochastic.simulate(
                model, x, scenario._mc_horizon(), scenario.mc, record_times=mc_times
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
                    sol, ensemble, mc_times, with_conditions=False
                )
                mc_curve.to_csv(outdir / "entropy_mc.csv")
                outputs.append("entropy_mc.csv")

    if "local" in scenario.analyses:
        with _timed(clocks, "local"):
            table = entropy.local_entropy(sol, ensemble, doms, mc_times)
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
            corollaries = asdict(analysis.corollary_bounds(
                sol, kern, t_ref, scenario.bounds_delta, level=level
            ))
            report["bounds"] = {
                "t": t_ref,
                "gradient": _jsonable(corollaries.pop("gradient")),
                "corollaries": _jsonable(corollaries),
            }

    if "classify" in scenario.analyses:
        with _timed(clocks, "classify"):
            if curve is None:
                curve = entropy.entropy_curve(
                    sol, kern, t_grid, level=level, with_conditions=False
                )
            rep = analysis.classify_growth(sol, kern, curve)
            report["classify"] = _jsonable(asdict(rep))

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
            rep = analysis.divergence_demo(sol, kern, t_ref)
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
    mc = _sde_config(
        "", overrides.get("dt", mc.dt), overrides.get("paths", mc.n_paths),
        overrides.get("seed", mc.seed),
    )
    return replace(sc, mc=mc)


def _mc_times(t_grid, dt):
    """The grid's times snapped onto the step grid (within half a step),
    sorted and without repeats: the snapshots a Monte Carlo run records and
    reads.  None passes the horizon, t.max rounded up to a whole step."""
    return np.asarray(sorted({round(t / dt) * dt for t in t_grid}))


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
