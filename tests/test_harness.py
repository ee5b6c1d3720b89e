import filecmp
import json
import math
import os
import re
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflow import analysis, geometry, kernels, quadrature, solutions, stochastic
from entroflow.errors import ChartViolation, ConfigError, OutOfWindow
from entroflow.harness import (
    ANALYSES,
    Scenario,
    _apply_overrides,
    _jsonable,
    bundled_scenarios,
    load_scenario,
    parse_config_text,
    parse_scenario,
    run,
)


def scenario_text(sc):
    """The round-trip oracle: a Scenario written back as flat config text."""
    m = {"id": sc.id, "model": sc.model}
    if sc.window is not None:
        m["window.max"] = sc.window[1]
    m.update({
        "solution": sc.solution, "x": sc.x,
        "t.min": sc.t_min, "t.max": sc.t_max, "t.count": sc.t_count,
        "t.spacing": sc.t_spacing,
    })
    if sc.mc is not None:
        m.update({"mc.paths": sc.mc.n_paths, "mc.dt": sc.mc.dt, "mc.seed": sc.mc.seed})
    m.update({"domains": sc.domains, "analyses": sc.analyses, "bounds.delta": sc.bounds_delta})
    return "".join(f"{k} = {_format_value(v)}\n" for k, v in m.items())


def _format_value(v):
    if isinstance(v, str):
        return f'"{v}"'
    if isinstance(v, tuple):
        return "[" + ", ".join(_format_value(x) for x in v) + "]"
    return repr(v)


MINIMAL = """
id = "line-eternal"
model = "euclidean-line"
solution = "expline:1,1"
x = [0.0]
t.min = 0.25
t.max = 4.0
"""


def test_parse_minimal_scenario():
    sc = parse_scenario(MINIMAL)
    assert sc.id == "line-eternal"
    assert sc.mc is None
    assert sc.t_count == 16


def test_round_trip_is_identity():
    sc = parse_scenario(MINIMAL)
    again = parse_scenario(scenario_text(sc))
    assert again == sc
    third = parse_scenario(scenario_text(again))
    assert third == again


def test_bundled_scenarios_all_parse():
    paths = bundled_scenarios()
    assert len(paths) >= 5
    for name, path in paths.items():
        sc = load_scenario(path)
        assert parse_scenario(scenario_text(sc)) == sc


# each bundled config's output files and analysis.json reports
_BUNDLED_OUTPUTS = {
    "circle_shrinking": (
        {"entropy.csv", "entropy_mc.csv", "analysis.json"}, {"bounds", "rigidity"}
    ),
    "line_eternal": (
        {"entropy.csv", "entropy_mc.csv", "local.csv", "analysis.json"},
        {"local", "bounds", "classify", "separation"},
    ),
    "line_general_exponential": ({"entropy.csv", "analysis.json"}, {"classify", "separation"}),
    "punctured_divergence": ({"analysis.json"}, {"divergence"}),
    "sphere_ricci_flow": ({"entropy.csv", "analysis.json"}, {"bounds"}),
}


@pytest.mark.parametrize("name", sorted(_BUNDLED_OUTPUTS))
def test_bundled_config_runs(name, tmp_path):
    # every analysis branch of the run pipeline, rigidity and divergence
    # included, at a small path count; only configs with mc.* take one
    files, reports = _BUNDLED_OUTPUTS[name]
    path = bundled_scenarios()[name]
    overrides = {"paths": 2000} if load_scenario(path).mc is not None else None
    manifest = run(path, tmp_path, overrides=overrides)
    assert set(manifest.outputs) == files
    report = json.loads((tmp_path / "analysis.json").read_text())
    assert set(report) == {"scenario_id"} | reports
    if "bounds" in reports:
        assert report["bounds"]["gradient"]["holds"]
        assert report["bounds"]["corollaries"]["delta_bound_holds"]
    if "rigidity" in reports:
        assert report["rigidity"]["consistent"]
    if "divergence" in reports:
        assert report["divergence"]["entropy_stable"]
        assert report["divergence"]["prime_divergent"]


def test_readme_config_example_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Scenario configs", 1)[1]
    block = section.split("```\n", 2)[1]
    sc = parse_scenario(block)
    assert sc.id == "line-eternal"
    # every analysis but divergence, which needs the punctured space
    assert sc.analyses == tuple(a for a in ANALYSES if a != "divergence")
    assert sc.domains == ("interval:-1,1", "interval:-2,2")


def test_run_records_only_the_snapshots_it_reads(tmp_path, monkeypatch):
    # the Monte Carlo curve and the local entropies read the t grid snapped
    # to whole steps; simulate records those times and no others
    recorded = []
    simulate = stochastic.simulate

    def spy(*args, record_times=None, **kwargs):
        recorded.append(list(record_times))
        ensemble = simulate(*args, record_times=record_times, **kwargs)
        recorded.append(ensemble.times.tolist())
        return ensemble

    monkeypatch.setattr(stochastic, "simulate", spy)
    sc = load_scenario(bundled_scenarios()["line_eternal"])
    run(sc, tmp_path, overrides={"paths": 2000})
    dt = sc.mc.dt
    snapped = [k * dt for k in np.round(sc.t_grid() / dt).astype(int)]
    assert recorded[0] == snapped
    assert recorded[1] == [0.0] + snapped
    mc_times = [
        float(line.split(",")[0])
        for line in (tmp_path / "entropy_mc.csv").read_text().splitlines()[1:]
    ]
    assert mc_times == snapped


def test_grammar_values():
    m = parse_config_text(
        's = "a,b"\nn = 3\nf = 1.5e-3\nflag = true\nxs = [1, 2.5]\nss = ["a", "b"]\n'
        "# comment\nc = 1 # trailing\n"
    )
    assert m == {
        "s": "a,b", "n": 3, "f": 1.5e-3, "flag": True,
        "xs": [1, 2.5], "ss": ["a", "b"], "c": 1,
    }


@given(
    a=st.floats(0.1, 5.0, allow_nan=False),
    b=st.floats(-3.0, 3.0, allow_nan=False),
    tmin=st.floats(0.1, 0.5),
    count=st.integers(2, 32),
    spacing=st.sampled_from(["log", "linear"]),
)
@settings(max_examples=30, deadline=None)
def test_round_trip_property(a, b, tmin, count, spacing):
    sc = Scenario(
        id="prop", model="euclidean-line", solution=f"expline:{a:g},{b:g}",
        x=(0.0,), t_min=tmin, t_max=4.0, t_count=count, t_spacing=spacing,
    )
    sc.validate()
    assert parse_scenario(scenario_text(sc)) == sc


def test_validation_errors():
    with pytest.raises(ConfigError):
        parse_scenario(MINIMAL.replace('"euclidean-line"', '"nope"'))
    with pytest.raises(ConfigError):
        parse_scenario(MINIMAL.replace("t.max = 4.0", "t.max = 99.0"))
    with pytest.raises(ConfigError):
        parse_scenario(MINIMAL.replace("t.min = 0.25", "t.min = 0.0"))
    with pytest.raises(ConfigError):
        parse_scenario(MINIMAL + 'unknown.key = 1\n')
    with pytest.raises(ConfigError):
        parse_scenario(MINIMAL + 'analyses = ["nope"]\n')
    # the shrinking-circle window bound is enforced
    bad = """
id = "bad-window"
model = "circle:1,-0.1"
window.max = 1.25
solution = "circle-spec:2,(1,0.5,0)"
x = [0.0]
t.min = 0.5
t.max = 3.0
"""
    with pytest.raises(ConfigError, match=r"t grid \[0.5, 3.0\] outside the model window"):
        parse_scenario(bad)


MC_BLOCK = MINIMAL + "mc.paths = 2000\nmc.dt = 0.001\nmc.seed = 12648430\n"
CIRCLE = bundled_scenarios()["circle_shrinking"].read_text()
SPHERE = bundled_scenarios()["sphere_ricci_flow"].read_text()


@pytest.mark.parametrize("count", [2, 3])
def test_rigidity_needs_three_grid_times(count, tmp_path):
    # two times always fit a line: the shrinking circle's nonconstant
    # solution read as linear entropy and a false counterexample
    cfg = tmp_path / "c.cfg"
    text = CIRCLE.replace("t.count = 12", f"t.count = {count}")
    cfg.write_text(text.replace('"bounds", "rigidity"', '"rigidity"'))
    out = tmp_path / "out"
    if count < 3:
        with pytest.raises(ConfigError, match=r"rigidity analysis needs t.count >= 3, got 2"):
            run(cfg, out)
        assert not out.exists()
        return
    run(cfg, out, {"paths": 1000})
    rep = json.loads((out / "analysis.json").read_text())["rigidity"]
    assert rep["antecedent"] and not rep["entropy_linear"] and rep["consistent"]


GENERAL = bundled_scenarios()["line_general_exponential"].read_text()


@pytest.mark.parametrize(
    "text, message",
    [
        (GENERAL.replace('"classify", "separation"', '"local"'),
         "the local analysis needs mc.* settings and domains"),
        (GENERAL + 'domains = ["interval:-1,1"]\n',
         "domains are read only by the local analysis, which the config does not run"),
        (GENERAL.replace("t.count = 16", "t.count = 4"),
         "classify: need >= 8 points spanning at least a decade"),
        (GENERAL.replace('"entropy-curve", "classify", "separation"', '"divergence"'),
         "the divergence analysis needs model 'punctured-3', got 'euclidean-line'"),
    ],
    ids=["local-without-mc", "domains-without-local", "classify-short-grid",
         "divergence-off-the-punctured-space"],
)
def test_analysis_needs_are_config_errors(text, message, tmp_path):
    # both used to fail only after entropy.csv was written
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=re.escape(message)):
        run(cfg, out)
    assert not out.exists()


def test_divergence_tables_start_at_the_scenario_point(tmp_path):
    # the divergence analysis used to start every kernel at (1, 0, 0)
    text = bundled_scenarios()["punctured_divergence"].read_text()
    cfg = tmp_path / "p.cfg"
    cfg.write_text(text.replace("x = [1.0, 0.0, 0.0]", "x = [2.0, 0.0, 0.0]"))
    sc = load_scenario(cfg)
    assert sc.x == (2.0, 0.0, 0.0)
    run(cfg, tmp_path / "out")
    report = json.loads((tmp_path / "out" / "analysis.json").read_text())
    t_ref = float(sc.t_grid()[sc.t_count // 2])
    model = geometry.punctured3()
    expected = analysis.divergence_demo(
        solutions.RadialHarmonic3(model),
        kernels.GaussianKernel(np.array([2.0, 0.0, 0.0]), model), t_ref,
    )
    assert report["divergence"] == json.loads(json.dumps(_jsonable(asdict(expected))))


def test_bounds_stage_runs_the_gradient_check_once(tmp_path, monkeypatch):
    # the stage used to call gradient_entropy_check, then corollary_bounds,
    # which ran the same quadrature again
    calls = []
    check = analysis.gradient_entropy_check

    def counted(*args, **kwargs):
        calls.append(args[2])
        return check(*args, **kwargs)

    monkeypatch.setattr(analysis, "gradient_entropy_check", counted)
    cfg = tmp_path / "b.cfg"
    cfg.write_text(GENERAL.replace('"entropy-curve", "classify", "separation"', '"bounds"'))
    run(cfg, tmp_path / "out")
    report = json.loads((tmp_path / "out" / "analysis.json").read_text())["bounds"]
    assert calls == [report["t"]]
    assert report["gradient"]["holds"] and "gradient" not in report["corollaries"]


def test_run_builds_a_config_once(tmp_path, monkeypatch):
    # loading validates, which builds the scenario, and run reuses that
    # build; it used to validate again, and before that build a third time
    built = []
    build = Scenario.build

    def counted(sc):
        built.append(build(sc))
        return built[-1]

    monkeypatch.setattr(Scenario, "build", counted)
    run(bundled_scenarios()["punctured_divergence"], tmp_path / "out")
    assert len(built) == 1
    assert (tmp_path / "out" / "analysis.json").is_file()
    # an override that changes the scenario's mc validates it again
    cfg = tmp_path / "mc.cfg"
    cfg.write_text(MC_BLOCK)
    for overrides, builds in (({"refine": 1}, 1), ({"paths": 50}, 2)):
        built.clear()
        run(cfg, tmp_path / "mc", overrides=overrides)
        assert len(built) == builds, overrides


def test_a_window_must_start_at_zero(tmp_path):
    # the motion, the kernel and the clock s(t) all start at t = 0, so a
    # config sets only the window's end; window.min, whose one valid value
    # was 0, is an unknown key, refused before the output directory is made
    with pytest.raises(ValueError, match=r"time window \(1.0, 2.0\) must start at 0"):
        geometry.circle(-1.0, 2.0, time_window=(1.0, 2.0))
    for start in ("0.0", "1.0"):
        cfg = tmp_path / "w.cfg"
        cfg.write_text(CIRCLE + f"window.min = {start}\n")
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=re.escape("unknown config keys: ['window.min']")):
            run(cfg, out)
        assert not out.exists()


def test_window_max_alone_sets_a_window_from_zero():
    # perfbench reads Scenario.window as a (start, end) pair
    sc = parse_scenario(CIRCLE)
    assert sc.window == (0.0, 1.25)
    assert sc.build()[0].time_window == (0.0, 1.25)
    assert parse_scenario(MINIMAL).window is None


def test_run_simulates_its_domains_with_one_replay(tmp_path, monkeypatch):
    # the local stage reads the exits simulate found; nothing replays later
    replays = []
    replay = stochastic.replay_exits

    def counted(ens, domains):
        replays.append(list(domains))
        return replay(ens, domains)

    monkeypatch.setattr(stochastic, "replay_exits", counted)
    sc = load_scenario(bundled_scenarios()["line_eternal"])
    run(sc, tmp_path, overrides={"paths": 200})
    assert replays == [[stochastic.parse_domain(d) for d in sc.domains]]
    assert (tmp_path / "local.csv").read_text().count("\n") == 1 + 4 * 16


def test_run_validates_a_scenario_it_is_handed(tmp_path):
    # this used to simulate 50k paths and write two CSVs before the
    # rigidity analysis found the grid too short
    sc = replace(load_scenario(bundled_scenarios()["circle_shrinking"]), t_count=2)
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=r"rigidity analysis needs t.count >= 3, got 2"):
        run(sc, out)
    assert not out.exists()


_LINE_KERNEL = kernels.GaussianKernel(np.zeros(1), geometry.line())
_SHRINKING = geometry.circle(1.0, -0.1, time_window=(0.0, 1.25))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: stochastic.SdeConfig(dt=1e-3, n_paths=100.7), ValueError, "n_paths"),
        (lambda: stochastic.SdeConfig(dt=1e-3, n_paths=10, seed=1.5), ValueError, "seed"),
        (lambda: stochastic.SdeConfig(dt=1e-3, n_paths=10, seed=-1), ValueError, "seed"),
        (lambda: stochastic.SdeConfig(dt=1e-3, n_paths=10, seed=2**64), ValueError, "seed"),
        (lambda: stochastic.SdeConfig(dt=math.nan, n_paths=10), ValueError, "dt"),
        (lambda: stochastic.SdeConfig(dt=math.inf, n_paths=10), ValueError, "dt"),
        (lambda: parse_scenario(MC_BLOCK.replace("mc.paths = 2000", "mc.paths = 100.7")),
         ConfigError, "mc.paths"),
        (lambda: parse_scenario(MC_BLOCK.replace("mc.seed = 12648430", "mc.seed = 7.9")),
         ConfigError, "mc.seed"),
        (lambda: parse_scenario(MC_BLOCK.replace("mc.dt = 0.001", 'mc.dt = "nan"')),
         ConfigError, "mc.dt"),
        (lambda: parse_scenario(MC_BLOCK.replace("mc.dt = 0.001", 'mc.dt = "inf"')),
         ConfigError, "mc.dt"),
        (lambda: parse_scenario(MC_BLOCK.replace("mc.dt = 0.001", "mc.dt = -0.001")),
         ConfigError, "mc.dt"),
        (lambda: parse_scenario(MINIMAL + "t.count = 8.5\n"), ConfigError, "t.count"),
        (lambda: Scenario(id="direct", model="euclidean-line", solution="expline:1,1",
                          x=(0.0,), t_min=0.25, t_max=4.0, t_count=8.5).validate(),
         ConfigError, "t.count"),
        (lambda: _apply_overrides(parse_scenario(MC_BLOCK), {"paths": 100.7}),
         ConfigError, "paths"),
        (lambda: _apply_overrides(parse_scenario(MC_BLOCK), {"dt": math.nan}),
         ConfigError, "dt"),
        # path indices from 2**36 on would wrap onto smaller ones in the counter
        (lambda: stochastic.SdeConfig(dt=1e-3, n_paths=2**36 + 1), ValueError, "n_paths"),
        (lambda: parse_scenario(MC_BLOCK.replace("mc.paths = 2000", "mc.paths = 68719476737")),
         ConfigError, "mc.paths must not exceed 2**36"),
        (lambda: _apply_overrides(parse_scenario(MC_BLOCK), {"paths": 2**36 + 1}),
         ConfigError, "paths must not exceed 2**36"),
        # one step past the counter capacity, refused before any step is taken
        (lambda: stochastic.simulate(
            geometry.line(), [0.0], (2**24 + 1) * 2.0**-24,
            stochastic.SdeConfig(dt=2.0**-24, n_paths=1)),
         ValueError, "steps exceed the counter capacity"),
        # refused before the output directory is made, which here could not be
        (lambda: run(parse_scenario(MINIMAL), Path(os.devnull) / "out",
                     overrides={"refine": -1}),
         ConfigError, "refine must not be negative"),
        (lambda: run(parse_scenario(MINIMAL), Path(os.devnull) / "out",
                     overrides={"refine": 1.5}),
         ConfigError, "refine must be a whole number"),
        (lambda: quadrature.build_grid(geometry.line(), [0.0], 0.5, level=-1),
         ValueError, "level must be a non-negative integer"),
        (lambda: quadrature.build_grid(geometry.line(), [0.0], 0.5, level=0.5),
         ValueError, "level must be a non-negative integer"),
        (lambda: kernels.kernel_mass(_LINE_KERNEL, 0.5, level=True),
         ValueError, "level must be a non-negative integer"),
        # a bool is a number to Python; dt = True would step with dt = 1
        (lambda: stochastic.SdeConfig(dt=True, n_paths=10), ValueError, "dt must be"),
        (lambda: stochastic.simulate(
            geometry.line(), [0.0], 0.1, stochastic.SdeConfig(dt=0.01, n_paths=4),
            record_times=[math.inf]),
         ValueError, "record time inf is not finite"),
        (lambda: stochastic.simulate(
            geometry.line(), [0.0], 0.1, stochastic.SdeConfig(dt=0.01, n_paths=4),
            record_times=[math.nan]),
         ValueError, "record time nan is not finite"),
        # these used to return an all-NaN ensemble
        (lambda: stochastic.simulate(
            geometry.line(), [math.nan], 0.1, stochastic.SdeConfig(dt=0.01, n_paths=4)),
         ChartViolation, "chart points must be finite"),
        (lambda: stochastic.simulate(
            geometry.line(), [0.0], math.nan, stochastic.SdeConfig(dt=0.01, n_paths=4)),
         OutOfWindow, "not a finite time"),
        # these used to run to an all-NaN entropy.csv, or fail deep in a kernel
        (lambda: parse_scenario(MINIMAL.replace("expline:1,1", "expline:nan,1")),
         ConfigError, "a and b must be finite"),
        (lambda: parse_scenario(CIRCLE.replace("circle-spec:2,(1,0.5,0)",
                                               "circle-spec:nan,(1,0.5)")),
         ConfigError, "a0 must be finite"),
        (lambda: parse_scenario(CIRCLE.replace('"circle:1,-0.1"', '"circle:nan,0"')),
         ConfigError, "must be finite"),
        (lambda: parse_scenario(MINIMAL.replace('"euclidean-line"', '"euclidean-line:5"')),
         ConfigError, "does not read euclidean-line"),
        (lambda: parse_scenario(MINIMAL.replace("expline:1,1", "expline:1")),
         ConfigError, "does not read expline:a,b"),
        # model kind, dimension and parameters
        (lambda: geometry.MetricModel("bogus", 1), ValueError, "unknown model kind"),
        (lambda: geometry.MetricModel("euclidean-line", 3), ValueError, "has dimension 1"),
        (lambda: geometry.MetricModel("euclidean-space", 2.5), ValueError, "dimension >= 1"),
        (lambda: geometry.circle(math.nan, 0.0), ValueError, "must be finite"),
        (lambda: geometry.sphere2(1.0, math.inf), ValueError, "must be finite"),
        (lambda: geometry.circle(1.0, 0.0, time_window=(0.0, math.inf)),
         ValueError, "must be finite"),
        (lambda: geometry.parse_model("punctured-3:1"), ValueError, "does not read punctured-3"),
        (lambda: geometry.parse_model("euclidean-space:2.5"),
         ValueError, "does not read euclidean-space:n"),
        (lambda: geometry.parse_model("circle:1"), ValueError, "does not read circle:c0,rate"),
        (lambda: geometry.parse_model("sphere2:one,2"),
         ValueError, "does not read sphere2:c0,rate"),
        # solution parameters and forms
        (lambda: solutions.parse_solution("const:nan", geometry.line()),
         ValueError, "must be finite"),
        (lambda: solutions.parse_solution("expline:1,inf", geometry.line()),
         ValueError, "must be finite"),
        (lambda: solutions.parse_solution("expsum:1,1;nan,2", geometry.line()),
         ValueError, "must be finite"),
        (lambda: solutions.parse_solution("circle-spec:2,(1,0.5,inf)", geometry.circle()),
         ValueError, "must be finite"),
        (lambda: solutions.parse_solution("circle-spec:2,(1.5,0.5)", geometry.circle()),
         ValueError, "mode numbers must be whole numbers >= 1"),
        (lambda: solutions.parse_solution("sphere-spec:nan,(1,0.5)", geometry.sphere2()),
         ValueError, "must be finite"),
        (lambda: solutions.parse_solution("sphere-spec:2,(1,nan)", geometry.sphere2()),
         ValueError, "must be finite"),
        (lambda: solutions.parse_solution("expsum:1,1;2", geometry.line()),
         ValueError, "does not read expsum:a1,b1;a2,b2;..."),
        (lambda: solutions.parse_solution("radial3:1", geometry.punctured3()),
         ValueError, "does not read radial3"),
        (lambda: solutions.parse_solution("circle-spec:2,(1,0.5", geometry.circle()),
         ValueError, "does not read circle-spec:a0,(k,ak,phik)..."),
        (lambda: solutions.parse_solution("sphere-spec:2,(1,0.5,0)", geometry.sphere2()),
         ValueError, "does not read sphere-spec:a0,(l,al)..."),
        # these used to fail later, with "max() arg is an empty sequence"
        (lambda: solutions.parse_solution("circle-spec:2", geometry.circle()),
         ValueError, "need at least one mode"),
        (lambda: solutions.parse_solution("sphere-spec:2", geometry.sphere2()),
         ValueError, "need at least one mode"),
        # used to build a 2-dimensional space
        (lambda: geometry.space(2.5), ValueError, "needs a whole dimension >= 1"),
        # -1 ran the earlier stages, then failed with a bare ValueError; 1e400
        # reported the delta bound as holding against an infinite right side
        (lambda: parse_scenario(MINIMAL + "bounds.delta = -1.0\n"),
         ConfigError, "bounds.delta must be positive and finite"),
        (lambda: parse_scenario(MINIMAL + "bounds.delta = 1e400\n"),
         ConfigError, "bounds.delta must be positive and finite"),
        # "path" used to run at the config's own path count; refused before
        # the output directory is made
        (lambda: run(parse_scenario(MC_BLOCK), Path(os.devnull) / "out",
                     overrides={"path": 500}),
         ConfigError, "unknown override keys ['path']"),
        # a too-coarse step was a bare ValueError from the config, and from
        # --dt a traceback after the output directory was made
        (lambda: parse_scenario(MC_BLOCK.replace("mc.dt = 0.001", "mc.dt = 1.0")),
         ConfigError, "dt must not exceed a tenth of the time window"),
        (lambda: run(parse_scenario(MC_BLOCK), Path(os.devnull) / "out",
                     overrides={"dt": 1.0}),
         ConfigError, "dt must not exceed a tenth of the time window"),
        # 1.25 rounds up to 417 steps of 0.003, past the window end 1.25
        (lambda: run(parse_scenario(CIRCLE), Path(os.devnull) / "out",
                     overrides={"dt": 0.003}),
         ConfigError, "mc.dt = 0.003 steps to t = 1.251, past the window end 1.25"),
        # the overrides were a bare ValueError from SdeConfig, the same values
        # in a config an error line that did not name the key
        (lambda: run(parse_scenario(CIRCLE), Path(os.devnull) / "out",
                     overrides={"paths": 0}),
         ConfigError, "paths must be at least 1, got 0"),
        (lambda: run(parse_scenario(CIRCLE), Path(os.devnull) / "out",
                     overrides={"seed": -1}),
         ConfigError, "seed must lie in [0, 2**64), got -1"),
        (lambda: parse_scenario(MC_BLOCK.replace("mc.paths = 2000", "mc.paths = 0")),
         ConfigError, "mc.paths must be at least 1, got 0"),
        (lambda: parse_scenario(MC_BLOCK.replace("mc.seed = 12648430", "mc.seed = -1")),
         ConfigError, "mc.seed must lie in [0, 2**64), got -1"),
        # levels past the deepest one ran out of memory after the Monte Carlo
        # run, or built grids too large to hold
        (lambda: run(parse_scenario(MINIMAL), Path(os.devnull) / "out",
                     overrides={"refine": 7}),
         ConfigError, "refine must not exceed 6"),
        (lambda: quadrature.build_grid(geometry.line(), [0.0], 0.5, level=7),
         ValueError, "level must not exceed MAX_LEVEL = 6"),
        # text outside the mode groups, and an empty parameter list, were
        # ignored
        (lambda: solutions.parse_solution("circle-spec:2,junk(1,0.5,0)", _SHRINKING),
         ValueError, "does not read circle-spec:a0,(k,ak,phik)..."),
        (lambda: solutions.parse_solution("circle-spec:2,(1,0.5,0)xyz", _SHRINKING),
         ValueError, "does not read circle-spec:a0,(k,ak,phik)..."),
        (lambda: geometry.parse_model("euclidean-line:"),
         ValueError, "does not read euclidean-line"),
    ],
    ids=["paths-fraction", "seed-fraction", "seed-negative", "seed-2**64",
         "dt-nan", "dt-inf", "mc.paths", "mc.seed", "mc.dt-nan", "mc.dt-inf",
         "mc.dt-negative", "t.count", "t.count-direct", "paths-override",
         "dt-override-nan", "paths-2**36", "mc.paths-2**36", "paths-override-2**36",
         "steps-beyond-counter", "refine-negative", "refine-fraction",
         "level-negative", "level-fraction", "level-bool", "dt-bool",
         "record-time-inf", "record-time-nan", "start-nan", "horizon-nan",
         "solution-nan", "circle-solution-nan", "model-nan", "model-extra-param",
         "solution-short", "model-kind", "model-dim", "model-dim-fraction",
         "model-c0-nan", "model-rate-inf", "model-window-inf", "model-spec-extra",
         "model-spec-fraction", "model-spec-short", "model-spec-word", "const-nan",
         "expline-inf", "expsum-nan", "circle-phase-inf", "circle-mode-fraction",
         "sphere-a0-nan", "sphere-amplitude-nan", "expsum-short-term", "radial3-param",
         "circle-spec-unbalanced", "sphere-spec-long", "circle-spec-no-modes",
         "sphere-spec-no-modes", "space-fraction", "bounds-delta-negative",
         "bounds-delta-inf", "override-unknown-key", "mc.dt-coarse",
         "dt-override-coarse", "dt-override-past-window", "paths-override-zero",
         "seed-override-negative", "mc.paths-zero", "mc.seed-negative",
         "refine-past-max", "level-past-max", "circle-spec-stray-head",
         "circle-spec-stray-tail", "model-spec-empty"],
)
def test_invalid_integer_inputs_fail_at_once(build, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build()


def test_a_horizon_within_the_time_tolerance_runs(monkeypatch):
    # 0.7 rounds up to 70 steps of 0.01 = 0.7000000000000001, one ulp past
    # the window end: validate and simulate both accept it, and both refuse
    # it without the shared tolerance
    sc = Scenario(
        id="edge", model="euclidean-line", solution="expline:1,1", x=(0.0,),
        t_min=0.1, t_max=0.7, window=(0.0, 0.7),
        mc=stochastic.SdeConfig(dt=0.01, n_paths=100),
    )
    horizon = sc._mc_horizon()
    assert 0.7 < horizon <= 0.7 + geometry.TIME_TOL
    sc.validate()
    model, _, _, x, _ = sc.build()
    ens = stochastic.simulate(model, x, horizon, sc.mc)
    assert ens.times[-1] == horizon
    monkeypatch.setattr(geometry, "TIME_TOL", 0.0)
    with pytest.raises(ConfigError, match="past the window end 0.7"):
        sc.validate()
    with pytest.raises(OutOfWindow):
        stochastic.simulate(model, x, horizon, sc.mc)


def test_integral_float_counts_are_accepted():
    sc = parse_scenario(MC_BLOCK.replace("mc.paths = 2000", "mc.paths = 2.5e4"))
    assert sc.mc.n_paths == 25_000 and type(sc.mc.n_paths) is int


def test_kernel_key_is_rejected():
    # the kernel follows from the model; kernel is no longer a setting
    with pytest.raises(ConfigError, match=re.escape("unknown config keys: ['kernel']")):
        parse_scenario(MINIMAL + 'kernel = "auto"\n')


def test_scheme_key_is_rejected():
    # the scheme follows from the model; mc.scheme is no longer a setting
    with pytest.raises(ConfigError, match="mc.scheme"):
        parse_scenario(MC_BLOCK + 'mc.scheme = "euler"\n')


def test_tables_read_as_dotted_keys():
    tabled = MINIMAL + "[mc]\npaths = 2000\ndt = 0.001\nseed = 12648430\n"
    assert parse_scenario(tabled) == parse_scenario(MC_BLOCK)


@pytest.mark.parametrize(
    "text, message",
    [
        (SPHERE.replace("x = [1.0, 0.0, 0.0]", 'x = "100"'), "x must be a list, got '100'"),
        (MINIMAL + 'domains = ""\n', "domains must be a list, got ''"),
        (MINIMAL + 'analyses = "local"\n', "analyses must be a list, got 'local'"),
        (MINIMAL.replace("x = [0.0]", "x = 0.0"), "x must be a list, got 0.0"),
    ],
    ids=["x-string", "domains-string", "analyses-string", "x-number"],
)
def test_list_keys_refuse_strings_and_scalars(text, message):
    # a string used to iterate as its characters: x = "100" was the point (1, 0, 0)
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_scenario(text)


_NUMERIC = MC_BLOCK + "window.max = 8.0\nt.count = 16\nbounds.delta = 1.0\n"
_TYPED = _NUMERIC + (
    't.spacing = "log"\ndomains = ["interval:-1,1"]\n'
    'analyses = ["entropy-curve", "local"]\n'
)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("t.max", "true", "t.max must be a number, got True"),
        ("t.min", '"0.5"', "t.min must be a number, got '0.5'"),
        ("window.max", "false", "window.max must be a number, got False"),
        ("bounds.delta", "true", "bounds.delta must be a number, got True"),
        ("x", "[true]", "x[0] must be a number, got True"),
        ("mc.dt", '"0.001"', "mc.dt must be a number, got '0.001'"),
        ("t.max", "1" + "0" * 400, "t.max is too large for a float"),
        ("id", "5", "id must be a string, got 5"),
        ("model", "1", "model must be a string, got 1"),
        ("t.spacing", "1", "t.spacing must be a string, got 1"),
        ("domains", "[5]", "domains[0] must be a string, got 5"),
        ("analyses", '["entropy-curve", 2]', "analyses[1] must be a string, got 2"),
    ],
    ids=["t.max-bool", "t.min-string", "window.max-bool", "bounds.delta-bool", "x-bool",
         "mc.dt-string", "t.max-overflow", "id-int", "model-int",
         "t.spacing-int", "domains-int", "analyses-int"],
)
def test_config_values_of_the_wrong_type_are_refused(key, value, message):
    # float() and str() used to coerce: t.max = true read as 1.0, id = 5 as "5"
    parse_scenario(_TYPED)  # valid as it stands
    text = re.sub(rf"(?m)^{re.escape(key)} = .*$", f"{key} = {value}", _TYPED)
    assert text != _TYPED
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_scenario(text)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", ".5", "1."])
@pytest.mark.parametrize(
    "key",
    ["t.min", "t.max", "t.count", "window.min", "window.max", "mc.paths", "mc.dt",
     "mc.seed", "bounds.delta", "x"],
)
def test_inf_nan_and_bare_decimal_points_are_refused(key, value):
    # TOML reads bare inf and nan as floats, which validation refuses; it
    # refuses .5 and 1. at the line they are on.  window.min is no longer a
    # key: a config that still sets it is refused whatever the value
    parse_scenario(_NUMERIC)  # valid as it stands
    lines = _NUMERIC.splitlines()
    if key == "window.min":
        lines.append("window.min = 0.0")
    lineno = next(i for i, line in enumerate(lines, 1) if line.startswith(f"{key} = "))
    lines[lineno - 1] = f"{key} = [{value}]" if key == "x" else f"{key} = {value}"
    match = None
    if value in (".5", "1."):
        match = rf"at line {lineno}, column"
    elif key == "window.min":
        match = re.escape("unknown config keys: ['window.min']")
    with pytest.raises(ConfigError, match=match):
        parse_scenario("\n".join(lines) + "\n")


def test_duplicate_and_malformed_lines():
    with pytest.raises(ConfigError):
        parse_config_text("a = 1\na = 2\n")
    with pytest.raises(ConfigError):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError):
        parse_config_text("a = [1, 2\n")
    # a quoted key and a dotted key are two TOML keys that flatten to one
    with pytest.raises(ConfigError, match=re.escape("duplicate key 't.min'")):
        parse_config_text('"t.min" = 1\nt.min = 2\n')


def test_run_pipeline_and_reproducibility(tmp_path):
    text = """
id = "tiny"
model = "euclidean-line"
solution = "expline:1,1"
x = [0.0]
t.min = 0.25
t.max = 2.5
t.count = 8
t.spacing = "log"
mc.paths = 2000
mc.dt = 0.001
mc.seed = 12648430
domains = ["interval:-1,1", "interval:-2,2"]
analyses = ["entropy-curve", "conditions", "local", "bounds", "classify", "separation"]
"""
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(text)
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    man1 = run(cfg, out1)
    man2 = run(cfg, out2)
    assert set(man1.outputs) == {
        "entropy.csv", "entropy_mc.csv", "local.csv", "analysis.json"
    }
    for name in man1.outputs:
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name
    assert (out1 / "manifest.json").exists()
    assert man1.seed == 12648430
    header = (out1 / "entropy.csv").read_text().splitlines()[0]
    assert header.startswith(
        "t,E,E_stderr,Eprime,Eprime_stderr,Esecond,Esecond_stderr,cond1,cond2,cond0a,method"
    )
    header = (out1 / "local.csv").read_text().splitlines()[0]
    assert header == "domain_index,t,E_D,stderr,censored_frac"


def test_run_overrides(tmp_path):
    cfg = bundled_scenarios()["line_eternal"]
    out = tmp_path / "out"
    man = run(cfg, out, overrides={"paths": 500, "seed": 99, "refine": 1})
    assert man.seed == 99
    assert man.refinement_level == 1


def test_overrides_without_monte_carlo_are_named(tmp_path):
    # paths, dt and seed act on nothing in a config without mc.*; they are
    # not refused (one seed may be passed to every config of a batch), but
    # they used to be dropped without a sign
    cfg = bundled_scenarios()["sphere_ricci_flow"]
    with pytest.warns(UserWarning, match=re.escape("ignoring overrides ['dt', 'paths', 'seed']")):
        man = run(cfg, tmp_path, overrides={"seed": 3, "paths": 500, "dt": 0.01})
    assert man.seed is None
    with pytest.warns(UserWarning, match=re.escape("ignoring overrides ['seed']")):
        _apply_overrides(parse_scenario(MINIMAL), {"seed": 3, "refine": 1})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _apply_overrides(parse_scenario(MINIMAL), {"refine": 1})
        assert _apply_overrides(parse_scenario(MC_BLOCK), {"seed": 3}).mc.seed == 3


def test_wrong_diffusion_scale_fails_the_marginal_law(line_model, monkeypatch):
    # negative control: remove the factor-of-two speedup and the marginal
    # law check must reject the samples
    import entroflow.stochastic as stoch
    from scipy import stats

    original = stoch._advance

    def slowed(model, states, t, dt, xi, blown):
        return original(model, states, t, dt / 2.0, xi, blown)

    monkeypatch.setattr(stoch, "_advance", slowed)
    cfg = stochastic.SdeConfig(dt=1e-3, n_paths=20_000, seed=4)
    ens = stoch.simulate(line_model, [0.0], 0.5, cfg, record_times=[0.5])
    ks = stats.kstest(ens.state_at(0.5)[:, 0], stats.norm(scale=math.sqrt(1.0)).cdf)
    assert ks.statistic > 1.6276 / math.sqrt(20_000)


def test_cli_entry_points(tmp_path, capsys):
    from entroflow.cli import main

    assert main(["list-models"]) == 0
    assert main(["list-solutions"]) == 0
    out = capsys.readouterr().out
    assert "euclidean-line" in out and "expline:a,b" in out

    cfg = tmp_path / "t.cfg"
    cfg.write_text(MINIMAL + 'analyses = ["entropy-curve"]\n')
    code = main(["run", str(cfg), "-o", str(tmp_path / "o"), "--refine", "1"])
    assert code == 0
    assert (tmp_path / "o" / "entropy.csv").exists()
    assert (tmp_path / "o" / "manifest.json").exists()

    # a NaN parameter is a config error, not an all-NaN run
    capsys.readouterr()
    cfg.write_text(MINIMAL.replace("expline:1,1", "expline:nan,1"))
    assert main(["run", str(cfg), "-o", str(tmp_path / "nan")]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "nan").exists()


def test_list_commands_print_the_catalogs(capsys):
    from entroflow.cli import main

    assert main(["list-models"]) == 0
    assert capsys.readouterr().out.splitlines() == list(geometry.CATALOG_IDS)
    assert main(["list-solutions"]) == 0
    assert capsys.readouterr().out.splitlines() == list(solutions.CATALOG_IDS)
