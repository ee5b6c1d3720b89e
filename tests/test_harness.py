import filecmp
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflow import geometry, kernels, quadrature, stochastic
from entroflow.errors import ChartViolation, ConfigError, OutOfWindow
from entroflow.harness import (
    Scenario,
    _apply_overrides,
    bundled_scenarios,
    load_scenario,
    parse_config_text,
    parse_scenario,
    run,
    scenario_text,
)


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
    assert sc.kernel == "auto"
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
window.min = 0.0
window.max = 1.25
solution = "circle-spec:2,(1,0.5,0)"
x = [0.0]
t.min = 0.5
t.max = 3.0
"""
    with pytest.raises(ConfigError) as err:
        parse_scenario(bad)
    assert "window" in str(err.value)


MC_BLOCK = MINIMAL + "mc.paths = 2000\nmc.dt = 0.001\nmc.seed = 12648430\n"
_LINE_KERNEL = kernels.GaussianKernel(np.zeros(1), geometry.line())


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
        (lambda: kernels.kernel_mass(_LINE_KERNEL, _LINE_KERNEL.model, 0.5, level=True),
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
    ],
    ids=["paths-fraction", "seed-fraction", "seed-negative", "seed-2**64",
         "dt-nan", "dt-inf", "mc.paths", "mc.seed", "mc.dt-nan", "mc.dt-inf",
         "mc.dt-negative", "t.count", "t.count-direct", "paths-override",
         "dt-override-nan", "paths-2**36", "mc.paths-2**36", "paths-override-2**36",
         "steps-beyond-counter", "refine-negative", "refine-fraction",
         "level-negative", "level-fraction", "level-bool", "dt-bool",
         "record-time-inf", "record-time-nan", "start-nan", "horizon-nan"],
)
def test_invalid_integer_inputs_fail_at_once(build, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build()


def test_integral_float_counts_are_accepted():
    sc = parse_scenario(MC_BLOCK.replace("mc.paths = 2000", "mc.paths = 2.5e4"))
    assert sc.mc.n_paths == 25_000 and type(sc.mc.n_paths) is int


def test_scheme_key_is_rejected():
    # the scheme follows from the model; mc.scheme is no longer a setting
    with pytest.raises(ConfigError, match="mc.scheme"):
        parse_scenario(MC_BLOCK + 'mc.scheme = "euler"\n')


def test_duplicate_and_malformed_lines():
    with pytest.raises(ConfigError):
        parse_config_text("a = 1\na = 2\n")
    with pytest.raises(ConfigError):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError):
        parse_config_text("a = [1, 2\n")


def test_run_pipeline_and_reproducibility(tmp_path):
    text = """
id = "tiny"
model = "euclidean-line"
solution = "expline:1,1"
kernel = "auto"
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
