"""What ``import entroflow`` loads and starts: numpy and scipy.special, no thread."""

import os
import subprocess
import sys
from pathlib import Path

import entroflow

PROBE = """
import sys
import entroflow, entroflow.cli
from entroflow import geometry
geometry.super_ricci_gap(geometry.line(), 1.0, [0.0])
geometry.super_ricci_gap(geometry.sphere2(1.0, 2.0), 0.5, [1.0, 0.0, 0.0])
print(" ".join(m for m in ("scipy.stats", "scipy.linalg") if m in sys.modules))
"""


def _probe(code):
    # the words code prints when run in a fresh interpreter
    src = str(Path(entroflow.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return out.stdout.split()


def test_import_skips_scipy_stats_and_scipy_linalg():
    # scipy.stats (about 1 s) is never needed, and scipy.linalg neither: the
    # super-Ricci check is a closed form on every model, the sphere included
    assert _probe(PROBE) == []


THREADS = """
import threading
import numpy as np
import entroflow, entroflow.cli
from entroflow import geometry, rng, stochastic

def simulate(n_paths):
    cfg = stochastic.SdeConfig(dt=0.01, n_paths=n_paths, seed=1)
    stochastic.simulate(geometry.line(), [0.0], 0.05, cfg)

rng.normals(1, np.arange(4 * rng._SPLIT_MIN), 0)
rng.uniforms(1, np.arange(4 * rng._SPLIT_MIN), 0)
simulate(rng._SPLIT_MIN - 1)
small = threading.active_count()
simulate(rng._SPLIT_MIN)
print(small, threading.active_count(), rng._usable_cores())
"""


def test_start_up_and_small_draws_start_no_thread():
    # plain draws of any size and small ensembles stay on the calling
    # thread; the helper starts inside the first simulate of at least
    # _SPLIT_MIN paths, and only where a second core is usable
    small, large, cores = map(int, _probe(THREADS))
    assert small == 1
    assert large == (2 if cores > 1 else 1)
