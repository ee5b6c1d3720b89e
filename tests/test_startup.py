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
    # scipy.stats (about 1 s) is never needed; scipy.linalg only for the
    # super-Ricci check of a model of dimension >= 2
    assert _probe(PROBE) == []


THREADS = """
import threading
import numpy as np
import entroflow, entroflow.cli
from entroflow import rng
rng.normals(1, np.arange(rng._SPLIT_MIN - 1), 0)
rng.uniforms(1, np.arange(4 * rng._SPLIT_MIN), 0)
small = threading.active_count()
rng.normals(1, np.arange(rng._SPLIT_MIN), 0)
print(small, threading.active_count(), rng._usable_cores())
"""


def test_start_up_and_small_draws_start_no_thread():
    # the helper thread starts with the first normal draw large enough to
    # split, and only where a second core is usable
    small, large, cores = map(int, _probe(THREADS))
    assert small == 1
    assert large == (2 if cores > 1 else 1)
