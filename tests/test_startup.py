"""What ``import entroflow`` loads: numpy and scipy.special, nothing heavier."""

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


def test_import_skips_scipy_stats_and_scipy_linalg():
    # scipy.stats (about 1 s) is never needed; scipy.linalg only for the
    # super-Ricci check of a model of dimension >= 2
    src = str(Path(entroflow.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.split() == []
