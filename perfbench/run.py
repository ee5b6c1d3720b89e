"""entroflow benchmark: end-to-end metrics per workload, or per-layer costs.

    python3 perfbench/run.py --workload verify-all|line-eternal|quad-catalog \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Every measured iteration runs in a fresh worker process
(``worker.py``), one at a time, with BLAS/OpenMP pools capped at the
number of usable cores.  This is a closed batch: there is no arrival rate.

``--trace 0`` reports ``wall_s`` (median over iterations), ``setup_s``
(median of fresh-process set-ups after one untimed warm-up) and
``peak_rss_mb`` (median).  ``--trace 1`` alternates untraced and traced
iterations and reports the per-layer metrics of the traced ones plus
``trace.overhead_s``.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``attempted``/``failed``
count oracle checks, so ``checks_failed_frac = failed / attempted``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 170

# harness stages the workloads run (rigidity runs only for circle_shrinking)
STAGES = (
    "simulate", "entropy-curve", "local", "bounds", "classify", "separation", "divergence",
)


def _child_env():
    env = dict(os.environ)
    # setup_s models an installed package: the untimed warm-up import caches
    # bytecode, so the timed imports do not recompile the library
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = cores
    return env


def _worker(args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args[:3])} failed with code {proc.returncode}")
    return proc.stdout


def setup_seconds(workload):
    _worker(["setup", "--workload", workload])  # warm the page cache, untimed
    return [float(_worker(["setup", "--workload", workload]).split()[-1])
            for _ in range(SETUP_REPEATS)]


def iteration(workload, seed, trace, k):
    outdir = OUT / workload / f"{k:03d}-{'traced' if trace else 'plain'}"
    result = outdir / "result.json"
    _worker(["run", "--workload", workload, "--seed", str(seed),
             "--outdir", str(outdir), "--trace", str(int(trace)), "--result", str(result)])
    return json.loads(result.read_text(encoding="utf-8"))


def measure(workload, seed, seconds, trace, start):
    """Iterations until ``seconds`` have passed since ``start``.

    Traced runs alternate plain and traced iterations.  Untraced runs of a
    workload that writes CSVs make at least two iterations, so two same-seed
    runs are compared byte for byte.
    """
    plan = (False, True) if trace else (False,)
    min_rounds = 2 if WORKLOADS[workload] and not trace else 1
    plain, traced = [], []
    k = 0
    while True:
        for tr in plan:
            (traced if tr else plain).append(iteration(workload, seed, tr, k))
            k += 1
        if len(plain) >= min_rounds and time.perf_counter() - start >= seconds:
            return plain, traced


def consistency_checks(plain, traced, saved_counts):
    """Cross-iteration checks: identical CSV bytes and identical counts.

    Counts must equal the values computed from the configs and repeat
    exactly between this run's traced iterations and against the previous
    traced run of the same workload and seed, kept in ``saved_counts``.
    """
    checks = []
    runs = plain + traced
    ref = runs[0]["csv_sha256"]
    for i, r in enumerate(runs[1:], start=1):
        if ref:
            checks.append((f"csv-bytes-identical-{i}", r["csv_sha256"] == ref, ""))
    if traced:
        counts = [{k: v for k, v in t["layers"].items() if isinstance(v, int)} for t in traced]
        for i, c in enumerate(counts[1:], start=1):
            checks.append((f"counts-repeat-{i}", c == counts[0], ""))
        for name, want in traced[0]["expected_counts"].items():
            got = counts[0].get(name)
            checks.append((f"count-{name}", got == want, f"{got} vs computed {want}"))
        if saved_counts.is_file():
            previous = json.loads(saved_counts.read_text(encoding="utf-8"))
            checks.append(("counts-repeat-previous-run", previous == counts[0], saved_counts.name))
        saved_counts.parent.mkdir(parents=True, exist_ok=True)
        saved_counts.write_text(json.dumps(counts[0], sort_keys=True), encoding="utf-8")
    return checks


def per_layer(plain, traced):
    med = statistics.median
    layers = traced[0]["layers"]
    m = {}
    for name, value in layers.items():
        if isinstance(value, float):
            m[name] = med(t["layers"][name] for t in traced)
        else:
            m[name] = value
    for stage in STAGES:
        m[f"harness.stage.{stage}_s"] = med(t["stages"].get(stage, 0.0) for t in traced)
    m["trace.overhead_s"] = med(t["wall_s"] for t in traced) - med(p["wall_s"] for p in plain)
    return m


def main(argv=None):
    p = argparse.ArgumentParser(description="entroflow benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "entroflow" / "__init__.py").is_file():
        sys.exit("no entroflow source tree at src/entroflow; run from a checkout root")
    if args.seed < 0:
        sys.exit("--seed must be non-negative")

    shutil.rmtree(OUT / args.workload, ignore_errors=True)
    start = time.perf_counter()
    setup = None if args.trace else setup_seconds(args.workload)
    plain, traced = measure(args.workload, args.seed, args.seconds, args.trace, start)

    checks = [c for r in plain + traced for c in r["checks"]]
    checks += consistency_checks(
        plain, traced, OUT / "counts" / f"{args.workload}-{args.seed}.json"
    )
    failed = [c for c in checks if not c[1]]
    for name, _, detail in failed:
        print(f"FAIL {name} {detail}")

    if args.trace:
        values = per_layer(plain, traced)
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}

    print(f"workload {args.workload} seed {args.seed} iterations "
          f"{len(plain)} plain + {len(traced)} traced")
    for name, mv in metrics.items():
        print(f"{name} {mv['value']!r} {mv['unit']}")
    print(f"checks_failed_frac {len(failed) / len(checks)!r} 1 ({len(failed)}/{len(checks)})")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def _unit(name):
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("levels_per_refined"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
