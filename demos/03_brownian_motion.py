"""Path simulation: marginal laws, time change, first exits.

The process has generator Lap_{g(t)} (twice the usual speed), so on the
static line X_t ~ N(x, 2t); on the shrinking circle the angle is a wrapped
Gaussian in the clock s(t) = int 1/c.  Exit times from an interval have
mean (r^2 - x^2)/2 and inherit an O(sqrt(dt)) grid-crossing bias.
"""

import math

import numpy as np
from scipy import stats

from entroflow import geometry
from entroflow.stochastic import DomainSpec, SdeConfig, simulate

line = geometry.line()
cfg = SdeConfig(dt=1e-3, n_paths=50_000, seed=0xC0FFEE)
ens = simulate(line, [0.0], 1.0, cfg, record_times=[0.25, 1.0])

print("static line, 50k paths, dt = 1e-3")
for t in (0.25, 1.0):
    x = ens.state_at(t)[:, 0]
    ks = stats.kstest(x, stats.norm(scale=math.sqrt(2 * t)).cdf)
    print(f"  t={t:<5} var = {x.var():.4f} (target {2*t})   "
          f"KS = {ks.statistic:.5f} (1% point {1.6276/math.sqrt(x.size):.5f})")

print()
print("shrinking circle: the marginal is wrapped Gaussian in the clock")
circle = geometry.circle(1.0, -0.1, time_window=(0.0, 1.25))
ens_c = simulate(circle, [0.0], 1.0, SdeConfig(dt=1e-3, n_paths=50_000, seed=1),
                 record_times=[1.0])
s = float(circle.time_change(1.0))
th = ens_c.state_at(1.0)[:, 0]
for k in (1, 2):
    got = np.cos(k * th).mean()
    se = np.cos(k * th).std(ddof=1) / math.sqrt(th.size)
    print(f"  moment {k}: {got:+.5f} vs exp(-{k*k} s) = {math.exp(-k*k*s):+.5f}"
          f"  (stderr {se:.5f}, clock s(1) = {s:.5f})")

print()
print("first exits from (-0.1, 0.1): mean tau vs the interval oracle 0.005")
for dt in (1e-4, 1e-5):
    cfg = SdeConfig(dt=dt, n_paths=20_000, seed=13)
    e = simulate(line, [0.0], 0.2, cfg, record_times=[0.2])
    rec = e.exit_records(DomainSpec.interval(-0.1, 0.1))
    mean = rec.tau.mean()
    print(f"  dt={dt:<7} mean tau = {mean:.6f}  bias {100*(mean-0.005)/0.005:+.1f}%"
          f"  (grid-crossing bias shrinks like sqrt(dt))")

print()
print("determinism: paths are pure functions of (seed, path index)")
a = simulate(line, [0.0], 0.2, SdeConfig(dt=1e-3, n_paths=3, seed=7), record_times=[0.2])
b = simulate(line, [0.0], 0.2, SdeConfig(dt=1e-3, n_paths=1000, seed=7), record_times=[0.2])
print("  first three paths coincide across ensemble sizes:",
      bool(np.array_equal(a.states, b.states[:3])))
