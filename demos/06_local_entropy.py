"""Local entropies: stopping the process at the exit from nested domains.

E_D(t) = E[(u log u)(t ^ tau_D, X_{t ^ tau_D})] is monotone both in t and
in the domain, and its increment equals the time integral of the stopped
first-variation term along the paths (checked per path below).  The
exhaustion limit recovers the global entropy; on the line at t = 1 the
nested intervals (-n, n) climb toward E(1) = 1.
"""

import numpy as np

from entroflow import geometry, solutions, stochastic
from entroflow.entropy import local_entropy, stopped_increment_residual
from entroflow.stochastic import DomainSpec, SdeConfig

line = geometry.line()
sol = solutions.ExponentialLine(1.0, 1.0, line)
record = np.round(np.linspace(0.0, 1.0, 21), 3)
domains = [DomainSpec.interval(-n, n) for n in (1, 2, 3, 4)]
ens = stochastic.simulate(
    line, [0.0], 1.0, SdeConfig(dt=1e-3, n_paths=50_000, seed=0xC0FFEE),
    record_times=record, domains=domains,
)
table = local_entropy(sol, ens, domains, [0.25, 0.5, 1.0])

print("stopped entropies on nested intervals (-n, n), 50k paths")
print(f"{'domain':>8} {'t=0.25':>10} {'t=0.5':>10} {'t=1':>10} {'never exit':>11}")
for j, n in enumerate((1, 2, 3, 4)):
    print(f"(-{n}, {n})".rjust(8)
          + "".join(f" {table.E_D[j, i]:10.4f}" for i in range(3))
          + f" {table.exit_censored_frac[j]:11.4f}")
print(f"exhaustion value at t=1: {table.E_M[-1]:.4f} "
      f"(global entropy is exactly 1; plateau flag {bool(table.E_M_stabilized[-1])})")
print(f"worst monotonicity z-scores: in t {table.monotone_t_z:+.2f}, "
      f"in domain {table.monotone_D_z:+.2f}  (>= -3 is consistent)")

print()
print("per-path identity: stopped increment equals the stopped time integral")
for n in (1, 2):
    mean, se = stopped_increment_residual(sol, ens, domains[n - 1], 1.0)
    print(f"  (-{n}, {n}): residual {mean:+.5f} +- {se:.5f}")
