from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from entroflow import geometry, kernels, solutions, stochastic
from entroflow.stochastic import DomainSpec, SdeConfig

# the intervals whose exits the tests of line_ensemble read: one outside
# the start, nested ones about it, and one no path leaves
LINE_DOMAINS = tuple(
    DomainSpec.interval(a, b)
    for a, b in ((2, 3), (-0.5, 0.5), (-1, 1), (-2, 2), (-3, 3), (-4, 4), (-50, 50))
)


@pytest.fixture(scope="session")
def line_model():
    return geometry.line()


@pytest.fixture(scope="session")
def line_sol(line_model):
    return solutions.ExponentialLine(1.0, 1.0, line_model)


@pytest.fixture(scope="session")
def line_kernel(line_model):
    return kernels.GaussianKernel(np.array([0.0]), line_model)


@pytest.fixture(scope="session")
def circle_model():
    return geometry.circle(1.0, -0.1, time_window=(0.0, 1.25))


@pytest.fixture(scope="session")
def circle_sol(circle_model):
    return solutions.CircleSpectral(2.0, [(1, 0.5, 0.0)], circle_model)


@pytest.fixture(scope="session")
def circle_kernel(circle_model):
    return kernels.WrappedGaussianKernel(np.array([0.0]), circle_model)


@pytest.fixture(scope="session")
def sphere_model():
    return geometry.sphere2(1.0, 2.0, time_window=(0.0, 1.2))


@pytest.fixture(scope="session")
def sphere_sol(sphere_model):
    return solutions.SphereSpectral(2.0, [(1, 0.5)], sphere_model)


@pytest.fixture(scope="session")
def sphere_kernel(sphere_model):
    return kernels.SphereHeatKernel(np.array([1.0, 0.0, 0.0]), sphere_model)


@pytest.fixture(scope="session")
def line_ensemble(line_model):
    cfg = SdeConfig(dt=1e-3, n_paths=20_000, seed=0xC0FFEE)
    record = np.round(np.linspace(0.0, 1.0, 21), 3)
    return stochastic.simulate(
        line_model, [0.0], 1.0, cfg, record_times=record, domains=LINE_DOMAINS
    )


@pytest.fixture(scope="session")
def circle_ensemble(circle_model):
    cfg = SdeConfig(dt=1e-3, n_paths=20_000, seed=0xC0FFEE)
    record = np.round(np.linspace(0.0, 1.0, 21), 3)
    return stochastic.simulate(circle_model, [0.0], 1.0, cfg, record_times=record)


@pytest.fixture(scope="session")
def static_circle_model():
    """circle_model without its shrinking: the same window, c(t) = 1."""
    return geometry.circle(1.0, 0.0, time_window=(0.0, 1.25))


@pytest.fixture(scope="session")
def static_circle_kernel(static_circle_model):
    return kernels.WrappedGaussianKernel(np.array([0.0]), static_circle_model)


@pytest.fixture(scope="session")
def static_circle_ensemble(static_circle_model):
    cfg = SdeConfig(dt=1e-2, n_paths=64, seed=0xC0FFEE)
    return stochastic.simulate(static_circle_model, [0.0], 1.0, cfg, record_times=[0.5, 1.0])


@pytest.fixture(scope="session")
def sphere_ensemble(sphere_model):
    cfg = SdeConfig(dt=1e-3, n_paths=10_000, seed=0xC0FFEE)
    return stochastic.simulate(
        sphere_model, [1.0, 0.0, 0.0], 0.5, cfg, record_times=[0.25, 0.5]
    )


class CountingPool(ThreadPoolExecutor):
    """A one-thread stand-in for the rng helper that counts the jobs handed
    to it and keeps the last one (it runs them in order)."""

    def __init__(self):
        super().__init__(1)
        self.submitted = 0
        self.last = None

    def submit(self, fn, /, *args, **kwargs):
        self.submitted += 1
        self.last = super().submit(fn, *args, **kwargs)
        return self.last


@pytest.fixture
def helper():
    pool = CountingPool()
    yield pool
    pool.shutdown(wait=True)
