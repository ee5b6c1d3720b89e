"""Entropy of backward-heat solutions along Brownian motion on evolving
Riemannian metrics: analytic model/solution/kernel catalogs, a reproducible
path simulator, quadrature and Monte Carlo entropy functionals, and the
growth-classification and rigidity analyses built on them."""

__version__ = "0.1.0"

from . import analysis, entropy, geometry, kernels, quadrature, solutions, stochastic
from .acceptance import verify
from .analysis import (
    classify_growth,
    corollary_bounds,
    divergence_demo,
    gradient_entropy_check,
    rigidity_check,
    separation_test,
)
from .entropy import (
    EntropyCurve,
    LocalEntropyTable,
    conditions,
    entropy_curve,
    entropy_mc,
    entropy_prime,
    entropy_q,
    entropy_second,
    local_entropy,
    submartingale_gap,
)
from .errors import (
    CensoredDominates,
    ChartViolation,
    ConfigError,
    EntroflowError,
    InsufficientCurve,
    LogOfZero,
    OutOfWindow,
    QuadratureDivergence,
)
from .geometry import MetricModel, parse_model
from .harness import Scenario, load_scenario, run
from .kernels import adjoint_residual, canonical_kernel, kernel_mass
from .solutions import backward_residual, bochner_identities, parse_solution
from .stochastic import DomainSpec, PathEnsemble, SdeConfig, simulate
