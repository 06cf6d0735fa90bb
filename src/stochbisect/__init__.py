"""Stochastic bisection: random-cut root finding and its convergence laws.

The package splits along the natural layers: `distributions` (laws on
[0, 1]), `engine` (the algorithms), `theory` (closed-form contraction
rates), `markov` (the operator driving the root law to uniform), `stats`
(estimators), and `experiments`/`cli` (the simulation harness).
"""

from .distributions import (
    Bates,
    Beta,
    Distribution,
    Empirical,
    PointMass,
    Uniform,
    parse_spec,
)
from .engine import (
    RunTrace,
    bisection_run,
    multisection_step,
    population_step,
)
from .markov import GridCdf, apply_operator, ell_cdf_general, iterate_operator, rate_bound
from .seeding import substream
from .stats import IntervalEstimate, bootstrap_mean_ci, ks_statistic, wilson_ci
from .theory import (
    conditional_expected_length,
    contraction_variance,
    ell_pdf,
    expected_contraction,
)

__version__ = "0.1.0"

__all__ = [
    "Bates",
    "Beta",
    "Distribution",
    "Empirical",
    "GridCdf",
    "IntervalEstimate",
    "PointMass",
    "RunTrace",
    "Uniform",
    "apply_operator",
    "bisection_run",
    "bootstrap_mean_ci",
    "conditional_expected_length",
    "contraction_variance",
    "ell_cdf_general",
    "ell_pdf",
    "expected_contraction",
    "iterate_operator",
    "ks_statistic",
    "multisection_step",
    "parse_spec",
    "population_step",
    "rate_bound",
    "substream",
    "wilson_ci",
]
