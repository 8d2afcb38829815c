"""Rate estimation for event streams that are reviewed in partial, tiered passes.

Candidate events are confirmed or rejected by a sequence of review tiers,
each of which sees only a random subset of what the previous tier escalated.
This package simulates that process exactly, recovers the underlying event
rates by maximum likelihood from the observable per-tier counts, builds
confidence intervals for the aggregate rate by three methods (parametric
bootstrap, normal approximation, and a gamma method on a weighted sum of
independent Poissons), and measures their coverage in Monte Carlo studies.
"""

from .distributions import RngStream, sample_binomial, sample_mv_hypergeometric, sample_poisson
from .estimator import estimate_theta
from .generator import generate_dataset, generate_stratum
from .intervals import ci_bootstrap, ci_gamma_wsip, ci_wald
from .model import (
    CI_METHODS,
    Dataset,
    IntervalResult,
    InvalidDataError,
    LatentTable,
    ObservedStratum,
    RateEstimate,
    ReviewConfig,
    Scenario,
    StratumParams,
    ValidationResult,
    validate_observed,
)
from .study import (
    CoverageRow,
    StudySpec,
    WindowSummary,
    expected_observed_tp,
    rows_to_csv,
    run_sweep,
    scenario_common,
    scenario_comprehensive,
    scenario_rare,
    summarize_comprehensive,
)

__version__ = "0.1.0"

__all__ = [
    "RngStream",
    "sample_poisson",
    "sample_binomial",
    "sample_mv_hypergeometric",
    "ReviewConfig",
    "StratumParams",
    "Scenario",
    "LatentTable",
    "ObservedStratum",
    "Dataset",
    "RateEstimate",
    "IntervalResult",
    "ValidationResult",
    "InvalidDataError",
    "validate_observed",
    "CI_METHODS",
    "generate_stratum",
    "generate_dataset",
    "estimate_theta",
    "ci_bootstrap",
    "ci_wald",
    "ci_gamma_wsip",
    "StudySpec",
    "CoverageRow",
    "WindowSummary",
    "scenario_common",
    "scenario_rare",
    "scenario_comprehensive",
    "expected_observed_tp",
    "run_sweep",
    "summarize_comprehensive",
    "rows_to_csv",
    "__version__",
]
