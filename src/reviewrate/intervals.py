"""Confidence intervals for the aggregate surviving-event rate.

Three constructions with different coverage/width trade-offs:

* ``ci_bootstrap`` refits the generative model at the point estimates and
  takes central quantiles of re-simulated estimates. Narrowest intervals,
  but can badly under-cover at low sampling rates.
* ``ci_wald`` uses the normal limit of the estimator with a plug-in variance.
  Its lower bound can go negative and it is unreliable at low event counts.
* ``ci_gamma_wsip`` treats the estimate as a weighted sum of independent
  Poisson counts and inverts gamma distributions matched to its mean and
  variance, with the upper bound widened by the largest weight. Conservative
  (it over-covers and is the widest), which is the preferred trade-off when
  under-coverage is the costlier mistake.

All three read one fit, the ``RateEstimate`` of ``estimate_theta``, and
never the counts. The bootstrap simulates from its rates at its mileage. The
Wald and gamma intervals read one variance, ``RateEstimate.variance``
(``sum_h w_h^2 e_hT``, equal to ``(1/m) sum_h lambda_hT / pi_h``): they differ
only in the distribution they invert and in the gamma upper bound's shift by
the largest weight. Each is a one-lane view of the bounds in ``_batch``,
which the study applies to every lane of a cell's fit.
"""

from __future__ import annotations

import numpy as np

from . import _batch
from .distributions import RngStream
from .model import IntervalResult, RateEstimate, check_bootstrap_replicates, check_level

__all__ = ["ci_bootstrap", "ci_wald", "ci_gamma_wsip"]


def ci_bootstrap(estimate: RateEstimate, level: float, B: int, rng: RngStream) -> IntervalResult:
    """Parametric bootstrap interval from ``B`` datasets re-simulated from the estimate.

    Replicates are generated in one batch on the supplied stream, so the
    result is a deterministic function of ``(estimate, level, B, rng)``.
    Replicates with a zero estimate are kept: the refitted model genuinely
    produces them. Strata whose fitted surviving rate is 0 add exactly 0 to
    every replicate and are not simulated, and tiers whose fitted sampling
    rate is 1 are folded out of the simulation without changing the
    replicates' law, so the number of draws taken from ``rng`` depends on
    the fit: a zero estimate gives the interval (0, 0) and draws nothing.
    """
    level = check_level(level)
    B = check_bootstrap_replicates(B)
    lam, pis = np.array(estimate.lambda_hat), np.array(estimate.pi_hat)
    lower, upper = _batch.bootstrap_bounds(lam, pis, estimate.m, level, B, rng.generator)
    return IntervalResult(method="bootstrap", level=level, lower=lower, upper=upper)


def ci_wald(estimate: RateEstimate, level: float) -> IntervalResult:
    """Normal-approximation interval around the point estimate.

    The half-width is ``z * sqrt(estimate.variance)``. The lower bound is
    reported as-is even when negative. A zero estimate yields the degenerate
    interval (0, 0).
    """
    level = check_level(level)
    lower, upper = _batch.wald_bounds(
        np.array([estimate.theta_hat]), np.array([estimate.variance]), level
    )
    return IntervalResult(method="wald", level=level, lower=lower[0], upper=upper[0])


def ci_gamma_wsip(estimate: RateEstimate, level: float) -> IntervalResult:
    """Gamma interval for the weighted-sum-of-independent-Poissons approximation.

    The lower bound inverts a gamma matched to (mean, variance) =
    (theta_hat, sum_h w_h^2 e_hT) and is 0 exactly when the estimate is 0;
    the upper bound shifts both moments up by the largest weight, which keeps
    it defined and conservative even with no observed events.
    """
    level = check_level(level)
    lower, upper = _batch.gamma_bounds(
        np.array([estimate.theta_hat]),
        np.array([estimate.variance]),
        np.array([max(estimate.weights)]),
        level,
    )
    return IntervalResult(method="gamma_wsip", level=level, lower=lower[0], upper=upper[0])
