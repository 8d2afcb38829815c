"""Point estimation from observed tiered-review counts.

The survival-rate estimate for tier t multiplies the observed pool sizes and
divides by the review sizes, which is the inverse-sampling-weighted count of
events still alive after t tiers, normalized by mileage:

    Lambda_hat[0] = e_0 / m
    Lambda_hat[t] = Lambda_hat[t-1] * e_t / n_t      while the pool is non-empty

Per-class rates are consecutive differences of the survival rates, and the
aggregate rate is the sum over strata of the last per-class rate. An empty
pool at any tier zeroes every later estimate. ``estimate_theta`` is a
one-lane view of ``_batch.estimate_counts``, which does the arithmetic; its
result also carries the plug-in variance that the Wald and gamma intervals
read.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import _batch
from .model import Dataset, InvalidDataError, ObservedStratum, RateEstimate
from .model import check_estimable, check_mileage, validate_observed

__all__ = ["estimate_theta"]


def fit_observed(strata: Sequence[ObservedStratum], m: float) -> _batch.BatchEstimate:
    """Validate the counts and fit them as one lane."""
    m = check_mileage(m)
    for h, stratum in enumerate(strata):
        check = validate_observed(stratum)
        if not check:
            raise InvalidDataError(f"invalid stratum {h}: {check.reason}")
    e = np.array([s.e for s in strata], dtype=np.int64)
    n = np.array([s.n for s in strata], dtype=np.int64)
    with np.errstate(all="ignore"):  # check_estimable rejects what the errors produce
        fit = _batch.estimate_counts(e[:, :, None], n[:, :, None], m)
    check_estimable(fit, m)
    return fit


def _rows(values: np.ndarray) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(row) for row in values[:, :, 0].tolist())


def estimate_theta(dataset: Dataset) -> RateEstimate:
    """Full point estimate for a dataset: per-stratum rates, weights, the aggregate and its variance."""
    fit = fit_observed(dataset.strata, dataset.config.m)
    return RateEstimate(
        Lambda_hat=_rows(fit.Lambda),
        lambda_hat=_rows(fit.lam),
        pi_hat=_rows(fit.pi_tier),
        pi_prod=tuple(fit.pi_prod[:, 0].tolist()),
        weights=tuple(fit.weights[:, 0].tolist()),
        theta_hat=float(fit.theta[0]),
        variance=float(fit.variance[0]),
    )

