"""Point estimation from observed tiered-review counts.

The survival-rate estimate for tier t multiplies the observed pool sizes and
divides by the review sizes, which is the inverse-sampling-weighted count of
events still alive after t tiers, normalized by mileage:

    Lambda_hat[0] = e_0 / m
    Lambda_hat[t] = Lambda_hat[t-1] * e_t / n_t      while the pool is non-empty

Per-class rates are consecutive differences of the survival rates, and the
aggregate rate is the sum over strata of the last per-class rate. An empty
pool at any tier zeroes every later estimate. ``estimate_theta`` is the one
place where counts become a fit, one lane of ``_batch.estimate_counts``, and
its result carries all that the three intervals read: the rates and mileage
the bootstrap simulates at, and the Wald and gamma plug-in variance. The
``RateEstimate`` checks itself when built, so a mileage whose estimates,
weights or interval moments overflow or vanish raises there.
"""

from __future__ import annotations

import numpy as np

from . import _batch
from .model import Dataset, RateEstimate

__all__ = ["estimate_theta"]


def _rows(values: np.ndarray) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(row) for row in values[:, :, 0].tolist())


def estimate_theta(dataset: Dataset) -> RateEstimate:
    """Full point estimate for a dataset: per-stratum rates, weights, the aggregate and its variance.

    The ``Dataset`` has checked its counts; only a mileage that does not suit them raises,
    when the ``RateEstimate`` checks itself.
    """
    m = dataset.config.m
    e = np.array([s.e for s in dataset.strata], dtype=np.int64)
    n = np.array([s.n for s in dataset.strata], dtype=np.int64)
    with np.errstate(all="ignore"):  # RateEstimate rejects what the errors produce
        fit = _batch.estimate_counts(e[:, :, None], n[:, :, None], m)
    return RateEstimate(
        Lambda_hat=_rows(fit.Lambda),
        lambda_hat=_rows(fit.lam),
        pi_hat=_rows(fit.pi_tier),
        pi_prod=tuple(fit.pi_prod[:, 0].tolist()),
        weights=tuple(fit.weights[:, 0].tolist()),
        theta_hat=float(fit.theta[0]),
        variance=float(fit.variance[0]),
        m=m,
    )
