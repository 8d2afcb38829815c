"""Point estimation from observed tiered-review counts.

The survival-rate estimate for tier t multiplies the observed pool sizes and
divides by the review sizes, which is the inverse-sampling-weighted count of
events still alive after t tiers, normalized by mileage:

    Lambda_hat[0] = e_0 / m
    Lambda_hat[t] = Lambda_hat[t-1] * e_t / n_t      while the pool is non-empty

Per-class rates are consecutive differences of the survival rates, and the
aggregate rate is the sum over strata of the last per-class rate. An empty
pool at any tier zeroes every later estimate. The functions here are
one-lane views of ``_batch.estimate_counts``, which does the arithmetic.

``em_fixed_point_residual_t2`` evaluates, for two review tiers, the
three-equation fixed-point system that the expectation-maximization update of
the latent class counts must satisfy at a maximum of the likelihood. It is a
verification oracle: the closed-form estimate above zeroes all three
residuals, and perturbed points do not.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import _batch
from .model import Dataset, InvalidDataError, ObservedStratum, RateEstimate
from .model import _float_tuple, check_estimable, check_mileage, validate_observed

__all__ = [
    "estimate_Lambda",
    "estimate_lambda",
    "estimate_pi",
    "estimate_theta",
    "em_fixed_point_residual_t2",
]


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


def estimate_Lambda(stratum: ObservedStratum, m: float) -> tuple[float, ...]:
    """Estimated rates of events that would survive tiers 1..t, for t = 0..T.

    The sequence is non-increasing; division by a review count only happens
    where the incoming pool was non-empty, which guarantees it is at least 1.
    """
    return _rows(fit_observed((stratum,), m).Lambda)[0]


def estimate_lambda(stratum: ObservedStratum, m: float) -> tuple[float, ...]:
    """Estimated per-class rates: differences of consecutive survival rates."""
    return _rows(fit_observed((stratum,), m).lam)[0]


def estimate_pi(stratum: ObservedStratum) -> tuple[float, ...]:
    """Estimated per-tier sampling rates, ``n_t / e_{t-1}``.

    Tiers whose incoming pool was empty never sampled anything; they get 1 so
    that downstream inverse-sampling weights stay finite (such strata
    contribute a zero rate anyway).
    """
    return _rows(fit_observed((stratum,), 1.0).pi_tier)[0]


def estimate_theta(dataset: Dataset) -> RateEstimate:
    """Full point estimate for a dataset: per-stratum rates, weights, and the aggregate."""
    fit = fit_observed(dataset.strata, dataset.config.m)
    return RateEstimate(
        Lambda_hat=_rows(fit.Lambda),
        lambda_hat=_rows(fit.lam),
        pi_hat=_rows(fit.pi_tier),
        pi_prod=tuple(fit.pi_prod[:, 0].tolist()),
        weights=tuple(fit.weights[:, 0].tolist()),
        theta_hat=float(fit.theta[0]),
    )


def em_fixed_point_residual_t2(
    stratum: ObservedStratum, lambdas: tuple[float, float, float], m: float = 1.0
) -> tuple[float, float, float]:
    """Residuals of the two-tier EM fixed-point system at a candidate rate triple.

    Each residual is the candidate rate minus the conditional expectation of
    the matching latent class count given the observed counts; all three
    vanish exactly at the maximum-likelihood rates. Counts are evaluated at
    mileage 1, so callers pass rates scaled by ``m`` (the default leaves
    them untouched).

    The expectation allocates the unreviewed portion of each pool across the
    classes still alive there, proportionally to the candidate rates. When
    the surviving-class mass ``lambdas[1] + lambdas[2]`` is zero, there is no
    mass to allocate proportionally and that allocation term is dropped,
    which keeps the oracle informative at such degenerate candidate points
    instead of failing on them.
    """
    fit_observed((stratum,), 1.0)  # raises on invalid counts
    if stratum.tiers != 2:
        raise InvalidDataError(f"the fixed-point system is defined for 2 tiers, got {stratum.tiers}")
    e, n = stratum.e, stratum.n
    if e[0] < 1 or e[1] < 1:
        raise InvalidDataError("the fixed-point system needs a non-terminated stratum (e_0, e_1 >= 1)")

    m = check_mileage(m)
    lam0, lam1, lam2 = (v * m for v in _float_tuple(lambdas, "candidate rates"))
    total = lam0 + lam1 + lam2
    tail = lam1 + lam2
    if total <= 0:
        raise InvalidDataError("the candidate rates must have positive total mass")

    def tail_share(lam: float) -> float:
        return lam / tail if tail > 0 else 0.0

    expect0 = (e[0] - n[0]) * (lam0 / total) + (n[0] - e[1])
    expect1 = (e[0] - n[0]) * (lam1 / total) + (e[1] - n[1]) * tail_share(lam1) + (n[1] - e[2])
    expect2 = (e[0] - n[0]) * (lam2 / total) + (e[1] - n[1]) * tail_share(lam2) + e[2]
    return (lam0 - expect0, lam1 - expect1, lam2 - expect2)
