"""Point estimation from observed tiered-review counts.

The survival-rate estimate for tier t multiplies the observed pool sizes and
divides by the review sizes, which is the inverse-sampling-weighted count of
events still alive after t tiers, normalized by mileage:

    Lambda_hat[0] = e_0 / m
    Lambda_hat[t] = Lambda_hat[t-1] * e_t / n_t      while the pool is non-empty

Per-class rates are consecutive differences of the survival rates, and the
aggregate rate is the sum over strata of the last per-class rate. An empty
pool at any tier zeroes every later estimate. A ``RateEstimate`` is built
from a ``Dataset`` only, as the one lane of ``_batch.estimate_counts``, so no
field can be set by hand. It carries all that the three intervals read: the
rates and mileage the bootstrap simulates at, and the Wald and gamma plug-in
variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _batch
from .model import Dataset, InvalidDataError

__all__ = ["RateEstimate", "estimate_theta"]


def _rows(values: np.ndarray) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(row) for row in values[:, :, 0].tolist())


@dataclass(frozen=True)
class RateEstimate:
    """Point estimates for one dataset, computed when built.

    ``Lambda_hat[h][t]`` estimates the rate of events that would survive
    tiers 1..t in stratum h, ``lambda_hat[h][t]`` the per-class rates,
    ``pi_hat[h][t]`` the per-tier sampling rates (filled with 1 past early
    termination), ``pi_prod[h]`` their product, and ``weights[h]`` the
    inverse-sampling weight ``1 / (m * pi_prod[h])``. ``theta_hat`` is the
    aggregate surviving-event rate, the sum over strata of the last
    ``lambda_hat`` entry, and ``variance`` its plug-in variance
    ``sum_h weights[h]^2 e_hT``, which the Wald and gamma intervals share.
    ``m`` is the mileage the rates are per, which the bootstrap simulates at.

    A finite mileage with a finite reciprocal can still overflow the
    estimates or the weights when tiny, and underflow ``w^2`` to 0 when huge.
    So ``sum Lambda_0``, which bounds every rate estimate, and the gamma upper
    bound's moments ``(theta + max w)^2`` and ``variance + (max w)^2`` must be
    finite, that last variance positive, and the variance positive when
    ``theta > 0``; otherwise building the estimate raises.
    """

    dataset: Dataset = field(repr=False)
    Lambda_hat: tuple[tuple[float, ...], ...] = field(init=False)
    lambda_hat: tuple[tuple[float, ...], ...] = field(init=False)
    pi_hat: tuple[tuple[float, ...], ...] = field(init=False)
    pi_prod: tuple[float, ...] = field(init=False)
    weights: tuple[float, ...] = field(init=False)
    theta_hat: float = field(init=False)
    variance: float = field(init=False)

    def __post_init__(self) -> None:
        m = self.m
        e = np.array([s.e for s in self.dataset.strata], dtype=np.int64)
        n = np.array([s.n for s in self.dataset.strata], dtype=np.int64)
        with np.errstate(all="ignore"):  # the check below rejects what the errors produce
            fit = _batch.estimate_counts(e[:, :, None], n[:, :, None], m)
        fields = {
            "Lambda_hat": _rows(fit.Lambda),
            "lambda_hat": _rows(fit.lam),
            "pi_hat": _rows(fit.pi_tier),
            "pi_prod": tuple(fit.pi_prod[:, 0].tolist()),
            "weights": tuple(fit.weights[:, 0].tolist()),
            "theta_hat": float(fit.theta[0]),
            "variance": float(fit.variance[0]),
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)

        theta, variance, w_max = self.theta_hat, self.variance, max(self.weights)
        mean, upper_var = theta + w_max, variance + w_max * w_max
        moments = (sum(row[0] for row in self.Lambda_hat), mean * mean, upper_var)
        if not (
            all(map(math.isfinite, moments)) and upper_var > 0 and (not theta > 0 or variance > 0)
        ):
            raise InvalidDataError(
                f"mileage m={m!r} does not suit these counts: the rate estimates, "
                "their weights or the interval moments overflow or vanish"
            )

    @property
    def m(self) -> float:
        return self.dataset.config.m

    @property
    def theta_by_stratum(self) -> tuple[float, ...]:
        return tuple(lam[-1] for lam in self.lambda_hat)


def estimate_theta(dataset: Dataset) -> RateEstimate:
    """Full point estimate for a dataset: per-stratum rates, weights, the aggregate and its variance.

    The ``Dataset`` has checked its counts; only a mileage that does not suit them raises.
    """
    return RateEstimate(dataset)
