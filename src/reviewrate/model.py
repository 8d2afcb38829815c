"""Domain types shared by the generator, estimator, interval, and study modules.

All types are immutable value objects. An ``ObservedStratum`` is deliberately
permissive (any integer content is accepted) so that a single stratum read
from a file can be inspected; :func:`validate_observed` performs the full
consistency check and reports the first violated constraint. A ``Dataset`` is
checked: it runs that check on each of its strata when it is built, so every
dataset holds counts the estimator is defined on. A ``RateEstimate`` is
checked when built too, so every estimate holds a fit the three intervals
are defined on. The module imports nothing else from the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

__all__ = [
    "InvalidDataError",
    "ReviewConfig",
    "StratumParams",
    "Scenario",
    "LatentTable",
    "ObservedStratum",
    "Dataset",
    "RateEstimate",
    "IntervalResult",
    "ValidationResult",
    "validate_observed",
    "CI_METHODS",
]

CI_METHODS = ("bootstrap", "wald", "gamma_wsip")

# numpy's Poisson sampler rejects rates above this value, its POISSON_LAM_MAX.
_MAX_POISSON_RATE = (2**63 - 1) - 10 * math.sqrt(2**63 - 1)

# What a missing key or a value of the wrong type or range raises on conversion.
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


class InvalidDataError(ValueError):
    """Raised when observed data or a scenario violates a structural constraint."""


def check_level(level: float) -> float:
    """Return ``level`` as a float, or raise if it is not a confidence level in (0, 1)."""
    level = _real(level, "confidence level")
    if not 0.0 < level < 1.0:
        raise InvalidDataError(f"confidence level must lie in (0, 1), got {level!r}")
    return level


def check_mileage(m: float) -> float:
    """Return ``m`` as a float, or raise unless it and its reciprocal are positive and finite."""
    m = _real(m, "mileage m")
    if not (m > 0 and math.isfinite(m) and math.isfinite(1.0 / m)):
        raise InvalidDataError(
            f"mileage must be positive and finite with a finite reciprocal, got {m!r}"
        )
    return m


def check_bootstrap_replicates(B: int) -> int:
    """Return ``B`` as an int, or raise if it is not an integer or too few bootstrap replicates."""
    B = check_integer(B, "bootstrap replicates")
    if B < 100:
        raise InvalidDataError(f"bootstrap needs at least 100 replicates, got {B}")
    return B


# Python's and numpy's real number types. ``float`` and ``int`` would also
# convert strings and booleans; ``numbers.Real`` is several times slower to test.
_NUMBER_TYPES = (int, float, np.integer, np.floating)


def _is_number(v: Any) -> bool:
    return isinstance(v, _NUMBER_TYPES) and not isinstance(v, bool)


def _real(v: Any, what: str) -> float:
    """Return ``v`` as a float, or raise unless it is a real number within float range."""
    if _is_number(v):
        try:
            return float(v)
        except OverflowError:
            pass
    raise InvalidDataError(f"{what}: expected a number within float range, got {v!r}")


def check_integer(v: Any, what: str) -> int:
    """Return ``v`` as an int, or raise unless it is a real number with an integral value."""
    if _is_number(v):
        try:
            i = int(v)
        except (ValueError, OverflowError):  # NaN or an infinity
            pass
        else:
            if i == v:
                return i
    raise InvalidDataError(f"{what}: expected an integer, got {v!r}")


# The type tests spare plain ints and floats a call, which would be most of
# the cost of reading a file.
def _int_tuple(values: Iterable[Any], what: str) -> tuple[int, ...]:
    return tuple(v if type(v) is int else check_integer(v, what) for v in values)


def _float_tuple(values: Iterable[Any], what: str) -> tuple[float, ...]:
    return tuple([float(v) if isinstance(v, float) else _real(v, what) for v in values])


@dataclass(frozen=True)
class ReviewConfig:
    """Shape of one review process: mileage, stratum count, and tier count."""

    m: float
    H: int
    T: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", check_mileage(self.m))
        object.__setattr__(self, "H", check_integer(self.H, "stratum count H"))
        object.__setattr__(self, "T", check_integer(self.T, "tier count T"))
        if self.H < 1:
            raise InvalidDataError(f"stratum count must be at least 1, got {self.H!r}")
        if self.T < 1:
            raise InvalidDataError(f"tier count must be at least 1, got {self.T!r}")


@dataclass(frozen=True)
class StratumParams:
    """Per-stratum event rates (one per class, T+1 of them) and per-tier sampling rates."""

    lambdas: tuple[float, ...]
    pis: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambdas", _float_tuple(self.lambdas, "rates"))
        object.__setattr__(self, "pis", _float_tuple(self.pis, "sampling rates"))
        if len(self.lambdas) != len(self.pis) + 1:
            raise InvalidDataError(
                f"expected one more rate than sampling rates, got {len(self.lambdas)} rates "
                f"and {len(self.pis)} sampling rates"
            )
        for v in self.lambdas:
            if not v >= 0:
                raise InvalidDataError(f"rates must be non-negative, got {v!r}")
        for v in self.pis:
            # pi = 0 would make the rate unidentifiable, so it is rejected outright.
            if not 0 < v <= 1:
                raise InvalidDataError(f"sampling rates must lie in (0, 1], got {v!r}")

    @property
    def tiers(self) -> int:
        return len(self.pis)


@dataclass(frozen=True)
class Scenario:
    """A full parameterization: configuration plus per-stratum parameters."""

    config: ReviewConfig
    strata: tuple[StratumParams, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "strata", tuple(self.strata))
        if len(self.strata) != self.config.H:
            raise InvalidDataError(
                f"expected {self.config.H} strata, got {len(self.strata)}"
            )
        for i, s in enumerate(self.strata):
            if s.tiers != self.config.T:
                raise InvalidDataError(
                    f"stratum {i} has {s.tiers} tiers, expected {self.config.T}"
                )
            # The pool e_0 is Poisson at this rate in the batch sampler, and
            # its count must fit the int64 arrays that hold it.
            rate = self.config.m * sum(s.lambdas)
            if not rate <= _MAX_POISSON_RATE:
                raise InvalidDataError(
                    f"stratum {i}: m*sum(lambdas)={rate!r} exceeds the Poisson limit"
                )

    @property
    def theta(self) -> float:
        """True aggregate rate of events that survive every tier."""
        return sum(s.lambdas[-1] for s in self.strata)

    def to_dict(self) -> dict:
        return {
            "m": self.config.m,
            "H": self.config.H,
            "T": self.config.T,
            "strata": [
                {"lambdas": list(s.lambdas), "pis": list(s.pis)} for s in self.strata
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        try:
            config = ReviewConfig(m=data["m"], H=data["H"], T=data["T"])
            strata = tuple(
                StratumParams(lambdas=tuple(s["lambdas"]), pis=tuple(s["pis"]))
                for s in data["strata"]
            )
        except InvalidDataError:
            raise
        except _MALFORMED as exc:
            raise InvalidDataError(f"malformed scenario document: {exc}") from exc
        return cls(config=config, strata=strata)


@dataclass(frozen=True)
class LatentTable:
    """Complete-review class counts, hidden from the estimator.

    ``x[t][s]`` counts the events of class ``t`` present in escalation set
    ``s``; class ``t < T`` holds events a tier ``t+1`` review would reject,
    class ``T`` holds events no tier would reject. Row ``t`` has entries for
    ``s = 0..t`` (an event rejected at tier ``t+1`` cannot survive past
    escalation set ``t``), giving a lower-triangular layout.
    """

    x: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(_int_tuple(row, "latent counts") for row in self.x)
        object.__setattr__(self, "x", rows)
        for t, row in enumerate(rows):
            if len(row) != t + 1:
                raise InvalidDataError(
                    f"latent row {t} must have {t + 1} entries, got {len(row)}"
                )
            if any(v < 0 for v in row):
                raise InvalidDataError(f"latent counts must be non-negative, got row {row}")

    @property
    def tiers(self) -> int:
        return len(self.x) - 1

    def escalation_totals(self) -> tuple[int, ...]:
        """Column sums: the pool size of each escalation set implied by the table."""
        T = self.tiers
        return tuple(sum(self.x[t][s] for t in range(s, T + 1)) for s in range(T + 1))


@dataclass(frozen=True)
class ObservedStratum:
    """Observable per-tier counts for one stratum: pool sizes ``e`` and review sizes ``n``."""

    e: tuple[int, ...]
    n: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "e", _int_tuple(self.e, "escalation counts"))
        object.__setattr__(self, "n", _int_tuple(self.n, "review counts"))

    @property
    def tiers(self) -> int:
        return len(self.n)


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of a structural check; falsy when invalid, with the first violation named."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate_observed(stratum: ObservedStratum, tiers: int | None = None) -> ValidationResult:
    """Check every structural constraint of an observed stratum.

    Verifies the shape (``len(e) == len(n) + 1``, optionally against an
    expected tier count), non-negativity, that every count is below 2**53
    (the estimator works in floats), the per-tier ordering
    ``e_t <= n_t <= e_{t-1}``, that a non-empty pool is always reviewed at
    least once, and that all counts stay zero after an empty pool.
    """
    e, n = stratum.e, stratum.n
    if len(e) != len(n) + 1:
        return ValidationResult(
            False, f"expected len(e) == len(n) + 1, got len(e)={len(e)} and len(n)={len(n)}"
        )
    if tiers is not None and len(n) != tiers:
        return ValidationResult(False, f"expected {tiers} tiers, got {len(n)}")
    if any(v < 0 for v in e):
        return ValidationResult(False, f"negative escalation count in e={e}")
    if any(v < 0 for v in n):
        return ValidationResult(False, f"negative review count in n={n}")
    if any(v >= 2**53 for v in e + n):
        return ValidationResult(False, f"counts must stay below 2**53, got e={e}, n={n}")
    for t in range(1, len(e)):
        prev, reviewed, escalated = e[t - 1], n[t - 1], e[t]
        if prev == 0:
            if reviewed != 0 or escalated != 0:
                return ValidationResult(
                    False,
                    f"tier {t}: counts must stay zero after an empty pool, "
                    f"got n_{t}={reviewed}, e_{t}={escalated}",
                )
        else:
            if reviewed < 1:
                return ValidationResult(
                    False, f"tier {t}: a non-empty pool must be reviewed, got n_{t}=0"
                )
            if reviewed > prev:
                return ValidationResult(
                    False, f"tier {t}: n_{t}={reviewed} exceeds the pool e_{t-1}={prev}"
                )
            if escalated > reviewed:
                return ValidationResult(
                    False, f"tier {t}: e_{t}={escalated} exceeds the review count n_{t}={reviewed}"
                )
    return ValidationResult(True)


@dataclass(frozen=True)
class Dataset:
    """Observed counts for every stratum, each checked by :func:`validate_observed` at T tiers."""

    config: ReviewConfig
    strata: tuple[ObservedStratum, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "strata", tuple(self.strata))
        if len(self.strata) != self.config.H:
            raise InvalidDataError(
                f"expected {self.config.H} strata, got {len(self.strata)}"
            )
        for i, s in enumerate(self.strata):
            check = validate_observed(s, tiers=self.config.T)
            if not check:
                raise InvalidDataError(f"invalid stratum {i}: {check.reason}")

    def to_dict(self) -> dict:
        return {
            "m": self.config.m,
            "strata": [{"e": list(s.e), "n": list(s.n)} for s in self.strata],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Dataset":
        try:
            m = data["m"]
            strata = tuple(
                ObservedStratum(e=tuple(s["e"]), n=tuple(s["n"])) for s in data["strata"]
            )
        except InvalidDataError:
            raise
        except _MALFORMED as exc:
            raise InvalidDataError(f"malformed dataset document: {exc}") from exc
        if not strata:
            raise InvalidDataError("dataset must contain at least one stratum")
        tiers = strata[0].tiers
        config = ReviewConfig(m=m, H=len(strata), T=tiers)
        return cls(config=config, strata=strata)


@dataclass(frozen=True)
class RateEstimate:
    """Point estimates for one dataset.

    ``Lambda_hat[h][t]`` estimates the rate of events that would survive
    tiers 1..t in stratum h, ``lambda_hat[h][t]`` the per-class rates,
    ``pi_hat[h][t]`` the per-tier sampling rates (filled with 1 past early
    termination), ``pi_prod[h]`` their product, and ``weights[h]`` the
    inverse-sampling weight ``1 / (m * pi_prod[h])``. ``theta_hat`` is the
    aggregate surviving-event rate, the sum over strata of the last
    ``lambda_hat`` entry, and ``variance`` its plug-in variance
    ``sum_h weights[h]^2 e_hT``, which the Wald and gamma intervals share.
    ``m`` is the mileage the rates are per, which the bootstrap simulates at.

    An estimate is checked when it is built, so the intervals can read any
    ``RateEstimate``: its fields must be numbers for H >= 1 strata of
    T >= 1 tiers, with non-negative rates, sampling rates in (0, 1], positive
    weights and a non-negative variance. A finite mileage with a finite
    reciprocal can still overflow the estimates or the weights when tiny, and
    underflow ``w^2`` to 0 when huge. So ``sum Lambda_0``, which bounds every
    rate estimate, and the gamma upper bound's moments ``(theta + max w)^2``
    and ``variance + (max w)^2`` must be finite, that last variance positive,
    and the variance positive when ``theta > 0``.
    """

    Lambda_hat: tuple[tuple[float, ...], ...]
    lambda_hat: tuple[tuple[float, ...], ...]
    pi_hat: tuple[tuple[float, ...], ...]
    pi_prod: tuple[float, ...]
    weights: tuple[float, ...]
    theta_hat: float
    variance: float
    m: float

    def __post_init__(self) -> None:
        fields = {
            "Lambda_hat": tuple(_float_tuple(row, "rates") for row in self.Lambda_hat),
            "lambda_hat": tuple(_float_tuple(row, "rates") for row in self.lambda_hat),
            "pi_hat": tuple(_float_tuple(row, "sampling rates") for row in self.pi_hat),
            "pi_prod": _float_tuple(self.pi_prod, "sampling rates"),
            "weights": _float_tuple(self.weights, "weights"),
            "theta_hat": _real(self.theta_hat, "theta_hat"),
            "variance": _real(self.variance, "variance"),
            "m": check_mileage(self.m),
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        rates, pis = self.Lambda_hat + self.lambda_hat, self.pi_hat
        H, T = len(pis), len(pis[0]) if pis else 0
        if not (
            H >= 1 and T >= 1
            and len(self.Lambda_hat) == len(self.lambda_hat) == len(self.pi_prod) == H
            and len(self.weights) == H
            and all(len(row) == T + 1 for row in rates) and all(len(row) == T for row in pis)
        ):
            raise InvalidDataError(
                "an estimate needs H >= 1 strata, each with T + 1 rates and T >= 1 "
                f"sampling rates, got {len(self.Lambda_hat)} Lambda_hat rows, "
                f"{len(self.lambda_hat)} lambda_hat rows, {H} pi_hat rows, "
                f"{len(self.pi_prod)} pi_prod and {len(self.weights)} weights"
            )

        theta, variance, w_max = self.theta_hat, self.variance, max(self.weights)
        if variance < 0:  # it would fail the moments below, under a message about mileage
            raise InvalidDataError(f"variance must be non-negative, got {variance!r}")
        mean, upper_var = theta + w_max, variance + w_max * w_max
        moments = (sum(row[0] for row in self.Lambda_hat), mean * mean, upper_var)
        if not (
            all(map(math.isfinite, moments)) and upper_var > 0 and (not theta > 0 or variance > 0)
        ):
            raise InvalidDataError(
                f"mileage m={self.m!r} does not suit these counts: the rate estimates, "
                "their weights or the interval moments overflow or vanish"
            )

        # After the moments: a fit that overflowed holds NaN rates, which their message explains.
        for row in ((theta,), *rates):
            for v in row:
                if not v >= 0:
                    raise InvalidDataError(f"rates must be non-negative, got {v!r}")
        for row in (self.pi_prod, *pis):
            for v in row:
                if not 0 < v <= 1:
                    raise InvalidDataError(f"sampling rates must lie in (0, 1], got {v!r}")
        for v in self.weights:
            if not v > 0:
                raise InvalidDataError(f"weights must be positive, got {v!r}")

    @property
    def theta_by_stratum(self) -> tuple[float, ...]:
        return tuple(lam[-1] for lam in self.lambda_hat)


@dataclass(frozen=True)
class IntervalResult:
    """A two-sided confidence interval for the aggregate rate."""

    method: str
    level: float
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if self.method not in CI_METHODS:
            raise InvalidDataError(
                f"unknown interval method {self.method!r}; expected one of {CI_METHODS}"
            )
        object.__setattr__(self, "level", check_level(self.level))
        object.__setattr__(self, "lower", _real(self.lower, "interval lower bound"))
        object.__setattr__(self, "upper", _real(self.upper, "interval upper bound"))
        if not self.lower <= self.upper:
            raise InvalidDataError(
                f"interval bounds are inverted: ({self.lower!r}, {self.upper!r})"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower
