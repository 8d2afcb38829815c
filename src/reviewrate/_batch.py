"""Vectorized replication engine, and the one implementation of the estimator and intervals.

Replicates the per-stratum review simulation and the point estimator across
many independent replications at once, with every replication occupying one
lane of the trailing array axis. The scalar estimator and intervals are
one-lane views of this module, and a lane's arithmetic does not depend on the
lane count.

The simulation draws only the observable counts (e, n), which are all the
estimator and the intervals read, and never builds the scalar generator's
latent class table: by the urn-composition identity each tier's rejections
are one binomial draw on its review count (see ``generate_counts``). Its
counts are equal in law to the scalar generator's observed counts, from a
different random-draw layout.

``scipy.special`` is imported by the quantile functions on first use, so a
process that never builds a Wald or gamma interval never loads scipy.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "hypergeometric_split",
    "generate_counts",
    "estimate_counts",
    "wald_variance",
    "gamma_variance",
    "wald_bounds",
    "moment_gamma_quantile",
    "gamma_bounds",
    "bootstrap_bounds",
]


def hypergeometric_split(
    counts: np.ndarray, n_draw: np.ndarray, gen: np.random.Generator
) -> np.ndarray:
    """Split ``n_draw[r]`` without-replacement draws across the classes ``counts[:, r]``.

    ``counts`` has shape (K, R); one univariate hypergeometric call per class
    covers all R lanes. Column sums of the result equal ``n_draw``. No code in
    the package calls it: it is kept as the vectorized reference split that
    the urn-composition check of the acceptance suite draws from. numpy's
    hypergeometric needs every class count and pool remainder below 1e9.
    """
    K = counts.shape[0]
    out = np.zeros_like(counts)
    remaining_pool = counts.sum(axis=0)
    remaining_draw = np.asarray(n_draw).copy()
    for k in range(K):
        ngood = counts[k]
        y = gen.hypergeometric(ngood, remaining_pool - ngood, remaining_draw)
        out[k] = y
        remaining_draw -= y
        remaining_pool -= ngood
    return out


def generate_counts(
    lambdas: np.ndarray,
    pis: np.ndarray,
    m: float,
    size: int,
    gen: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate ``size`` independent replications of every stratum's observed counts.

    ``lambdas`` has shape (H, T+1) and ``pis`` shape (H, T). Returns integer
    arrays ``e`` of shape (H, T+1, size) and ``n`` of shape (H, T, size),
    equal in law to the observed counts of the latent-table generator.

    Only the observables are drawn. Given its size, a pool's class mix is
    multinomial with the class rates as weights, and a uniform review sample
    keeps that law, so the events a tier rejects are binomial in its review
    count. Per stratum: ``e_0 ~ Poisson(m * sum_k lambda_k)``, then per tier
    ``n_t = max(1, Bin(e_{t-1}, pi_t))`` on a non-empty pool (else 0) and
    ``e_t = n_t - Bin(n_t, lambda_{t-1} / sum_{k>=t-1} lambda_k)``, with the
    share taken as 0 where that tail sum is 0. Draw order: one Poisson call
    for all strata, then per tier one binomial call for the review counts and
    one for the rejections, each drawing an (H, size) block.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    pis = np.asarray(pis, dtype=float)
    H, width = lambdas.shape
    T = width - 1
    # tail[:, t]: total rate of the classes still present in escalation set t.
    tail = np.cumsum(lambdas[:, ::-1], axis=1)[:, ::-1]
    reject = np.zeros((H, T))
    np.divide(lambdas[:, :T], tail[:, :T], out=reject, where=tail[:, :T] > 0)

    e = np.empty((H, T + 1, size), dtype=np.int64)
    n = np.empty((H, T, size), dtype=np.int64)
    e[:, 0] = gen.poisson(m * tail[:, :1], size=(H, size))
    for t in range(1, T + 1):
        pool = e[:, t - 1]
        reviewed = np.where(pool > 0, np.maximum(gen.binomial(pool, pis[:, t - 1 : t]), 1), 0)
        n[:, t - 1] = reviewed
        e[:, t] = reviewed - gen.binomial(reviewed, reject[:, t - 1 : t])
    return e, n


class BatchEstimate(NamedTuple):
    """Per-lane point estimates; array shapes follow ``generate_counts``."""

    Lambda: np.ndarray       # (H, T+1, R) survival-rate estimates
    lam: np.ndarray          # (H, T+1, R) per-class rate estimates
    pi_tier: np.ndarray      # (H, T, R) per-tier sampling-rate estimates
    pi_prod: np.ndarray      # (H, R) product over tiers
    weights: np.ndarray      # (H, R) inverse-sampling weights
    theta: np.ndarray        # (R,) aggregate rate estimate
    wald_var: np.ndarray     # (R,) plug-in asymptotic variance of theta
    gamma_var: np.ndarray    # (R,) weighted-sum-of-Poissons variance
    w_max: np.ndarray        # (R,) largest per-stratum weight


def estimate_counts(e: np.ndarray, n: np.ndarray, m: float) -> BatchEstimate:
    """Vectorized point estimation on count arrays shaped like ``generate_counts`` output."""
    e = np.asarray(e)
    n = np.asarray(n)
    H, width, R = e.shape
    T = width - 1

    Lambda = np.empty((H, T + 1, R), dtype=float)
    Lambda[:, 0] = e[:, 0] / m
    for t in range(1, T + 1):
        n_t = n[:, t - 1]
        # Escalation fraction first (e_t/n_t <= 1 exactly for integer counts)
        # keeps the sequence non-increasing to the last bit.
        Lambda[:, t] = np.where(
            e[:, t - 1] > 0, Lambda[:, t - 1] * (e[:, t] / np.maximum(n_t, 1)), 0.0
        )

    lam = Lambda.copy()
    lam[:, :T] -= Lambda[:, 1:]

    pi_tier = np.where(e[:, :T] > 0, n / np.maximum(e[:, :T], 1), 1.0)
    pi_prod = pi_tier.prod(axis=1)
    weights = 1.0 / (m * pi_prod)

    lam_T = Lambda[:, T]
    theta = _strata_sum(lam_T)
    wald_var = wald_variance(lam_T, pi_prod, m)
    gamma_var = gamma_variance(weights, e[:, T])
    w_max = weights.max(axis=0)
    return BatchEstimate(Lambda, lam, pi_tier, pi_prod, weights, theta, wald_var, gamma_var, w_max)


def _strata_sum(values: np.ndarray) -> np.ndarray:
    """Sum (H, R) values over strata in stratum order; ``sum(axis=0)`` adds pairwise at R=1."""
    total = np.zeros(values.shape[1:])
    for row in values:
        total += row
    return total


def wald_variance(lam_T: np.ndarray, pi_prod: np.ndarray, m: float) -> np.ndarray:
    """Plug-in asymptotic variance of theta per lane: ``(1/m) * sum_h lambda_hT / pi_h``."""
    return _strata_sum(lam_T / pi_prod) / m


def gamma_variance(weights: np.ndarray, e_T: np.ndarray) -> np.ndarray:
    """Variance of the weighted sum of independent Poissons per lane: ``sum_h w_h^2 e_hT``."""
    return _strata_sum(weights**2 * e_T)


def wald_bounds(
    theta: np.ndarray, wald_var: np.ndarray, level: float
) -> tuple[np.ndarray, np.ndarray]:
    """Normal-approximation bounds per lane; the lower bound is not clamped at zero."""
    from scipy.special import ndtri

    z = ndtri(1.0 - (1.0 - level) / 2.0)
    half = z * np.sqrt(wald_var)
    return theta - half, theta + half


def moment_gamma_quantile(p: float, mean: np.ndarray, variance: np.ndarray) -> np.ndarray:
    """Quantile ``p`` of the gamma with shape mean^2/variance and scale variance/mean."""
    from scipy.special import gammaincinv

    return gammaincinv(mean * mean / variance, p) * (variance / mean)


def gamma_bounds(
    theta: np.ndarray, gamma_var: np.ndarray, w_max: np.ndarray, level: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gamma bounds per lane from the weighted-sum-of-Poissons moments.

    Lanes with a zero estimate get a zero lower bound; the upper bound is
    always defined because its mean is shifted up by the largest weight.
    """
    alpha = 1.0 - level
    lower = np.zeros_like(theta)
    pos = theta > 0
    lower[pos] = moment_gamma_quantile(alpha / 2.0, theta[pos], gamma_var[pos])
    upper = moment_gamma_quantile(1.0 - alpha / 2.0, theta + w_max, gamma_var + w_max**2)
    return lower, upper


def bootstrap_bounds(
    e_obs: np.ndarray,
    n_obs: np.ndarray,
    m: float,
    level: float,
    n_replicates: int,
    gen: np.random.Generator,
) -> tuple[float, float]:
    """Plug-in parametric bootstrap interval for one observed dataset.

    Refits the generative parameters from the observed counts, simulates
    ``n_replicates`` datasets from them in one batch, re-estimates the
    aggregate rate on each, and returns the central quantiles. Replicates
    whose estimate is zero stay in the pool.
    """
    fit = estimate_counts(e_obs[:, :, None], n_obs[:, :, None], m)
    lam_plug = fit.lam[:, :, 0]
    pi_plug = fit.pi_tier[:, :, 0]
    e_b, n_b = generate_counts(lam_plug, pi_plug, m, n_replicates, gen)
    theta_b = estimate_counts(e_b, n_b, m).theta
    alpha = 1.0 - level
    lower, upper = np.quantile(theta_b, [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(lower), float(upper)
