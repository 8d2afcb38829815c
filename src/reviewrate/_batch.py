"""Vectorized replication engine, and the one implementation of the estimator and intervals.

Replicates the per-stratum review simulation and the point estimator across
many independent replications at once, with every replication occupying one
lane of the trailing array axis. The scalar estimator and intervals are
one-lane views of this module, and a lane's arithmetic does not depend on the
lane count.

The simulation draws only the observable counts (e, n), which are all the
estimator and the intervals read; ``generator`` completes the latent class
table from one lane of them. Without the forced single review, every leaf of a
stratum's review tree (the final survivors, and per tier the rejected and the
unreviewed events) is an independent Poisson count by thinning, and the
counts are sums of leaves; lanes where a non-empty pool got no review are
then repaired by the urn-composition identity (see ``generate_counts``). The
bootstrap simulates from the fit its caller already holds, and refits only
theta on its replicates, through the same survival-rate recursion as
``estimate_counts``. It leaves out the strata whose fitted surviving rate is
0, which add exactly 0 to every replicate, and folds out the tiers whose
fitted sampling rate is 1, which keeps the replicates' law, so the number of
draws it takes from its generator depends on the fit.

The Wald and gamma intervals share one plug-in variance, that of theta as a
weighted sum of independent Poisson counts, ``sum_h w_h^2 e_hT``, computed
once by ``estimate_counts``. It equals ``(1/m) sum_h lambda_hT / pi_h``, as
``lambda_hT = w_h e_hT``. The two intervals differ only in the shape of the
distribution they invert and in the gamma upper bound's shift by the largest
weight.

``scipy.special`` is imported by the quantile functions on first use, so a
process that never builds a Wald or gamma interval never loads scipy.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

__all__ = [
    "hypergeometric_split",
    "generate_counts",
    "estimate_counts",
    "wald_bounds",
    "moment_gamma_quantile",
    "gamma_bounds",
    "bootstrap_bounds",
]

# The most lanes for which ``generate_counts`` draws every leaf in one
# broadcast Poisson call; more lanes take one call per stratum and leaf.
_ONE_CALL_LANES = 128


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
    arrays ``e`` of shape (H, T+1, size) and ``n`` of shape (H, T, size).
    A ``size`` whose arrays numpy cannot hold raises ``MemoryError`` before any draw.

    Only the observables are drawn, by Poisson thinning of each stratum's
    review tree. Without the forced single review each event is reviewed at
    tier t with probability pi_t, independently of its class and of the other
    events, so every leaf of the tree is an independent Poisson count: the
    class-T events that survive all T tiers, at rate
    ``m * lambda_T * prod_{s<=T} pi_s``; the class t-1 events tier t rejects,
    at ``m * lambda_{t-1} * prod_{s<=t} pi_s``; and the events still in the
    pool that tier t leaves unreviewed, at
    ``m * tail_{t-1} * prod_{s<t} pi_s * (1 - pi_t)`` with
    ``tail_t = sum_{k>=t} lambda_k``. The counts are sums of leaves:
    ``e_T`` is the survivors leaf, ``n_t = e_t + rejected_t`` and
    ``e_{t-1} = n_t + unreviewed_t``.

    Then, per tier t from 1 to T, every lane whose non-empty pool got no
    review (``e_{t-1} > 0``, ``n_t = 0``) is repaired: ``n_t = 1`` and
    ``e_t = 1 - Bin(1, lambda_{t-1} / tail_{t-1})``. The review marks are
    independent of the pool's class mix, so given no review the mix is still
    multinomial in the class rates, and the one forced review rejects with
    that share. Those lanes' later counts were 0 and now follow from a pool
    of at most one event, which the next tiers repair in turn; this is the
    binomial chain ``n_t = max(1, Bin(e_{t-1}, pi_t))``,
    ``e_t = n_t - Bin(n_t, lambda_{t-1} / tail_{t-1})`` on a one-event pool.

    Draw order: the survivors leaf, then per tier from T down to 1 the
    rejected leaf and then the unreviewed leaf, each an (H, size) block in
    (stratum, lane) order, then per tier from 1 to T one binomial call for
    the repaired lanes, in (stratum, lane) order. Both Poisson paths draw the
    leaves in that order, so they take the same draws from ``gen``. At most
    ``_ONE_CALL_LANES`` lanes, such as one lane of a dataset, take every
    leaf in one broadcast call and sum the leaves along its leaf axis: there
    numpy's fixed cost per call, paid (2T+1)*H times by the per-row path,
    outweighs the broadcast path's higher cost per draw. Both costs scale
    with the (2T+1)*H rows, so the crossover is a lane count: near 200 lanes
    at each H and T tried. More lanes add one row at a time into the
    outputs (``_add_poisson``).
    """
    lambdas = np.asarray(lambdas, dtype=float)
    pis = np.asarray(pis, dtype=float)
    H, width = lambdas.shape
    T = width - 1
    # tail[:, t]: total rate of the classes still present in escalation set t.
    tail = np.cumsum(lambdas[:, ::-1], axis=1)[:, ::-1]
    reject = np.zeros((H, T))
    np.divide(lambdas[:, :T], tail[:, :T], out=reject, where=tail[:, :T] > 0)
    # reach[:, t]: m times the chance that an event is reviewed at tiers 1..t.
    reach = m * np.cumprod(np.hstack([np.ones((H, 1)), pis]), axis=1)

    try:
        e = np.empty((H, T + 1, size), dtype=np.int64)
        n = np.empty((H, T, size), dtype=np.int64)
    except ValueError as exc:  # numpy's refusal of a lane count past its address space
        raise MemoryError(f"{size} lanes do not fit in memory") from exc
    # The leaf rates (2T+1, H) in draw order; ``rates[0]`` is the survivors leaf.
    rates = np.empty((2 * T + 1, H))
    rates[0] = reach[:, T] * lambdas[:, T]
    rates[1::2] = (reach[:, :0:-1] * lambdas[:, T - 1 :: -1]).T
    rates[2::2] = (reach[:, T - 1 :: -1] * tail[:, T - 1 :: -1] * (1.0 - pis[:, ::-1])).T
    if size <= _ONE_CALL_LANES:
        # Running sums over the leaves: e_T, n_T, e_{T-1}, ..., n_1, e_0.
        sums = np.cumsum(gen.poisson(rates[:, :, None], size=(2 * T + 1, H, size)), axis=0)
        e[:] = sums[::-2].transpose(1, 0, 2)
        n[:] = sums[-2::-2].transpose(1, 0, 2)
    else:
        e[:, T] = 0
        _add_poisson(e[:, T], rates[0], gen, out=e[:, T])
        for t, rejected, unreviewed in zip(range(T, 0, -1), rates[1::2], rates[2::2]):
            _add_poisson(e[:, t], rejected, gen, out=n[:, t - 1])
            _add_poisson(n[:, t - 1], unreviewed, gen, out=e[:, t - 1])
    for t in range(1, T + 1):
        h, r = np.nonzero((e[:, t - 1] > 0) & (n[:, t - 1] == 0))
        if h.size:
            n[h, t - 1, r] = 1
            e[h, t, r] = 1 - gen.binomial(1, reject[h, t - 1])
    return e, n


def _add_poisson(
    base: np.ndarray, rates: np.ndarray, gen: np.random.Generator, out: np.ndarray
) -> None:
    """Set ``out[h] = base[h] + Poisson(rates[h])`` for each row h of an (H, size) block.

    The draws are those of ``gen.poisson(rates[:, None], size=out.shape)``,
    in the leaf order of ``generate_counts``: one call per row with a scalar
    rate skips numpy's broadcasting iterator, which costs about 10% more per
    draw, but pays numpy's fixed cost per call H times. ``generate_counts``
    calls it only on blocks of more than ``_ONE_CALL_LANES`` lanes.
    """
    for h, rate in enumerate(rates):
        np.add(base[h], gen.poisson(rate, out.shape[1]), out=out[h])


class BatchEstimate(NamedTuple):
    """Per-lane point estimates; array shapes follow ``generate_counts``."""

    Lambda: np.ndarray       # (H, T+1, R) survival-rate estimates
    lam: np.ndarray          # (H, T+1, R) per-class rate estimates
    pi_tier: np.ndarray      # (H, T, R) per-tier sampling-rate estimates
    pi_prod: np.ndarray      # (H, R) product over tiers
    weights: np.ndarray      # (H, R) inverse-sampling weights
    theta: np.ndarray        # (R,) aggregate rate estimate
    variance: np.ndarray     # (R,) plug-in variance of theta, sum_h w_h^2 e_hT
    w_max: np.ndarray        # (R,) largest per-stratum weight


def estimate_counts(e: np.ndarray, n: np.ndarray, m: float) -> BatchEstimate:
    """Vectorized point estimation on count arrays shaped like ``generate_counts`` output."""
    e = np.asarray(e)
    n = np.asarray(n)
    H, width, R = e.shape
    T = width - 1

    Lambda = np.empty((H, T + 1, R), dtype=float)
    for t, level in enumerate(_survival(e, n, m)):
        Lambda[:, t] = level

    lam = Lambda.copy()
    lam[:, :T] -= Lambda[:, 1:]

    pi_tier = np.where(e[:, :T] > 0, n / np.maximum(e[:, :T], 1), 1.0)
    pi_prod = pi_tier.prod(axis=1)
    weights = 1.0 / (m * pi_prod)

    theta = _strata_sum(Lambda[:, T])
    variance = _strata_sum(weights**2 * e[:, T])
    w_max = weights.max(axis=0)
    return BatchEstimate(Lambda, lam, pi_tier, pi_prod, weights, theta, variance, w_max)


def _survival(e: np.ndarray, n: np.ndarray, m: float) -> Iterator[np.ndarray]:
    """Yield the survival-rate estimates Lambda_0, ..., Lambda_T, each of shape (H, R)."""
    level = e[:, 0] / m
    yield level
    for t in range(1, e.shape[1]):
        # Escalation fraction first (e_t/n_t <= 1 exactly for integer counts)
        # keeps the sequence non-increasing to the last bit.
        level = np.where(e[:, t - 1] > 0, level * (e[:, t] / np.maximum(n[:, t - 1], 1)), 0.0)
        yield level


def _strata_sum(values: np.ndarray) -> np.ndarray:
    """Sum (H, R) values over strata in stratum order; ``sum(axis=0)`` adds pairwise at R=1."""
    total = np.zeros(values.shape[1:])
    for row in values:
        total += row
    return total


def wald_bounds(
    theta: np.ndarray, variance: np.ndarray, level: float
) -> tuple[np.ndarray, np.ndarray]:
    """Normal-approximation bounds per lane; the lower bound is not clamped at zero."""
    from scipy.special import ndtri

    z = ndtri(1.0 - (1.0 - level) / 2.0)
    half = z * np.sqrt(variance)
    return theta - half, theta + half


def moment_gamma_quantile(p: float, mean: np.ndarray, variance: np.ndarray) -> np.ndarray:
    """Quantile ``p`` of the gamma with shape mean^2/variance and scale variance/mean."""
    from scipy.special import gammaincinv

    return gammaincinv(mean * mean / variance, p) * (variance / mean)


def gamma_bounds(
    theta: np.ndarray, variance: np.ndarray, w_max: np.ndarray, level: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gamma bounds per lane from the weighted-sum-of-Poissons moments.

    Lanes with a zero estimate get a zero lower bound; the upper bound is
    always defined because its mean is shifted up by the largest weight.
    """
    alpha = 1.0 - level
    lower = np.zeros_like(theta)
    pos = theta > 0
    lower[pos] = moment_gamma_quantile(alpha / 2.0, theta[pos], variance[pos])
    upper = moment_gamma_quantile(1.0 - alpha / 2.0, theta + w_max, variance + w_max**2)
    return lower, upper


def bootstrap_bounds(
    lam: np.ndarray,
    pis: np.ndarray,
    m: float,
    level: float,
    n_replicates: int,
    gen: np.random.Generator,
) -> tuple[float, float]:
    """Plug-in parametric bootstrap interval for one dataset from its fit.

    ``lam`` and ``pis`` are the dataset's fitted class rates and sampling
    rates, shaped as ``generate_counts`` takes them: one lane of the caller's
    ``estimate_counts`` fit. Simulates ``n_replicates`` datasets from them in
    one batch, refits only theta on each, by the recursion
    ``estimate_counts`` uses, and returns the central quantiles. Replicates
    whose estimate is zero stay in the pool.

    Only the live strata, those with a positive fitted surviving rate
    ``lam[:, -1]``, are simulated, and their tiers with a fitted sampling
    rate of 1 are folded into the tier before, so how many draws are taken
    from ``gen`` depends on the fit; with no live stratum, nothing is drawn
    and the bounds are (0, 0). See ``_bootstrap_replicates``.
    """
    theta_b = _bootstrap_replicates(lam, pis, m, n_replicates, gen)
    alpha = 1.0 - level
    lower, upper = np.quantile(theta_b, [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(lower), float(upper)


def _bootstrap_replicates(
    lam: np.ndarray, pis: np.ndarray, m: float, n_replicates: int, gen: np.random.Generator
) -> np.ndarray:
    """Theta refitted on ``n_replicates`` datasets simulated from the fit (lam, pis).

    Strata with ``lam[:, -1] == 0`` are left out, and the fully reviewed
    tiers of the others are folded out by ``_fold_full_tiers``, which keeps
    the replicates' law. Leaving out a stratum with a zero surviving rate
    changes neither the replicates' law nor any replicate's value given the
    live strata's counts.
    In such a stratum every pool whose tail rate is 0 is empty in every lane,
    forced single reviews included, by induction over the tiers: all its
    Poisson leaves have rate 0, and a forced review of the pool before it
    rejects with certainty, as that pool's tail rate is its class rate alone
    (or that pool is empty too). So its ``e_T`` is 0, its ``Lambda_T`` is
    +0.0, and adding it to the stratum sum changes nothing. Strata draw
    independently, so the live strata's counts have the same joint law
    without it.
    """
    live = lam[:, -1] > 0
    e_b, n_b = generate_counts(*_fold_full_tiers(lam[live], pis[live]), m, n_replicates, gen)
    *_, lam_T = _survival(e_b, n_b, m)
    return _strata_sum(lam_T)


def _fold_full_tiers(lam: np.ndarray, pis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An equivalent review tree for (lam, pis) without the tiers whose ``pis`` is 1.

    A tier t with pi_t = 1 is dropped. Its rejected class t-1 merges into the
    class rejected at the last kept tier before it (rates added in class
    order), and is dropped if no tier before it is kept. The survivors' rate
    is unchanged. Each stratum is then front-padded, to the largest number of
    kept tiers in the batch, with pass-through tiers of class rate 0 and
    sampling rate 1. A fit without such a tier comes back with the same
    values, so ``generate_counts`` draws from it exactly as from (lam, pis).

    Theta refitted by ``_survival`` keeps its law under the folded tree. In
    law a stratum's counts are the chain ``e_0 ~ Poisson(m * tail_0)`` and,
    while ``e_{t-1} > 0``, ``n_t = max(1, Bin(e_{t-1}, pi_t))``,
    ``e_t = n_t - Bin(n_t, lambda_{t-1} / tail_{t-1})``, all 0 after an empty
    pool: given its size a pool's class mix is multinomial in the tail
    shares, and a review is a uniform sample of it.

    - A tier t with pi_t = 1 reviews its whole pool, so ``n_t = e_{t-1}`` and
      ``e_t ~ Bin(e_{t-1}, tail_t / tail_{t-1})``. Binomial thinnings
      compose: after a kept tier k and full tiers k+1..j, ``e_j ~ Bin(n_k,
      tail_j / tail_{k-1})``, which is one review at tier k that rejects the
      merged classes k-1..j-1 with their summed share, forced single review
      included. Before the first kept tier k, ``e_{k-1} ~ Poisson(m *
      tail_{k-1})``: the folded tree's first pool, without classes 0..k-2.
    - Theta reads the full tiers only through their factors ``e_t / n_t =
      e_t / e_{t-1}``, which telescope: with the factor of kept tier k,
      ``(e_k / n_k) * (e_j / e_k) = e_j / n_k``, and before the first kept
      tier ``(e_0 / m) * (e_{k-1} / e_0) = e_{k-1} / m``. Where a pool is
      empty both sides are 0 from there on. So theta is the same function of
      the kept tiers' pools and review counts and of ``e_T`` in both trees,
      and those have the same joint law.
    - A pass-through tier reviews its whole pool and rejects nothing, so its
      pool and its escalation set are the pool before it, its factor is
      exactly 1 (or the level is already 0) and it never forces a review.

    The replicates' values can differ in the last bits, since the product
    and the tail rates are rounded in a different order.
    """
    folded = []
    for lam_h, pis_h in zip(lam.tolist(), pis.tolist()):
        classes, kept = [], []
        # Tier t rejects class t-1.
        for rate, pi in zip(lam_h, pis_h):
            if pi != 1.0:
                classes.append(rate)
                kept.append(pi)
            elif classes:
                classes[-1] += rate
        folded.append((classes + lam_h[-1:], kept))
    width = max((len(kept) for _, kept in folded), default=0)
    lam_f = np.zeros((len(folded), width + 1))
    pis_f = np.ones((len(folded), width))
    for h, (classes, kept) in enumerate(folded):
        lam_f[h, width + 1 - len(classes):] = classes
        pis_f[h, width - len(kept):] = kept
    return lam_f, pis_f
