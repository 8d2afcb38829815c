"""Exact simulation of the partial tiered review process, latent table included.

Per stratum the process is: latent class counts are drawn as independent
Poissons, then each tier reviews a without-replacement sample of the current
pool, rejects the events its reviewers would label false, and escalates the
rest. The observed counts (e, n) come from the batch sampler in ``_batch``,
one lane for every stratum at once. The latent class table is then completed
backwards from them by its conditional law given the observables: set T
holds only class T, and the events tier s+1 left unreviewed, ``e_s - n_{s+1}``
of them, are multinomial over the classes k >= s with weights lambda_k,
independently across tiers (the urn-composition identity).

Draw order: the batch sampler's draws for one lane of all strata, then per
tier from T-1 down to 0 one multinomial call over all strata.
"""

from __future__ import annotations

import numpy as np

from . import _batch
from .distributions import RngStream
from .model import Dataset, LatentTable, ObservedStratum, ReviewConfig, Scenario, StratumParams

__all__ = ["generate_stratum", "generate_dataset"]


def generate_stratum(
    params: StratumParams, m: float, rng: RngStream
) -> tuple[LatentTable, ObservedStratum]:
    """Simulate one stratum, returning both the latent truth and the observed counts.

    A one-stratum view of :func:`generate_dataset` on the H=1 scenario of
    ``params`` at mileage ``m``, under that scenario's rules: a positive
    finite ``m``, T >= 1 tiers and ``m * sum(params.lambdas)`` within the
    Poisson limit. A breach raises :class:`InvalidDataError`.
    """
    scenario = Scenario(config=ReviewConfig(m=m, H=1, T=params.tiers), strata=(params,))
    latents, dataset = generate_dataset(scenario, rng)
    return latents[0], dataset.strata[0]


def generate_dataset(scenario: Scenario, rng: RngStream) -> tuple[tuple[LatentTable, ...], Dataset]:
    """Simulate every stratum of a scenario in one draw from ``rng``.

    Stratum h is row h of every block the batch sampler and the completion
    draw; ``Scenario`` has checked the mileage, T >= 1 and the Poisson limit.
    A tier reviews a non-empty pool at least once (a forced single review is
    uniform over the pool); an empty pool ends the stratum with zero-filled
    counts. The observed counts become the ``Dataset`` before the latent
    table is completed, so a pool of 2**53 events or more, which no dataset
    can hold, raises :class:`InvalidDataError` before any multinomial draw.
    """
    lam, pis = _scenario_arrays(scenario)
    gen = rng.generator
    e, n = _batch.generate_counts(lam, pis, scenario.config.m, 1, gen)
    e, n = e[:, :, 0], n[:, :, 0]
    observed = (ObservedStratum(e=eh, n=nh) for eh, nh in zip(e.tolist(), n.tolist()))
    dataset = Dataset(config=scenario.config, strata=tuple(observed))
    H, T = scenario.config.H, scenario.config.T
    tail = np.cumsum(lam[:, ::-1], axis=1)[:, ::-1]

    # x[h, k, s]: events of class k still present in escalation set s, for k >= s.
    x = np.zeros((H, T + 1, T + 1), dtype=np.int64)
    x[:, T, T] = e[:, T]
    for s in range(T - 1, -1, -1):
        x[:, s + 1 :, s] = x[:, s + 1 :, s + 1]
        x[:, s, s] = n[:, s] - e[:, s + 1]
        # A zero tail rate means an empty pool, which any valid pvals split.
        weights = np.where(tail[:, s : s + 1] > 0, lam[:, s:], 1.0)
        pvals = weights / weights.sum(axis=1, keepdims=True)
        x[:, s:, s] += gen.multinomial(e[:, s] - n[:, s], pvals)

    latents = tuple(
        LatentTable(x=tuple(row[: k + 1] for k, row in enumerate(xh))) for xh in x.tolist()
    )
    for latent, obs in zip(latents, dataset.strata):
        assert latent.escalation_totals() == obs.e, "latent columns disagree with pools"
    return latents, dataset


def _scenario_arrays(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """The scenario's class rates (H, T+1) and sampling rates (H, T) as arrays."""
    lam = np.array([s.lambdas for s in scenario.strata], dtype=float)
    pis = np.array([s.pis for s in scenario.strata], dtype=float)
    return lam, pis
