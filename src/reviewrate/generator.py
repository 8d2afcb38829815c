"""Exact simulation of the partial tiered review process.

Per stratum the process is: latent class counts are drawn as independent
Poissons, then each tier reviews a without-replacement sample of the current
pool, rejects the events its reviewers would label false, and escalates the
rest. The without-replacement subset is realized at the count level as a
single multivariate hypergeometric split per tier, which is equal in law to
sampling individual events and never materializes them.

Draw order per stratum is fixed so results are bit-reproducible: the T+1
Poisson draws in class order, then per tier one binomial draw followed by one
multivariate hypergeometric draw.

This is the latent-table reference behind ``generate`` and its ``--latent``
output. Studies and the bootstrap use the batch sampler in ``_batch``, which
draws only the observed counts, from the same law.
"""

from __future__ import annotations

from .distributions import RngStream, sample_binomial, sample_mv_hypergeometric, sample_poisson
from .model import (
    Dataset,
    InvalidDataError,
    LatentTable,
    ObservedStratum,
    Scenario,
    StratumParams,
    check_mileage,
    validate_observed,
)

__all__ = ["generate_stratum", "generate_dataset"]

# numpy's hypergeometric needs both the drawn class and the rest of the pool below this.
_SPLIT_LIMIT = 10**9


def generate_stratum(
    params: StratumParams, m: float, rng: RngStream
) -> tuple[LatentTable, ObservedStratum]:
    """Simulate one stratum, returning both the latent truth and the observed counts.

    The review of tier t runs only while the incoming pool is non-empty; a
    non-empty pool is always reviewed at least once (the binomial sample size
    is clamped up to 1, with the forced single review drawn uniformly from
    the pool). An empty pool terminates the stratum with zero-filled counts.
    A pool whose rejected class or remaining classes reach 1e9 events cannot
    be split and raises :class:`InvalidDataError`.
    """
    check_mileage(m)
    T = params.tiers

    # x[t][s]: events of class t still present in escalation set s.
    x = [[0] * (T + 1) for _ in range(T + 1)]
    for t in range(T + 1):
        x[t][0] = sample_poisson(m * params.lambdas[t], rng)

    e = [0] * (T + 1)
    n = [0] * T
    e[0] = sum(x[t][0] for t in range(T + 1))

    for t in range(1, T + 1):
        if e[t - 1] == 0:
            break
        b = sample_binomial(e[t - 1], params.pis[t - 1], rng)
        n[t - 1] = max(1, b)
        pool = [x[k][t - 1] for k in range(t - 1, T + 1)]
        if max(pool[0], e[t - 1] - pool[0]) >= _SPLIT_LIMIT:
            raise InvalidDataError(
                f"tier {t} pool of {e[t - 1]} events is beyond the latent-table generator's "
                f"limit: its hypergeometric split needs the rejected class and the rest of the "
                f"pool each below {_SPLIT_LIMIT:,} events"
            )
        drawn = sample_mv_hypergeometric(pool, n[t - 1], rng)
        # drawn[0] is the count of events the tier rejects; the rest escalate.
        for offset, k in enumerate(range(t, T + 1), start=1):
            x[k][t] = drawn[offset]
        e[t] = n[t - 1] - drawn[0]

    latent = LatentTable(x=tuple(tuple(x[t][: t + 1]) for t in range(T + 1)))
    observed = ObservedStratum(e=tuple(e), n=tuple(n))

    assert latent.escalation_totals() == observed.e, "latent columns disagree with pools"
    check = validate_observed(observed, tiers=T)
    assert check, f"generated stratum violates an invariant: {check.reason}"
    return latent, observed


def generate_dataset(scenario: Scenario, rng: RngStream) -> tuple[tuple[LatentTable, ...], Dataset]:
    """Simulate every stratum of a scenario on disjoint child streams.

    Stratum h always consumes the child stream at index h, so results are
    identical no matter how callers schedule the work.
    """
    latents = []
    observed = []
    for h, params in enumerate(scenario.strata):
        latent, obs = generate_stratum(params, scenario.config.m, rng.child(h))
        latents.append(latent)
        observed.append(obs)
    return tuple(latents), Dataset(config=scenario.config, strata=tuple(observed))
