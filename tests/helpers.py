"""Shared oracles, reference samplers and a two-sample law test for the test suite."""

import numpy as np


def mp_gamma_quantile(p, shape):
    """Invert the regularized lower incomplete gamma by bisection at 40 digits."""
    import mpmath as mp

    mp.mp.dps = 40
    p = mp.mpf(p)
    shape = mp.mpf(shape)
    lo, hi = mp.mpf(0), mp.mpf(max(1.0, float(shape)))
    while mp.gammainc(shape, 0, hi, regularized=True) < p:
        hi *= 2
    for _ in range(200):
        mid = (lo + hi) / 2
        if mp.gammainc(shape, 0, mid, regularized=True) < p:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def two_sample_chi2(a, b):
    """Two-sample chi-square of two Counters of equal total, every cell below 10
    draws over both samples lumped into one, which is left out when empty.
    Returns (chi2, cells, p-value); fewer than 2 cells raise ValueError."""
    from scipy import stats

    lumped, rows = [0, 0], []
    for cell in a.keys() | b.keys():
        if a[cell] + b[cell] >= 10:
            rows.append([a[cell], b[cell]])
        else:
            lumped[0] += a[cell]
            lumped[1] += b[cell]
    if sum(lumped):
        rows.insert(0, lumped)
    if len(rows) < 2:
        raise ValueError(f"two-sample chi-square needs at least 2 cells, got {len(rows)}")
    table = np.array(rows, dtype=float)
    total = table.sum(axis=1)
    chi2 = ((table[:, 0] - table[:, 1]) ** 2 / total).sum()
    return chi2, len(table), stats.chi2.sf(chi2, df=len(table) - 1)


def reference_estimate(strata, m):
    """The point estimator as a plain loop over strata and tiers, in Python floats.

    It is independent of ``reviewrate._batch`` and adds and multiplies in the
    order the batch engine must match, so tests can require exact agreement.
    Returns ``(Lambda_hat, lambda_hat, pi_hat, pi_prod, weights, theta_hat)``.
    """
    Lambda_hat, lambda_hat, pi_hat = [], [], []
    for s in strata:
        e, n = s.e, s.n
        Lam = [e[0] / m]
        for t in range(1, len(e)):
            # The escalation fraction first: e_t/n_t <= 1 keeps Lam non-increasing.
            Lam.append(0.0 if e[t - 1] == 0 else Lam[t - 1] * (e[t] / n[t - 1]))
        T = len(Lam) - 1
        Lambda_hat.append(tuple(Lam))
        lambda_hat.append(tuple(Lam[t] - Lam[t + 1] for t in range(T)) + (Lam[T],))
        pi_hat.append(tuple(n[t - 1] / e[t - 1] if e[t - 1] > 0 else 1.0 for t in range(1, len(e))))

    pi_prod = []
    for pis in pi_hat:
        prod = 1.0
        for p in pis:
            prod *= p
        pi_prod.append(prod)
    weights = tuple(1.0 / (m * prod) for prod in pi_prod)
    theta_hat = sum(lam[-1] for lam in lambda_hat)
    return tuple(Lambda_hat), tuple(lambda_hat), tuple(pi_hat), tuple(pi_prod), weights, theta_hat


def reference_variance(strata, m):
    """The plug-in variance ``sum_h w_h^2 e_hT`` of ``reference_estimate``, by loop."""
    weights = reference_estimate(strata, m)[4]
    return sum(w * w * s.e[-1] for w, s in zip(weights, strata))


def em_fixed_point_residual_t2(stratum, lambdas, m=1.0):
    """Residuals of the two-tier EM fixed-point system at a candidate rate triple.

    The oracle of the closed-form estimator: at a maximum of the likelihood,
    the expectation-maximization update of the latent class counts must leave
    the rates unchanged. Each residual is the candidate rate minus the
    conditional expectation of the matching latent class count given the
    observed counts; all three vanish exactly at the maximum-likelihood
    rates, and perturbed points do not. Counts are evaluated at mileage 1, so
    callers pass rates scaled by ``m`` (the default leaves them untouched).

    The expectation allocates the unreviewed portion of each pool across the
    classes still alive there, proportionally to the candidate rates. When
    the surviving-class mass ``lambdas[1] + lambdas[2]`` is zero, there is no
    mass to allocate proportionally and that allocation term is dropped,
    which keeps the oracle informative at such degenerate candidate points
    instead of failing on them.
    """
    from reviewrate.estimator import estimate_theta
    from reviewrate.model import Dataset, InvalidDataError, ReviewConfig, _float_tuple, check_mileage

    # Raises on invalid counts.
    estimate_theta(Dataset(config=ReviewConfig(m=1.0, H=1, T=stratum.tiers), strata=(stratum,)))
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

    def tail_share(lam):
        return lam / tail if tail > 0 else 0.0

    expect0 = (e[0] - n[0]) * (lam0 / total) + (n[0] - e[1])
    expect1 = (e[0] - n[0]) * (lam1 / total) + (e[1] - n[1]) * tail_share(lam1) + (n[1] - e[2])
    expect2 = (e[0] - n[0]) * (lam2 / total) + (e[1] - n[1]) * tail_share(lam2) + e[2]
    return (lam0 - expect0, lam1 - expect1, lam2 - expect2)


# numpy's hypergeometric needs both the drawn class and the rest of the pool below this.
_SPLIT_LIMIT = 10**9


def reference_generate_stratum(params, m, rng):
    """The latent-table generator as a sequential split loop, independent of ``_batch``.

    Latent class counts are drawn as independent Poissons in class order,
    then per tier one binomial draw sizes the review (clamped up to 1 on a
    non-empty pool) and one multivariate hypergeometric draw splits it
    across the pool's classes. An empty pool terminates the stratum. Returns
    ``(LatentTable, ObservedStratum)``, the same law as ``generate_stratum``.
    """
    from reviewrate.distributions import sample_binomial, sample_mv_hypergeometric, sample_poisson
    from reviewrate.model import LatentTable, ObservedStratum, check_mileage

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
        assert max(pool[0], e[t - 1] - pool[0]) < _SPLIT_LIMIT, "pool beyond the split limit"
        drawn = sample_mv_hypergeometric(pool, n[t - 1], rng)
        # drawn[0] is the count of events the tier rejects; the rest escalate.
        for offset, k in enumerate(range(t, T + 1), start=1):
            x[k][t] = drawn[offset]
        e[t] = n[t - 1] - drawn[0]

    latent = LatentTable(x=tuple(tuple(x[t][: t + 1]) for t in range(T + 1)))
    observed = ObservedStratum(e=tuple(e), n=tuple(n))
    assert latent.escalation_totals() == observed.e, "latent columns disagree with pools"
    return latent, observed


def reference_generate_dataset(scenario, rng):
    """``reference_generate_stratum`` per stratum, stratum h on the child stream ``rng.child(h)``.

    Returns ``(latents, Dataset)`` like ``generate_dataset``.
    """
    from reviewrate.model import Dataset

    pairs = [
        reference_generate_stratum(params, scenario.config.m, rng.child(h))
        for h, params in enumerate(scenario.strata)
    ]
    latents = tuple(latent for latent, _ in pairs)
    return latents, Dataset(config=scenario.config, strata=tuple(obs for _, obs in pairs))
