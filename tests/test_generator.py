"""Tests for the tiered review simulator."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from reviewrate import (
    RngStream,
    ReviewConfig,
    Scenario,
    StratumParams,
    generate_dataset,
    generate_stratum,
    scenario_common,
    scenario_rare,
    validate_observed,
)
from reviewrate import _batch
from reviewrate.study import _scenario_arrays


def random_params(gen, tiers=3, lam_high=8.0):
    lambdas = tuple(float(v) for v in gen.uniform(0.0, lam_high, size=tiers + 1))
    pis = tuple(float(v) for v in gen.uniform(0.05, 1.0, size=tiers))
    return StratumParams(lambdas=lambdas, pis=pis)


class TestGenerateStratum:
    def test_empty_corpus(self):
        params = StratumParams(lambdas=(0.0, 0.0, 0.0, 0.0), pis=(0.5, 0.5, 0.5))
        for seed in range(20):
            latent, obs = generate_stratum(params, 1.0, RngStream(seed))
            assert obs.e == (0, 0, 0, 0)
            assert obs.n == (0, 0, 0)
            assert all(v == 0 for row in latent.x for v in row)

    def test_complete_review_no_false_positives(self):
        params = StratumParams(lambdas=(0.0, 0.0, 0.0, 4.0), pis=(1.0, 1.0, 1.0))
        for seed in range(50):
            latent, obs = generate_stratum(params, 1.0, RngStream(seed))
            assert obs.e[-1] == latent.x[3][0]
            for t in range(1, 4):
                if obs.e[t - 1] > 0:
                    assert obs.n[t - 1] == obs.e[t - 1]

    def test_invariants_on_randomized_parameters(self):
        gen = np.random.default_rng(1234)
        root = RngStream(888)
        for i in range(400):
            tiers = int(gen.integers(1, 5))
            params = random_params(gen, tiers=tiers)
            m = float(gen.uniform(0.2, 3.0))
            latent, obs = generate_stratum(params, m, root.child(i))
            assert validate_observed(obs, tiers=tiers)
            assert latent.escalation_totals() == obs.e

    def test_forced_single_review(self):
        # tiny sampling rate on a non-empty pool still reviews at least one event
        params = StratumParams(lambdas=(0.0, 5.0), pis=(0.001,))
        seen_forced = False
        for seed in range(200):
            _, obs = generate_stratum(params, 1.0, RngStream(seed))
            if obs.e[0] > 0:
                assert obs.n[0] >= 1
                seen_forced = seen_forced or obs.n[0] == 1
        assert seen_forced

    def test_mean_pool_size_matches_rates(self):
        # single stratum of the common study's first row: total rate 35.5
        params = StratumParams(lambdas=(10.0, 5.0, 2.5, 18.0), pis=(0.5, 0.5, 0.95))
        reps = 10**5
        root = RngStream(35)
        total = 0
        for i in range(reps):
            _, obs = generate_stratum(params, 1.0, root.child(i))
            total += obs.e[0]
        expected = 35.5
        assert abs(total / reps - expected) < 3 * math.sqrt(expected / reps)

    def test_determinism(self):
        params = StratumParams(lambdas=(2.0, 1.0, 4.0), pis=(0.4, 0.8))
        a = generate_stratum(params, 1.5, RngStream(3, (1, 2)))
        b = generate_stratum(params, 1.5, RngStream(3, (1, 2)))
        assert a == b

    def test_invalid_mileage(self):
        params = StratumParams(lambdas=(1.0, 1.0), pis=(0.5,))
        with pytest.raises(ValueError):
            generate_stratum(params, 0.0, RngStream(1))


class TestGenerateDataset:
    def test_single_stratum_reduction(self):
        params = StratumParams(lambdas=(3.0, 1.0, 2.0, 6.0), pis=(0.5, 0.7, 0.9))
        scen = Scenario(config=ReviewConfig(m=1.0, H=1, T=3), strata=(params,))
        root = RngStream(52)
        latents, ds = generate_dataset(scen, root)
        latent_direct, obs_direct = generate_stratum(params, 1.0, root.child(0))
        assert latents[0] == latent_direct
        assert ds.strata[0] == obs_direct

    def test_common_scenario_shapes(self):
        scen = scenario_common(0.5)
        latents, ds = generate_dataset(scen, RngStream(62))
        assert len(ds.strata) == 5
        assert all(len(s.e) == 4 and len(s.n) == 3 for s in ds.strata)
        assert len(latents) == 5
        assert scen.theta == 58.0

    def test_determinism(self):
        scen = scenario_common(0.3)
        a = generate_dataset(scen, RngStream(9))
        b = generate_dataset(scen, RngStream(9))
        assert a == b


class TestThinningConsistency:
    def test_single_tier_escalations_match_thinned_rate(self):
        # T=1 at large mileage: escalated counts behave like a Poisson with the
        # thinned rate m*lambda_1*pi_1 (the forced-review correction is negligible)
        m, lam1, pi1 = 50.0, 2.0, 0.37
        params = StratumParams(lambdas=(1.0, lam1), pis=(pi1,))
        reps = 2 * 10**4
        root = RngStream(77)
        total = 0
        for i in range(reps):
            _, obs = generate_stratum(params, m, root.child(i))
            total += obs.e[1]
        target = m * lam1 * pi1
        assert abs(total / reps - target) < 3 * math.sqrt(target / reps)


class TestBatchEngineAgreesInLaw:
    def test_tier_means_match_scalar_engine(self):
        scen = scenario_common(0.4)
        lam, pis = _scenario_arrays(scen)
        reps = 2 * 10**4

        e_batch, n_batch = _batch.generate_counts(lam, pis, 1.0, reps, RngStream(4).generator)
        batch_means = {"e": e_batch.mean(axis=2), "n": n_batch.mean(axis=2)}

        root = RngStream(5)
        scalar_sums = {"e": np.zeros((5, 4)), "n": np.zeros((5, 3))}
        for i in range(reps):
            _, ds = generate_dataset(scen, root.child(i))
            scalar_sums["e"] += np.array([s.e for s in ds.strata])
            scalar_sums["n"] += np.array([s.n for s in ds.strata])

        # each entry is an MC mean of the same law from both engines;
        # compare with a combined-error budget of 4 standard errors, taking
        # n_t's from the pool e_{t-1} it is drawn from (same array index)
        for key, batch in batch_means.items():
            scalar = scalar_sums[key] / reps
            for (h, t), value in np.ndenumerate(batch):
                se = math.sqrt(2 * max(batch_means["e"][h, t], 1e-9) / reps)
                assert abs(value - scalar[h, t]) < 4 * se, (key, h, t)

    def test_observable_tuples_match_scalar_engine(self):
        # pi1=0.1 gives many forced single reviews and early terminations.
        # Two-sample chi-square over the cells (stratum, e_0..e_T, n_1..n_T),
        # with every cell expected below 5 per engine lumped into one.
        scen = scenario_rare(0.1)
        lam, pis = _scenario_arrays(scen)
        reps = 2 * 10**4

        e, n = _batch.generate_counts(lam, pis, 1.0, reps, RngStream(40).generator)
        batch = Counter(
            (h,) + tuple(e[h, :, r]) + tuple(n[h, :, r]) for h in range(5) for r in range(reps)
        )
        root = RngStream(41)
        scalar = Counter()
        for i in range(reps):
            _, ds = generate_dataset(scen, root.child(i))
            scalar.update((h,) + s.e + s.n for h, s in enumerate(ds.strata))

        rows = [[0, 0]]
        for cell in batch.keys() | scalar.keys():
            a, b = batch[cell], scalar[cell]
            if a + b >= 10:
                rows.append([a, b])
            else:
                rows[0][0] += a
                rows[0][1] += b
        table = np.array(rows, dtype=float)
        assert len(table) > 100
        total = table.sum(axis=1)
        chi2 = ((table[:, 0] - table[:, 1]) ** 2 / total).sum()
        pvalue = stats.chi2.sf(chi2, df=len(table) - 1)
        assert pvalue > 1e-3, f"chi2={chi2:.1f} over {len(table)} cells, p={pvalue:.2e}"

    def test_observable_tuples_match_scalar_engine_with_later_forced_reviews(self):
        # Small pools and small later sampling rates force a single review at
        # tiers 2 and 3 in about half of the lanes, so this case checks the
        # batch sampler's repair of unreviewed pools past the first tier.
        # Stratum 0 has a class with rate 0 and a first tier with pi = 1.
        strata = (
            StratumParams(lambdas=(0.0, 1.0, 0.5, 2.0), pis=(1.0, 0.15, 0.2)),
            StratumParams(lambdas=(2.0, 1.5, 1.0, 0.8), pis=(0.5, 0.1, 0.25)),
        )
        scen = Scenario(config=ReviewConfig(m=1.0, H=2, T=3), strata=strata)
        lam, pis = _scenario_arrays(scen)
        reps = 2 * 10**4

        e, n = _batch.generate_counts(lam, pis, 1.0, reps, RngStream(42).generator)
        batch = Counter(
            (h,) + tuple(e[h, :, r]) + tuple(n[h, :, r]) for h in range(2) for r in range(reps)
        )
        root = RngStream(43)
        scalar = Counter()
        for i in range(reps):
            _, ds = generate_dataset(scen, root.child(i))
            scalar.update((h,) + s.e + s.n for h, s in enumerate(ds.strata))

        # Two-sample chi-square, every cell below 10 draws over both engines lumped into one.
        rows = [[0, 0]]
        for cell in batch.keys() | scalar.keys():
            a, b = batch[cell], scalar[cell]
            if a + b >= 10:
                rows.append([a, b])
            else:
                rows[0][0] += a
                rows[0][1] += b
        table = np.array(rows, dtype=float)
        assert len(table) > 100
        total = table.sum(axis=1)
        chi2 = ((table[:, 0] - table[:, 1]) ** 2 / total).sum()
        pvalue = stats.chi2.sf(chi2, df=len(table) - 1)
        assert pvalue > 1e-3, f"chi2={chi2:.1f} over {len(table)} cells, p={pvalue:.2e}"


class TestBatchSamplerMemory:
    def test_peak_allocation_is_outputs_plus_two_blocks(self):
        # The leaves are added into the output arrays in place, so beside the
        # outputs the sampler may hold at most two (H, size) int64 blocks.
        lam, pis = _scenario_arrays(scenario_common(0.1))
        size = 10**5
        block = lam.shape[0] * size * np.dtype(np.int64).itemsize
        gen = RngStream(6).generator
        tracemalloc.start()
        try:
            e, n = _batch.generate_counts(lam, pis, 1.0, size, gen)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= e.nbytes + n.nbytes + 2 * block, peak / block
