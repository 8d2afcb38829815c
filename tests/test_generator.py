"""Tests for the tiered review simulator."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from reviewrate import (
    InvalidDataError,
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
from helpers import reference_generate_dataset, two_sample_chi2
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
        with pytest.raises(InvalidDataError):
            generate_stratum(params, "1", RngStream(1))


class TestGenerateDataset:
    def test_single_stratum_reduction(self):
        # An H=1 scenario draws the same blocks as one stratum on the same stream.
        params = StratumParams(lambdas=(3.0, 1.0, 2.0, 6.0), pis=(0.5, 0.7, 0.9))
        scen = Scenario(config=ReviewConfig(m=1.0, H=1, T=3), strata=(params,))
        for seed in range(20):
            latents, ds = generate_dataset(scen, RngStream(52, (seed,)))
            latent_direct, obs_direct = generate_stratum(params, 1.0, RngStream(52, (seed,)))
            assert latents[0] == latent_direct
            assert ds.strata[0] == obs_direct

    def test_observed_counts_are_lane_zero_of_the_batch_sampler(self):
        scen = scenario_common(0.3)
        lam, pis = _scenario_arrays(scen)
        for seed in range(20):
            _, ds = generate_dataset(scen, RngStream(53, (seed,)))
            e, n = _batch.generate_counts(lam, pis, 1.0, 1, RngStream(53, (seed,)).generator)
            assert [s.e for s in ds.strata] == [tuple(row) for row in e[:, :, 0].tolist()]
            assert [s.n for s in ds.strata] == [tuple(row) for row in n[:, :, 0].tolist()]

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


def observable_cells(datasets):
    return Counter((h,) + s.e + s.n for _, ds in datasets for h, s in enumerate(ds.strata))


def latent_cells(datasets):
    return Counter(
        (h,) + sum(latent.x, ()) for latents, _ in datasets for h, latent in enumerate(latents)
    )


# Small pools and small later sampling rates force a single review at tiers 2
# and 3 in about half of the lanes. Stratum 0 has a class with rate 0 and a
# first tier with pi = 1.
LATER_FORCED = Scenario(
    config=ReviewConfig(m=1.0, H=2, T=3),
    strata=(
        StratumParams(lambdas=(0.0, 1.0, 0.5, 2.0), pis=(1.0, 0.15, 0.2)),
        StratumParams(lambdas=(2.0, 1.5, 1.0, 0.8), pis=(0.5, 0.1, 0.25)),
    ),
)
LAW_REPS = 2 * 10**4


def draw_datasets(generate, scen, root, reps=LAW_REPS):
    return [generate(scen, root.child(i)) for i in range(reps)]


@pytest.fixture(scope="module")
def rare_reference():
    # pi1=0.1 gives many forced single reviews and early terminations.
    return draw_datasets(reference_generate_dataset, scenario_rare(0.1), RngStream(41))


@pytest.fixture(scope="module")
def later_forced_reference():
    return draw_datasets(reference_generate_dataset, LATER_FORCED, RngStream(43))


class TestBatchEngineAgreesInLaw:
    """The batch sampler, and the latent tables completed from it, against the
    sequential split loop in ``helpers``."""

    def test_tier_means_match_scalar_engine(self):
        scen = scenario_common(0.4)
        lam, pis = _scenario_arrays(scen)
        reps = LAW_REPS

        e_batch, n_batch = _batch.generate_counts(lam, pis, 1.0, reps, RngStream(4).generator)
        batch_means = {"e": e_batch.mean(axis=2), "n": n_batch.mean(axis=2)}

        scalar_sums = {"e": np.zeros((5, 4)), "n": np.zeros((5, 3))}
        for _, ds in draw_datasets(reference_generate_dataset, scen, RngStream(5)):
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

    def test_observable_tuples_match_scalar_engine(self, rare_reference):
        self.check_observable_tuples(scenario_rare(0.1), rare_reference, RngStream(40))

    def test_observable_tuples_match_scalar_engine_with_later_forced_reviews(
        self, later_forced_reference
    ):
        # checks the batch sampler's repair of unreviewed pools past the first tier
        self.check_observable_tuples(LATER_FORCED, later_forced_reference, RngStream(42))

    @staticmethod
    def check_observable_tuples(scen, reference, rng):
        # Two-sample chi-square over the cells (stratum, e_0..e_T, n_1..n_T).
        lam, pis = _scenario_arrays(scen)
        e, n = _batch.generate_counts(lam, pis, 1.0, LAW_REPS, rng.generator)
        batch = Counter(
            (h,) + tuple(e[h, :, r]) + tuple(n[h, :, r])
            for h in range(len(lam)) for r in range(LAW_REPS)
        )
        chi2, cells, pvalue = two_sample_chi2(batch, observable_cells(reference))
        assert cells > 100
        assert pvalue > 1e-3, f"chi2={chi2:.1f} over {cells} cells, p={pvalue:.2e}"

    @pytest.mark.parametrize("scen, reference, seed", [
        (scenario_rare(0.1), "rare_reference", 44),
        (LATER_FORCED, "later_forced_reference", 45),
    ], ids=["rare", "later-forced-reviews"])
    def test_latent_tables_match_reference(self, request, scen, reference, seed):
        # Two-sample chi-square over the cells (stratum, latent table), and the
        # mean of every latent count within 4 combined standard errors: the
        # rare scenario's tables are spread thin, so most of their mass lumps.
        ref = request.getfixturevalue(reference)
        new = draw_datasets(generate_dataset, scen, RngStream(seed))
        chi2, cells, pvalue = two_sample_chi2(latent_cells(new), latent_cells(ref))
        assert cells > 100
        assert pvalue > 1e-3, f"chi2={chi2:.1f} over {cells} cells, p={pvalue:.2e}"

        def flat(datasets):
            return np.array([[sum(x.x, ()) for x in latents] for latents, _ in datasets])

        a, b = flat(new), flat(ref)
        se = np.sqrt((a.var(axis=0) + b.var(axis=0)) / LAW_REPS)
        assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 4 * se + 1e-12)


class TestStratumWithNoSurvivingRate:
    def test_last_pool_is_empty_in_every_lane(self):
        # Stratum 0 has lambda_T = 0, stratum 1 also lambda_{T-1} = 0. Small
        # pools and sampling rates force a single review in many lanes.
        lam = np.array([[2.0, 1.5, 0.7, 0.0], [3.0, 1.0, 0.0, 0.0]])
        pis = np.array([[0.3, 0.05, 0.05], [0.2, 0.05, 0.05]])
        e, n = _batch.generate_counts(lam, pis, 1.0, 10**5, RngStream(46).generator)
        one_review = (e[:, :3] > 0) & (n == 1)
        assert one_review[0, 2].sum() > 1000 and one_review[1, 1].sum() > 1000
        assert not e[:, 3].any()
        assert not e[1, 2].any() and not n[1, 2].any()


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
