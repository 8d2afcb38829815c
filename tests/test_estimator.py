"""Tests for the point estimator and the EM fixed-point verification oracle."""

import math

import numpy as np
import pytest

from reviewrate import (
    Dataset,
    InvalidDataError,
    ObservedStratum,
    ReviewConfig,
    RngStream,
    StratumParams,
    em_fixed_point_residual_t2,
    estimate_Lambda,
    estimate_lambda,
    estimate_pi,
    estimate_theta,
    generate_stratum,
    scenario_rare,
)
from reviewrate import _batch
from reviewrate.study import _scenario_arrays
from helpers import reference_estimate, reference_variances


def make_dataset(strata, m=1.0):
    tiers = strata[0].tiers
    return Dataset(config=ReviewConfig(m=m, H=len(strata), T=tiers), strata=tuple(strata))


class TestEstimateLambdaCapital:
    def test_partial_review_chain(self):
        s = ObservedStratum(e=(6, 3, 2, 1), n=(3, 2, 1))
        assert estimate_Lambda(s, 1.0) == (6.0, 6.0, 6.0, 6.0)

    def test_complete_review_weights_cancel(self):
        s = ObservedStratum(e=(5, 3, 2, 2), n=(5, 3, 2))
        assert estimate_Lambda(s, 1.0) == (5.0, 3.0, 2.0, 2.0)

    def test_early_termination_zeroes_tail(self):
        s = ObservedStratum(e=(5, 0, 0, 0), n=(2, 0, 0))
        assert estimate_Lambda(s, 1.0) == (5.0, 0.0, 0.0, 0.0)

    def test_invalid_stratum_rejected(self):
        with pytest.raises(InvalidDataError):
            estimate_Lambda(ObservedStratum(e=(5, 6), n=(3,)), 1.0)

    def test_invalid_mileage(self):
        with pytest.raises(InvalidDataError):
            estimate_Lambda(ObservedStratum(e=(5, 1), n=(3,)), 0.0)
        with pytest.raises(InvalidDataError):
            estimate_Lambda(ObservedStratum(e=(5, 1), n=(3,)), "1")


class TestEstimateLambda:
    def test_partial_review_chain(self):
        s = ObservedStratum(e=(6, 3, 2, 1), n=(3, 2, 1))
        assert estimate_lambda(s, 1.0) == (0.0, 0.0, 0.0, 6.0)

    def test_complete_review_differences(self):
        s = ObservedStratum(e=(5, 3, 2, 2), n=(5, 3, 2))
        assert estimate_lambda(s, 1.0) == (2.0, 1.0, 0.0, 2.0)

    def test_early_termination(self):
        s = ObservedStratum(e=(5, 0, 0, 0), n=(2, 0, 0))
        assert estimate_lambda(s, 1.0) == (5.0, 0.0, 0.0, 0.0)

    def test_components_sum_to_pool_rate(self):
        s = ObservedStratum(e=(9, 4, 3, 2), n=(5, 4, 2))
        lam = estimate_lambda(s, 1.0)
        assert math.isclose(sum(lam), 9.0, rel_tol=1e-12)


class TestEstimatePi:
    def test_componentwise_ratio(self):
        s = ObservedStratum(e=(6, 3, 2, 1), n=(3, 2, 1))
        assert estimate_pi(s) == (0.5, 2 / 3, 0.5)

    def test_complete_review(self):
        s = ObservedStratum(e=(5, 3, 2, 2), n=(5, 3, 2))
        assert estimate_pi(s) == (1.0, 1.0, 1.0)

    def test_fill_after_termination(self):
        s = ObservedStratum(e=(5, 0, 0, 0), n=(2, 0, 0))
        assert estimate_pi(s) == (0.4, 1.0, 1.0)


class TestEstimateTheta:
    def test_additive_over_strata(self):
        s = ObservedStratum(e=(6, 3, 2, 1), n=(3, 2, 1))
        est = estimate_theta(make_dataset([s, s]))
        assert est.theta_hat == 12.0
        assert est.theta_by_stratum == (6.0, 6.0)

    def test_empty_data(self):
        s = ObservedStratum(e=(0, 0, 0, 0), n=(0, 0, 0))
        est = estimate_theta(make_dataset([s, s]))
        assert est.theta_hat == 0.0
        assert est.pi_prod == (1.0, 1.0)
        assert est.weights == (1.0, 1.0)

    def test_mileage_scaling_is_exact_for_halving(self):
        s = ObservedStratum(e=(6, 3, 2, 1), n=(3, 2, 1))
        est1 = estimate_theta(make_dataset([s], m=1.0))
        est2 = estimate_theta(make_dataset([s], m=2.0))
        assert est2.theta_hat == est1.theta_hat / 2
        assert est2.Lambda_hat[0] == tuple(v / 2 for v in est1.Lambda_hat[0])

    def test_mileage_scaling_general(self):
        s = ObservedStratum(e=(9, 4, 3, 2), n=(5, 4, 2))
        est1 = estimate_theta(make_dataset([s], m=1.0))
        est3 = estimate_theta(make_dataset([s], m=3.0))
        assert math.isclose(est3.theta_hat, est1.theta_hat / 3, rel_tol=1e-12)

    def test_error_names_offending_stratum(self):
        good = ObservedStratum(e=(6, 3, 2, 1), n=(3, 2, 1))
        bad = ObservedStratum(e=(6, 7, 2, 1), n=(3, 2, 1))
        with pytest.raises(InvalidDataError, match="stratum 1"):
            estimate_theta(make_dataset([good, bad]))

    def test_weighted_count_identity(self):
        # theta_hat equals the weighted sum of final-tier counts
        gen = np.random.default_rng(15)
        root = RngStream(16)
        for i in range(200):
            params = StratumParams(
                lambdas=tuple(gen.uniform(0, 6, size=4)),
                pis=tuple(gen.uniform(0.1, 1.0, size=3)),
            )
            _, obs = generate_stratum(params, 1.0, root.child(i))
            est = estimate_theta(make_dataset([obs]))
            weighted = est.weights[0] * obs.e[-1]
            assert math.isclose(est.theta_hat, weighted, rel_tol=1e-12, abs_tol=1e-12)


class TestEstimateProperties:
    def test_monotone_nonincreasing_and_nonnegative(self):
        gen = np.random.default_rng(77)
        root = RngStream(78)
        for i in range(500):
            tiers = int(gen.integers(1, 5))
            params = StratumParams(
                lambdas=tuple(gen.uniform(0, 8, size=tiers + 1)),
                pis=tuple(gen.uniform(0.05, 1.0, size=tiers)),
            )
            _, obs = generate_stratum(params, 1.0, root.child(i))
            Lam = estimate_Lambda(obs, 1.0)
            lam = estimate_lambda(obs, 1.0)
            assert all(a >= b for a, b in zip(Lam, Lam[1:]))
            assert all(v >= 0.0 for v in lam)
            assert all(0 < p <= 1 for p in estimate_pi(obs))

    def test_scalar_and_batch_estimators_agree_exactly(self):
        gen = np.random.default_rng(21)
        root = RngStream(22)
        for i in range(240):
            H = 1 + i % 12
            strata = []
            for h in range(H):
                params = StratumParams(
                    lambdas=tuple(gen.uniform(0, 10, size=4)),
                    pis=tuple(gen.uniform(0.05, 1.0, size=3)),
                )
                strata.append(generate_stratum(params, 1.0, root.child(i, h))[1])
            m = float(gen.choice([1.0, 0.3, 2.5]))
            est = estimate_theta(make_dataset(strata, m=m))
            Lambda, lam, pi, pi_prod, weights, theta = reference_estimate(strata, m)
            assert est.theta_hat == theta
            assert est.Lambda_hat == Lambda
            assert est.lambda_hat == lam
            assert est.pi_hat == pi
            assert est.pi_prod == pi_prod
            assert est.weights == weights
            for h, s in enumerate(strata):
                assert estimate_Lambda(s, m) == Lambda[h]
                assert estimate_lambda(s, m) == lam[h]
                assert estimate_pi(s) == pi[h]

    def test_lane_results_do_not_depend_on_lane_count(self):
        # With 12 strata, numpy's axis-0 sum adds a single lane pairwise but many
        # lanes in order; the engine must give every lane the reference loop's bits.
        params = np.random.default_rng(23)
        lam = params.uniform(0, 10, size=(12, 4))
        pis = params.uniform(0.1, 1.0, size=(12, 3))
        gen = RngStream(24).generator
        for _ in range(50):
            e, n = _batch.generate_counts(lam, pis, 1.0, 7, gen)
            batch = _batch.estimate_counts(e, n, 1.0)
            for r in range(7):
                one = _batch.estimate_counts(e[:, :, r : r + 1], n[:, :, r : r + 1], 1.0)
                strata = [
                    ObservedStratum(e=tuple(e[h, :, r]), n=tuple(n[h, :, r])) for h in range(12)
                ]
                theta = reference_estimate(strata, 1.0)[-1]
                wald_var, gamma_var = reference_variances(strata, 1.0)
                assert one.theta[0] == batch.theta[r] == theta
                assert one.wald_var[0] == batch.wald_var[r] == wald_var
                assert one.gamma_var[0] == batch.gamma_var[r] == gamma_var
                # The bootstrap simulates from lane r of the R-lane fit.
                for field in ("Lambda", "lam", "pi_tier"):
                    lane = getattr(batch, field)[:, :, r]
                    assert lane.tobytes() == getattr(one, field)[:, :, 0].tobytes()

    def test_unbiasedness_smoke(self):
        # a reduced-size version of the acceptance check
        scen = scenario_rare(0.3)
        lam, pis = _scenario_arrays(scen)
        reps = 2 * 10**4
        e, n = _batch.generate_counts(lam, pis, 1.0, reps, RngStream(30).generator)
        theta = _batch.estimate_counts(e, n, 1.0).theta
        se = theta.std(ddof=1) / math.sqrt(reps)
        assert abs(theta.mean() - 11.0) < 4 * se

    def test_survival_rate_estimates_unbiased_per_tier(self):
        scen = scenario_rare(0.3)
        lam, pis = _scenario_arrays(scen)
        true_Lambda = np.cumsum(lam[:, ::-1], axis=1)[:, ::-1]
        reps = 10**5
        e, n = _batch.generate_counts(lam, pis, 1.0, reps, RngStream(0).generator)
        Lambda = _batch.estimate_counts(e, n, 1.0).Lambda
        for h in range(5):
            for t in range(4):
                values = Lambda[h, t]
                se = values.std(ddof=1) / math.sqrt(reps)
                assert abs(values.mean() - true_Lambda[h, t]) < 3 * se


class TestEmFixedPointResidual:
    def test_mle_zeroes_the_system(self):
        s = ObservedStratum(e=(6, 3, 2), n=(3, 2))
        mle = estimate_lambda(s, 1.0)
        assert mle == (0.0, 0.0, 6.0)
        residuals = em_fixed_point_residual_t2(s, mle)
        assert max(abs(r) for r in residuals) < 1e-10

    def test_non_mle_point_rejected(self):
        s = ObservedStratum(e=(6, 3, 2), n=(3, 2))
        residuals = em_fixed_point_residual_t2(s, (6.0, 0.0, 0.0))
        assert max(abs(r) for r in residuals) > 0.1

    def test_residual_sum_identity(self):
        s = ObservedStratum(e=(9, 4, 2), n=(5, 3))
        gen = np.random.default_rng(5)
        for _ in range(100):
            lam = tuple(gen.uniform(0.05, 10.0, size=3))
            residuals = em_fixed_point_residual_t2(s, lam)
            assert math.isclose(sum(residuals), sum(lam) - 9.0, rel_tol=1e-12, abs_tol=1e-9)

    def test_preconditions(self):
        with pytest.raises(InvalidDataError):
            em_fixed_point_residual_t2(ObservedStratum(e=(6, 3, 2, 1), n=(3, 2, 1)), (1, 1, 1))
        with pytest.raises(InvalidDataError):
            em_fixed_point_residual_t2(ObservedStratum(e=(6, 0, 0), n=(3, 0)), (1, 1, 1))
        with pytest.raises(ValueError):
            em_fixed_point_residual_t2(ObservedStratum(e=(6, 3, 2), n=(3, 2)), (0.0, 0.0, 0.0))
        s = ObservedStratum(e=(6, 3, 2), n=(3, 2))
        for lambdas, m in (((1, 1, 1), "2"), ((1, 1, 1), -1), (("1", "1", "1"), 1.0)):
            with pytest.raises(InvalidDataError):
                em_fixed_point_residual_t2(s, lambdas, m)

    def test_randomized_mle_verification(self):
        # smaller version of the acceptance criterion
        gen = np.random.default_rng(41)
        root = RngStream(42)
        produced = 0
        i = 0
        while produced < 200:
            i += 1
            params = StratumParams(
                lambdas=tuple(gen.uniform(0.5, 8.0, size=3)),
                pis=tuple(gen.uniform(0.2, 1.0, size=2)),
            )
            _, obs = generate_stratum(params, 1.0, root.child(i))
            if obs.e[0] < 1 or obs.e[1] < 1:
                continue
            produced += 1
            mle = estimate_lambda(obs, 1.0)
            residuals = em_fixed_point_residual_t2(obs, mle)
            assert max(abs(r) for r in residuals) < 1e-10
            for k in range(3):
                if mle[k] == 0.0:
                    continue
                for factor in (0.9, 1.1):
                    perturbed = list(mle)
                    perturbed[k] *= factor
                    res = em_fixed_point_residual_t2(obs, tuple(perturbed))
                    assert max(abs(r) for r in res) > 1e-6
