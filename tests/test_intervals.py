"""Tests for the three confidence-interval constructions."""

import math
from collections import Counter

import numpy as np
import pytest

from reviewrate import (
    Dataset,
    InvalidDataError,
    ObservedStratum,
    ReviewConfig,
    RngStream,
    StratumParams,
    ci_bootstrap,
    ci_gamma_wsip,
    ci_wald,
    estimate_theta,
    generate_dataset,
    scenario_common,
    scenario_rare,
)
from reviewrate import _batch
from helpers import mp_gamma_quantile, two_sample_chi2


def single_stratum_dataset(e, n, m=1.0):
    return Dataset(
        config=ReviewConfig(m=m, H=1, T=len(n)), strata=(ObservedStratum(e=e, n=n),)
    )


EMPTY = single_stratum_dataset((0, 0, 0, 0), (0, 0, 0))


class TestWald:
    def test_single_poisson_closed_form(self):
        # complete review of 4 events: estimate 4, plug-in standard error 2
        ds = single_stratum_dataset((4, 4, 4, 4), (4, 4, 4))
        iv = ci_wald(estimate_theta(ds), 0.9)
        z = 1.6448536269514722
        assert math.isclose(iv.lower, 4 - 2 * z, rel_tol=1e-12)
        assert math.isclose(iv.upper, 4 + 2 * z, rel_tol=1e-12)
        assert abs(iv.lower - 0.7103) < 1e-4
        assert abs(iv.upper - 7.2897) < 1e-4

    def test_zero_estimate_degenerates(self):
        iv = ci_wald(estimate_theta(EMPTY), 0.9)
        assert (iv.lower, iv.upper) == (0.0, 0.0)

    def test_width_scales_inverse_sqrt_mileage(self):
        e, n = (6, 3, 2, 1), (3, 2, 1)
        est1 = estimate_theta(single_stratum_dataset(e, n))
        w1 = ci_wald(est1, 0.9).width
        # The same counts over 4 times the mileage: a quarter of the rate and of the width.
        est4 = estimate_theta(single_stratum_dataset(e, n, m=4.0))
        assert est4.theta_hat == est1.theta_hat / 4
        assert ci_wald(est4, 0.9).width == w1 / 4
        # The same rate over 4 times the mileage, so 4 times the counts: half the width.
        est4 = estimate_theta(
            single_stratum_dataset(tuple(4 * v for v in e), tuple(4 * v for v in n), m=4.0)
        )
        assert est4.theta_hat == est1.theta_hat
        assert ci_wald(est4, 0.9).width == w1 / 2

    def test_negative_lower_bound_and_clamp(self):
        # The lower bound is reported as computed, not clamped at zero.
        ds = single_stratum_dataset((1, 1, 1, 1), (1, 1, 1))
        assert ci_wald(estimate_theta(ds), 0.9).lower < 0

    def test_level_validated(self):
        est = estimate_theta(EMPTY)
        # A level outside (0, 1) is rejected, and one that is not a real number is not coerced.
        for level in (0.0, 1.0, 1.5, "0.9"):
            with pytest.raises(InvalidDataError):
                ci_wald(est, level)


class TestGammaWsip:
    def test_no_events_upper_bound_is_exponential_quantile(self):
        iv = ci_gamma_wsip(estimate_theta(EMPTY), 0.9)
        assert iv.lower == 0.0
        assert math.isclose(iv.upper, -math.log(0.05), rel_tol=1e-10)

    def test_single_poisson_reduction(self):
        # complete review, 11 confirmed events: bounds must match the gamma method
        # for one Poisson count, checked against a high-precision inversion
        ds = single_stratum_dataset((11, 11, 11, 11), (11, 11, 11))
        iv = ci_gamma_wsip(estimate_theta(ds), 0.9)
        want_lower = mp_gamma_quantile(0.05, 11.0)
        want_upper = mp_gamma_quantile(0.95, 12.0)
        assert math.isclose(iv.lower, want_lower, rel_tol=1e-10)
        assert math.isclose(iv.upper, want_upper, rel_tol=1e-10)

    def test_lower_bound_zero_iff_zero_estimate(self):
        root = RngStream(61)
        scen = scenario_rare(0.2)
        for i in range(60):
            _, ds = generate_dataset(scen, root.child(i))
            est = estimate_theta(ds)
            iv = ci_gamma_wsip(est, 0.9)
            if est.theta_hat == 0.0:
                assert iv.lower == 0.0
            else:
                assert iv.lower > 0.0

    def test_level_validated(self):
        with pytest.raises(InvalidDataError):
            ci_gamma_wsip(estimate_theta(EMPTY), 1.2)


class TestBootstrap:
    def test_empty_dataset_degenerates(self):
        iv = ci_bootstrap(estimate_theta(EMPTY), 0.9, 500, RngStream(1))
        assert (iv.lower, iv.upper) == (0.0, 0.0)

    def test_single_poisson_reduction_against_direct_oracle(self):
        # complete review makes the refitted model a plain Poisson(9) count
        ds = single_stratum_dataset((9, 9, 9, 9), (9, 9, 9))
        iv = ci_bootstrap(estimate_theta(ds), 0.9, 4000, RngStream(1))
        oracle = np.random.default_rng(1001).poisson(9.0, size=4000)
        lo, hi = np.quantile(oracle, [0.05, 0.95])
        assert abs(iv.lower - lo) <= 0.4
        assert abs(iv.upper - hi) <= 0.4

    def test_replicate_count_convergence(self):
        ds = single_stratum_dataset((9, 9, 9, 9), (9, 9, 9))
        est = estimate_theta(ds)
        iv1 = ci_bootstrap(est, 0.9, 10_000, RngStream(21))
        iv2 = ci_bootstrap(est, 0.9, 40_000, RngStream(22))
        assert abs(iv1.lower - iv2.lower) <= 0.01
        assert abs(iv1.upper - iv2.upper) <= 0.01

    def test_deterministic_given_stream(self):
        scen = scenario_common(0.4)
        _, ds = generate_dataset(scen, RngStream(3))
        est = estimate_theta(ds)
        a = ci_bootstrap(est, 0.9, 300, RngStream(4, (9,)))
        b = ci_bootstrap(est, 0.9, 300, RngStream(4, (9,)))
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_theta_only_refit_is_bit_identical_to_the_estimator(self):
        # Stratum 0 never has a pool and stratum 1 never has a survivor.
        gen = np.random.default_rng(8)
        lam = gen.uniform(0.0, 3.0, size=(4, 4))
        lam[0] = 0.0
        lam[1, 3] = 0.0
        pis = gen.uniform(0.05, 1.0, size=(4, 3))
        e, n = _batch.generate_counts(lam, pis, 0.7, 5000, gen)
        assert (e[2:, 0] == 0).any() and (e[2:, 3] == 0).any()
        *_, lam_T = _batch._survival(e, n, 0.7)
        refit = _batch._strata_sum(lam_T)
        assert refit.tobytes() == _batch.estimate_counts(e, n, 0.7).theta.tobytes()

    @staticmethod
    def _assert_replicates_agree_in_law_with_the_full_simulation(lam, pis):
        # Two-sample chi-square over the replicate values, rounded because
        # folding out the full tiers changes the rounding of a replicate.
        lam, pis = np.array(lam), np.array(pis)
        reps = 2 * 10**5
        e, n = _batch.generate_counts(lam, pis, 1.0, reps, np.random.default_rng(11))
        full = _batch.estimate_counts(e, n, 1.0).theta
        live = _batch._bootstrap_replicates(lam, pis, 1.0, reps, np.random.default_rng(12))
        cells_of = lambda theta: Counter(np.round(theta, 9).tolist())
        chi2, cells, pvalue = two_sample_chi2(cells_of(full), cells_of(live))
        assert cells > 50
        assert pvalue > 1e-3, f"chi2={chi2:.1f} over {cells} cells, p={pvalue:.2e}"

    def test_live_strata_replicates_agree_in_law_with_the_full_simulation(self):
        # Strata 1 and 2 have a zero surviving rate, stratum 2 also a zero
        # rate in the class before; small later sampling rates force single
        # reviews.
        self._assert_replicates_agree_in_law_with_the_full_simulation(
            [[1.0, 0.5, 0.8], [2.0, 1.5, 0.0], [3.0, 0.0, 0.0], [0.4, 0.3, 1.5]],
            [[0.5, 0.2], [0.3, 0.1], [0.2, 0.1], [0.1, 0.3]],
        )

    def test_folded_replicates_agree_in_law_with_the_full_simulation(self):
        # Fully reviewed tiers: the first; a middle one and the last; two in a
        # row; every tier of stratum 3; and in stratum 4, which is dead. Small
        # later sampling rates force single reviews.
        self._assert_replicates_agree_in_law_with_the_full_simulation(
            [[0.6, 0.8, 0.5, 0.4, 0.6], [0.5, 1.2, 0.3, 0.6, 0.4], [1.0, 0.6, 0.9, 0.2, 0.5],
             [0.3, 0.2, 0.4, 0.1, 0.9], [2.0, 1.0, 0.0, 0.0, 0.0]],
            [[1.0, 0.4, 0.1, 0.2], [0.5, 1.0, 0.1, 1.0], [0.4, 1.0, 1.0, 0.1],
             [1.0, 1.0, 1.0, 1.0], [0.3, 1.0, 0.2, 1.0]],
        )

    @pytest.mark.parametrize("lam", [
        [[1.0, 0.5, 0.8], [2.0, 1.5, 0.0], [0.4, 0.3, 1.5]],
        [[2.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
    ], ids=["no-full-tier", "no-live-stratum"])
    def test_fit_without_a_full_tier_draws_the_live_strata_unchanged(self, lam):
        lam = np.array(lam)
        pis = np.linspace(0.1, 0.9, lam.size - len(lam)).reshape(len(lam), -1)
        gen, ref = np.random.default_rng(14), np.random.default_rng(14)
        theta_b = _batch._bootstrap_replicates(lam, pis, 0.7, 3000, gen)
        live = lam[:, -1] > 0
        e, n = _batch.generate_counts(lam[live], pis[live], 0.7, 3000, ref)
        *_, lam_T = _batch._survival(e, n, 0.7)
        assert theta_b.tobytes() == _batch._strata_sum(lam_T).tobytes()
        assert gen.bit_generator.state == ref.bit_generator.state

    def test_fully_reviewed_fit_draws_one_poisson_count_per_live_stratum(self):
        # With every tier folded out a replicate is sum_h Poisson(m * lambda_hT) / m.
        lam = np.array([[1.0, 0.5, 0.8], [2.0, 1.5, 0.0], [0.4, 0.3, 1.5]])
        gen, ref = np.random.default_rng(15), np.random.default_rng(15)
        theta_b = _batch._bootstrap_replicates(lam, np.ones((3, 2)), 0.7, 3000, gen)
        oracle = np.zeros(3000)
        for rate in (0.8, 1.5):
            oracle += ref.poisson(0.7 * rate, 3000) / 0.7
        assert theta_b.tobytes() == oracle.tobytes()
        assert gen.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("lam", [
        [[2.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
        [[0.0, 4.0, 0.0], [5.0, 0.0, 0.0]],
    ], ids=["survivor-rate-zero", "pool-rates-zero"])
    def test_no_live_stratum_gives_zero_bounds_without_drawing(self, lam):
        gen = np.random.default_rng(13)
        state = gen.bit_generator.state
        pis = np.full((2, 2), 0.1)
        assert _batch.bootstrap_bounds(np.array(lam), pis, 1.0, 0.9, 2000, gen) == (0.0, 0.0)
        assert gen.bit_generator.state == state

    def test_validation(self):
        est = estimate_theta(EMPTY)
        with pytest.raises(InvalidDataError):
            ci_bootstrap(est, 0.9, 50, RngStream(1))
        with pytest.raises(InvalidDataError):
            ci_bootstrap(est, 1.5, 500, RngStream(1))
        with pytest.raises(InvalidDataError):
            ci_bootstrap(est, 0.9, 150.5, RngStream(1))
        with pytest.raises(InvalidDataError):
            ci_bootstrap(est, "0.9", 200, RngStream(1))


class TestSharedProperties:
    def _random_datasets(self, count):
        gen = np.random.default_rng(71)
        root = RngStream(72)
        out = []
        for i in range(count):
            strata = tuple(
                StratumParams(
                    lambdas=tuple(gen.uniform(0, 7, size=4)),
                    pis=tuple(gen.uniform(0.1, 1.0, size=3)),
                )
                for _ in range(int(gen.integers(1, 4)))
            )
            scen_cfg = ReviewConfig(m=1.0, H=len(strata), T=3)
            from reviewrate import Scenario

            _, ds = generate_dataset(Scenario(config=scen_cfg, strata=strata), root.child(i))
            out.append(ds)
        return out

    def test_lower_never_exceeds_upper(self):
        boot_stream = RngStream(73)
        for i, ds in enumerate(self._random_datasets(40)):
            est = estimate_theta(ds)
            for iv in (
                ci_wald(est, 0.9),
                ci_gamma_wsip(est, 0.9),
                ci_bootstrap(est, 0.9, 200, boot_stream.child(i)),
            ):
                assert iv.lower <= iv.upper

    def test_lower_bounds_sit_below_estimate_at_usual_levels(self):
        for ds in self._random_datasets(40):
            est = estimate_theta(ds)
            if est.theta_hat <= 0:
                continue
            for level in (0.8, 0.9, 0.95):
                assert ci_gamma_wsip(est, level).lower <= est.theta_hat
                assert ci_wald(est, level).lower <= est.theta_hat

    def test_one_lane_views_match_the_study_engine_bit_for_bit(self):
        # A study cell bounds every lane of its R-lane fit at once; the library
        # intervals on one dataset must give that lane's bounds exactly. With
        # 12 strata, a one-lane stratum sum would differ if it added pairwise.
        # The bootstrap, checked on the first lanes, must draw from the lane's
        # fit at the dataset's mileage as a study replication does.
        gen = np.random.default_rng(74)
        for i in range(40):
            H = 1 + i % 12
            lam = gen.uniform(0.0, 6.0, size=(H, 4))
            pis = gen.uniform(0.05, 1.0, size=(H, 3))
            m = float(gen.choice([0.3, 1.0, 2.5]))
            level = float(gen.choice([0.8, 0.9, 0.95]))
            e, n = _batch.generate_counts(lam, pis, m, 25, gen)
            fit = _batch.estimate_counts(e, n, m)
            wald = _batch.wald_bounds(fit.theta, fit.variance, level)
            gamma = _batch.gamma_bounds(fit.theta, fit.variance, fit.w_max, level)
            for r in range(25):
                strata = tuple(ObservedStratum(e=tuple(e[h, :, r]), n=tuple(n[h, :, r]))
                               for h in range(H))
                est = estimate_theta(Dataset(config=ReviewConfig(m=m, H=H, T=3), strata=strata))
                for iv, (lower, upper) in ((ci_wald(est, level), wald),
                                           (ci_gamma_wsip(est, level), gamma)):
                    assert (iv.lower, iv.upper) == (lower[r], upper[r])
                if r < 3:
                    iv = ci_bootstrap(est, level, 100, RngStream(i, (r,)))
                    assert (iv.lower, iv.upper) == _batch.bootstrap_bounds(
                        fit.lam[:, :, r], fit.pi_tier[:, :, r], m, level, 100,
                        RngStream(i, (r,)).generator,
                    )
