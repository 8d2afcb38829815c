"""Tests for the random streams, the samplers, and the quantile functions the intervals invert."""

import math

import numpy as np
import pytest
from scipy.special import gammainc

from helpers import mp_gamma_quantile

from reviewrate import InvalidDataError, RngStream
from reviewrate.distributions import sample_binomial, sample_mv_hypergeometric, sample_poisson
from reviewrate._batch import moment_gamma_quantile, wald_bounds


class TestRngStream:
    def test_identical_address_identical_draws(self):
        a = RngStream(42, (1, 2, 3))
        b = RngStream(42, (1, 2, 3))
        draws_a = [sample_poisson(7.0, a) for _ in range(50)]
        draws_b = [sample_poisson(7.0, b) for _ in range(50)]
        assert draws_a == draws_b

    def test_child_extends_path(self):
        root = RngStream(9)
        assert root.child(4, 5).path == (4, 5)
        assert root.child(4).child(5).path == (4, 5)

    def test_different_paths_differ(self):
        root = RngStream(42)
        a = [sample_poisson(7.0, root.child(0)) for _ in range(20)]
        b = [sample_poisson(7.0, root.child(1)) for _ in range(20)]
        assert a != b

    @pytest.mark.parametrize(
        "pair",
        [((0,), (1,)), ((), (0,)), ((0,), (0, 0)), ((3, 1), (3, 2)), ((7,), (700,))],
    )
    def test_pairwise_independence_smoke(self, pair):
        # prefix-related paths included: hashing the whole path must decorrelate them
        left = RngStream(2024, pair[0]).generator.uniform(size=100_000)
        right = RngStream(2024, pair[1]).generator.uniform(size=100_000)
        r = np.corrcoef(left, right)[0, 1]
        assert abs(r) < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(2**64)
        with pytest.raises(ValueError):
            RngStream(0, (-1,))
        # Seeds and path entries are integers, not anything int() accepts.
        for args in ((2.7,), ("5",), (True,), (0, (1.5,))):
            with pytest.raises(InvalidDataError):
                RngStream(*args)


class TestSamplePoisson:
    def test_zero_rate(self):
        rng = RngStream(1)
        assert all(sample_poisson(0.0, rng) == 0 for _ in range(100))

    def test_invalid_rate(self):
        rng = RngStream(1)
        for bad in (-1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                sample_poisson(bad, rng)

    def test_mean_at_rate_58(self):
        rng = RngStream(58)
        n = 10**6
        total = 0
        for _ in range(n):
            total += sample_poisson(58.0, rng)
        assert abs(total / n - 58.0) < 3 * math.sqrt(58.0 / n)

    def test_equidispersion_at_rate_11(self):
        rng = RngStream(11)
        n = 10**6
        draws = np.fromiter((sample_poisson(11.0, rng) for _ in range(n)), dtype=np.int64, count=n)
        ratio = draws.var(ddof=1) / draws.mean()
        assert 0.99 < ratio < 1.01


class TestSampleBinomial:
    def test_certain_success(self):
        rng = RngStream(2)
        assert all(sample_binomial(7, 1.0, rng) == 7 for _ in range(100))

    def test_empty_trials(self):
        rng = RngStream(2)
        assert all(sample_binomial(0, 0.3, rng) == 0 for _ in range(100))

    def test_invalid_params(self):
        rng = RngStream(2)
        with pytest.raises(ValueError):
            sample_binomial(10, -0.1, rng)
        with pytest.raises(ValueError):
            sample_binomial(10, 1.5, rng)
        with pytest.raises(ValueError):
            sample_binomial(-1, 0.5, rng)

    def test_mean(self):
        rng = RngStream(25)
        n = 10**6
        total = 0
        for _ in range(n):
            total += sample_binomial(100, 0.25, rng)
        # var of one draw is 100 * 0.25 * 0.75 = 18.75
        assert abs(total / n - 25.0) < 3 * math.sqrt(18.75 / n)


class TestSampleMvHypergeometric:
    def test_exhaustive_draw(self):
        rng = RngStream(3)
        assert all(sample_mv_hypergeometric((3, 2), 5, rng) == (3, 2) for _ in range(100))

    def test_empty_draw(self):
        rng = RngStream(3)
        assert all(sample_mv_hypergeometric((4, 9), 0, rng) == (0, 0) for _ in range(100))

    def test_invalid_params(self):
        rng = RngStream(3)
        with pytest.raises(ValueError):
            sample_mv_hypergeometric((2, 2), 5, rng)
        with pytest.raises(ValueError):
            sample_mv_hypergeometric((-1, 2), 1, rng)
        with pytest.raises(ValueError):
            sample_mv_hypergeometric((1, 2), -1, rng)

    def test_mean_of_first_component(self):
        rng = RngStream(64)
        n = 10**6
        total = 0
        for _ in range(n):
            total += sample_mv_hypergeometric((6, 4), 5, rng)[0]
        # hypergeometric mean 5*6/10 = 3, variance 5*.6*.4*(5/9)
        se = math.sqrt(5 * 0.6 * 0.4 * (5 / 9) / n)
        assert abs(total / n - 3.0) < 3 * se

    def test_sum_and_bounds_every_draw(self):
        rng = RngStream(99)
        gen = rng.generator
        for _ in range(2000):
            counts = tuple(int(c) for c in gen.integers(0, 8, size=4))
            n_draw = int(gen.integers(0, sum(counts) + 1))
            y = sample_mv_hypergeometric(counts, n_draw, rng.child(7))
            assert sum(y) == n_draw
            assert all(0 <= yk <= ck for yk, ck in zip(y, counts))


class TestGammaQuantile:
    """``_batch.moment_gamma_quantile``, the gamma interval's quantile function."""

    def test_exponential_closed_form(self):
        # shape 1 is exponential: quantile(p) = -scale*log(1-p)
        q = moment_gamma_quantile(0.95, 1.0, 1.0)
        assert abs(q - (-math.log(0.05))) < 1e-10 * abs(q)

    def test_median_below_mean(self):
        q = moment_gamma_quantile(0.5, 3.0, 3.0)
        assert 2.0 < q < 3.0

    def test_monotone_in_p(self):
        grid = np.linspace(0.01, 0.99, 25)
        values = [moment_gamma_quantile(p, 4.0, 2.5) for p in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_against_high_precision_inversion(self):
        for mean, variance in ((1.0, 1.0), (3.0, 0.5), (0.2, 0.7), (58.0, 900.0), (11.0, 11.0)):
            shape = mean * mean / variance
            scale = variance / mean
            for p in (0.025, 0.05, 0.5, 0.95, 0.975):
                got = moment_gamma_quantile(p, mean, variance)
                want = mp_gamma_quantile(p, shape) * scale
                assert abs(got - want) <= 1e-10 * abs(want)

    def test_cdf_round_trip(self):
        for mean in (0.5, 1.0, 3.0, 12.0, 60.0):
            for variance in (0.25, 1.0, 7.0, 50.0):
                shape = mean * mean / variance
                scale = variance / mean
                if shape < 0.02:
                    # the low-p quantile underflows double precision there
                    continue
                for p in (0.01, 0.05, 0.3, 0.5, 0.9, 0.99):
                    q = moment_gamma_quantile(p, mean, variance)
                    assert abs(gammainc(shape, q / scale) - p) < 1e-8


class TestNormalQuantile:
    """The normal quantile z of ``_batch.wald_bounds``: at theta 0 and variance 1
    the bounds of level L are (-z, z) with z the quantile at (1 + L) / 2."""

    @staticmethod
    def z(level):
        lower, upper = wald_bounds(np.zeros(1), np.ones(1), level)
        assert lower[0] == -upper[0]
        return upper[0]

    def test_frozen_value(self):
        assert abs(self.z(0.9) - 1.6448536) < 5e-8

    def test_antisymmetry(self):
        # The bounds sit symmetrically about the estimate at every level.
        for level in np.linspace(0.002, 0.998, 41):
            lower, upper = wald_bounds(np.full(1, 3.0), np.full(1, 2.0), level)
            assert abs((upper[0] - 3.0) - (3.0 - lower[0])) < 1e-9

    def test_absolute_accuracy(self):
        import mpmath as mp

        mp.mp.dps = 30
        for p in (0.501, 0.51, 0.6, 0.75, 0.9, 0.975, 0.999):
            want = float(mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1))
            assert abs(self.z(2 * p - 1) - want) < 1e-9


class TestThinning:
    def test_composed_mean_and_variance_smoke(self):
        # full-size composition check lives in the acceptance suite
        rng = RngStream(530)
        n = 10**5
        lam, pi = 5.0, 0.3
        draws = np.empty(n)
        for i in range(n):
            x = sample_poisson(lam, rng)
            draws[i] = sample_binomial(x, pi, rng)
        target = lam * pi
        assert abs(draws.mean() - target) < 3 * math.sqrt(target / n)
        var_se = math.sqrt((target + 2 * target**2) / n)
        assert abs(draws.var(ddof=1) - target) < 3 * var_se


def test_samplers_are_deterministic_given_stream_state():
    def consume(stream):
        out = [sample_poisson(3.3, stream), sample_binomial(40, 0.2, stream)]
        out.append(sample_mv_hypergeometric((5, 2, 4), 6, stream))
        out.append(sample_poisson(100.0, stream))
        return out

    assert consume(RngStream(5, (1,))) == consume(RngStream(5, (1,)))
