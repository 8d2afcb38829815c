"""Tests for the domain types, validation, and JSON round trips."""

import dataclasses

import numpy as np
import pytest

from reviewrate import (
    Dataset,
    IntervalResult,
    InvalidDataError,
    LatentTable,
    ObservedStratum,
    RateEstimate,
    ReviewConfig,
    RngStream,
    Scenario,
    StratumParams,
    StudySpec,
    estimate_theta,
    generate_dataset,
    scenario_common,
    scenario_rare,
    summarize_comprehensive,
    validate_observed,
)
from reviewrate import _batch


class TestReviewConfig:
    def test_valid(self):
        cfg = ReviewConfig(m=2.5, H=3, T=2)
        assert (cfg.m, cfg.H, cfg.T) == (2.5, 3, 2)

    @pytest.mark.parametrize("kwargs", [
        dict(m=0.0, H=1, T=1),
        dict(m=-1.0, H=1, T=1),
        dict(m=float("inf"), H=1, T=1),
        dict(m=1.0, H=0, T=1),
        dict(m=1.0, H=1, T=0),
        dict(m=1e-320, H=1, T=1),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidDataError):
            ReviewConfig(**kwargs)


class TestStratumParams:
    def test_valid(self):
        p = StratumParams(lambdas=(1.0, 0.0, 2.5), pis=(0.3, 1.0))
        assert p.tiers == 2

    def test_zero_rates_allowed(self):
        StratumParams(lambdas=(0.0, 0.0), pis=(0.5,))

    def test_negative_rate_rejected(self):
        with pytest.raises(InvalidDataError):
            StratumParams(lambdas=(-0.1, 1.0), pis=(0.5,))

    def test_zero_sampling_rate_rejected(self):
        with pytest.raises(InvalidDataError):
            StratumParams(lambdas=(1.0, 1.0), pis=(0.0,))

    def test_sampling_rate_above_one_rejected(self):
        with pytest.raises(InvalidDataError):
            StratumParams(lambdas=(1.0, 1.0), pis=(1.1,))

    def test_length_mismatch(self):
        with pytest.raises(InvalidDataError):
            StratumParams(lambdas=(1.0, 1.0), pis=(0.5, 0.5))


class TestScenario:
    def _params(self):
        return StratumParams(lambdas=(1.0, 2.0, 3.0), pis=(0.5, 0.5))

    def test_theta(self):
        scen = Scenario(config=ReviewConfig(m=1, H=2, T=2), strata=(self._params(),) * 2)
        assert scen.theta == 6.0

    def test_stratum_count_must_match(self):
        with pytest.raises(InvalidDataError):
            Scenario(config=ReviewConfig(m=1, H=3, T=2), strata=(self._params(),) * 2)

    def test_tier_count_must_match(self):
        with pytest.raises(InvalidDataError):
            Scenario(config=ReviewConfig(m=1, H=1, T=3), strata=(self._params(),))

    def test_rate_beyond_poisson_sampler_rejected(self):
        huge = StratumParams(lambdas=(1e10, 2.0, 3.0), pis=(0.5, 0.5))
        Scenario(config=ReviewConfig(m=1e8, H=1, T=2), strata=(huge,))
        with pytest.raises(InvalidDataError):
            Scenario(config=ReviewConfig(m=1e9, H=1, T=2), strata=(huge,))

    def test_json_round_trip(self):
        scen = Scenario(config=ReviewConfig(m=0.5, H=2, T=2), strata=(self._params(),) * 2)
        assert Scenario.from_dict(scen.to_dict()) == scen

    def test_malformed_document(self):
        with pytest.raises(InvalidDataError):
            Scenario.from_dict({"m": 1.0, "H": 1})


class TestLatentTable:
    def test_escalation_totals(self):
        table = LatentTable(x=((3,), (2, 1), (4, 2, 2)))
        assert table.tiers == 2
        assert table.escalation_totals() == (9, 3, 2)

    def test_row_shape_enforced(self):
        with pytest.raises(InvalidDataError):
            LatentTable(x=((3, 1), (2, 1), (4, 2, 2)))

    def test_negative_rejected(self):
        with pytest.raises(InvalidDataError):
            LatentTable(x=((3,), (-2, 1), (4, 2, 2)))


class TestValidateObserved:
    def test_valid_chain(self):
        assert validate_observed(ObservedStratum(e=(6, 3, 2, 1), n=(3, 2, 1)))

    def test_early_termination_valid(self):
        assert validate_observed(ObservedStratum(e=(5, 4, 0, 0), n=(4, 2, 0)))
        assert validate_observed(ObservedStratum(e=(5, 3, 0, 0), n=(3, 2, 0)))

    def test_shape_mismatch_against_expected_tiers(self):
        result = validate_observed(ObservedStratum(e=(5, 4), n=(3,)), tiers=2)
        assert not result
        assert "tiers" in result.reason

    def test_inconsistent_lengths(self):
        result = validate_observed(ObservedStratum(e=(5, 4, 3), n=(3,)))
        assert not result
        assert "len(e)" in result.reason

    def test_unreviewed_nonempty_pool(self):
        result = validate_observed(ObservedStratum(e=(5, 0), n=(0,)))
        assert not result
        assert "reviewed" in result.reason

    def test_review_exceeds_pool(self):
        assert not validate_observed(ObservedStratum(e=(5, 4, 1), n=(6, 4)))

    def test_escalation_exceeds_review(self):
        assert not validate_observed(ObservedStratum(e=(5, 4), n=(3,)))

    def test_counts_after_termination_must_be_zero(self):
        assert not validate_observed(ObservedStratum(e=(5, 0, 2), n=(2, 1)))
        assert not validate_observed(ObservedStratum(e=(5, 0, 0), n=(2, 1)))

    def test_counts_must_be_exact_as_floats(self):
        assert validate_observed(ObservedStratum(e=(2**53 - 1, 1), n=(1,)))
        result = validate_observed(ObservedStratum(e=(2**53, 1), n=(1,)))
        assert not result
        assert "2**53" in result.reason

    def test_negative_counts(self):
        assert not validate_observed(ObservedStratum(e=(5, -1), n=(3,)))
        assert not validate_observed(ObservedStratum(e=(5, 1), n=(-3,)))


class TestDataset:
    def _stratum(self):
        return ObservedStratum(e=(6, 3, 2, 1), n=(3, 2, 1))

    def test_round_trip(self):
        ds = Dataset(config=ReviewConfig(m=2.0, H=2, T=3), strata=(self._stratum(),) * 2)
        again = Dataset.from_dict(ds.to_dict())
        assert again == ds

    def test_stratum_count_checked(self):
        with pytest.raises(InvalidDataError):
            Dataset(config=ReviewConfig(m=1.0, H=3, T=3), strata=(self._stratum(),) * 2)

    def test_shape_checked(self):
        with pytest.raises(InvalidDataError):
            Dataset(config=ReviewConfig(m=1.0, H=1, T=2), strata=(self._stratum(),))

    def test_invalid_stratum_rejected_at_construction(self):
        bad = ObservedStratum(e=(6, 7, 2, 1), n=(3, 2, 1))
        with pytest.raises(InvalidDataError, match="invalid stratum 1: "):
            Dataset(config=ReviewConfig(m=1.0, H=2, T=3), strata=(self._stratum(), bad))

    @pytest.mark.parametrize("e, n, reason", [
        ([5, -1], [3], "negative escalation count"),
        ([5, 1], [-3], "negative review count"),
        ([5, 4, 1], [6, 4], "exceeds the pool"),
        ([5, 4], [3], "exceeds the review count"),
        ([5, 0], [0], "must be reviewed"),
        ([5, 0, 2], [2, 1], "stay zero after an empty pool"),
        ([2**53, 1], [1], r"below 2\*\*53"),
    ], ids=["negative-e", "negative-n", "review-above-pool", "escalation-above-review",
            "unreviewed-pool", "counts-after-empty-pool", "count-2**53"])
    def test_from_dict_rejects_each_count_rule(self, e, n, reason):
        good = {"e": [1] * len(e), "n": [1] * len(n)}
        with pytest.raises(InvalidDataError, match=f"invalid stratum 1: .*{reason}"):
            Dataset.from_dict({"m": 1.0, "strata": [good, {"e": e, "n": n}]})

    def test_malformed_document(self):
        with pytest.raises(InvalidDataError):
            Dataset.from_dict({"m": 1.0})
        with pytest.raises(InvalidDataError):
            Dataset.from_dict({"m": 1.0, "strata": []})

    def test_non_integer_counts_rejected(self):
        with pytest.raises(InvalidDataError):
            Dataset.from_dict({"m": 1.0, "strata": [{"e": [1.5, 1], "n": [1]}]})

    def test_numpy_scalars_accepted(self):
        config = ReviewConfig(m=np.float64(2.0), H=np.int64(1), T=np.float64(3.0))
        stratum = ObservedStratum(e=np.array([6, 3, 2, 1]), n=np.array([3.0, 2.0, 1.0]))
        ds = Dataset(config=config, strata=(stratum,))
        assert ds == Dataset(config=ReviewConfig(m=2.0, H=1, T=3), strata=(self._stratum(),))
        assert type(config.H) is int and type(config.T) is int and type(config.m) is float
        params = StratumParams(lambdas=np.array([1, 2.5]), pis=np.array([0.5]))
        assert params.lambdas == (1.0, 2.5) and type(params.lambdas[0]) is float


class TestRateEstimate:
    DATASET = generate_dataset(scenario_rare(0.3), RngStream(0))[1]
    ESTIMATE = estimate_theta(DATASET)
    DERIVED = ("Lambda_hat", "lambda_hat", "pi_hat", "pi_prod", "weights", "theta_hat",
               "variance")

    @pytest.mark.parametrize("name", DERIVED)
    def test_derived_field_cannot_be_set(self, name):
        value = getattr(self.ESTIMATE, name)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(self.ESTIMATE, **{name: value})
        with pytest.raises(TypeError, match="unexpected keyword"):
            RateEstimate(self.DATASET, **{name: value})

    @pytest.mark.parametrize("strata", [
        lambda s: (ObservedStratum(e=(-1, *s[0].e[1:]), n=s[0].n), *s[1:]),
        lambda s: s[1:],
    ], ids=["negative-rate", "missing-stratum"])
    def test_bad_field_is_rejected_when_built(self, strata):
        # Counts that would give a negative rate or drop a stratum are stopped
        # by the Dataset, so no estimate can be built from them.
        with pytest.raises(InvalidDataError):
            dataclasses.replace(
                self.ESTIMATE,
                dataset=Dataset(self.DATASET.config, strata=strata(self.DATASET.strata)),
            )

    @pytest.mark.parametrize("m", [0.0, -1.0], ids=["zero-mileage", "negative-mileage"])
    def test_bad_mileage_is_rejected_with_the_dataset(self, m):
        with pytest.raises(InvalidDataError, match="mileage must be positive"):
            Dataset.from_dict({**self.DATASET.to_dict(), "m": m})

    @pytest.mark.parametrize("scenario", [scenario_rare(0.1), scenario_rare(1.0),
                                          scenario_common(0.1), scenario_common(0.6)],
                             ids=["rare-0.1", "rare-1.0", "common-0.1", "common-0.6"])
    def test_fields_are_lane_zero_of_the_batch_fit(self, scenario):
        for seed in range(5):
            dataset = generate_dataset(scenario, RngStream(seed))[1]
            est = estimate_theta(dataset)
            e = np.array([s.e for s in dataset.strata])[:, :, None]
            n = np.array([s.n for s in dataset.strata])[:, :, None]
            fit = _batch.estimate_counts(e, n, dataset.config.m)
            assert [list(row) for row in est.Lambda_hat] == fit.Lambda[:, :, 0].tolist()
            assert [list(row) for row in est.lambda_hat] == fit.lam[:, :, 0].tolist()
            assert [list(row) for row in est.pi_hat] == fit.pi_tier[:, :, 0].tolist()
            assert list(est.pi_prod) == fit.pi_prod[:, 0].tolist()
            assert list(est.weights) == fit.weights[:, 0].tolist()
            assert [est.theta_hat, est.variance] == [fit.theta.tolist()[0],
                                                     fit.variance.tolist()[0]]
            assert est.m == dataset.config.m and est.dataset is dataset

    def test_replacing_the_dataset_refits(self):
        other = generate_dataset(scenario_rare(0.3), RngStream(1))[1]
        assert other != self.DATASET
        refit = dataclasses.replace(self.ESTIMATE, dataset=other)
        assert refit == estimate_theta(other)
        assert refit != self.ESTIMATE


class TestNotASequence:
    CONFIG = ReviewConfig(m=1.0, H=1, T=1)

    @pytest.mark.parametrize("build", [
        lambda c: ObservedStratum(e=5, n=(1,)),
        lambda c: ObservedStratum(e=None, n=(1,)),
        lambda c: StratumParams(lambdas=1.0, pis=(0.5,)),
        lambda c: LatentTable(x=3),
        lambda c: LatentTable(x=(3,)),
        lambda c: StudySpec(source="fixed-rare", pi1_grid=0.5),
        lambda c: StudySpec(source="fixed-rare", methods=5),
        lambda c: Dataset(c, strata=5),
        lambda c: Scenario(c, strata=5),
        lambda c: RngStream(0, path=3),
        lambda c: summarize_comprehensive([], grid=1.0),
    ], ids=["stratum-e-int", "stratum-e-none", "params-rates", "latent-scalar",
            "latent-scalar-row", "spec-grid", "spec-methods", "dataset-strata",
            "scenario-strata", "stream-path", "summary-grid"])
    def test_scalar_where_a_sequence_belongs_is_invalid_data(self, build):
        with pytest.raises(InvalidDataError, match="expected a sequence"):
            build(self.CONFIG)


class TestWrongType:
    CONFIG = ReviewConfig(m=1.0, H=1, T=1)

    @pytest.mark.parametrize("build, field", [
        (lambda c: Dataset(c, strata=(5,)), "stratum 0"),
        (lambda c: Scenario(c, strata=(5,)), "stratum 0"),
        (lambda c: Dataset(config=None, strata=()), "config"),
        (lambda c: Scenario(config=None, strata=()), "config"),
    ], ids=["dataset-stratum", "scenario-stratum", "dataset-config", "scenario-config"])
    def test_wrong_type_is_invalid_data_naming_the_field(self, build, field):
        with pytest.raises(InvalidDataError, match=f"^{field}: expected "):
            build(self.CONFIG)


class TestIntervalResult:
    def test_width(self):
        iv = IntervalResult(method="wald", level=0.9, lower=1.0, upper=3.0)
        assert iv.width == 2.0

    def test_unknown_method(self):
        with pytest.raises(InvalidDataError):
            IntervalResult(method="magic", level=0.9, lower=0.0, upper=1.0)

    def test_bad_level(self):
        with pytest.raises(InvalidDataError):
            IntervalResult(method="wald", level=1.0, lower=0.0, upper=1.0)

    def test_inverted_bounds(self):
        with pytest.raises(InvalidDataError):
            IntervalResult(method="wald", level=0.9, lower=2.0, upper=1.0)

    @pytest.mark.parametrize("lower, upper", [("0", "1"), (0.0, "1"), (False, 1.0), (0.0, None)])
    def test_bounds_that_are_not_numbers(self, lower, upper):
        with pytest.raises(InvalidDataError):
            IntervalResult(method="wald", level=0.9, lower=lower, upper=upper)

    def test_numpy_bounds_are_stored_as_floats(self):
        iv = IntervalResult(method="wald", level=0.9, lower=np.float64(1.0), upper=np.int64(3))
        assert (type(iv.lower), type(iv.upper)) == (float, float)
