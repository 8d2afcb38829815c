"""Property tests of the estimator, the intervals and the generator on generated inputs."""

import math
import sys
import warnings

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from reviewrate import (  # noqa: E402
    Dataset,
    InvalidDataError,
    RngStream,
    StratumParams,
    ci_bootstrap,
    ci_gamma_wsip,
    ci_wald,
    estimate_theta,
    generate_stratum,
    validate_observed,
)

_PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)

# Every positive finite float, subnormals included (their reciprocal overflows).
_ANY_MILEAGE = st.floats(min_value=math.ulp(0.0), max_value=sys.float_info.max)
_PLAIN_MILEAGE = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def valid_counts(draw, tiers):
    """Counts below 2**53 with ``e_t <= n_t <= e_{t-1}``, ``n_t >= 1`` on a non-empty pool."""
    e, n = [draw(st.integers(0, 2**53 - 1))], []
    for _ in range(tiers):
        n.append(draw(st.integers(1, e[-1])) if e[-1] else 0)
        e.append(draw(st.integers(0, n[-1])))
    return {"e": e, "n": n}


def any_counts(tiers):
    """Valid counts, or integer lists of the right shape that may break every count rule."""
    raw = st.fixed_dictionaries({
        "e": st.lists(st.integers(-1, 2**53), min_size=tiers + 1, max_size=tiers + 1),
        "n": st.lists(st.integers(-1, 2**53), min_size=tiers, max_size=tiers),
    })
    return valid_counts(tiers) | raw


@st.composite
def dataset_docs(draw, mileage=_ANY_MILEAGE, counts=any_counts):
    tiers = draw(st.integers(1, 4))
    strata = draw(st.lists(counts(tiers), min_size=1, max_size=3))
    return {"m": draw(mileage), "strata": strata}


@_PROPERTY
@given(dataset_docs())
def test_accepted_dataset_estimates_cleanly_or_is_rejected(doc):
    try:
        dataset = Dataset.from_dict(doc)
    except InvalidDataError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            estimate = estimate_theta(dataset)
        except InvalidDataError:
            return
        # Every interval reads the same checked fit, so none may reject what the estimate took.
        ci_wald(estimate, 0.9)
        ci_gamma_wsip(estimate, 0.9)
        ci_bootstrap(estimate, 0.9, 100, RngStream(0))


@_PROPERTY
@given(st.integers(1, 4).flatmap(valid_counts), _PLAIN_MILEAGE)
def test_lambda_hat_is_non_increasing(counts, m):
    Lambda = estimate_theta(Dataset.from_dict({"m": m, "strata": [counts]})).Lambda_hat[0]
    assert all(later <= earlier for earlier, later in zip(Lambda, Lambda[1:]))


@_PROPERTY
@given(dataset_docs(mileage=_PLAIN_MILEAGE, counts=valid_counts), st.integers(0, 2**32))
def test_interval_bounds_are_ordered(doc, seed):
    dataset = Dataset.from_dict(doc)
    estimate = estimate_theta(dataset)
    intervals = (
        ci_wald(estimate, 0.9),
        ci_gamma_wsip(estimate, 0.9),
        ci_bootstrap(estimate, 0.9, 100, RngStream(seed)),
    )
    assert all(iv.lower <= iv.upper for iv in intervals)
    assert intervals[1].lower >= 0.0


@_PROPERTY
@given(
    st.integers(1, 4).flatmap(lambda tiers: st.tuples(
        st.lists(st.floats(0.0, 50.0), min_size=tiers + 1, max_size=tiers + 1),
        st.lists(st.floats(0.01, 1.0), min_size=tiers, max_size=tiers),
    )),
    st.floats(0.1, 10.0),
    st.integers(0, 2**32),
)
def test_generated_stratum_is_valid(rates, m, seed):
    lambdas, pis = rates
    latent, stratum = generate_stratum(StratumParams(lambdas=lambdas, pis=pis), m, RngStream(seed))
    check = validate_observed(stratum, tiers=len(pis))
    assert check, check.reason
    # Zero rates give zero-tail rows, whose empty pools the completion must leave empty.
    assert all(v >= 0 for row in latent.x for v in row)
    assert latent.escalation_totals() == stratum.e
