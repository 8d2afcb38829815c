"""Tests for the package's public API: each name is declared once, in its module."""

import reviewrate
from reviewrate import distributions, estimator, generator, intervals, model, study

MODULES = (distributions, estimator, generator, intervals, model, study)
SAMPLERS = ("sample_poisson", "sample_binomial", "sample_mv_hypergeometric")


def test_package_exports_each_module_api():
    names = [name for module in MODULES for name in module.__all__]
    assert sorted(reviewrate.__all__) == sorted([*names, "__version__"])
    assert len(set(names)) == len(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(reviewrate, name) is getattr(module, name)


def test_scalar_samplers_are_not_package_api():
    for name in SAMPLERS:
        assert name not in reviewrate.__all__ and not hasattr(reviewrate, name)
        assert callable(getattr(distributions, name))
