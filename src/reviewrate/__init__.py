"""Rate estimation for event streams that are reviewed in partial, tiered passes.

Candidate events are confirmed or rejected by a sequence of review tiers,
each of which sees only a random subset of what the previous tier escalated.
This package simulates that process exactly, recovers the underlying event
rates by maximum likelihood from the observable per-tier counts, builds
confidence intervals for the aggregate rate by three methods (parametric
bootstrap, normal approximation, and a gamma method on a weighted sum of
independent Poissons), and measures their coverage in Monte Carlo studies.
"""

from . import distributions, estimator, generator, intervals, model, study
from .distributions import *
from .estimator import *
from .generator import *
from .intervals import *
from .model import *
from .study import *

__version__ = "0.1.0"

__all__ = [
    *distributions.__all__,
    *estimator.__all__,
    *generator.__all__,
    *intervals.__all__,
    *model.__all__,
    *study.__all__,
    "__version__",
]
