"""Seeded random streams and exact scalar samplers.

No package code draws from the scalar samplers: the simulator is the batch
sampler in ``_batch``. They delegate to numpy's exact samplers (no normal
approximation at large rates), which need a Poisson rate below about 9.2e18
and, for the hypergeometric, both the drawn class and the rest of the pool
below 1e9 items. The quantile functions the intervals invert live in
``_batch``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .model import InvalidDataError, _int_tuple, _real, check_integer

__all__ = [
    "RngStream",
    "sample_poisson",
    "sample_binomial",
    "sample_mv_hypergeometric",
]


class RngStream:
    """A reproducible random stream addressed by ``(master_seed, path)``.

    Two streams with the same address produce identical draw sequences;
    streams at different paths are statistically independent. ``child``
    extends the path, so concurrent tasks can each own a disjoint subtree
    of streams without any coordination. The generator is created lazily
    and is stateful, so a stream must not be shared between concurrent
    tasks. A seed outside ``[0, 2**64)`` or a path entry that is not a
    non-negative integer raises :class:`~reviewrate.InvalidDataError`.
    """

    __slots__ = ("master_seed", "path", "_generator")

    def __init__(self, master_seed: int, path: Sequence[int] = ()) -> None:
        seed = check_integer(master_seed, "master_seed")
        if not 0 <= seed < 2**64:
            raise InvalidDataError(f"master_seed must lie in [0, 2**64), got {master_seed!r}")
        key = _int_tuple(path, "path entries")
        if any(i < 0 for i in key):
            raise InvalidDataError(f"path entries must be non-negative integers, got {path!r}")
        self.master_seed = seed
        self.path = key
        self._generator: np.random.Generator | None = None

    def child(self, *indices: int) -> "RngStream":
        """Return a fresh stream whose path extends this one by ``indices``."""
        return RngStream(self.master_seed, self.path + indices)

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            seq = np.random.SeedSequence(self.master_seed, spawn_key=self.path)
            self._generator = np.random.default_rng(seq)
        return self._generator

    def __repr__(self) -> str:
        return f"RngStream(master_seed={self.master_seed}, path={self.path})"


def sample_poisson(rate: float, rng: RngStream) -> int:
    """Draw an exact Poisson variate with the given mean. ``rate == 0`` yields 0."""
    rate = _real(rate, "Poisson rate")
    if not math.isfinite(rate) or rate < 0:
        raise InvalidDataError(f"Poisson rate must be finite and non-negative, got {rate!r}")
    if rate == 0.0:
        return 0
    return int(rng.generator.poisson(rate))


def sample_binomial(n: int, p: float, rng: RngStream) -> int:
    """Draw an exact Binomial(n, p) variate."""
    n = check_integer(n, "binomial trial count")
    p = _real(p, "binomial success probability")
    if n < 0:
        raise InvalidDataError(f"binomial trial count must be non-negative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise InvalidDataError(f"binomial success probability must lie in [0, 1], got {p!r}")
    return int(rng.generator.binomial(n, p))


def sample_mv_hypergeometric(
    class_counts: Sequence[int], n_draw: int, rng: RngStream
) -> tuple[int, ...]:
    """Draw ``n_draw`` items without replacement from a pool partitioned into classes.

    Returns the per-class counts of the drawn items. Sampling is done by
    sequential conditioning: class ``k`` is drawn from a univariate
    hypergeometric given the items still undrawn, which is exact in law and
    costs one univariate draw per class.
    """
    counts = _int_tuple(class_counts, "class counts")
    n_draw = check_integer(n_draw, "n_draw")
    if any(c < 0 for c in counts):
        raise InvalidDataError(f"class counts must be non-negative, got {class_counts!r}")
    if n_draw < 0:
        raise InvalidDataError(f"n_draw must be non-negative, got {n_draw}")
    total = sum(counts)
    if n_draw > total:
        raise InvalidDataError(f"cannot draw {n_draw} items from a pool of {total}")

    gen = rng.generator
    remaining_pool = total
    remaining_draw = n_draw
    out = []
    for c in counts:
        if remaining_draw == 0:
            out.append(0)
        else:
            y = int(gen.hypergeometric(c, remaining_pool - c, remaining_draw))
            out.append(y)
            remaining_draw -= y
        remaining_pool -= c
    return tuple(out)

