"""In-memory span recorder for the traced benchmark run.

The recorder wraps reviewrate's layer functions from the outside: it replaces
every module attribute that refers to a wrapped function, so a name imported
with ``from .x import f`` is traced at the importing module too (``cli`` and
``intervals`` import ``estimate_theta`` by name, ``generator`` imports the
scalar samplers by name, ``_batch.generate_counts`` looks up
``hypergeometric_split`` through its module globals). Class-level entry points
(``Scenario.from_dict``, ``Dataset.from_dict``, the lazy
``RngStream.generator``) are wrapped on the class, which every site shares.

Spans stay in memory until the run ends. Per-draw scalar samplers and
``validate_observed`` get counts-only wrappers, because a span per draw would
cost more than the draw.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict

import numpy as np

import reviewrate
from reviewrate import _batch, cli, distributions, estimator, generator, intervals, model, study
from reviewrate.distributions import RngStream

_MODULES = (reviewrate, _batch, cli, distributions, estimator, generator, intervals, model, study)

# Metric prefix -> defining module and name. "batch" stands for ``_batch``:
# metric names must start with a letter or a digit.
_TIMED = {
    "batch.generate_counts": (_batch, "generate_counts"),
    "batch.hypergeometric_split": (_batch, "hypergeometric_split"),
    "batch.estimate_counts": (_batch, "estimate_counts"),
    "batch.wald_bounds": (_batch, "wald_bounds"),
    "batch.gamma_bounds": (_batch, "gamma_bounds"),
    "batch.bootstrap_bounds": (_batch, "bootstrap_bounds"),
    "study.run_sweep": (study, "run_sweep"),
    "study.scenario_comprehensive": (study, "scenario_comprehensive"),
    "generator.generate_dataset": (generator, "generate_dataset"),
    "estimator.estimate_theta": (estimator, "estimate_theta"),
    "intervals.ci_wald": (intervals, "ci_wald"),
    "intervals.ci_gamma_wsip": (intervals, "ci_gamma_wsip"),
    "intervals.ci_bootstrap": (intervals, "ci_bootstrap"),
    "cli.main": (cli, "main"),
}
_COUNTED = {
    "distributions.sample_poisson": (distributions, "sample_poisson"),
    "distributions.sample_binomial": (distributions, "sample_binomial"),
    "distributions.sample_mv_hypergeometric": (distributions, "sample_mv_hypergeometric"),
    "model.validate_observed": (model, "validate_observed"),
}
_CLASSMETHODS = {
    "model.Scenario.from_dict": (model.Scenario, "from_dict"),
    "model.Dataset.from_dict": (model.Dataset, "from_dict"),
}
_GENERATOR_SPAN = "distributions.RngStream.generator"


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(self, original: object, value: object) -> None:
        """Replace ``original`` at every module attribute that refers to it."""
        for module in _MODULES:
            for attr, current in list(vars(module).items()):
                if current is original:
                    self.set(module, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class StreamAudit:
    """Records every RNG stream whose generator an op creates.

    ``digest`` gives each stream's path and final bit-generator state, so two
    runs that draw the same values from the same streams compare equal.
    """

    def __init__(self) -> None:
        self.created: list[tuple[tuple[int, ...], np.random.Generator]] = []
        self._patches = _Patches()

    def __enter__(self) -> "StreamAudit":
        fget = inspect.getattr_static(RngStream, "generator").fget
        audit = self

        def generator(stream: RngStream) -> np.random.Generator:
            fresh = stream._generator is None
            gen = fget(stream)
            if fresh:
                audit.created.append((stream.path, gen))
            return gen

        self._patches.set(RngStream, "generator", property(generator))
        return self

    def __exit__(self, *exc: object) -> None:
        self._patches.undo()

    def digest(self) -> list[tuple[tuple[int, ...], str]]:
        return [(path, repr(gen.bit_generator.state)) for path, gen in self.created]


class Tracer:
    """Span and count recorder for one traced phase.

    A span is ``[name, start, end, parent_index, op_id]``. Calls made while no
    op is open (the benchmark's own output checks) are not recorded.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.ops = 0
        self._op_id: int | None = None
        self._stack: list[int] = []
        self._patches = _Patches()

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def op(self, op_id: int, fn):
        """Run one op as the root span ``op``."""
        self._op_id = op_id
        rec = self._open("op")
        try:
            return fn()
        finally:
            self._close(rec)
            self._op_id = None
            self.ops += 1

    def _timed(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            if self._op_id is None:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                # A span of its own, so the parent's self time excludes it.
                rec = self._open("trace.after")
                try:
                    after(result)
                finally:
                    self._close(rec)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if self._op_id is not None:
                self.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_generate(self, result) -> None:
        e, n = result
        T = n.shape[1]
        pools = e[:, :T]
        reviewed = pools > 0
        c = self.counts
        c["batch.generate_counts.lanes"] += e.shape[2]
        c["lanes.strata"] += e.shape[0] * e.shape[2]
        c["lanes.empty_pool"] += int(np.count_nonzero(e[:, 0] == 0))
        c["lanes.terminated"] += int(np.count_nonzero((~reviewed).any(axis=1)))
        c["lanes.reviewed_tiers"] += int(np.count_nonzero(reviewed))
        c["lanes.single_review"] += int(np.count_nonzero((n == 1) & reviewed))

    def _after_estimate(self, result) -> None:
        self.counts["batch.estimate_counts.lanes"] += result.theta.shape[0]
        self.counts["lanes.zero_theta"] += int(np.count_nonzero(result.theta == 0))

    # -- installation ----------------------------------------------------

    def __enter__(self) -> "Tracer":
        after = {
            "batch.generate_counts": self._after_generate,
            "batch.estimate_counts": self._after_estimate,
        }
        p = self._patches
        for name, (module, attr) in _TIMED.items():
            original = getattr(module, attr)
            p.everywhere(original, self._timed(name, original, after.get(name)))
        for name, (module, attr) in _COUNTED.items():
            original = getattr(module, attr)
            p.everywhere(original, self._counted(name, original))
        for name, (cls, attr) in _CLASSMETHODS.items():
            func = inspect.getattr_static(cls, attr).__func__
            p.set(cls, attr, classmethod(self._timed(name, func)))

        fget = inspect.getattr_static(RngStream, "generator").fget
        tracer = self

        def generator(stream: RngStream) -> np.random.Generator:
            if stream._generator is not None or tracer._op_id is None:
                return fget(stream)
            tracer.counts[_GENERATOR_SPAN + ".created"] += 1
            rec = tracer._open(_GENERATOR_SPAN)
            try:
                return fget(stream)
            finally:
                tracer._close(rec)

        p.set(RngStream, "generator", property(generator))
        return self

    def __exit__(self, *exc: object) -> None:
        self._patches.undo()

    # -- summary ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-op layer metrics: calls, inclusive and self time, lanes and shares."""
        busy: dict[str, float] = defaultdict(float)
        child: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        spans = self.spans
        for name, start, end, parent, _ in spans:
            dur = end - start
            busy[name] += dur
            calls[name] += 1
            if parent >= 0:
                child[spans[parent][0]] += dur
        ops = max(self.ops, 1)
        c = self.counts
        out: dict[str, float] = {"op.busy_s": busy["op"] / ops}
        for name in list(_TIMED) + list(_CLASSMETHODS):
            out[name + ".calls"] = calls[name] / ops
            out[name + ".busy_s"] = busy[name] / ops
            out[name + ".self_s"] = (busy[name] - child[name]) / ops
        for name in _COUNTED:
            out[name + ".calls"] = c[name + ".calls"] / ops
        out[_GENERATOR_SPAN + ".created"] = c[_GENERATOR_SPAN + ".created"] / ops
        out[_GENERATOR_SPAN + ".busy_s"] = busy[_GENERATOR_SPAN] / ops
        for name in ("batch.generate_counts.lanes", "batch.estimate_counts.lanes"):
            out[name] = c[name] / ops
        out["batch.generate_counts.lanes_per_s"] = _ratio(
            c["batch.generate_counts.lanes"], busy["batch.generate_counts"]
        )
        out["batch.lanes.empty_pool_share"] = _ratio(c["lanes.empty_pool"], c["lanes.strata"])
        out["batch.lanes.terminated_share"] = _ratio(c["lanes.terminated"], c["lanes.strata"])
        out["batch.lanes.single_review_share"] = _ratio(
            c["lanes.single_review"], c["lanes.reviewed_tiers"]
        )
        out["batch.lanes.zero_theta_share"] = _ratio(
            c["lanes.zero_theta"], c["batch.estimate_counts.lanes"]
        )
        for name in ("study.cells", "cli.bytes_written"):
            out[name] = c[name] / ops
        return out


def _ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0 on a workload that never enters the layer."""
    return part / whole if whole else 0.0
