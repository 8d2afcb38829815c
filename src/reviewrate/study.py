"""Monte Carlo coverage studies over fixed and randomized scenarios.

A sweep repeatedly simulates a scenario, estimates the aggregate rate,
builds the requested confidence intervals, and tallies how often each
interval contains the true rate, split into lower misses (truth below the
interval) and upper misses (truth above it). Two fixed five-stratum,
three-tier scenarios sweep the first-tier sampling rate over a grid; the
comprehensive study instead randomizes all rates and sampling rates per
scenario and is summarized in moving windows of the expected number of
observed surviving events.

Replications are vectorized: each (scenario, grid point) batch-generates and
fits all its replications on one child stream, and each replication's
bootstrap simulates from that replication's lane of the fit, on its own
sub-stream. Cells run concurrently on a thread pool with one worker per
usable CPU (numpy's samplers and scipy's quantile loops release the GIL).
With the bootstrap, a cell's data are drawn and fitted on the submitting
thread and each replication's bootstrap is a task of its own, independent
of the others, so even a one-cell study uses every worker. A cell reads only
its own stream subtree and rows are merged in canonical order (scenario,
grid point, method), so a sweep is a pure function of its spec whatever the
worker count or scheduling. Each generator is created on the submitting
thread just before it is drawn from there or the task that draws from it
is submitted, so the order in which streams come into being is fixed by the
spec too, and only the tasks in flight hold bootstrap generators. On an
exception or Ctrl-C, tasks already running finish and tasks not yet
started never start.
"""

from __future__ import annotations

import csv
import io
import os
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import _batch
from .distributions import RngStream
from .generator import _scenario_arrays
from .model import CI_METHODS, InvalidDataError, ReviewConfig, Scenario, StratumParams
from .model import _float_tuple, _real, check_bootstrap_replicates, check_integer, check_level

__all__ = [
    "StudySpec",
    "CoverageRow",
    "WindowSummary",
    "scenario_common",
    "scenario_rare",
    "scenario_comprehensive",
    "expected_observed_tp",
    "run_sweep",
    "summarize_comprehensive",
    "rows_to_csv",
    "DEFAULT_PI1_GRID",
]

STUDY_SOURCES = ("fixed-common", "fixed-rare", "comprehensive")

DEFAULT_PI1_GRID = tuple(round(0.1 * k, 1) for k in range(1, 11))

_COMMON_LAMBDAS = (
    (10.0, 5.0, 2.5, 18.0),
    (20.0, 15.0, 25.0, 10.0),
    (20.0, 30.0, 8.0, 5.0),
    (5.0, 6.0, 25.0, 10.0),
    (30.0, 12.0, 4.0, 15.0),
)
_RARE_LAST_COLUMN = (4.0, 2.0, 1.0, 2.0, 2.0)
_UPPER_TIER_PIS = (
    (0.5, 0.95),
    (0.6, 0.96),
    (0.7, 0.97),
    (0.8, 0.98),
    (0.9, 0.99),
)

CSV_HEADER = (
    "scenario_id",
    "pi1",
    "expected_tp",
    "method",
    "level",
    "reps",
    "coverage",
    "lower_miss",
    "upper_miss",
    "mean_width",
)


@dataclass(frozen=True)
class StudySpec:
    """Everything a sweep needs; two specs that compare equal produce identical rows."""

    source: str
    pi1_grid: tuple[float, ...] = DEFAULT_PI1_GRID
    replications: int = 1000
    level: float = 0.9
    methods: tuple[str, ...] = CI_METHODS
    B: int = 2000
    num_scenarios: int = 100_000
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.source not in STUDY_SOURCES:
            raise InvalidDataError(
                f"unknown study source {self.source!r}; expected one of {STUDY_SOURCES}"
            )
        object.__setattr__(self, "pi1_grid", _float_tuple(self.pi1_grid, "grid values"))
        if not self.pi1_grid or any(not 0 < p <= 1 for p in self.pi1_grid):
            raise InvalidDataError(f"the grid needs values in (0, 1], got {self.pi1_grid}")
        for name in ("replications", "B", "num_scenarios"):
            object.__setattr__(self, name, check_integer(getattr(self, name), name))
        if self.replications < 1:
            raise InvalidDataError(f"replications must be at least 1, got {self.replications}")
        object.__setattr__(self, "level", check_level(self.level))
        object.__setattr__(self, "master_seed", RngStream(self.master_seed).master_seed)
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.methods:
            raise InvalidDataError(f"methods must name at least one of {CI_METHODS}")
        for method in self.methods:
            if method not in CI_METHODS:
                raise InvalidDataError(
                    f"unknown method {method!r}; expected a subset of {CI_METHODS}"
                )
        if self.num_scenarios < 1:
            raise InvalidDataError(f"num_scenarios must be at least 1, got {self.num_scenarios}")
        if "bootstrap" in self.methods:
            check_bootstrap_replicates(self.B)


@dataclass(frozen=True)
class CoverageRow:
    """Coverage tally for one (scenario, grid point, method) cell.

    Counts are kept as integers so that covered + lower misses + upper
    misses always reconstructs the replication count exactly.
    """

    scenario_id: str
    pi1: float | None
    expected_tp: float
    method: str
    level: float
    reps: int
    cover_n: int
    lower_miss_n: int
    upper_miss_n: int
    mean_width: float

    @property
    def coverage(self) -> float:
        return self.cover_n / self.reps

    @property
    def lower_miss(self) -> float:
        return self.lower_miss_n / self.reps

    @property
    def upper_miss(self) -> float:
        return self.upper_miss_n / self.reps


def scenario_common(pi1: float = 1.0) -> Scenario:
    """The fixed five-stratum, three-tier scenario with a high surviving-event rate.

    The first-tier sampling rate is the sweep's free parameter and is filled
    in here; the higher tiers keep their fixed per-stratum rates.
    """
    return _fixed_scenario(_COMMON_LAMBDAS, pi1)


def scenario_rare(pi1: float = 1.0) -> Scenario:
    """The common scenario with the surviving-event rates lowered to rare levels."""
    lambdas = tuple(
        row[:3] + (last,) for row, last in zip(_COMMON_LAMBDAS, _RARE_LAST_COLUMN)
    )
    return _fixed_scenario(lambdas, pi1)


def _fixed_scenario(lambdas: tuple[tuple[float, ...], ...], pi1: float) -> Scenario:
    strata = tuple(
        StratumParams(lambdas=row, pis=(pi1,) + upper)
        for row, upper in zip(lambdas, _UPPER_TIER_PIS)
    )
    return Scenario(config=ReviewConfig(m=1.0, H=5, T=3), strata=strata)


def scenario_comprehensive(rng: RngStream) -> Scenario:
    """Draw one randomized five-stratum, three-tier scenario.

    Per stratum, in order: a mean in Uniform(1, 4) then an exponential rate
    with that mean for each of the four classes (one vectorized call each),
    then the three sampling rates, the first Uniform(0, 1) and each later one
    uniform between its predecessor and 1 so rates never decrease across
    tiers. A zero first-tier draw is redrawn since zero sampling rates are
    rejected by construction.
    """
    gen = rng.generator
    strata = []
    for _ in range(5):
        means = gen.uniform(1.0, 4.0, size=4)
        lambdas = gen.exponential(scale=means)
        pi1 = gen.uniform(0.0, 1.0)
        while pi1 == 0.0:
            pi1 = gen.uniform(0.0, 1.0)
        pi2 = gen.uniform(pi1, 1.0)
        pi3 = gen.uniform(pi2, 1.0)
        strata.append(StratumParams(lambdas=tuple(lambdas), pis=(pi1, pi2, pi3)))
    return Scenario(config=ReviewConfig(m=1.0, H=5, T=3), strata=tuple(strata))


def expected_observed_tp(scenario: Scenario) -> float:
    """Expected number of surviving events that reach and pass the last tier's review."""
    total = 0.0
    for params in scenario.strata:
        prod = 1.0
        for p in params.pis:
            prod *= p
        total += scenario.config.m * params.lambdas[-1] * prod
    return total


def _draw_cell(
    scenario: Scenario,
    spec: StudySpec,
    data_gen: np.random.Generator,
    bounds: dict[str, tuple[np.ndarray, np.ndarray]],
) -> _batch.BatchEstimate:
    """Draw and fit all replications of one cell, put its Wald and gamma
    bounds in ``bounds`` and return its fit."""
    lam, pis = _scenario_arrays(scenario)
    m = scenario.config.m
    e, n = _batch.generate_counts(lam, pis, m, spec.replications, data_gen)
    est = _batch.estimate_counts(e, n, m)
    if "wald" in spec.methods:
        bounds["wald"] = _batch.wald_bounds(est.theta, est.variance, spec.level)
    if "gamma_wsip" in spec.methods:
        bounds["gamma_wsip"] = _batch.gamma_bounds(est.theta, est.variance, est.w_max, spec.level)
    return est


def _bootstrap_replication(
    est: _batch.BatchEstimate,
    r: int,
    m: float,
    spec: StudySpec,
    gen: np.random.Generator,
    lower: np.ndarray,
    upper: np.ndarray,
) -> None:
    """Put the bootstrap bounds of replication ``r``, simulated from its lane
    of the cell's fit ``est``, in ``lower[r]`` and ``upper[r]``."""
    lower[r], upper[r] = _batch.bootstrap_bounds(
        est.lam[:, :, r], est.pi_tier[:, :, r], m, spec.level, spec.B, gen
    )


def _coverage_rows(
    scenario: Scenario,
    scenario_id: str,
    pi1: float | None,
    spec: StudySpec,
    bounds: dict[str, tuple[np.ndarray, np.ndarray]],
) -> list[CoverageRow]:
    """Tally one cell's bounds per method against the scenario's true rate."""
    theta_true = scenario.theta
    R = spec.replications
    expected_tp = expected_observed_tp(scenario)
    rows = []
    for method in CI_METHODS:
        if method not in bounds:
            continue
        lower, upper = bounds[method]
        lower_miss = int(np.count_nonzero(theta_true < lower))
        upper_miss = int(np.count_nonzero(theta_true > upper))
        rows.append(
            CoverageRow(
                scenario_id=scenario_id,
                pi1=pi1,
                expected_tp=expected_tp,
                method=method,
                level=spec.level,
                reps=R,
                cover_n=R - lower_miss - upper_miss,
                lower_miss_n=lower_miss,
                upper_miss_n=upper_miss,
                mean_width=float(np.mean(upper - lower)),
            )
        )
    return rows


# Tasks submitted but not yet merged, per worker: enough to keep every worker
# busy while the oldest task is awaited, without queueing a whole study.
_TASKS_IN_FLIGHT_PER_WORKER = 2


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _cells(spec: StudySpec) -> Iterator[tuple[Scenario, str, float | None, RngStream]]:
    """Each cell's scenario, id, grid point and stream, in canonical order.

    Data streams live under one branch of the master stream and
    scenario-parameter draws under another, so the two can never collide.
    Comprehensive scenarios are drawn here, as their cell is reached.
    """
    root = RngStream(spec.master_seed)
    data_root = root.child(0)
    param_root = root.child(1)
    if spec.source == "comprehensive":
        for si in range(spec.num_scenarios):
            scenario = scenario_comprehensive(param_root.child(si))
            yield scenario, f"comprehensive-{si}", None, data_root.child(si, 0)
    else:
        fixed = scenario_common if spec.source == "fixed-common" else scenario_rare
        scenario_id = "common" if spec.source == "fixed-common" else "rare"
        for gi, pi1 in enumerate(spec.pi1_grid):
            yield fixed(pi1), scenario_id, pi1, data_root.child(0, gi)


def run_sweep(spec: StudySpec) -> list[CoverageRow]:
    """Run a full coverage study and return its rows in canonical order.

    Fixed studies iterate the first-tier sampling grid; the comprehensive
    study iterates freshly drawn scenarios. Without the bootstrap, a cell's
    draw is one task on a thread pool of at most one worker per usable CPU.
    With it, the cell's data are drawn and fitted on this thread, and each
    replication is bootstrapped from its lane of that fit in a task of its
    own, none of which waits on another. At most a small multiple of the
    worker count is submitted at a time; the rows do not depend on either.

    Every generator is made on this thread just before it is drawn from here
    or the task that draws from it is submitted, in one order: per cell the
    scenario's, the data's, then each replication's bootstrap. Only the
    tasks in flight hold bootstrap generators, so at most a window's worth
    exist at once.
    """
    bootstrap = "bootstrap" in spec.methods
    R = spec.replications
    workers = _worker_count()
    rows: list[CoverageRow] = []
    # Each task's future, with its cell's rows when it is the cell's last task.
    in_flight: deque[tuple[Future, Callable[[], list[CoverageRow]] | None]] = deque()
    pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="reviewrate-cell")

    def merge_oldest() -> None:
        future, cell_rows = in_flight.popleft()
        future.result()
        if cell_rows is not None:
            rows.extend(cell_rows())

    def submit(cell_rows: Callable[[], list[CoverageRow]] | None, fn: Callable, *args) -> None:
        if len(in_flight) == _TASKS_IN_FLIGHT_PER_WORKER * workers:
            merge_oldest()
        in_flight.append((pool.submit(fn, *args), cell_rows))

    try:
        for scenario, scenario_id, pi1, cell_stream in _cells(spec):
            bounds: dict[str, tuple[np.ndarray, np.ndarray]] = {}
            cell_rows = partial(_coverage_rows, scenario, scenario_id, pi1, spec, bounds)
            # Sub-stream 0 generates the data; sub-stream 1 parents the
            # per-replication bootstrap streams, so changing the method set
            # never perturbs the data.
            data_gen = cell_stream.child(0).generator
            if not bootstrap:
                submit(cell_rows, _draw_cell, scenario, spec, data_gen, bounds)
                continue
            # A count of replications too large for memory fails in the draw's
            # first allocation, before any draw or bootstrap generator.
            est = _draw_cell(scenario, spec, data_gen, bounds)
            lower, upper = bounds["bootstrap"] = (np.empty(R), np.empty(R))
            boot_root = cell_stream.child(1)
            for r in range(R):
                submit(cell_rows if r == R - 1 else None, _bootstrap_replication, est, r,
                       scenario.config.m, spec, boot_root.child(r).generator, lower, upper)
        while in_flight:
            merge_oldest()
    finally:
        pool.shutdown(cancel_futures=True)
    return rows


@dataclass(frozen=True)
class WindowSummary:
    """Order statistics of per-scenario coverage metrics within one moving window."""

    x: float
    method: str
    n_scenarios: int
    skipped: bool = False
    # metric -> (min, 25th percentile, median, 75th percentile, max)
    stats: dict = field(default_factory=dict)


_WINDOW_METRICS = ("coverage", "lower_miss", "upper_miss", "mean_width")


def summarize_comprehensive(
    rows: Sequence[CoverageRow],
    window: float = 1.0,
    grid: Iterable[float] | None = None,
) -> list[WindowSummary]:
    """Summarize comprehensive-study rows in moving windows of expected observed events.

    Every row whose expected observed surviving-event count falls within
    ``center - window .. center + window`` contributes to that center's
    summary. By default the centers are the distinct expected counts present
    in the rows. Centers whose window is empty are emitted with the skipped
    flag set.
    """
    if not _real(window, "window") > 0:
        raise InvalidDataError(f"window must be positive, got {window!r}")
    if grid is not None:
        grid = _float_tuple(grid, "grid")
    by_method: dict[str, list[CoverageRow]] = {}
    for row in rows:
        by_method.setdefault(row.method, []).append(row)

    out: list[WindowSummary] = []
    for method in CI_METHODS:
        if method not in by_method:
            continue
        method_rows = by_method[method]
        xs = np.array([r.expected_tp for r in method_rows])
        centers = sorted(set(xs.tolist())) if grid is None else grid
        values = {
            metric: np.array([getattr(r, metric) for r in method_rows])
            for metric in _WINDOW_METRICS
        }
        for center in centers:
            mask = np.abs(xs - center) <= window
            count = int(np.count_nonzero(mask))
            if count == 0:
                out.append(WindowSummary(x=center, method=method, n_scenarios=0, skipped=True))
                continue
            stats = {
                metric: tuple(
                    float(q) for q in np.percentile(values[metric][mask], [0, 25, 50, 75, 100])
                )
                for metric in _WINDOW_METRICS
            }
            out.append(
                WindowSummary(x=center, method=method, n_scenarios=count, stats=stats)
            )
    return out


def rows_to_csv(rows: Iterable[CoverageRow]) -> str:
    """Render rows as CSV text with a fixed header and canonical float formatting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(
            [
                row.scenario_id,
                "" if row.pi1 is None else repr(float(row.pi1)),
                repr(float(row.expected_tp)),
                row.method,
                repr(float(row.level)),
                row.reps,
                repr(row.coverage),
                repr(row.lower_miss),
                repr(row.upper_miss),
                repr(float(row.mean_width)),
            ]
        )
    return buf.getvalue()
