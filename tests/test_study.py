"""Tests for the fixed and randomized coverage studies."""

import inspect
import math
import sys
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest

from reviewrate import _batch, study
from reviewrate import (
    CoverageRow,
    InvalidDataError,
    RngStream,
    StudySpec,
    expected_observed_tp,
    rows_to_csv,
    run_sweep,
    scenario_common,
    scenario_comprehensive,
    scenario_rare,
    summarize_comprehensive,
)
from reviewrate.study import CSV_HEADER, DEFAULT_PI1_GRID


class TestFixedScenarios:
    def test_common_totals(self):
        scen = scenario_common(0.5)
        assert scen.theta == 58.0
        assert scen.config.H == 5 and scen.config.T == 3 and scen.config.m == 1.0

    def test_common_rows(self):
        scen = scenario_common(0.5)
        assert scen.strata[2].lambdas == (20.0, 30.0, 8.0, 5.0)
        assert scen.strata[0].lambdas == (10.0, 5.0, 2.5, 18.0)

    def test_common_sampling_rates(self):
        scen = scenario_common(0.25)
        upper = tuple(s.pis[1:] for s in scen.strata)
        assert upper == ((0.5, 0.95), (0.6, 0.96), (0.7, 0.97), (0.8, 0.98), (0.9, 0.99))
        assert all(s.pis[0] == 0.25 for s in scen.strata)
        assert scen.strata[4].pis[2] == 0.99

    def test_rare_totals_and_rows(self):
        scen = scenario_rare(0.5)
        assert scen.theta == 11.0
        assert scen.strata[0].lambdas == (10.0, 5.0, 2.5, 4.0)
        common = scenario_common(0.5)
        for rare_s, common_s in zip(scen.strata, common.strata):
            assert rare_s.lambdas[:3] == common_s.lambdas[:3]
            assert rare_s.pis == common_s.pis

    def test_expected_observed_tp(self):
        scen = scenario_common(1.0)
        want = sum(
            s.lambdas[-1] * s.pis[0] * s.pis[1] * s.pis[2] for s in scen.strata
        )
        assert math.isclose(expected_observed_tp(scen), want, rel_tol=1e-12)


class TestComprehensiveScenario:
    def test_sampling_rates_never_decrease(self):
        root = RngStream(100)
        for i in range(300):
            scen = scenario_comprehensive(root.child(i))
            for s in scen.strata:
                assert 0 < s.pis[0] <= s.pis[1] <= s.pis[2] <= 1

    def test_rates_positive(self):
        root = RngStream(101)
        for i in range(300):
            scen = scenario_comprehensive(root.child(i))
            for s in scen.strata:
                assert all(v > 0 for v in s.lambdas)

    def test_mean_rate_matches_mixture(self):
        # rates are exponential with a Uniform(1, 4) mean, so the overall mean is 2.5
        root = RngStream(102)
        n = 10**5
        total = 0.0
        cells = 0
        for i in range(n):
            scen = scenario_comprehensive(root.child(i))
            for s in scen.strata:
                total += sum(s.lambdas)
                cells += len(s.lambdas)
        mean = total / cells
        # per-cell variance: E[2*mu^2] - 2.5^2 with mu ~ Uniform(1,4)
        var = 2 * (0.75 + 6.25) - 6.25
        assert abs(mean - 2.5) < 3 * math.sqrt(var / cells)

    def test_deterministic(self):
        assert scenario_comprehensive(RngStream(5, (3,))) == scenario_comprehensive(
            RngStream(5, (3,))
        )


class TestStudySpec:
    def test_defaults(self):
        spec = StudySpec(source="fixed-common")
        assert spec.pi1_grid == DEFAULT_PI1_GRID
        assert spec.replications == 1000
        assert spec.level == 0.9
        assert spec.B == 2000
        assert spec.num_scenarios == 100_000

    @pytest.mark.parametrize("kwargs", [
        dict(source="bogus"),
        dict(source="fixed-rare", pi1_grid=(0.0,)),
        dict(source="fixed-rare", replications=0),
        dict(source="fixed-rare", level=1.0),
        dict(source="fixed-rare", methods=("magic",)),
        dict(source="fixed-rare", B=10),
        dict(source="comprehensive", num_scenarios=0),
        dict(source="fixed-rare", replications=2.5),
        dict(source="fixed-rare", B=150.5),
        dict(source="comprehensive", num_scenarios=1.5),
        dict(source="fixed-rare", level="0.9"),
        dict(source="fixed-rare", pi1_grid=("0.5",)),
        dict(source="fixed-rare", pi1_grid=(True,)),
        dict(source="fixed-rare", master_seed=-1),
        dict(source="fixed-rare", master_seed=2.7),
        dict(source="fixed-rare", pi1_grid=()),
        dict(source="fixed-rare", methods=()),
        dict(source="comprehensive", methods=()),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(InvalidDataError):
            StudySpec(**kwargs)

    def test_integral_counts_are_stored_as_ints(self):
        spec = StudySpec(source="comprehensive", replications=4.0, B=np.int64(200),
                         num_scenarios=3.0)
        assert (spec.replications, spec.B, spec.num_scenarios) == (4, 200, 3)
        assert all(type(v) is int for v in (spec.replications, spec.B, spec.num_scenarios))


class TestRunSweep:
    def test_single_replication_row_accounting(self):
        spec = StudySpec(
            source="fixed-rare", pi1_grid=(0.3,), replications=1,
            methods=("wald", "gamma_wsip"), master_seed=8,
        )
        rows = run_sweep(spec)
        assert len(rows) == 2
        for row in rows:
            assert row.coverage in (0.0, 1.0)
            assert row.cover_n + row.lower_miss_n + row.upper_miss_n == row.reps

    def test_counts_add_up(self):
        spec = StudySpec(
            source="fixed-common", pi1_grid=(0.2, 0.8), replications=200,
            methods=("wald", "gamma_wsip"), master_seed=1,
        )
        for row in run_sweep(spec):
            assert row.cover_n + row.lower_miss_n + row.upper_miss_n == row.reps
            assert abs(row.coverage + row.lower_miss + row.upper_miss - 1.0) < 1e-12

    def test_row_ordering_is_canonical(self):
        spec = StudySpec(
            source="fixed-common", pi1_grid=(0.4, 0.9), replications=5,
            methods=("gamma_wsip", "bootstrap"), B=100, master_seed=2,
        )
        rows = run_sweep(spec)
        assert [(r.pi1, r.method) for r in rows] == [
            (0.4, "bootstrap"), (0.4, "gamma_wsip"),
            (0.9, "bootstrap"), (0.9, "gamma_wsip"),
        ]

    def test_method_subset_does_not_perturb_other_methods(self):
        base = dict(source="fixed-rare", pi1_grid=(0.5,), replications=50, master_seed=4)
        all_rows = run_sweep(StudySpec(methods=("bootstrap", "wald", "gamma_wsip"), B=100, **base))
        wald_only = run_sweep(StudySpec(methods=("wald",), **base))
        wald_row_all = next(r for r in all_rows if r.method == "wald")
        assert wald_only[0] == wald_row_all

    def test_deterministic_csv(self):
        spec = StudySpec(
            source="fixed-rare", pi1_grid=(0.2, 0.7), replications=20,
            methods=("bootstrap", "wald", "gamma_wsip"), B=150, master_seed=6,
        )
        assert rows_to_csv(run_sweep(spec)) == rows_to_csv(run_sweep(spec))

    def test_theta_only_refit_leaves_the_csv_unchanged(self, monkeypatch):
        self._assert_theta_only_refit_leaves_the_csv_unchanged(monkeypatch, (0.1, 0.7))

    def test_theta_only_refit_leaves_the_csv_unchanged_at_full_first_review(self, monkeypatch):
        self._assert_theta_only_refit_leaves_the_csv_unchanged(monkeypatch, (1.0,))

    @staticmethod
    def _assert_theta_only_refit_leaves_the_csv_unchanged(monkeypatch, pi1_grid):
        # The bootstrap refits only theta on its replicates; refitting them
        # with the full estimator must give the same bytes. Both simulate only
        # the strata with a positive fitted surviving rate, with their fully
        # reviewed tiers folded out (every fit at pi1 = 1.0 has one).
        def full_refit_bounds(lam, pis, m, level, n_replicates, gen):
            live = lam[:, -1] > 0
            if not live.any():
                return 0.0, 0.0
            folded = _batch._fold_full_tiers(lam[live], pis[live])
            e_b, n_b = _batch.generate_counts(*folded, m, n_replicates, gen)
            theta_b = _batch.estimate_counts(e_b, n_b, m).theta
            alpha = 1.0 - level
            lower, upper = np.quantile(theta_b, [alpha / 2.0, 1.0 - alpha / 2.0])
            return float(lower), float(upper)

        spec = StudySpec(
            source="fixed-rare", pi1_grid=pi1_grid, replications=20,
            methods=("bootstrap",), B=150, master_seed=6,
        )
        text = rows_to_csv(run_sweep(spec))
        monkeypatch.setattr(_batch, "bootstrap_bounds", full_refit_bounds)
        assert rows_to_csv(run_sweep(spec)) == text

    def test_comprehensive_rows(self):
        spec = StudySpec(
            source="comprehensive", replications=10, num_scenarios=7,
            methods=("wald",), master_seed=3,
        )
        rows = run_sweep(spec)
        assert len(rows) == 7
        assert len({r.scenario_id for r in rows}) == 7
        assert all(r.pi1 is None for r in rows)
        assert all(r.expected_tp > 0 for r in rows)

    def test_gamma_coverage_at_full_review(self):
        spec = StudySpec(
            source="fixed-common", pi1_grid=(1.0,), replications=1000,
            methods=("gamma_wsip",), master_seed=0,
        )
        row = run_sweep(spec)[0]
        assert row.coverage >= 0.88

    def test_bootstrap_undercovers_rare_low_sampling(self):
        spec = StudySpec(
            source="fixed-rare", pi1_grid=(0.1,), replications=300,
            methods=("bootstrap",), B=500, master_seed=0,
        )
        row = run_sweep(spec)[0]
        assert row.coverage <= 0.75


POOL_SPECS = {
    "fixed-common-bootstrap": StudySpec(
        source="fixed-common", replications=4, B=100, master_seed=12,
    ),
    "comprehensive": StudySpec(
        source="comprehensive", replications=200, num_scenarios=7,
        methods=("wald", "gamma_wsip"), master_seed=5,
    ),
}


class TestCellPool:
    @pytest.mark.parametrize("name", POOL_SPECS)
    def test_csv_does_not_depend_on_worker_count(self, monkeypatch, name):
        threads = {"_draw_cell": set(), "bootstrap_bounds": set()}

        def record(module, fn_name):
            fn = getattr(module, fn_name)

            def recording(*args, **kwargs):
                threads[fn_name].add(threading.get_ident())
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, fn_name, recording)

        record(study, "_draw_cell")
        record(_batch, "bootstrap_bounds")
        texts = []
        for workers in (1, 2, 5):
            monkeypatch.setattr(study, "_worker_count", lambda workers=workers: workers)
            texts.append(rows_to_csv(run_sweep(POOL_SPECS[name])))
        assert texts[0] == texts[1] == texts[2]
        here = threading.get_ident()
        if "bootstrap" in POOL_SPECS[name].methods:
            # A bootstrap cell's data are drawn here; its replications on workers.
            assert threads["_draw_cell"] == {here}
            assert threads["bootstrap_bounds"] and here not in threads["bootstrap_bounds"]
        else:
            assert threads["_draw_cell"] and here not in threads["_draw_cell"]
            assert not threads["bootstrap_bounds"]

    def test_pool_starts_at_most_one_thread_per_task(self, monkeypatch):
        # The pool is sized by the CPU count alone; a study with fewer tasks
        # still starts no more threads than it has tasks.
        draw, names, alive = study._draw_cell, set(), []

        def recording(*args):
            names.add(threading.current_thread().name)
            alive.append(sum(t.name.startswith("reviewrate-cell") for t in threading.enumerate()))
            return draw(*args)

        monkeypatch.setattr(study, "_draw_cell", recording)
        monkeypatch.setattr(study, "_worker_count", lambda: 8)
        run_sweep(StudySpec(source="fixed-rare", pi1_grid=(0.2, 0.5, 0.9), replications=50,
                            methods=("wald",), master_seed=3))
        assert names and all(name.startswith("reviewrate-cell") for name in names)
        assert len(names) <= 3 and max(alive) <= 3

    def test_concurrent_callers_match_serial(self, monkeypatch):
        specs = list(POOL_SPECS.values())
        monkeypatch.setattr(study, "_worker_count", lambda: 1)
        serial = [rows_to_csv(run_sweep(spec)) for spec in specs]
        monkeypatch.setattr(study, "_worker_count", lambda: 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more thread switches inside each cell
        try:
            with ThreadPoolExecutor(max_workers=2) as callers:
                calls = callers.map(lambda spec: rows_to_csv(run_sweep(spec)), specs, timeout=300)
                threaded = list(calls)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    @pytest.mark.parametrize("name", POOL_SPECS)
    def test_streams_are_created_in_canonical_order(self, monkeypatch, name):
        # The cells draw on worker threads, but every generator must come into
        # being in one order, whatever the worker count and thread switching.
        fget = inspect.getattr_static(RngStream, "generator").fget
        created = []

        def generator(stream):
            if stream._generator is None:
                created.append(stream.path)
            return fget(stream)

        monkeypatch.setattr(RngStream, "generator", property(generator))
        orders = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 5):
                monkeypatch.setattr(study, "_worker_count", lambda workers=workers: workers)
                created.clear()
                run_sweep(POOL_SPECS[name])
                orders.append(list(created))
        finally:
            sys.setswitchinterval(interval)
        assert orders[0] == orders[1] == orders[2]
        spec = POOL_SPECS[name]
        if spec.source == "comprehensive":
            # Per scenario: its parameters, then its data.
            want = [p for si in range(spec.num_scenarios) for p in ((1, si), (0, si, 0, 0))]
        else:
            # Per grid point: its data, then each replication's bootstrap.
            want = [p for gi in range(len(spec.pi1_grid)) for p in (
                (0, 0, gi, 0), *((0, 0, gi, 1, r) for r in range(spec.replications)))]
        assert orders[0] == want

    @pytest.mark.parametrize("error", [RuntimeError("cell failed"), KeyboardInterrupt()],
                             ids=["exception", "keyboard-interrupt"])
    def test_failing_cell_stops_the_sweep(self, monkeypatch, error):
        workers, failing, cells = 2, 3, 20
        window = study._TASKS_IN_FLIGHT_PER_WORKER * workers
        started = []
        lock = threading.Lock()

        def cell(scenario, spec, data_gen, bounds):
            pi1 = scenario.strata[0].pis[0]
            with lock:
                started.append(grid.index(pi1))
            if grid.index(pi1) == failing:
                time.sleep(0.05)  # time enough for the other worker to drain its queue
                raise error
            return None, None

        monkeypatch.setattr(study, "_worker_count", lambda: workers)
        monkeypatch.setattr(study, "_draw_cell", cell)
        grid = tuple(round(0.05 * k, 2) for k in range(1, cells + 1))
        spec = StudySpec(source="fixed-common", pi1_grid=grid, replications=1, methods=("wald",))
        with pytest.raises(type(error)) as excinfo:
            run_sweep(spec)
        assert excinfo.value is error
        # When cell `failing` is awaited, only the cells before it and one window
        # after it have been submitted; the rest never start.
        assert failing in started
        assert len(started) <= failing + window < cells
        assert max(started) < failing + window

    def test_failing_draw_stops_a_bootstrap_sweep(self, monkeypatch):
        # A bootstrap cell's data are drawn on the submitting thread, so a
        # failing draw raises there, and neither that cell nor any later one
        # gets a replication bootstrapped.
        error = RuntimeError("draw failed")
        draw_cell = study._draw_cell
        bootstrap_bounds = _batch.bootstrap_bounds
        calls = []

        def cell(scenario, spec, data_gen, bounds):
            if scenario.strata[0].pis[0] == 0.3:
                raise error
            return draw_cell(scenario, spec, data_gen, bounds)

        def counting(*args, **kwargs):
            calls.append(None)
            return bootstrap_bounds(*args, **kwargs)

        monkeypatch.setattr(study, "_worker_count", lambda: 2)
        monkeypatch.setattr(study, "_draw_cell", cell)
        monkeypatch.setattr(_batch, "bootstrap_bounds", counting)
        spec = StudySpec(source="fixed-common", pi1_grid=(0.1, 0.2, 0.3, 0.4, 0.5),
                         replications=8, B=100, methods=("bootstrap",))
        with pytest.raises(RuntimeError) as excinfo:
            run_sweep(spec)
        assert excinfo.value is error
        # Only replications of the two cells before the failing one can have run.
        assert len(calls) <= 2 * spec.replications

    def test_csv_does_not_depend_on_task_start_order(self, monkeypatch):
        # A bootstrap cell's tasks wait on nothing, so a pool that starts its
        # queued tasks newest first gives the same CSV as the default pool.
        spec = StudySpec(source="fixed-common", pi1_grid=(0.2, 0.6),
                         replications=8, B=100,
                         methods=("bootstrap", "wald"), master_seed=4)
        want = rows_to_csv(run_sweep(spec))
        monkeypatch.setattr(study, "_worker_count", lambda: 1)
        monkeypatch.setattr(study, "ThreadPoolExecutor", NewestFirstPool)
        got = []
        sweep = threading.Thread(target=lambda: got.append(rows_to_csv(run_sweep(spec))),
                                 daemon=True)
        sweep.start()
        sweep.join(timeout=60)
        assert not sweep.is_alive(), "the sweep did not finish"
        assert got == [want]


class NewestFirstPool:
    """A one-worker stand-in for ThreadPoolExecutor that starts the most
    recently queued task first. Before each pick the worker pauses, so the
    submitting thread has queued all it may. The worker is a daemon thread,
    so a task that waits for ever cannot keep the interpreter alive."""

    def __init__(self, max_workers, thread_name_prefix=""):
        self._queue = []
        self._ready = threading.Condition()
        self._closed = False
        self._worker = threading.Thread(target=self._work, daemon=True)
        self._worker.start()

    def submit(self, fn, *args):
        future = Future()
        with self._ready:
            self._queue.append((future, fn, args))
            self._ready.notify()
        return future

    def _work(self):
        while True:
            time.sleep(0.02)
            with self._ready:
                self._ready.wait_for(lambda: self._queue or self._closed)
                if not self._queue:
                    return
                future, fn, args = self._queue.pop()
            if future.set_running_or_notify_cancel():
                try:
                    future.set_result(fn(*args))
                except BaseException as exc:
                    future.set_exception(exc)

    def shutdown(self, cancel_futures=False):
        with self._ready:
            if cancel_futures:
                for future, _, _ in self._queue:
                    future.cancel()
                self._queue.clear()
            self._closed = True
            self._ready.notify()
        self._worker.join()


class TestCsv:
    def test_header_and_shape(self):
        spec = StudySpec(
            source="fixed-rare", pi1_grid=(0.5,), replications=5,
            methods=("wald",), master_seed=11,
        )
        text = rows_to_csv(run_sweep(spec))
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "rare"
        assert fields[3] == "wald"


def make_row(x, method="gamma_wsip", coverage=0.9, width=1.0, reps=100):
    cover_n = int(round(coverage * reps))
    return CoverageRow(
        scenario_id="comprehensive-0", pi1=None, expected_tp=x, method=method,
        level=0.9, reps=reps, cover_n=cover_n, lower_miss_n=reps - cover_n,
        upper_miss_n=0, mean_width=width,
    )


class TestSummarizeComprehensive:
    def test_single_row_window_collapses_percentiles(self):
        rows = [make_row(5.0, coverage=0.87, width=2.5)]
        summary = summarize_comprehensive(rows)
        assert len(summary) == 1
        s = summary[0]
        assert s.n_scenarios == 1 and not s.skipped
        assert s.stats["coverage"] == (0.87,) * 5
        assert s.stats["mean_width"] == (2.5,) * 5

    def test_percentiles_are_monotone(self):
        rows = [make_row(5.0 + 0.01 * i, coverage=0.8 + 0.002 * i) for i in range(50)]
        for s in summarize_comprehensive(rows, window=1.0, grid=[5.2]):
            v = s.stats["coverage"]
            assert v[0] <= v[1] <= v[2] <= v[3] <= v[4]
            assert s.n_scenarios == 50

    def test_window_boundaries_inclusive(self):
        rows = [make_row(4.0), make_row(6.0), make_row(6.001)]
        s = summarize_comprehensive(rows, window=1.0, grid=[5.0])[0]
        assert s.n_scenarios == 2

    def test_empty_window_flagged(self):
        rows = [make_row(10.0)]
        s = summarize_comprehensive(rows, window=1.0, grid=[2.0])[0]
        assert s.skipped and s.n_scenarios == 0

    def test_one_shot_grid_serves_every_method(self):
        rows = [make_row(1.0, method="wald"), make_row(1.2, method="gamma_wsip")]
        from_list = summarize_comprehensive(rows, window=1.0, grid=[1.0])
        assert len(from_list) == 2
        assert summarize_comprehensive(rows, window=1.0, grid=(g for g in [1.0])) == from_list

    def test_invalid_window(self):
        with pytest.raises(InvalidDataError):
            summarize_comprehensive([make_row(1.0)], window=0.0)
        with pytest.raises(InvalidDataError):
            summarize_comprehensive([make_row(1.0)], window=float("nan"))
        with pytest.raises(InvalidDataError):
            summarize_comprehensive([make_row(1.0)], window="1")
