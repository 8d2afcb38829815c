#!/usr/bin/env python3
"""Benchmark for reviewrate: Monte Carlo coverage studies and the CLI round trip.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload study-boot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1                # every workload, untraced

One process, one caller, closed loop: the next op starts when the previous
one has returned and its outputs have been checked. Ops are timed around the
public call only. With ``--trace 0`` the run reports the end-to-end metrics
named in BENCHMARK.json; with ``--trace 1`` it runs every op twice, once
untraced and once traced, and reports the per-layer metrics, including the
tracing overhead between the two. Human-readable lines, then a self-describing
``record`` line, then the result as one JSON object go to stdout. The exit
code is 0 only when every op passed its output checks.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools are capped before numpy is first imported.
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKDIR = os.path.join(ROOT, ".perfbench_run")

SETUP_RUNS = 15     # fresh-interpreter imports spread over the timed phase; setup_s is their median
WARMUP_OPS = 3      # untimed ops that fill caches and finish lazy imports
MIN_OPS = 100       # leaves at least 10 samples beyond the 90th percentile
MAX_BLOCKS = 6      # end-to-end figures are medians over up to this many blocks of ops
MAX_LOOP_S = 120    # hard stop for one timed phase, whatever MIN_OPS says


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class SetupTimer:
    """Wall time for a fresh interpreter to ``import reviewrate.cli``.

    The imports are spread evenly over the timed phase, between ops, so that
    their median covers the same stretch of host load as the ops do rather
    than a few seconds before them.
    """

    def __init__(self, seconds: float) -> None:
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.cmd = [sys.executable, "-c", "import reviewrate.cli"]
        self.every = seconds / SETUP_RUNS
        self.times: list[float] = []
        # The first import in a fresh checkout also writes bytecode; it is not timed.
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)

    def due(self, spent: float) -> bool:
        return len(self.times) < SETUP_RUNS and spent >= len(self.times) * self.every

    def time_one(self) -> float:
        """Time one import; returns the seconds it took."""
        t0 = time.perf_counter()
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)
        elapsed = time.perf_counter() - t0
        self.times.append(elapsed)
        return elapsed

    def median(self) -> float:
        while len(self.times) < SETUP_RUNS:
            self.time_one()
        return statistics.median(self.times)


class Phase:
    """Latencies and failures of one closed-loop phase."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.latencies: list[float] = []  # a failed op misses every latency limit: inf
        self.failed = 0
        self.first: bytes | None = None

    @property
    def attempted(self) -> int:
        return len(self.durations)

    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / sum(self.durations)


def run_op(wl, i: int, tracer=None):
    """Run op ``i`` and check it. Returns (seconds, result, problems)."""
    op = wl.run(i)
    t0 = time.perf_counter()
    try:
        result = tracer.op(i, op) if tracer is not None else op()
    except Exception as exc:  # a raising op is a failed op, not a crash of the benchmark
        return time.perf_counter() - t0, None, [f"op raised {exc!r}"]
    elapsed = time.perf_counter() - t0
    try:
        problems = wl.check(i, result)
    except Exception as exc:  # malformed output that the checks cannot even read
        problems = [f"check raised {exc!r}"]
    return elapsed, result, problems


def _tally(wl, phase: Phase, i: int, op_result, tracer=None) -> None:
    elapsed, result, problems = op_result
    phase.durations.append(elapsed)
    phase.latencies.append(math.inf if problems else elapsed)
    if problems:
        phase.failed += 1
        print(f"op {i} failed: {problems[0]}", file=sys.stderr)
        return
    if phase.first is None and i == 0:
        phase.first = wl.canonical(i, result)
    if tracer is not None:
        tracer.counts.update(wl.layer_counts(i, result))


def _finished(spent: float, seconds: float, i: int) -> bool:
    return (spent >= seconds and i >= MIN_OPS) or spent >= MAX_LOOP_S


def closed_loop(wl, seconds: float, setup: SetupTimer | None = None) -> Phase:
    """Untraced ops for ``seconds``; the setup imports, if any, are not counted in it."""
    phase = Phase()
    start = time.perf_counter()
    paused = 0.0
    i = 0
    while not _finished(time.perf_counter() - start - paused, seconds, i):
        if setup is not None and setup.due(time.perf_counter() - start - paused):
            paused += setup.time_one()
        _tally(wl, phase, i, run_op(wl, i))
        i += 1
    return phase


def paired_loop(wl, seconds: float, tracer) -> tuple[Phase, Phase]:
    """Every op once untraced and once traced, in alternating order.

    Both modes run the same op indices side by side, so host drift and
    warm-up fall on both alike and their rates differ only by the tracing.
    ``seconds`` is shared between the two modes.
    """
    plain, traced = Phase(), Phase()
    start = time.perf_counter()
    i = 0
    while not _finished(time.perf_counter() - start, seconds, i):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                with tracer:
                    _tally(wl, traced, i, run_op(wl, i, tracer), tracer)
            else:
                _tally(wl, plain, i, run_op(wl, i))
        i += 1
    return plain, traced


def rerun_matches(wl, phase: Phase) -> bool:
    """Re-run op 0 with the same seed; its output must be byte-identical."""
    _, result, problems = run_op(wl, 0)
    same = not problems and phase.first is not None and wl.canonical(0, result) == phase.first
    if not same:
        print("op 0 re-run with the same seed gave different output", file=sys.stderr)
    return same


def trace_is_neutral(wl, i: int = 1) -> bool:
    """A traced and an untraced op give the same bytes and draw from the same streams."""
    from spans import StreamAudit, Tracer

    with StreamAudit() as audit:
        plain = wl.canonical(i, wl.run(i)())
        plain_streams = audit.digest()
    with StreamAudit() as audit, Tracer() as tracer:
        traced = wl.canonical(i, tracer.op(i, wl.run(i)))
        traced_streams = audit.digest()
    neutral = plain == traced and plain_streams == traced_streams and bool(plain_streams)
    if not neutral:
        print(f"op {i} gave different output or RNG draws when traced", file=sys.stderr)
    return neutral


def end_to_end(phase: Phase, setup_s: float) -> dict[str, float]:
    """Rates and percentiles per block of consecutive ops, then their median.

    Each block holds at least MIN_OPS ops, so that 10 lie beyond its 90th
    percentile. The median over blocks keeps a few seconds of host
    contention or disk stalls from moving the whole run's figures.
    """
    n = phase.attempted
    blocks = max(1, min(MAX_BLOCKS, n // MIN_OPS))
    rates, p50s, p90s = [], [], []
    for k in range(blocks):
        lo, hi = k * n // blocks, (k + 1) * n // blocks
        lat = phase.latencies[lo:hi]
        rates.append(sum(map(math.isfinite, lat)) / sum(phase.durations[lo:hi]))
        p50s.append(statistics.median(lat))
        p90s.append(statistics.quantiles(lat, n=10)[8])
    return {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": statistics.median(p50s) * 1e3,
        "op_p90_ms": statistics.median(p90s) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


@contextlib.contextmanager
def scratch_dir(label: str):
    """A fresh directory inside the checkout, removed with its parent when done."""
    path = os.path.join(WORKDIR, f"{label}-{os.getpid()}")
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORKDIR)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict[str, float], int, int]:
    """Measure one workload. Returns (metrics, attempted, failed)."""
    from workloads import WORKLOADS

    with scratch_dir(name) as workdir:
        wl = WORKLOADS[name](seed, workdir)
        for i in range(WARMUP_OPS):
            run_op(wl, i)
        # The trace-neutrality check and the same-seed re-run count as ops too.
        extra_attempted, extra_failed = 1 + trace, 0
        if trace:
            from spans import Tracer

            extra_failed += not trace_is_neutral(wl)
            tracer = Tracer()
            plain, traced = paired_loop(wl, seconds, tracer)
            metrics = tracer.metrics()
            metrics["trace.ops_per_s_untraced"] = plain.ops_per_s()
            metrics["trace.ops_per_s_traced"] = traced.ops_per_s()
            metrics["trace.overhead"] = plain.ops_per_s() / traced.ops_per_s() - 1.0
            phases = [plain, traced]
        else:
            setup = SetupTimer(seconds)
            plain = closed_loop(wl, seconds, setup)
            metrics = end_to_end(plain, setup.median())
            phases = [plain]
        extra_failed += not rerun_matches(wl, plain)
        attempted = sum(p.attempted for p in phases) + extra_attempted
        failed = sum(p.failed for p in phases) + extra_failed
        return metrics, attempted, failed


def _json_number(v: float) -> float | None:
    return v if math.isfinite(v) else None


def record_for(args, ops: dict[str, int], metrics: dict) -> dict:
    import numpy
    import scipy

    return {
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "thread_caps": THREAD_CAPS,
        "ops": ops,
        "metrics": metrics,
    }


def _run_all(args, spec: dict) -> int:
    """Run every workload in its own process, as the per-workload runs do."""
    correct, attempted, failed = True, 0, 0
    metrics: dict = {}
    ops: dict[str, int] = {}
    for wl in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", wl["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines() or [""]
        print("\n".join(line for line in lines[:-1] if not line.startswith("record ")))
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"{wl['name']}: no result (exit code {proc.returncode})", file=sys.stderr)
            correct = False
            continue
        correct &= result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        ops[wl["name"]] = result["attempted"]
        for key, value in result["metrics"].items():
            metrics[f"{wl['name']}.{key}"] = value
        metrics[f"{wl['name']}.error_rate"] = {
            "value": result["failed"] / result["attempted"], "unit": "share"}
    print("record " + json.dumps(record_for(args, ops, metrics)))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "reviewrate", "__init__.py")) or not os.path.isfile(SPEC):
        print(f"no reviewrate sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return _run_all(args, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; expected one of {names} or 'all'", file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)
    import reviewrate

    if not os.path.abspath(reviewrate.__file__).startswith(SRC + os.sep):
        print(f"reviewrate imported from {reviewrate.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    metrics, attempted, failed = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    shown = {m["name"]: {"value": _json_number(metrics[m["name"]]), "unit": m["unit"]} for m in wanted}

    for key, m in shown.items():
        print(f"{args.workload} {key} {metrics[key]:.6g} {m['unit']}"
              + (f" ({attempted} ops)" if key == "op_p90_ms" else ""))
    print(f"{args.workload} error_rate {failed / attempted:.6g} share ({failed} of {attempted} ops failed)")
    if args.trace:
        op_s = metrics["op.busy_s"]
        for key, value in metrics.items():
            if key.endswith(".busy_s") and key != "op.busy_s" and op_s > 0 and value > 0:
                print(f"{args.workload} share of op time {key[:-7]} {value / op_s:.3f}")
    print("record " + json.dumps(record_for(args, {args.workload: attempted}, shown)))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": shown}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
