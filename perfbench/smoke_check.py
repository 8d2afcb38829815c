"""Smoke check of the benchmark itself, at a tiny size.

Run from the root of a checkout:

    python3 perfbench/smoke_check.py

It runs every workload briefly, traced and untraced, and checks that every
metric BENCHMARK.json names is emitted with its unit, that tracing leaves
outputs and random streams untouched, that a failing op is counted rather
than dropped, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (caps BLAS threads before numpy is imported)

sys.path.insert(0, run.SRC)
import workloads  # noqa: E402

with open(run.SPEC) as fh:
    SPEC = json.load(fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


class _BrokenScenario(workloads.CliRoundtrip):
    """Op 1 generates from a scenario file that does not parse, so ``generate`` exits 2."""

    def argvs(self, i: int) -> list[list[str]]:
        argvs = super().argvs(i)
        if i == 1:
            bad = os.path.join(self.workdir, "broken.json")
            with open(bad, "w") as fh:
                fh.write("{not json")
            argvs[0][1] = bad
        return argvs


def _main(argv: list[str]) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, out.getvalue().strip().splitlines()


class SmokeTest(unittest.TestCase):
    def setUp(self) -> None:
        self._saved = run.MIN_OPS, run.SETUP_RUNS
        run.MIN_OPS, run.SETUP_RUNS = 4, 1

    def tearDown(self) -> None:
        run.MIN_OPS, run.SETUP_RUNS = self._saved

    def test_every_metric_is_emitted_with_its_unit(self) -> None:
        for name in NAMES:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    code, lines = _main(["--workload", name, "--seed", "5",
                                         "--seconds", "0.2", "--trace", str(trace)])
                    self.assertEqual(code, 0, lines)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[kind]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for key, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], float, key)
                    for key in want:
                        self.assertTrue(any(line.startswith(f"{name} {key} ") for line in lines), key)
                    self.assertTrue(any(line.startswith(f"{name} error_rate ") for line in lines))
                    record = json.loads(lines[-2][len("record "):])
                    for key in ("seed", "git_commit", "python", "numpy", "scipy", "nproc",
                                "cpu_model", "thread_caps", "ops"):
                        self.assertIn(key, record)
                    self.assertEqual(record["ops"], {name: result["attempted"]})

    def test_tracing_leaves_outputs_and_streams_untouched(self) -> None:
        with run.scratch_dir("smoke") as workdir:
            for name in NAMES:
                with self.subTest(workload=name):
                    self.assertTrue(run.trace_is_neutral(workloads.WORKLOADS[name](7, workdir)))

    def test_failing_op_counts_in_error_rate(self) -> None:
        saved = workloads.WORKLOADS["cli-roundtrip"]
        workloads.WORKLOADS["cli-roundtrip"] = _BrokenScenario
        try:
            code, lines = _main(["--workload", "cli-roundtrip", "--seed", "5",
                                 "--seconds", "0.1", "--trace", "0"])
        finally:
            workloads.WORKLOADS["cli-roundtrip"] = saved
        self.assertEqual(code, 1)
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertGreater(result["attempted"], run.MIN_OPS)
        self.assertIn(f"cli-roundtrip error_rate {1 / result['attempted']:.6g} share "
                      f"(1 of {result['attempted']} ops failed)", lines)

    def test_refuses_to_run_without_sources(self) -> None:
        with run.scratch_dir("bare") as bare:
            shutil.copy(run.SPEC, bare)
            shutil.copytree(os.path.dirname(os.path.abspath(__file__)), os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
