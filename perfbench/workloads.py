"""The benchmark's workloads: inputs made from the seed, one op each, and output checks.

Every workload makes its inputs from the workload seed before timing starts;
op ``i`` is a pure function of the seed and ``i``. ``run(i)`` prepares op ``i``
and returns the public call to time, ``check`` inspects its result afterwards,
and ``canonical`` turns a result into bytes for the same-seed re-run
comparison. Checks test
invariants of the outputs rather than digests, so they stay valid when a
change legitimately alters the random-stream layout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random

from reviewrate import cli, study
from reviewrate.distributions import RngStream
from reviewrate.model import CI_METHODS, ObservedStratum, validate_observed

CSV_HEADER = "scenario_id,pi1,expected_tp,method,level,reps,coverage,lower_miss,upper_miss,mean_width"


def derive_seed(seed: int, *path: object) -> int:
    """A 63-bit seed that depends only on the workload seed and ``path``."""
    key = ":".join(str(p) for p in (seed,) + path).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") >> 1


class _Study:
    """One op is one ``study.run_sweep`` on a spec made from the seed and the op index."""

    methods: tuple[str, ...] = CI_METHODS

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed

    def spec(self, i: int) -> study.StudySpec:
        raise NotImplementedError

    def run(self, i: int):
        spec = self.spec(i)
        return lambda: study.run_sweep(spec)

    def cells(self, i: int) -> int:
        raise NotImplementedError

    def check(self, i: int, rows) -> list[str]:
        problems = []
        reps = self.spec(i).replications
        if len(rows) != self.cells(i) * len(self.methods):
            problems.append(f"expected {self.cells(i) * len(self.methods)} rows, got {len(rows)}")
        if [row.method for row in rows] != list(self.methods) * (len(rows) // len(self.methods)):
            problems.append(f"methods out of order: {[row.method for row in rows]}")
        for row in rows:
            counts = (row.cover_n, row.lower_miss_n, row.upper_miss_n)
            if row.reps != reps or sum(counts) != reps:
                problems.append(f"row {row} does not add up to {reps} replications")
            if not all(0 <= c <= reps for c in counts):
                problems.append(f"row {row} has a count outside 0..{reps}")
            if not (math.isfinite(row.mean_width) and row.mean_width >= 0):
                problems.append(f"row {row} has a negative or non-finite mean width")
        header = study.rows_to_csv(rows).split("\n", 1)[0]
        if header != CSV_HEADER:
            problems.append(f"unexpected CSV header {header!r}")
        return problems

    def canonical(self, i: int, rows) -> bytes:
        return study.rows_to_csv(rows).encode()

    def layer_counts(self, i: int, rows) -> dict[str, int]:
        return {"study.cells": self.cells(i)}


class StudyBoot(_Study):
    """Fixed scenarios with all three methods: the bootstrap dominates the op."""

    def spec(self, i: int) -> study.StudySpec:
        return study.StudySpec(
            source="fixed-common" if i % 2 == 0 else "fixed-rare",
            pi1_grid=(0.1, 1.0),
            replications=3,
            methods=self.methods,
            B=2000,
            master_seed=derive_seed(self.seed, "study-boot", i),
        )

    def cells(self, i: int) -> int:
        return 2


class StudyComprehensive(_Study):
    """Randomized scenarios, no bootstrap: R=1000 lanes per cell."""

    methods = ("wald", "gamma_wsip")
    scenarios = 4

    def spec(self, i: int) -> study.StudySpec:
        return study.StudySpec(
            source="comprehensive",
            replications=1000,
            methods=self.methods,
            num_scenarios=self.scenarios,
            master_seed=derive_seed(self.seed, "study-comprehensive", i),
        )

    def cells(self, i: int) -> int:
        return self.scenarios


class CliRoundtrip:
    """One op is ``generate`` then ``estimate --ci wald`` and ``--ci gamma``, in process.

    The scenario files are written here, before timing: the fixed common and
    rare scenarios at several first-tier sampling rates plus comprehensive
    draws, visited in a seed-shuffled order.
    """

    PI1 = (0.1, 0.25, 0.5, 1.0)
    COMPREHENSIVE = 8

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        scenarios = [make(p) for make in (study.scenario_common, study.scenario_rare) for p in self.PI1]
        scenarios += [
            study.scenario_comprehensive(RngStream(derive_seed(seed, "cli-scenario", k)))
            for k in range(self.COMPREHENSIVE)
        ]
        self.scenarios = []
        for k, scenario in enumerate(scenarios):
            path = os.path.join(workdir, f"scenario-{k}.json")
            with open(path, "w") as fh:
                json.dump(scenario.to_dict(), fh)
            self.scenarios.append((path, scenario.config.T))
        random.Random(derive_seed(seed, "cli-order")).shuffle(self.scenarios)
        out = {name: os.path.join(workdir, name + ".json") for name in ("data", "latent", "wald", "gamma")}
        self.outputs = out

    def argvs(self, i: int) -> list[list[str]]:
        scenario, _ = self.scenarios[i % len(self.scenarios)]
        out = self.outputs
        seed = str(derive_seed(self.seed, "cli-roundtrip", i))
        return [
            ["generate", scenario, "--seed", seed, "--out", out["data"], "--latent", out["latent"]],
            ["estimate", out["data"], "--ci", "wald", "--json", out["wald"]],
            ["estimate", out["data"], "--ci", "gamma", "--json", out["gamma"]],
        ]

    def run(self, i: int):
        argvs = self.argvs(i)
        # Each op writes new files: on ext4, renaming over an existing file
        # forces a data flush, whose disk stalls would dominate the timing.
        for path in self.outputs.values():
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)

        def op():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                codes = [cli.main(argv) for argv in argvs]
            return codes, sink.getvalue()

        return op

    def _read(self) -> dict[str, bytes]:
        docs = {}
        for name, path in self.outputs.items():
            with open(path, "rb") as fh:
                docs[name] = fh.read()
        return docs

    def check(self, i: int, result) -> list[str]:
        codes, text = result
        if codes != [0, 0, 0]:
            return [f"exit codes {codes}: {text.strip()}"]
        try:
            docs = {name: json.loads(raw) for name, raw in self._read().items()}
        except (OSError, ValueError) as exc:
            return [f"unreadable output: {exc}"]
        problems = []
        tiers = self.scenarios[i % len(self.scenarios)][1]
        for h, s in enumerate(docs["data"]["strata"]):
            verdict = validate_observed(ObservedStratum(e=tuple(s["e"]), n=tuple(s["n"])), tiers=tiers)
            if not verdict:
                problems.append(f"stratum {h}: {verdict.reason}")
        for name in ("wald", "gamma"):
            report = docs[name]
            for h, Lam in enumerate(report["Lambda_hat"]):
                if any(b > a for a, b in zip(Lam, Lam[1:])):
                    problems.append(f"{name}: Lambda_hat of stratum {h} increases: {Lam}")
            for iv in report["intervals"]:
                if not iv["lower"] <= iv["upper"]:
                    problems.append(f"{name}: inverted interval {iv}")
                if name == "gamma" and iv["lower"] < 0:
                    problems.append(f"gamma lower bound is negative: {iv}")
            if len(report["intervals"]) != 1:
                problems.append(f"{name}: expected one interval, got {report['intervals']}")
        return problems

    def canonical(self, i: int, result) -> bytes:
        codes, text = result
        docs = self._read()
        return json.dumps(codes).encode() + text.encode() + b"".join(docs[k] for k in sorted(docs))

    def layer_counts(self, i: int, result) -> dict[str, int]:
        return {"cli.bytes_written": sum(os.path.getsize(p) for p in self.outputs.values())}


WORKLOADS = {
    "study-boot": StudyBoot,
    "study-comprehensive": StudyComprehensive,
    "cli-roundtrip": CliRoundtrip,
}
