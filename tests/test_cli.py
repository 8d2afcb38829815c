"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
import textwrap
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import reviewrate
from reviewrate import Dataset, _batch, cli, validate_observed
from reviewrate.cli import main
from reviewrate.study import CSV_HEADER


COMMON_SCENARIO = {
    "m": 1.0,
    "H": 5,
    "T": 3,
    "strata": [
        {"lambdas": [10, 5, 2.5, 18], "pis": [0.5, 0.5, 0.95]},
        {"lambdas": [20, 15, 25, 10], "pis": [0.5, 0.6, 0.96]},
        {"lambdas": [20, 30, 8, 5], "pis": [0.5, 0.7, 0.97]},
        {"lambdas": [5, 6, 25, 10], "pis": [0.5, 0.8, 0.98]},
        {"lambdas": [30, 12, 4, 15], "pis": [0.5, 0.9, 0.99]},
    ],
}


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(COMMON_SCENARIO))
    return str(path)


class TestGenerate:
    def test_writes_valid_dataset(self, tmp_path, scenario_file):
        out = tmp_path / "data.json"
        assert main(["generate", scenario_file, "--seed", "3", "--out", str(out)]) == 0
        ds = Dataset.from_dict(json.loads(out.read_text()))
        assert len(ds.strata) == 5
        for s in ds.strata:
            assert validate_observed(s, tiers=3)

    def test_deterministic(self, tmp_path, scenario_file):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["generate", scenario_file, "--seed", "5", "--out", str(out1)]) == 0
        assert main(["generate", scenario_file, "--seed", "5", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_zero_rates_give_zero_dataset(self, tmp_path):
        scen = {"m": 1.0, "H": 1, "T": 2,
                "strata": [{"lambdas": [0, 0, 0], "pis": [0.5, 0.5]}]}
        spath = tmp_path / "zero.json"
        spath.write_text(json.dumps(scen))
        out = tmp_path / "zero-data.json"
        assert main(["generate", str(spath), "--seed", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["strata"][0]["e"] == [0, 0, 0]
        assert doc["strata"][0]["n"] == [0, 0]

    def test_latent_output(self, tmp_path, scenario_file):
        out = tmp_path / "data.json"
        latent = tmp_path / "latent.json"
        assert main(["generate", scenario_file, "--seed", "3", "--out", str(out),
                     "--latent", str(latent)]) == 0
        doc = json.loads(latent.read_text())
        assert len(doc["strata"]) == 5
        rows = doc["strata"][0]["x"]
        assert [len(r) for r in rows] == [1, 2, 3, 4]
        # latent column totals must reproduce the observed pools
        data = json.loads(out.read_text())
        e = data["strata"][0]["e"]
        totals = [sum(rows[t][s] for t in range(s, 4)) for s in range(4)]
        assert totals == e

    @pytest.mark.parametrize("text", [
        '{"m": Infinity, "H": 1, "T": 1, "strata": [{"lambdas": [1, 2], "pis": [0.5]}]}',
        '{"m": 1.0, "H": 1, "T": 1, "strata": [{"lambdas": [1e300, 2], "pis": [0.5]}]}',
        '{"m": 1.0, "H": "x", "T": 1, "strata": [{"lambdas": [1, 2], "pis": [0.5]}]}',
        # each rate is within the limit, but the pool's rate, their sum, is not
        '{"m": 1, "H": 1, "T": 1, "strata": [{"lambdas": [5e18, 5e18], "pis": [0.5]}]}',
        '{"m": 1.0, "H": 1.7, "T": 1, "strata": [{"lambdas": [1, 2], "pis": [0.5]}]}',
        '{"m": 1.0, "H": 1, "T": 1.5, "strata": [{"lambdas": [1, 2], "pis": [0.5]}]}',
        '{"m": 1.0, "H": true, "T": 1, "strata": [{"lambdas": [1, 2], "pis": [0.5]}]}',
        '{"m": "2", "H": 1, "T": 1, "strata": [{"lambdas": [1, 2], "pis": [0.5]}]}',
        '{"m": 1.0, "H": 1, "T": 1, "strata": [{"lambdas": "12", "pis": "1"}]}',
        '{"m": 1.0, "H": 1, "T": 1, "strata": [{"lambdas": [1, "2"], "pis": [0.5]}]}',
        '{"m": true, "H": 1, "T": 1, "strata": [{"lambdas": [1, 2], "pis": [0.5]}]}',
        '{"m": 1.0, "H": 1, "T": 1, "strata": [{"lambdas": [1, true], "pis": [0.5]}]}',
        '{"m": 1.0, "H": 1, "T": 1, "strata": [{"lambdas": [1, 2], "pis": [true]}]}',
        '{"m": 1.0, "H": 1, "T": 1, "strata": [{"lambdas": [1, 1%s], "pis": [0.5]}]}'
        % ("0" * 400),
    ], ids=["infinite-mileage", "rate-above-poisson-limit", "non-integer-stratum-count",
            "pool-rate-above-poisson-limit", "non-integral-stratum-count",
            "non-integral-tier-count", "boolean-stratum-count", "string-mileage",
            "string-rates", "string-rate", "boolean-mileage", "boolean-rate",
            "boolean-sampling-rate", "rate-beyond-float-range"])
    def test_out_of_range_scenario_is_validation_error(self, tmp_path, text):
        spath = tmp_path / "scenario.json"
        spath.write_text(text)
        assert main(["generate", str(spath), "--out", str(tmp_path / "x.json")]) == 2

    def test_integral_float_counts_are_accepted(self, tmp_path):
        spath = tmp_path / "scenario.json"
        spath.write_text('{"m": 2, "H": 1.0, "T": 2.0, '
                         '"strata": [{"lambdas": [1, 2, 3], "pis": [0.5, 1]}]}')
        out = tmp_path / "x.json"
        assert main(["generate", str(spath), "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["strata"][0]["n"]) == 2

    @pytest.mark.parametrize("lambdas", [[1e12, 2, 3], [4e15, 4e15, 1]],
                             ids=["class-beyond-1e9", "pool-near-2**53"])
    def test_large_pools_generate_a_latent_table(self, tmp_path, lambdas):
        spath = tmp_path / "scenario.json"
        spath.write_text(json.dumps(
            {"m": 1, "H": 1, "T": 2, "strata": [{"lambdas": lambdas, "pis": [0.5, 0.5]}]}
        ))
        out, latent = tmp_path / "x.json", tmp_path / "latent.json"
        assert main(["generate", str(spath), "--out", str(out), "--latent", str(latent)]) == 0
        rows = json.loads(latent.read_text())["strata"][0]["x"]
        e = json.loads(out.read_text())["strata"][0]["e"]
        assert [sum(rows[t][s] for t in range(s, 3)) for s in range(3)] == e

    def test_pool_beyond_the_dataset_count_limit_is_validation_error(self, tmp_path, capsys):
        # The pool's rate is within numpy's Poisson limit, but no dataset can hold its count.
        spath = tmp_path / "scenario.json"
        spath.write_text(json.dumps(
            {"m": 1, "H": 1, "T": 2, "strata": [{"lambdas": [4e18, 4e18, 1], "pis": [0.5, 0.5]}]}
        ))
        assert main(["generate", str(spath), "--out", str(tmp_path / "x.json")]) == 2
        assert "below 2**53" in capsys.readouterr().err

    def test_malformed_json_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"m": 1.0,\n  "H": }')
        assert main(["generate", str(bad), "--out", str(tmp_path / "x.json")]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_missing_file_is_validation_error(self, tmp_path):
        assert main(["generate", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x.json")]) == 2


class TestEstimate:
    def test_single_stratum_example(self, tmp_path, capsys):
        data = {"m": 1.0, "strata": [{"e": [6, 3, 2, 1], "n": [3, 2, 1]}]}
        dpath = tmp_path / "d.json"
        dpath.write_text(json.dumps(data))
        report = tmp_path / "report.json"
        assert main(["estimate", str(dpath), "--ci", "gamma",
                     "--json", str(report)]) == 0
        out = capsys.readouterr().out
        assert "theta_hat: 6" in out
        doc = json.loads(report.read_text())
        assert doc["theta_hat"] == 6.0
        assert doc["Lambda_hat"][0] == [6.0, 6.0, 6.0, 6.0]

    def test_empty_dataset_gamma_interval(self, tmp_path, capsys):
        data = {"m": 1.0, "strata": [{"e": [0, 0, 0, 0], "n": [0, 0, 0]}]}
        dpath = tmp_path / "d.json"
        dpath.write_text(json.dumps(data))
        report = tmp_path / "report.json"
        assert main(["estimate", str(dpath), "--ci", "gamma", "--json", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["theta_hat"] == 0.0
        (iv,) = doc["intervals"]
        assert iv["lower"] == 0.0 and iv["upper"] > 0.0

    @pytest.mark.parametrize("ci", ["wald", "gamma", "none"])
    def test_replicate_count_is_checked_only_with_the_bootstrap(self, tmp_path, ci):
        data = tmp_path / "d.json"
        data.write_text(json.dumps({"m": 1.0, "strata": [{"e": [1, 1], "n": [1]}]}))
        assert main(["estimate", str(data), "--ci", ci, "--B", "50"]) == 0
        assert main(["estimate", str(data), "--ci", ci, "--B", "50", "--level", "1.5"]) == 1

    def test_bad_level_is_usage_error(self, tmp_path):
        data = {"m": 1.0, "strata": [{"e": [1, 1], "n": [1]}]}
        dpath = tmp_path / "d.json"
        dpath.write_text(json.dumps(data))
        assert main(["estimate", str(dpath), "--level", "1.5"]) == 1

    def test_invalid_counts_are_validation_error(self, tmp_path):
        data = {"m": 1.0, "strata": [{"e": [3, 5], "n": [4]}]}
        dpath = tmp_path / "d.json"
        dpath.write_text(json.dumps(data))
        assert main(["estimate", str(dpath), "--ci", "wald"]) == 2

    @pytest.mark.parametrize("text, ci", [
        ('{"m": 1.0, "strata": [{"e": [1e20, 1e20], "n": [1e20]}]}', "bootstrap"),
        ('{"m": 1.0, "strata": [{"e": [1e20, 1e20], "n": [1e20]}]}', "wald"),
        ('{"m": Infinity, "strata": [{"e": [6, 3], "n": [3]}]}', "all"),
        ('{"m": 1.0, "strata": [{"e": [NaN, 1], "n": [1]}]}', "bootstrap"),
        ('{"m": 1.0, "strata": [{"e": [Infinity, 1], "n": [1]}]}', "bootstrap"),
        ('{"m": 1.0, "strata": [{"e": ["a", 1], "n": [1]}]}', "bootstrap"),
        ('{"m": 1e-320, "strata": [{"e": [6, 3], "n": [3]}]}', "bootstrap"),
        ('{"m": "1", "strata": [{"e": [6, 3], "n": [3]}]}', "all"),
        ('{"m": true, "strata": [{"e": [6, 3], "n": [3]}]}', "all"),
        ('{"m": 1.0, "strata": [{"e": [true, 1], "n": [true]}]}', "all"),
        ('{"m": 1%s, "strata": [{"e": [6, 3], "n": [3]}]}' % ("0" * 400), "all"),
    ], ids=["count-above-2**53-bootstrap", "count-above-2**53-wald", "infinite-mileage",
            "nan-count", "infinite-count", "string-count", "subnormal-mileage-bootstrap",
            "string-mileage", "boolean-mileage", "boolean-counts",
            "mileage-beyond-float-range"])
    def test_out_of_range_dataset_is_validation_error(self, tmp_path, text, ci):
        dpath = tmp_path / "d.json"
        dpath.write_text(text)
        assert main(["estimate", str(dpath), "--ci", ci, "--B", "100"]) == 2

    @staticmethod
    def _estimate_without_runtime_warnings(tmp_path, text, ci):
        dpath = tmp_path / "d.json"
        dpath.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["estimate", str(dpath), "--ci", ci, "--B", "100"])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        return code

    @pytest.mark.parametrize("text", [
        '{"m": 1e-300, "strata": [{"e": [1000000000, 10], "n": [20]}]}',
        '{"m": 1e-300, "strata": [{"e": [10, 0], "n": [1]}]}',
        '{"m": 1e-140, "strata": [{"e": [1000000000000000, 500000000000000], '
        '"n": [1000000000000000]}]}',
        '{"m": 1e-308, "strata": [{"e": [8000000000000000, 1], "n": [1]}]}',
    ], ids=["rate-overflow", "weight-overflow", "squared-rate-overflow", "m-pi-underflow"])
    @pytest.mark.parametrize("ci", ["none", "wald", "gamma", "bootstrap", "all"])
    def test_mileage_too_small_for_the_counts_is_validation_error(self, tmp_path, text, ci):
        assert self._estimate_without_runtime_warnings(tmp_path, text, ci) == 2

    @pytest.mark.parametrize("text", [
        '{"m": 1e300, "strata": [{"e": [10, 5], "n": [10]}]}',
        '{"m": 1e200, "strata": [{"e": [10, 0], "n": [10]}]}',
    ], ids=["variance-underflow", "upper-variance-underflow"])
    @pytest.mark.parametrize("ci", ["none", "wald", "gamma", "bootstrap", "all"])
    def test_mileage_too_large_for_the_counts_is_validation_error(self, tmp_path, text, ci):
        assert self._estimate_without_runtime_warnings(tmp_path, text, ci) == 2

    @staticmethod
    def _estimate_with_oversized_B(tmp_path, capsys, e):
        dpath = tmp_path / "d.json"
        dpath.write_text(json.dumps({"m": 1.0, "strata": [{"e": e, "n": [10]}]}))
        # numpy refuses a 10**15-lane array at once, before touching any memory.
        assert main(["estimate", str(dpath), "--ci", "bootstrap", "--B", str(10**15)]) == 1
        assert "--B too large for memory" in capsys.readouterr().err

    def test_replicates_too_large_for_memory_is_usage_error(self, tmp_path, capsys):
        self._estimate_with_oversized_B(tmp_path, capsys, [10, 5])

    def test_replicates_too_large_for_memory_without_survivors_is_usage_error(
        self, tmp_path, capsys
    ):
        # With no survivors the bootstrap draws nothing, yet --B still sizes an array.
        self._estimate_with_oversized_B(tmp_path, capsys, [10, 0])

    @pytest.mark.parametrize("e0", [3 * 10**9, 2**53 - 1], ids=["3e9", "2**53-1"])
    def test_bootstrap_on_pools_beyond_the_hypergeometric_limit(self, tmp_path, e0):
        data = {"m": 1.0, "strata": [{"e": [e0, e0 // 4], "n": [e0 // 2]}]}
        dpath = tmp_path / "d.json"
        dpath.write_text(json.dumps(data))
        report = tmp_path / "report.json"
        assert main(["estimate", str(dpath), "--ci", "bootstrap", "--B", "100",
                     "--seed", "1", "--json", str(report)]) == 0
        (iv,) = json.loads(report.read_text())["intervals"]
        assert 0.0 <= iv["lower"] <= iv["upper"]

    def test_round_trip_with_generate(self, tmp_path, scenario_file):
        out = tmp_path / "data.json"
        assert main(["generate", scenario_file, "--seed", "9", "--out", str(out)]) == 0
        assert main(["estimate", str(out), "--ci", "all", "--B", "200", "--seed", "4"]) == 0

    def test_all_intervals_read_one_fit(self, tmp_path, scenario_file, monkeypatch):
        out = tmp_path / "data.json"
        assert main(["generate", scenario_file, "--seed", "9", "--out", str(out)]) == 0
        fits = []
        estimate_counts = _batch.estimate_counts
        monkeypatch.setattr(_batch, "estimate_counts",
                            lambda *args: fits.append(args) or estimate_counts(*args))
        assert main(["estimate", str(out), "--ci", "all", "--B", "200", "--seed", "4"]) == 0
        assert len(fits) == 1


class TestStudy:
    def test_single_replication_smoke(self, tmp_path):
        out = tmp_path / "rows.csv"
        start = time.perf_counter()
        code = main(["study", "--study", "rare", "--reps", "1", "--B", "100",
                     "--seed", "2", "--out", str(out)])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 5.0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 1 + 10 * 3  # default grid x three methods

    def test_comprehensive_scenario_count(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["study", "--study", "comprehensive", "--num-scenarios", "10",
                     "--reps", "20", "--methods", "wald,gamma", "--seed", "2",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")[1:]
        ids = {line.split(",")[0] for line in lines}
        assert len(ids) == 10
        assert len(lines) == 20

    def test_deterministic_output(self, tmp_path):
        args = ["study", "--study", "common", "--reps", "3", "--grid", "0.2,0.7",
                "--methods", "wald,gamma", "--seed", "12"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_unknown_study_is_usage_error(self, tmp_path):
        assert main(["study", "--study", "mystery", "--out", str(tmp_path / "x.csv")]) == 1

    def test_bad_method_is_usage_error(self, tmp_path):
        assert main(["study", "--study", "rare", "--methods", "wald,magic",
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_too_few_bootstrap_replicates_is_usage_error(self, tmp_path):
        data = tmp_path / "d.json"
        data.write_text(json.dumps({"m": 1.0, "strata": [{"e": [1, 1], "n": [1]}]}))
        assert main(["estimate", str(data), "--B", "50"]) == 1
        assert main(["study", "--study", "rare", "--reps", "1", "--methods", "bootstrap",
                     "--B", "50", "--out", str(tmp_path / "x.csv")]) == 1

    def test_bad_grid_is_usage_error(self, tmp_path):
        assert main(["study", "--study", "rare", "--grid", "0.5,nope",
                     "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("flags", [
        ["--reps", str(10**15), "--methods", "wald"],
        ["--reps", str(10**15), "--methods", "bootstrap"],
        ["--reps", str(10**15)],
        ["--reps", "1", "--B", str(10**15), "--methods", "bootstrap"],
    ], ids=["reps", "reps-bootstrap", "reps-all-methods", "B"])
    def test_replicates_too_large_for_memory_is_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "x.csv"
        # numpy refuses a 10**15-lane array at once, before touching any memory.
        assert main(["study", "--study", "common", "--grid", "0.5", *flags,
                     "--out", str(out)]) == 1
        assert "--reps or --B too large for memory" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("content", [
    b"\xff\xfe\x00{",
    b'{"m": 1, "strata": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    b'{"m": 1, "strata": [{"e": [' + b"9" * 5000 + b', 3], "n": [3]}]}',
], ids=["not-utf-8", "nested-too-deep", "integer-too-long"])
@pytest.mark.parametrize("command", ["generate", "estimate"])
def test_unparsable_input_file_is_validation_error(tmp_path, capsys, content, command):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    out = tmp_path / "x.json"
    argv = [command, str(path)] + (["--out", str(out)] if command == "generate" else [])
    assert main(argv) == 2
    assert f"validation error: cannot parse {path}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("count", [2**61, 2**63 - 1, 10**20], ids=["2**61", "2**63-1", "1e20"])
@pytest.mark.parametrize("flags", [
    ["estimate", "{data}", "--ci", "bootstrap", "--B", "{count}"],
    ["estimate", "{empty}", "--ci", "bootstrap", "--B", "{count}"],
    ["study", "--study", "common", "--grid", "0.5", "--reps", "{count}", "--methods", "wald"],
    ["study", "--study", "common", "--grid", "0.5", "--reps", "{count}"],
    ["study", "--study", "common", "--grid", "0.5", "--reps", "1", "--B", "{count}",
     "--methods", "bootstrap"],
], ids=["estimate-B", "estimate-B-no-survivors", "study-reps", "study-reps-all-methods",
        "study-B"])
def test_replicates_past_numpy_address_space_are_usage_error(tmp_path, capsys, flags, count):
    # numpy refuses these shapes with a ValueError, not a MemoryError.
    data, empty, out = tmp_path / "d.json", tmp_path / "empty.json", tmp_path / "x.csv"
    data.write_text('{"m": 1.0, "strata": [{"e": [10, 5], "n": [10]}]}')
    empty.write_text('{"m": 1.0, "strata": [{"e": [10, 0], "n": [10]}]}')
    argv = [f.format(data=data, empty=empty, count=count) for f in flags]
    assert main([*argv, "--out", str(out)] if argv[0] == "study" else argv) == 1
    assert "too large for memory" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("flag", ["generate --out", "generate --latent", "estimate --json",
                                  "study --out"])
def test_unwritable_output_path_is_usage_error(tmp_path, scenario_file, capsys, flag, target):
    data = tmp_path / "data.json"
    assert main(["generate", scenario_file, "--out", str(data)]) == 0
    (tmp_path / "directory").mkdir()
    bad = tmp_path / "missing" / "x.out" if target == "missing-directory" else tmp_path / target
    argv = {
        "generate --out": ["generate", scenario_file, "--out", str(bad)],
        "generate --latent": ["generate", scenario_file, "--out", str(tmp_path / "d.json"),
                              "--latent", str(bad)],
        "estimate --json": ["estimate", str(data), "--ci", "gamma", "--json", str(bad)],
        "study --out": ["study", "--study", "rare", "--reps", "1", "--grid", "0.5",
                        "--methods", "wald", "--out", str(bad)],
    }[flag]
    capsys.readouterr()
    assert main(argv) == 1
    assert f"usage error: cannot write {bad}: " in capsys.readouterr().err
    assert not list(tmp_path.rglob(".tmp-*"))
    assert (tmp_path / "directory").is_dir() and not (tmp_path / "missing").exists()


def test_unwritable_study_output_fails_before_the_sweep(tmp_path, monkeypatch, capsys):
    sweeps = []
    monkeypatch.setattr(cli, "run_sweep", sweeps.append)
    monkeypatch.chdir(tmp_path)
    assert main(["study", "--study", "rare", "--grid", "0.5", "--reps", "5",
                 "--methods", "wald", "--out", "missing/x.csv"]) == 1
    assert "usage error: cannot write missing/x.csv: " in capsys.readouterr().err
    assert sweeps == []
    assert not list(tmp_path.rglob(".tmp-*"))


def test_unwritable_latent_output_leaves_no_dataset(tmp_path, scenario_file, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["generate", scenario_file, "--out", "d.json",
                 "--latent", "missing/l.json"]) == 1
    assert not (tmp_path / "d.json").exists()
    assert not list(tmp_path.rglob(".tmp-*"))


@pytest.mark.parametrize("latent", ["x.json", "./x.json", "sub/../x.json", "link.json"])
def test_two_outputs_on_one_path_is_usage_error(tmp_path, scenario_file, monkeypatch, capsys,
                                                latent):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link.json").symlink_to("x.json")
    assert main(["generate", scenario_file, "--out", "x.json", "--latent", latent]) == 1
    assert "usage error: two outputs share one path" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()
    assert not list(tmp_path.rglob(".tmp-*"))


def test_interrupted_command_leaves_no_temp_file(tmp_path, scenario_file, monkeypatch):
    def interrupt(*args):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli, "generate_dataset", interrupt)
    out, latent = tmp_path / "d.json", tmp_path / "l.json"
    with pytest.raises(KeyboardInterrupt):
        main(["generate", scenario_file, "--out", str(out), "--latent", str(latent)])
    assert not out.exists() and not latent.exists()
    assert not list(tmp_path.rglob(".tmp-*"))


class TestSeedEnvironment:
    def test_env_seed_used_as_default(self, tmp_path, scenario_file, monkeypatch):
        out_env, out_flag = tmp_path / "env.json", tmp_path / "flag.json"
        monkeypatch.setenv("REVIEWRATE_SEED", "31")
        assert main(["generate", scenario_file, "--out", str(out_env)]) == 0
        monkeypatch.delenv("REVIEWRATE_SEED")
        assert main(["generate", scenario_file, "--seed", "31", "--out", str(out_flag)]) == 0
        assert out_env.read_bytes() == out_flag.read_bytes()

    def test_bad_env_seed_is_usage_error(self, tmp_path, scenario_file, monkeypatch):
        monkeypatch.setenv("REVIEWRATE_SEED", "abc")
        assert main(["generate", scenario_file, "--out", str(tmp_path / "x.json")]) == 1

    @pytest.mark.parametrize("seed", ["-1", str(2**64)], ids=["negative", "2**64"])
    def test_out_of_range_seed_is_usage_error(self, tmp_path, scenario_file, monkeypatch, seed):
        data = tmp_path / "d.json"
        data.write_text(json.dumps({"m": 1.0, "strata": [{"e": [6, 3], "n": [3]}]}))
        commands = [
            ["generate", scenario_file, "--out", str(tmp_path / "x.json")],
            ["estimate", str(data), "--ci", "bootstrap", "--B", "100"],
            ["study", "--study", "rare", "--reps", "1", "--grid", "0.5", "--methods", "wald",
             "--out", str(tmp_path / "x.csv")],
        ]
        for args in commands:
            assert main(args + ["--seed", seed]) == 1
            monkeypatch.setenv("REVIEWRATE_SEED", seed)
            assert main(args) == 1
            monkeypatch.delenv("REVIEWRATE_SEED")


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("bad", [["--no-such-flag"], ["--level", "2"]],
                             ids=["unknown-flag", "bad-level"])
    def test_usage_error_leaves_later_calls_unchanged(self, tmp_path, scenario_file, capsys, bad):
        data, report = tmp_path / "d.json", tmp_path / "r.json"
        generate = ["generate", scenario_file, "--seed", "4", "--out", str(data)]
        estimate = ["estimate", str(data), "--ci", "all", "--B", "100", "--json", str(report)]

        def run(args):
            code = main(args)
            out, err = capsys.readouterr()
            files = [data.read_bytes(), report.read_bytes() if report.exists() else None]
            return code, out, err, files

        cli._build_parser.cache_clear()
        fresh = [run(generate), run(estimate)]
        report.unlink()
        failed = run(["estimate", str(data), *bad])
        cli._build_parser.cache_clear()
        assert run(["estimate", str(data), *bad]) == failed  # a fresh parser fails alike
        assert failed[0] == 1 and failed[1] == "" and failed[2].startswith("usage error:")
        data.unlink()
        assert [run(generate), run(estimate)] == fresh

    def test_seed_environment_is_read_on_each_call(self, tmp_path, scenario_file, monkeypatch):
        outputs = {}
        for seed in ("31", "32"):
            monkeypatch.setenv("REVIEWRATE_SEED", seed)
            out = tmp_path / f"env-{seed}.json"
            assert main(["generate", scenario_file, "--out", str(out)]) == 0
            outputs[seed] = out.read_bytes()
        monkeypatch.delenv("REVIEWRATE_SEED")
        for seed in ("31", "32"):
            out = tmp_path / f"flag-{seed}.json"
            assert main(["generate", scenario_file, "--seed", seed, "--out", str(out)]) == 0
            assert out.read_bytes() == outputs[seed]
        assert outputs["31"] != outputs["32"]

    def test_concurrent_callers_match_serial(self, tmp_path, scenario_file):
        methods = ("wald", "gamma", "bootstrap", "all", "none")

        def job(root, i):
            data, report = root / f"d{i}.json", root / f"r{i}.json"
            codes = [main(["generate", scenario_file, "--seed", str(i), "--out", str(data)])]
            flags = ["--level", "2"] if i % 6 == 5 else ["--ci", methods[i % 5], "--B", "100"]
            codes.append(main(["estimate", str(data), *flags, "--seed", str(i),
                               "--json", str(report)]))
            return codes

        def files(root):
            return {p.name: p.read_bytes() for p in sorted(root.iterdir())}

        serial_dir, threaded_dir = tmp_path / "serial", tmp_path / "threaded"
        serial_dir.mkdir()
        threaded_dir.mkdir()
        serial = [job(serial_dir, i) for i in range(24)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as callers:
                runs = callers.map(lambda i: job(threaded_dir, i), range(24), timeout=300)
                threaded = list(runs)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
        assert {code for codes in serial for code in codes} == {0, 1}
        assert files(threaded_dir) == files(serial_dir)


def test_generate_does_not_load_scipy(tmp_path, scenario_file):
    script = textwrap.dedent("""
        import sys
        import reviewrate.cli
        loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        after_import = loaded()
        code = reviewrate.cli.main(sys.argv[1:])
        print("probe:", code, after_import, loaded())
        code = reviewrate.cli.main(["estimate", sys.argv[4], "--ci", "gamma"])
        print("probe:", code, bool(loaded()))
    """)
    out = tmp_path / "d.json"
    env = dict(os.environ, PYTHONPATH=str(Path(reviewrate.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script, "generate", scenario_file, "--out", str(out),
         "--latent", str(tmp_path / "latent.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    probes = [line for line in proc.stdout.splitlines() if line.startswith("probe:")]
    assert probes[0] == "probe: 0 [] []"
    assert probes[1] == "probe: 0 True"  # the gamma interval loads scipy, so the probe sees it


def test_python_m_runs_the_cli(tmp_path, scenario_file):
    env = dict(os.environ, PYTHONPATH=str(Path(reviewrate.__file__).parents[1]))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "reviewrate.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=120)

    proc = run("generate", scenario_file, "--seed", "3", "--out", str(tmp_path / "m.json"))
    assert proc.returncode == 0, proc.stderr
    assert main(["generate", scenario_file, "--seed", "3", "--out", str(tmp_path / "d.json")]) == 0
    assert (tmp_path / "m.json").read_bytes() == (tmp_path / "d.json").read_bytes()
    proc = run("generate", scenario_file)
    assert proc.returncode == 1 and "usage error" in proc.stderr
