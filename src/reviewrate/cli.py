"""Command-line interface: generate datasets, estimate rates, run coverage studies.

Exit codes: 0 success, 1 usage error (any bad flag value, including a
replicate count too large for memory, an output path that cannot be written
and two outputs on one path), 2 validation error (malformed files or
inconsistent data), 3 internal error. A command writes all its outputs or
none: it makes a temp file in each target's directory before it simulates,
fits or sweeps, so an unwritable output fails before any work, and it renames
them over their targets only once all are written. Every command is
deterministic given its flags and seed. The default seed comes from the
``REVIEWRATE_SEED`` environment variable when set, else 0, read on each call.

The argument parser is built on the first ``main`` call and reused by every
later call in the process: it depends on nothing but this module, and
parsing does not change it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import tempfile
from typing import IO, Iterator, Sequence

from .distributions import RngStream
from .estimator import estimate_theta
from .generator import generate_dataset
from .intervals import ci_bootstrap, ci_gamma_wsip, ci_wald
from .model import Dataset, InvalidDataError, Scenario, check_bootstrap_replicates, check_level
from .study import DEFAULT_PI1_GRID, STUDY_SOURCES, StudySpec, rows_to_csv, run_sweep

__all__ = ["main", "entry_point"]

_EXIT_USAGE = 1
_EXIT_VALIDATION = 2
_EXIT_INTERNAL = 3

# The CLI spells the interval methods and the fixed study sources more briefly.
_CLI_METHODS = {"bootstrap": "bootstrap", "wald": "wald", "gamma": "gamma_wsip"}
_CLI_SOURCES = {source.removeprefix("fixed-"): source for source in STUDY_SOURCES}
_CI_CHOICES = (*_CLI_METHODS, "all", "none")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


def _stream(args: argparse.Namespace) -> RngStream:
    """The master stream of ``--seed``, else of ``REVIEWRATE_SEED``, else of seed 0.

    A seed outside the unsigned 64-bit range is a usage error, wherever it came from.
    """
    seed = args.seed
    if seed is None:
        raw = os.environ.get("REVIEWRATE_SEED", "0")
        try:
            seed = int(raw)
        except ValueError as exc:
            raise UsageError(f"REVIEWRATE_SEED must be an integer, got {raw!r}") from exc
    try:
        return RngStream(seed)
    except ValueError as exc:
        raise UsageError(f"seed must be an integer in [0, 2**64), got {seed}") from exc


@contextlib.contextmanager
def _staged_outputs(*paths: str | None) -> Iterator[dict[str, str]]:
    """Write the text the body puts under each path (``None`` skipped): all of them or none.

    A temp file is made in each target's directory before the body runs, so an
    unwritable path, or two outputs on one path, is a usage error before any
    work. After the body every temp file is written, and only then is each
    renamed over its target. Any exception, Ctrl-C included, removes them.
    """
    paths = [path for path in paths if path is not None]
    if len(paths) > 1 and len({os.path.realpath(path) for path in paths}) < len(paths):
        raise UsageError(f"two outputs share one path: {', '.join(paths)}")
    texts: dict[str, str] = {}
    staged: list[tuple[str, str, IO[str]]] = []
    try:
        try:
            for path in paths:
                if os.path.isdir(path or "."):  # the final rename would fail on a directory
                    raise UsageError(f"cannot write {path}: is a directory")
                fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                           prefix=".tmp-", text=True)
                staged.append((path, tmp, os.fdopen(fd, "w")))
        except OSError as exc:
            raise _unwritable(path, exc) from exc
        yield texts
        try:
            for path, _, fh in staged:
                with fh:
                    fh.write(texts[path])
            for path, tmp, _ in staged:
                os.replace(tmp, path)
        except OSError as exc:
            raise _unwritable(path, exc) from exc
    except BaseException:
        for _, tmp, fh in staged:
            fh.close()
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise


def _unwritable(path: str, exc: OSError) -> UsageError:
    """An OS error on an output path: the flag named a path that cannot be written."""
    return UsageError(f"cannot write {path}: {exc.strerror or exc}")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidDataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidDataError(
            f"cannot parse {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    # Text that is not UTF-8, nesting too deep to parse, an integer past Python's digit limit.
    except (ValueError, RecursionError) as exc:
        raise InvalidDataError(f"cannot parse {path}: {exc}") from exc


def _dumps(doc: dict) -> str:
    """``doc`` as JSON, one line per top-level key and per entry of a list of lists or objects.

    Each line's values go through ``json.dumps`` without ``indent``, which
    uses the C encoder; with ``indent`` set, ``json`` encodes in pure Python.
    """
    items = []
    for key, value in doc.items():
        if value and isinstance(value, list) and all(isinstance(v, (list, dict)) for v in value):
            text = "[\n    " + ",\n    ".join(map(json.dumps, value)) + "\n  ]"
        else:
            text = json.dumps(value)
        items.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n}\n"


@contextlib.contextmanager
def _flag_values() -> Iterator[None]:
    """Report a value the library rejects as a usage error: it came from a flag."""
    try:
        yield
    except InvalidDataError as exc:
        raise UsageError(str(exc)) from exc


def _numbers(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="reviewrate", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="simulate a dataset from a scenario file")
    gen.add_argument("scenario", help="scenario JSON file")
    gen.add_argument("--seed", type=int, default=None, help="master seed (default: env or 0)")
    gen.add_argument("--out", required=True, help="output dataset JSON file")
    gen.add_argument("--latent", default=None, help="also write the latent tables to this file")

    est = sub.add_parser("estimate", help="estimate rates and intervals from a dataset file")
    est.add_argument("dataset", help="dataset JSON file")
    est.add_argument("--ci", choices=_CI_CHOICES, default="all", help="interval method(s)")
    est.add_argument("--level", type=float, default=0.9, help="confidence level")
    est.add_argument("--B", type=int, default=2000, help="bootstrap replicates")
    est.add_argument("--seed", type=int, default=None, help="bootstrap seed (default: env or 0)")
    est.add_argument("--json", dest="json_out", default=None, help="also write a JSON report")

    stu = sub.add_parser("study", help="run a coverage study and write its CSV")
    stu.add_argument("--study", choices=sorted(_CLI_SOURCES), required=True)
    stu.add_argument("--reps", type=int, default=1000, help="replications per grid point")
    stu.add_argument("--grid", type=_numbers, default=DEFAULT_PI1_GRID,
                     help="comma-separated first-tier sampling rates")
    stu.add_argument("--num-scenarios", type=int, default=100_000,
                     help="scenario count for the comprehensive study")
    stu.add_argument("--methods", default="bootstrap,wald,gamma",
                     help="comma-separated subset of bootstrap,wald,gamma")
    stu.add_argument("--B", type=int, default=2000, help="bootstrap replicates")
    stu.add_argument("--level", type=float, default=0.9, help="confidence level")
    stu.add_argument("--seed", type=int, default=None, help="master seed (default: env or 0)")
    stu.add_argument("--out", required=True, help="output CSV file")
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    scenario = Scenario.from_dict(_load_json(args.scenario))
    with _staged_outputs(args.out, args.latent) as texts:
        latents, dataset = generate_dataset(scenario, _stream(args))
        texts[args.out] = _dumps(dataset.to_dict())
        if args.latent:
            doc = {"strata": [{"x": [list(row) for row in latent.x]} for latent in latents]}
            texts[args.latent] = _dumps(doc)
    print(f"wrote {args.out}" + (f" and {args.latent}" if args.latent else ""))
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    requested = {"all": _CLI_METHODS, "none": ()}.get(args.ci, (args.ci,))
    with _flag_values():
        level = check_level(args.level)
        if "bootstrap" in requested:  # --B and --seed are read by the bootstrap only
            check_bootstrap_replicates(args.B)
    dataset = Dataset.from_dict(_load_json(args.dataset))
    with _staged_outputs(args.json_out) as texts:
        estimate = estimate_theta(dataset)

        views = {
            "bootstrap": lambda: ci_bootstrap(estimate, level, args.B, _stream(args)),
            "wald": lambda: ci_wald(estimate, level),
            "gamma": lambda: ci_gamma_wsip(estimate, level),
        }
        intervals = [views[name]() for name in requested]

        print(f"theta_hat: {estimate.theta_hat:.6g}  (mileage m={estimate.m:g}, "
              f"{dataset.config.H} strata, {dataset.config.T} tiers)")
        print("stratum  lambda_T_hat  pi_prod_hat  weight")
        for h, (lam_T, prod, w) in enumerate(
            zip(estimate.theta_by_stratum, estimate.pi_prod, estimate.weights)
        ):
            print(f"{h:>7}  {lam_T:>12.6g}  {prod:>11.6g}  {w:>6.4g}")
        for iv in intervals:
            print(f"{iv.method:>10} {100 * iv.level:g}% interval: "
                  f"[{iv.lower:.6g}, {iv.upper:.6g}]  width {iv.width:.6g}")

        if args.json_out:
            report = {
                "m": estimate.m,
                "theta_hat": estimate.theta_hat,
                "Lambda_hat": [list(v) for v in estimate.Lambda_hat],
                "lambda_hat": [list(v) for v in estimate.lambda_hat],
                "pi_hat": [list(v) for v in estimate.pi_hat],
                "pi_prod": list(estimate.pi_prod),
                "weights": list(estimate.weights),
                "intervals": [
                    {"method": iv.method, "level": iv.level, "lower": iv.lower, "upper": iv.upper}
                    for iv in intervals
                ],
            }
            texts[args.json_out] = _dumps(report)
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    try:
        methods = tuple(_CLI_METHODS[name.strip()] for name in args.methods.split(","))
    except KeyError as exc:
        raise UsageError(f"--methods entries must be bootstrap, wald or gamma, got {exc}") from exc
    seed = _stream(args).master_seed
    with _flag_values():
        spec = StudySpec(
            source=_CLI_SOURCES[args.study],
            pi1_grid=args.grid,
            replications=args.reps,
            level=args.level,
            methods=methods,
            B=args.B,
            num_scenarios=args.num_scenarios,
            master_seed=seed,
        )
    with _staged_outputs(args.out) as texts:
        rows = run_sweep(spec)
        texts[args.out] = rows_to_csv(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "estimate":
            return _cmd_estimate(args)
        return _cmd_study(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except InvalidDataError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except MemoryError as exc:  # the replicate counts are the only flags that size arrays
        flags = "--B" if args.command == "estimate" else "--reps or --B"
        print(f"usage error: {flags} too large for memory: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return _EXIT_INTERNAL


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
