"""Command-line front end.

Subcommands: entropy, cutdist, count, sample, converge, speed, audit,
couple.  Options may also come from a JSON file via --config; explicit
flags win, and integer options from the file are converted as their flags
are (null counts as not given).  Exit codes: 0 success, 2 validation
error, 3 budget error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .census import census_representatives, count_result
from .errors import BudgetError, ValidationError
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    run_convergence,
    run_coupling_demo,
    run_entropy_audit,
    run_speed,
)
from .graphon import AlignmentMode, cut_distance, entropy, load_graphon
from .graphs import load_family, to_graph6
from .rng import SampleSeed
from .sampler import sample_wrandom

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


def _parse_sizes(text):
    try:
        return tuple(int(part) for part in str(text).split(",") if part != "")
    except ValueError as exc:
        raise ValidationError(f"cannot parse sizes {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphlimitlab",
        description="Graph-limit laboratory: step graphons, cut distances, "
                    "W-random sampling, and exact counting of "
                    "forbidden-subgraph classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with option values")
        p.add_argument("--family", help="family file, one graph6 per line")
        p.add_argument("--n", type=int, help="single size")
        p.add_argument("--sizes", help="comma-separated sizes")
        p.add_argument("--samples", type=int, help="samples per size")
        p.add_argument("--burnin", type=int, help="MCMC burn-in steps")
        p.add_argument("--gap", type=int, help="MCMC thinning gap")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--out", help="output CSV path")
        p.add_argument("--graphon", help="graphon JSON path")
        return p

    common(sub.add_parser("entropy", help="entropy of a graphon"))
    p = common(sub.add_parser("cutdist", help="cut distance of two graphons"))
    p.add_argument("--graphon2", help="second graphon JSON path")
    p.add_argument("--mode", choices=["exact", "local"],
                   help="alignment mode (default exact)")
    p = common(sub.add_parser("count", help="exact counts of a family-free class"))
    p.add_argument("--dump", help="write census representatives as graph6")
    common(sub.add_parser("sample", help="sample W-random graphs as graph6"))
    p = common(sub.add_parser("converge", help="distance-to-target experiment"))
    p.add_argument("--r", type=int, help="override the target block count")
    p = common(sub.add_parser("speed", help="speed exponent experiment"))
    p.add_argument("--compare-crs", action="store_true",
                   help="also count the r-colorable class")
    p = common(sub.add_parser("audit", help="entropy audit of block graphons"))
    p.add_argument("--tmax", type=int, help="largest block count (default 8)")
    p = common(sub.add_parser("couple", help="coupled sampling demonstration"))
    p.add_argument("--graphon2", help="second (upper) graphon JSON path")
    return parser


# options that build_parser declares with type=int
_INT_OPTIONS = frozenset({"n", "samples", "burnin", "gap", "seed", "r", "tmax"})


def _config_int(key: str, value) -> int:
    """Convert a --config value as argparse's int converts the flag's text."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValidationError(f"--config {key} must be an integer, got {value!r}")
    try:
        return int(value)
    except ValueError as exc:
        raise ValidationError(
            f"--config {key} must be an integer, got {value!r}") from exc


def _merge_config(args: argparse.Namespace) -> dict:
    merged = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="ascii") as handle:
            loaded = json.load(handle)
        if not isinstance(loaded, dict):
            raise ValidationError("--config must hold a JSON object")
        # the namespace holds every destination of the subcommand's parser
        unknown = sorted(set(loaded) - (set(vars(args)) - {"command", "config"}))
        if unknown:
            raise ValidationError(
                f"unknown --config keys for {args.command}: {', '.join(unknown)}"
            )
        for key, value in loaded.items():
            if value is None:
                continue  # null means not given, as for an absent flag
            merged[key] = _config_int(key, value) if key in _INT_OPTIONS else value
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None and value is not False:
            merged[key] = value
    return merged


def _sizes_from(options: dict):
    if options.get("sizes") is not None:
        sizes = options["sizes"]
        if isinstance(sizes, str):
            return _parse_sizes(sizes)
        if not isinstance(sizes, list):
            raise ValidationError(f"--config sizes must be a list, got {sizes!r}")
        return tuple(_config_int("sizes", n) for n in sizes)
    if options.get("n") is not None:
        return (options["n"],)
    raise ValidationError("need --n or --sizes")


def _experiment_config(options: dict, need_family: bool) -> ExperimentConfig:
    family = None
    if options.get("family"):
        family = load_family(options["family"])
    elif need_family:
        raise ValidationError("need --family")
    return ExperimentConfig(
        family=family,
        sizes=_sizes_from(options),
        samples=options.get("samples", 20),
        burnin=options.get("burnin"),
        gap=options.get("gap"),
        seed=options.get("seed", 0),
        r_override=options.get("r"),
        graphon_low_path=options.get("graphon"),
        graphon_high_path=options.get("graphon2"),
        out=options.get("out"),
        compare_crs=bool(options.get("compare_crs", False)),
    )


def _emit(report: ExperimentReport, out) -> None:
    if not out:
        sys.stdout.write(report.to_csv_text())


def _run(args: argparse.Namespace) -> int:
    options = _merge_config(args)
    command = args.command

    if command == "entropy":
        if not options.get("graphon"):
            raise ValidationError("need --graphon")
        value = entropy(load_graphon(options["graphon"]))
        print(repr(value))
        return EXIT_OK

    if command == "cutdist":
        if not (options.get("graphon") and options.get("graphon2")):
            raise ValidationError("need --graphon and --graphon2")
        mode = {"exact": AlignmentMode.EXACT_PERMUTATION,
                "local": AlignmentMode.LOCAL_SEARCH}.get(options.get("mode", "exact"))
        if mode is None:
            raise ValidationError("mode must be 'exact' or 'local'")
        value = cut_distance(
            load_graphon(options["graphon"]), load_graphon(options["graphon2"]),
            mode=mode, seed=SampleSeed(options.get("seed", 0)),
        )
        print(repr(value))
        return EXIT_OK

    if command == "count":
        if not options.get("family"):
            raise ValidationError("need --family")
        fam = load_family(options["family"])
        sizes = _sizes_from(options)
        rows = []
        for n in sizes:
            result = count_result(fam, n)
            rows.append((result.n, result.labeled_count,
                         result.unlabeled_count, result.speed_exponent))
        report = ExperimentReport(
            columns=("n", "labeled_count", "unlabeled_count", "speed_exponent"),
            rows=rows,
            metadata={"experiment": "count"},
        )
        if options.get("out"):
            report.write(options["out"])
        _emit(report, options.get("out"))
        if options.get("dump"):
            with open(options["dump"], "w", encoding="ascii") as handle:
                for n in sizes:
                    for G in census_representatives(fam, n):
                        handle.write(to_graph6(G) + "\n")
        return EXIT_OK

    if command == "sample":
        if not options.get("graphon"):
            raise ValidationError("need --graphon")
        if options.get("n") is None:
            raise ValidationError("need --n")
        W = load_graphon(options["graphon"])
        n = options["n"]
        count = options.get("samples", 1)
        seed = options.get("seed", 0)
        lines = [
            to_graph6(sample_wrandom(W, n, SampleSeed(seed, stream)))
            for stream in range(count)
        ]
        text = "".join(line + "\n" for line in lines)
        if options.get("out"):
            with open(options["out"], "w", encoding="ascii") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK

    if command == "converge":
        report = run_convergence(_experiment_config(options, need_family=True))
        _emit(report, options.get("out"))
        return EXIT_OK

    if command == "speed":
        report = run_speed(_experiment_config(options, need_family=True))
        _emit(report, options.get("out"))
        return EXIT_OK

    if command == "audit":
        report = run_entropy_audit(options.get("tmax", 8),
                                   out=options.get("out"))
        _emit(report, options.get("out"))
        return EXIT_OK

    if command == "couple":
        report = run_coupling_demo(_experiment_config(options, need_family=False))
        _emit(report, options.get("out"))
        return EXIT_OK

    raise ValidationError(f"unknown command {command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValidationError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
