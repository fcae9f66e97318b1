"""Command-line front end.

Subcommands: entropy, cutdist, sample, converge, speed, audit, couple.
Each subcommand takes only the options it reads (``_COMMANDS``, drawn from
the one option table ``_OPTIONS``).  Options may also come from a JSON
file via --config, whose keys must be options of the subcommand; explicit
flags win, values from the file are checked as the flags are, and null
counts as not given.  Output goes to --out where the subcommand has it,
otherwise to stdout.  Exit codes: 0 success, 2 validation error, 3 budget
error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .census import census_representatives
from .errors import BudgetError, ValidationError
from .experiments import (
    ExperimentConfig,
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

# option name -> argparse keywords of its flag, --name with "_" as "-"
_OPTIONS = {
    "family": dict(help="family file, one graph6 per line"),
    "n": dict(type=int, help="single size"),
    "sizes": dict(help="comma-separated sizes"),
    "samples": dict(type=int, help="samples per size"),
    "burnin": dict(type=int, help="MCMC burn-in steps"),
    "seed": dict(type=int, help="master seed"),
    "r": dict(type=int, help="override the target block count"),
    "graphon": dict(help="graphon JSON path"),
    "graphon2": dict(help="second graphon JSON path (couple: the upper one)"),
    "mode": dict(choices=["exact", "local"],
                 help="alignment mode (default exact)"),
    "compare_crs": dict(action="store_true",
                        help="also count the r-colorable class"),
    "dump": dict(help="write census representatives as graph6"),
    "tmax": dict(type=int, help="largest block count (default 8)"),
    "out": dict(help="output path (default stdout)"),
}

# subcommand -> (help, the options it reads)
_COMMANDS = {
    "entropy": ("entropy of a graphon", ("graphon",)),
    "cutdist": ("cut distance of two graphons",
                ("graphon", "graphon2", "mode", "seed")),
    "sample": ("sample W-random graphs as graph6",
               ("graphon", "n", "samples", "seed", "out")),
    "converge": ("distance-to-target experiment",
                 ("family", "n", "sizes", "samples", "burnin", "seed", "r",
                  "out")),
    "speed": ("exact counts and speed exponents",
              ("family", "n", "sizes", "seed", "compare_crs", "dump", "out")),
    "audit": ("entropy audit of block graphons", ("tmax", "out")),
    "couple": ("coupled sampling demonstration",
               ("graphon", "graphon2", "n", "sizes", "samples", "seed",
                "out")),
}

_INT_OPTIONS = frozenset(name for name, kwargs in _OPTIONS.items()
                         if kwargs.get("type") is int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphlimitlab",
        description="Graph-limit laboratory: step graphons, cut distances, "
                    "W-random sampling, and exact counting of "
                    "forbidden-subgraph classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON file with option values")
        for name in names:
            p.add_argument("--" + name.replace("_", "-"), **_OPTIONS[name])
    return parser


def _parse_sizes(text):
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise ValidationError(f"cannot parse sizes {text!r}") from exc


def _config_int(key: str, value) -> int:
    """Convert a --config value as argparse's int converts the flag's text."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValidationError(f"--config {key} must be an integer, got {value!r}")
    try:
        return int(value)
    except ValueError as exc:
        raise ValidationError(
            f"--config {key} must be an integer, got {value!r}") from exc


def _config_value(key: str, value):
    """Check a --config value as argparse checks the flag of its kind."""
    kwargs = _OPTIONS[key]
    if kwargs.get("type") is int:
        return _config_int(key, value)
    if kwargs.get("action") == "store_true":
        if not isinstance(value, bool):
            raise ValidationError(
                f"--config {key} must be true or false, got {value!r}")
        return value
    if key == "sizes" and isinstance(value, list):
        return tuple(_config_int(key, n) for n in value)
    if not isinstance(value, str):
        raise ValidationError(f"--config {key} must be a string, got {value!r}")
    if "choices" in kwargs and value not in kwargs["choices"]:
        raise ValidationError(
            f"--config {key} must be one of {', '.join(kwargs['choices'])}, "
            f"got {value!r}")
    return value


def _merge_config(args: argparse.Namespace) -> dict:
    merged = {}
    if args.config:
        with open(args.config, "r", encoding="ascii") as handle:
            loaded = json.load(handle)
        if not isinstance(loaded, dict):
            raise ValidationError("--config must hold a JSON object")
        unknown = sorted(set(loaded) - set(_COMMANDS[args.command][1]))
        if unknown:
            raise ValidationError(
                f"unknown --config keys for {args.command}: {', '.join(unknown)}"
            )
        for key, value in loaded.items():
            if value is not None:  # null means not given, as for an absent flag
                merged[key] = _config_value(key, value)
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None and value is not False:
            merged[key] = value
    return merged


def _sizes_from(options: dict):
    sizes = options.get("sizes")
    if isinstance(sizes, str):
        return _parse_sizes(sizes)
    if sizes is not None:
        return sizes
    if options.get("n") is not None:
        return (options["n"],)
    raise ValidationError("need --n or --sizes")


def _experiment_config(options: dict) -> ExperimentConfig:
    return ExperimentConfig(
        family=load_family(options["family"]) if options.get("family") else None,
        sizes=_sizes_from(options),
        samples=options.get("samples", 20),
        burnin=options.get("burnin"),
        seed=options.get("seed", 0),
        r_override=options.get("r"),
        compare_crs=options.get("compare_crs", False),
    )


def _emit(text: str, out) -> None:
    """Write a subcommand's output to the --out path, or to stdout."""
    if out:
        with open(out, "w", encoding="ascii", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _run(args: argparse.Namespace) -> int:
    options = _merge_config(args)
    command = args.command

    if command == "entropy":
        if not options.get("graphon"):
            raise ValidationError("need --graphon")
        print(repr(entropy(load_graphon(options["graphon"]))))
        return EXIT_OK

    if command == "cutdist":
        if not (options.get("graphon") and options.get("graphon2")):
            raise ValidationError("need --graphon and --graphon2")
        mode = (AlignmentMode.LOCAL_SEARCH if options.get("mode") == "local"
                else AlignmentMode.EXACT_PERMUTATION)
        value = cut_distance(
            load_graphon(options["graphon"]), load_graphon(options["graphon2"]),
            mode=mode, seed=SampleSeed(options.get("seed", 0)),
        )
        print(repr(value))
        return EXIT_OK

    if command == "sample":
        if not options.get("graphon"):
            raise ValidationError("need --graphon")
        if options.get("n") is None:
            raise ValidationError("need --n")
        count = options.get("samples", 1)
        if count < 1:
            raise ValidationError("samples must be >= 1")
        W = load_graphon(options["graphon"])
        seed = options.get("seed", 0)
        _emit("".join(
            to_graph6(sample_wrandom(W, options["n"], SampleSeed(seed, stream)))
            + "\n" for stream in range(count)), options.get("out"))
        return EXIT_OK

    if command == "converge":
        report = run_convergence(_experiment_config(options))
    elif command == "speed":
        config = _experiment_config(options)
        report = run_speed(config)
        if options.get("dump"):
            with open(options["dump"], "w", encoding="ascii") as handle:
                for n in config.sizes:
                    for G in census_representatives(config.family, n):
                        handle.write(to_graph6(G) + "\n")
    elif command == "audit":
        report = run_entropy_audit(options.get("tmax", 8))
    else:  # couple
        if not (options.get("graphon") and options.get("graphon2")):
            raise ValidationError("need --graphon and --graphon2")
        report = run_coupling_demo(_experiment_config(options),
                                   load_graphon(options["graphon"]),
                                   load_graphon(options["graphon2"]))
    _emit(report.to_csv_text(), options.get("out"))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValidationError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
