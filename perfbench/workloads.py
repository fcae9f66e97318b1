"""The benchmark's workloads: the acceptance drivers as users run them.

Each workload builds its inputs from a seed (``prepare``), runs once
(the returned callable, which yields the output bytes that are hashed),
and checks invariants of its output that hold for any seed (``check``).
At the reference seed the output's sha256 must also equal ``reference``.

The ``sampler`` layer has no workload of its own: it is under 1% of every
driver, and the CLI ``sample`` path is capped at n <= 62 by the graph6
encoder.  It is traced through the calibration series of both converge
workloads.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from probe import NUMPY, PYTHON, Probe

REFERENCE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (work directory, seed) -> run(); run() returns the output bytes
    prepare: Callable
    # output bytes -> list of violated invariants
    check: Callable
    reference: str
    # the host-speed probe that does the same kind of work (probe.py)
    probe: Probe = PYTHON


def _family_graph(name: str):
    from graphlimitlab.graphs import SimpleGraph
    return {"K3": SimpleGraph.complete(3), "C5": SimpleGraph.cycle(5)}[name]


def _cli_workload(command: str, family: str, options: list) -> Callable:
    """prepare() for ``graphlimitlab <command> --family <family> ...``."""

    def prepare(workdir: str, seed: int):
        from graphlimitlab import cli
        from graphlimitlab.graphs import to_graph6

        path = os.path.join(workdir, f"{family}.g6")
        with open(path, "w", encoding="ascii") as handle:
            handle.write(to_graph6(_family_graph(family)) + "\n")
        argv = [command, "--family", path, *options, "--seed", str(seed)]

        def run() -> bytes:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)  # looked up per call, so tracing applies
            if code != 0:
                raise RuntimeError(f"graphlimitlab {command} exited with {code}")
            return buffer.getvalue().encode("ascii")

        return run

    return prepare


def _parse_report(output: bytes):
    """(metadata, rows as dicts) of an ExperimentReport CSV."""
    lines = output.decode("ascii").splitlines()
    metadata = dict(line[2:].split("=", 1) for line in lines
                    if line.startswith("# "))
    rows = list(csv.DictReader(line for line in lines
                               if not line.startswith("# ")))
    return metadata, rows


def _check_converge(sizes):
    def check(output: bytes) -> list:
        metadata, rows = _parse_report(output)
        problems = []
        if metadata.get("r") != "2":
            problems.append(f"metadata r={metadata.get('r')!r}, expected 2")
        expected = [(series, str(n)) for n in sizes
                    for series in ("class", "calibration")]
        if [(row["series"], row["n"]) for row in rows] != expected:
            problems.append("rows are not class/calibration per size")
        for row in rows:
            distance = float(row["mean_distance"])
            if not 0.0 <= distance <= 1.0 or row["samples"] != "1":
                problems.append(f"bad row {row}")
        return problems

    return check


# labeled triangle-free graphs on 3, 4, 5 vertices; unlabeled on 8
_K3_LABELED = {3: 7, 4: 41, 5: 388}
_K3_UNLABELED_8 = 410


def _check_speed(output: bytes) -> list:
    _, rows = _parse_report(output)
    by_n = {int(row["n"]): row for row in rows}
    problems = []
    if sorted(by_n) != list(range(3, 9)):
        return [f"sizes {sorted(by_n)}, expected 3..8"]
    for n, count in _K3_LABELED.items():
        if int(by_n[n]["labeled_count"]) != count:
            problems.append(f"labeled count at n={n} is "
                            f"{by_n[n]['labeled_count']}, expected {count}")
    if int(by_n[8]["unlabeled_count"]) != _K3_UNLABELED_8:
        problems.append(f"unlabeled count at n=8 is "
                        f"{by_n[8]['unlabeled_count']}, expected 410")
    return problems


ENSEMBLE_N = 5
ENSEMBLE_CHAINS = 10_000
ENSEMBLE_STEPS = 30_000


def _prepare_ensemble(workdir: str, seed: int):
    from graphlimitlab import census
    from graphlimitlab.graphs import ForbiddenFamily
    from graphlimitlab.rng import SampleSeed

    family = ForbiddenFamily([_family_graph("K3")])
    sample_seed = SampleSeed(seed, 0)

    def run() -> bytes:
        finals, occupation = census.mcmc_ensemble(
            family, ENSEMBLE_N, ENSEMBLE_STEPS, sample_seed, ENSEMBLE_CHAINS,
            collect_occupation=True,
        )
        return finals.astype("<u8").tobytes() + occupation.astype("<i8").tobytes()

    return run


def _triangle_free_masks(n: int) -> np.ndarray:
    """Brute force, independent of the library: mask -> triangle-free."""
    index = {pair: p for p, pair in enumerate(combinations(range(n), 2))}
    triangles = [(1 << index[(a, b)]) | (1 << index[(a, c)]) | (1 << index[(b, c)])
                 for a, b, c in combinations(range(n), 3)]
    masks = np.arange(1 << len(index), dtype=np.int64)
    free = np.ones(masks.shape, dtype=bool)
    for triangle in triangles:
        free &= (masks & triangle) != triangle
    return free


def _check_ensemble(output: bytes) -> list:
    finals = np.frombuffer(output[:8 * ENSEMBLE_CHAINS], dtype="<u8")
    occupation = np.frombuffer(output[8 * ENSEMBLE_CHAINS:], dtype="<i8")
    free = _triangle_free_masks(ENSEMBLE_N)
    problems = []
    if occupation.shape != free.shape:
        return [f"occupation has {occupation.size} cells, expected {free.size}"]
    if not free[finals.astype(np.int64)].all():
        problems.append("a final state contains a triangle")
    if occupation[~free].any():
        problems.append("the chains visited a graph with a triangle")
    if int(occupation.sum()) != ENSEMBLE_CHAINS * ENSEMBLE_STEPS:
        problems.append("occupation does not count every chain step")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload(
        "converge-k3",
        "graphlimitlab converge on {K3} at n=20,40,80, 1 sample per size: "
        "the guiding experiment; two exact cut norms at k=20 and the chain",
        _cli_workload("converge", "K3", ["--sizes", "20,40,80", "--samples", "1"]),
        _check_converge((20, 40, 80)),
        "993003addbb9b7a999b7ad11563341f1906987768e0cb0aa0275914774020315",
    ),
    Workload(
        "converge-c5",
        "graphlimitlab converge on {C5} at n=30, 1 sample: the oracle-bound "
        "chain; k=30 routes to the estimator, so no exact cut norm runs",
        _cli_workload("converge", "C5", ["--sizes", "30", "--samples", "1"]),
        _check_converge((30,)),
        "5fd977ab64dd5570065d9904d1b3a00cf34a23d59fc2ddce9270a914e4c196b3",
    ),
    Workload(
        "speed-k3",
        "graphlimitlab speed on {K3} at n=3..8: census and canonical "
        "labelling from cold caches; no graphon, sampler or chain",
        _cli_workload("speed", "K3", ["--sizes", "3,4,5,6,7,8"]),
        _check_speed,
        "56a38f21e68edc8a47ab8203f9993edc2055b5490ad9910c6f84c2b06bd8e775",
    ),
    Workload(
        "ensemble-k3n5",
        "mcmc_ensemble on {K3}, n=5, 10^4 chains x 3*10^4 steps with "
        "occupation: the only user of the vectorised rng.raw_with_keys path",
        _prepare_ensemble,
        _check_ensemble,
        "6ca0ab4e649ce986b9711965f3e1aeab84dd78898731c470be34d624dde42441",
        NUMPY,
    ),
)}
