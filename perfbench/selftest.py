"""Checks of the benchmark itself, run on demand (about three minutes):

    python3 -m pytest -q perfbench/selftest.py

Each workload runs once untraced and twice traced at the reference seed,
each time in a fresh worker process as the benchmark runs it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import pytest

from probe import MIN_PROBES
from run import END_TO_END, HERE, ROOT, _repetition
from tracer import LAYER_METRICS
from workloads import ENSEMBLE_STEPS, REFERENCE_SEED, WORKLOADS

# per workload: layer counts that must be non-zero and ones that must be 0
COVERAGE = {
    "converge-k3": (
        ["graphon.cut_norm.calls", "graphon.cut_norm_estimate.calls",
         "experiments.estimate_distance.calls", "census.mcmc_trace.calls",
         "census.edge_ok.calls", "rng.raw.calls",
         "sampler.sample_wrandom.calls"],
        ["rng.raw_with_keys.calls", "census.vertex_ok.calls"],
    ),
    "converge-c5": (
        ["graphon.cut_norm_estimate.calls", "experiments.estimate_distance.calls",
         "census.mcmc_trace.calls", "census.edge_ok.calls", "rng.raw.calls",
         "sampler.sample_wrandom.calls"],
        ["graphon.cut_norm.calls", "rng.raw_with_keys.calls"],
    ),
    "speed-k3": (
        ["graphs.canonical_key.calls", "graphs.automorphism_count.calls",
         "census.vertex_ok.calls", "census.edge_ok.calls"],
        ["graphon.cut_norm.calls", "graphon.cut_norm_estimate.calls",
         "census.mcmc_trace.calls", "sampler.sample_wrandom.calls",
         "rng.raw.calls", "rng.raw_with_keys.calls"],
    ),
    "ensemble-k3n5": (
        ["rng.raw_with_keys.calls", "census.edge_ok.calls"],
        ["graphon.cut_norm.calls", "census.mcmc_trace.calls",
         "sampler.sample_wrandom.calls", "census.vertex_ok.calls"],
    ),
}

COUNTS = [name for name, unit, _, _ in LAYER_METRICS if unit == "count"]


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload):
        if workload not in cache:
            deadline = time.monotonic() + 600
            cache[workload] = (
                _repetition(workload, REFERENCE_SEED, False, deadline),
                [_repetition(workload, REFERENCE_SEED, True, deadline)
                 for _ in range(2)],
            )
        return cache[workload]

    return get


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_outputs_match_reference_and_tracing_keeps_them(runs, workload):
    plain, traced = runs(workload)
    for record in [plain, *traced]:
        assert not record.get("problems"), record.get("problems")
        assert record["digest"] == WORKLOADS[workload].reference


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_runs_rescale_by_their_probes(runs, workload):
    plain = runs(workload)[0]
    assert plain["probes"] >= MIN_PROBES
    assert 0 < plain["probe_s"] < 0.1 * plain["wall_s"]
    assert plain["wall_ref_s"] > 0 and plain["cpu_ref_s"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_call_counts_repeat(runs, workload):
    _, (first, second) = runs(workload)
    assert ({name: first["layers"][name] for name in COUNTS}
            == {name: second["layers"][name] for name in COUNTS})


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_layer_coverage(runs, workload):
    layers = runs(workload)[1][0]["layers"]
    nonzero, zero = COVERAGE[workload]
    assert {name: layers[name] for name in nonzero if layers[name] == 0} == {}
    assert {name: layers[name] for name in zero if layers[name] != 0} == {}


def test_exact_counts(runs):
    k3 = runs("converge-k3")[1][0]["layers"]
    assert k3["graphon.cut_norm.calls"] == 2  # class and calibration at n=20
    assert k3["graphon.cut_norm.max_k"] == 20
    # the chain draws at least once per step
    assert k3["rng.raw.calls"] > k3["census.mcmc_trace.steps"]
    ensemble = runs("ensemble-k3n5")[1][0]["layers"]
    assert ensemble["rng.raw_with_keys.calls"] == 2 * ENSEMBLE_STEPS
    assert ensemble["census.ensemble_steps_per_s"] > 0


def test_speed_repetitions_start_with_cold_caches(runs):
    # a warm census cache would skip canonical labelling altogether
    _, (first, second) = runs("speed-k3")
    calls = first["layers"]["graphs.canonical_key.calls"]
    assert calls > 0
    assert second["layers"]["graphs.canonical_key.calls"] == calls


def test_spec_lists_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as handle:
        spec = json.load(handle)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    layers = {(name, unit, better) for name, unit, better, _ in LAYER_METRICS}
    layers |= {("trace.wall_s", "s", "lower"), ("trace.overhead_s", "s", "lower")}
    assert {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]} == layers
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)


def test_refuses_to_run_without_the_sources():
    bare = tempfile.mkdtemp(prefix="bare-", dir=HERE)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("bare-*", "work-*",
                                                      "__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "speed-k3",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
