"""Per-layer call timing, installed from outside the library.

``install`` replaces each traced function of graphlimitlab with a timing
wrapper in every graphlimitlab module that holds a reference to it, so a
name imported with ``from .x import f`` is traced too.  The oracle
methods are replaced on the class.  Nothing is added to the library.

Spans are aggregated in memory per traced name: calls, total seconds and
the seconds covered by traced child spans, so a layer's self time is its
total minus its children.  Some names also count what their arguments or
results say (steps run, edges accepted, largest k).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (traced name, defining module, attribute); a dotted attribute is a method
TRACED = (
    ("rng.raw", "graphlimitlab.rng", "CounterStream.raw"),
    ("rng.raw_with_keys", "graphlimitlab.rng", "raw_with_keys"),
    ("sampler.sample_wrandom", "graphlimitlab.sampler", "sample_wrandom"),
    ("graphon.cut_norm", "graphlimitlab.graphon", "cut_norm"),
    ("graphon.cut_norm_estimate", "graphlimitlab.graphon", "cut_norm_estimate"),
    ("graphon.difference_kernel", "graphlimitlab.graphon", "difference_kernel"),
    ("graphon.empirical_graphon", "graphlimitlab.graphon", "empirical_graphon"),
    ("graphs.canonical_key", "graphlimitlab.graphs", "canonical_key"),
    ("graphs.automorphism_count", "graphlimitlab.graphs", "automorphism_count"),
    ("census.edge_ok", "graphlimitlab.census", "AnchoredOracle.edge_ok"),
    ("census.vertex_ok", "graphlimitlab.census", "AnchoredOracle.vertex_ok"),
    ("census.labeled_class_masks", "graphlimitlab.census", "labeled_class_masks"),
    ("census.census_representatives", "graphlimitlab.census",
     "census_representatives"),
    ("census.mcmc_trace", "graphlimitlab.census", "mcmc_trace"),
    ("census.mcmc_ensemble", "graphlimitlab.census", "mcmc_ensemble"),
    ("experiments.estimate_distance", "graphlimitlab.experiments",
     "estimate_distance_to_block_target"),
    ("experiments.run_convergence", "graphlimitlab.experiments",
     "run_convergence"),
    ("experiments.run_speed", "graphlimitlab.experiments", "run_speed"),
    ("cli.main", "graphlimitlab.cli", "main"),
)


class Span:
    """Aggregate of every call to one traced name."""

    __slots__ = ("calls", "total", "children", "hits", "work", "peak")

    def __init__(self):
        self.calls = 0
        self.total = 0.0     # seconds inside the call
        self.children = 0.0  # seconds inside traced calls it made
        self.hits = 0        # calls whose result was true
        self.work = 0        # steps (chains x steps for the ensemble)
        self.peak = 0        # largest kernel block count seen

    @property
    def self_s(self) -> float:
        return self.total - self.children


def _observe_cut_norm(span, args, kwargs, result):
    span.peak = max(span.peak, args[0].k)


def _observe_truth(span, args, kwargs, result):
    span.hits += bool(result)


def _observe_trace(span, args, kwargs, result):
    # mcmc_trace(fam, n, checkpoints, seed) runs max(checkpoints) steps
    checkpoints = args[2] if len(args) > 2 else kwargs["checkpoints"]
    span.work += max(int(c) for c in checkpoints)


def _observe_ensemble(span, args, kwargs, result):
    # mcmc_ensemble(fam, n, steps, seed, chains, ...)
    bound = dict(zip(("fam", "n", "steps", "seed", "chains"), args), **kwargs)
    span.work += int(bound["steps"]) * int(bound["chains"])


OBSERVERS = {
    "graphon.cut_norm": _observe_cut_norm,
    "census.edge_ok": _observe_truth,
    "census.vertex_ok": _observe_truth,
    "census.mcmc_trace": _observe_trace,
    "census.mcmc_ensemble": _observe_ensemble,
}


class Tracer:
    """Owns the span aggregates of one traced process."""

    def __init__(self):
        self.spans = {name: Span() for name, _, _ in TRACED}
        self._open = []  # child seconds accumulated by each open span

    def wrap(self, name, fn):
        span = self.spans[name]
        observe = OBSERVERS.get(name)
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                span.children += open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                span.calls += 1
                span.total += elapsed
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every traced name wherever graphlimitlab holds a reference."""
    for _, module_name, _ in TRACED:
        importlib.import_module(module_name)
    modules = [m for key, m in list(sys.modules.items())
               if key == "graphlimitlab" or key.startswith("graphlimitlab.")]
    for name, module_name, attribute in TRACED:
        owner = sys.modules[module_name]
        if "." in attribute:
            class_name, method = attribute.split(".")
            cls = getattr(owner, class_name)
            setattr(cls, method, tracer.wrap(name, getattr(cls, method)))
            continue
        original = getattr(owner, attribute)
        wrapper = tracer.wrap(name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


# Each per-layer metric: (name, unit, better, value from the spans).  The
# comment above each group names the end-to-end metric it should move and
# on which workload; a metric of a layer a workload never calls reads 0.
LAYER_METRICS = (
    # wall_s on converge-k3 (two exact calls at k = 20, most of its time);
    # no calls on converge-c5, speed-k3 or ensemble-k3n5
    ("graphon.cut_norm.calls", "count", "lower",
     lambda s, reps: s["graphon.cut_norm"].calls),
    ("graphon.cut_norm.s", "s", "lower",
     lambda s, reps: s["graphon.cut_norm"].total),
    ("graphon.cut_norm.max_k", "count", "lower",
     lambda s, reps: s["graphon.cut_norm"].peak),
    # wall_s on converge-k3 at n = 40/80; a small share of converge-c5
    ("graphon.cut_norm_estimate.calls", "count", "lower",
     lambda s, reps: s["graphon.cut_norm_estimate"].calls),
    ("graphon.cut_norm_estimate.s", "s", "lower",
     lambda s, reps: s["graphon.cut_norm_estimate"].total),
    ("graphon.difference_kernel.s", "s", "lower",
     lambda s, reps: s["graphon.difference_kernel"].total),
    ("graphon.empirical_graphon.s", "s", "lower",
     lambda s, reps: s["graphon.empirical_graphon"].total),
    # self time is about the partition search
    ("experiments.estimate_distance.calls", "count", "lower",
     lambda s, reps: s["experiments.estimate_distance"].calls),
    ("experiments.estimate_distance.self_s", "s", "lower",
     lambda s, reps: s["experiments.estimate_distance"].self_s),
    # wall_s on converge-c5 (nearly all of it) and converge-k3
    ("census.mcmc_trace.calls", "count", "lower",
     lambda s, reps: s["census.mcmc_trace"].calls),
    ("census.mcmc_trace.steps", "count", "lower",
     lambda s, reps: s["census.mcmc_trace"].work),
    ("census.mcmc_trace.self_s", "s", "lower",
     lambda s, reps: s["census.mcmc_trace"].self_s),
    ("census.steps_per_s", "1/s", "higher",
     lambda s, reps: _ratio(s["census.mcmc_trace"].work,
                            s["census.mcmc_trace"].total)),
    ("census.edge_ok.calls", "count", "lower",
     lambda s, reps: s["census.edge_ok"].calls),
    ("census.edge_ok.s", "s", "lower",
     lambda s, reps: s["census.edge_ok"].total),
    ("census.edge_ok.accept_ratio", "ratio", "higher",
     lambda s, reps: _ratio(s["census.edge_ok"].hits,
                            s["census.edge_ok"].calls)),
    # wall_s and peak_rss_mib on speed-k3 only
    ("graphs.canonical_key.calls", "count", "lower",
     lambda s, reps: s["graphs.canonical_key"].calls),
    ("graphs.canonical_key.s", "s", "lower",
     lambda s, reps: s["graphs.canonical_key"].total),
    ("graphs.automorphism_count.calls", "count", "lower",
     lambda s, reps: s["graphs.automorphism_count"].calls),
    ("graphs.automorphism_count.s", "s", "lower",
     lambda s, reps: s["graphs.automorphism_count"].total),
    ("census.vertex_ok.calls", "count", "lower",
     lambda s, reps: s["census.vertex_ok"].calls),
    ("census.vertex_ok.pass_ratio", "ratio", "higher",
     lambda s, reps: _ratio(s["census.vertex_ok"].hits,
                            s["census.vertex_ok"].calls)),
    ("census.dedup_ratio", "ratio", "higher",
     lambda s, reps: _ratio(reps, s["graphs.canonical_key"].calls)),
    ("census.census_representatives.self_s", "s", "lower",
     lambda s, reps: s["census.census_representatives"].self_s),
    ("census.labeled_class_masks.s", "s", "lower",
     lambda s, reps: s["census.labeled_class_masks"].total),
    # wall_s on both converge workloads: the chain's scalar draws (one or
    # two per step) and the calibration series' draws
    ("rng.raw.calls", "count", "lower",
     lambda s, reps: s["rng.raw"].calls),
    ("rng.raw.s", "s", "lower",
     lambda s, reps: s["rng.raw"].total),
    # wall_s on ensemble-k3n5
    ("rng.raw_with_keys.calls", "count", "lower",
     lambda s, reps: s["rng.raw_with_keys"].calls),
    ("rng.raw_with_keys.s", "s", "lower",
     lambda s, reps: s["rng.raw_with_keys"].total),
    ("census.mcmc_ensemble.self_s", "s", "lower",
     lambda s, reps: s["census.mcmc_ensemble"].self_s),
    ("census.ensemble_steps_per_s", "1/s", "higher",
     lambda s, reps: _ratio(s["census.mcmc_ensemble"].work,
                            s["census.mcmc_ensemble"].total)),
    # the calibration series of both converge workloads; under 1% of either
    ("sampler.sample_wrandom.calls", "count", "lower",
     lambda s, reps: s["sampler.sample_wrandom"].calls),
    ("sampler.sample_wrandom.s", "s", "lower",
     lambda s, reps: s["sampler.sample_wrandom"].total),
    # setup_s and wall_s on the CLI workloads: argument parsing, family
    # load and CSV rendering (the drivers below it are traced spans)
    ("cli.main.self_s", "s", "lower",
     lambda s, reps: s["cli.main"].self_s),
)


def layer_metrics(tracer: Tracer, representatives: int) -> dict:
    """Per-layer metric values of one traced repetition.

    ``representatives`` is the number of census representatives built,
    over every level, which the dedup ratio sets against the number of
    canonical labellings.
    """
    return {name: value(tracer.spans, representatives)
            for name, _, _, value in LAYER_METRICS}
