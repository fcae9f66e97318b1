"""Experiment drivers: convergence of random family-free graphs to their
block-model limit, speed of forbidden classes, entropy audits of capped
block graphons, and coupled-sampling demonstrations.

Every driver consumes an ExperimentConfig and emits an ExperimentReport
whose CSV rendering is byte-identical across reruns with the same config:
all randomness flows through (config.seed, derived stream) pairs, and all
aggregation happens in a fixed order.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .census import (
    exact_uniform_sample,
    mcmc_trace,
    LABELED_DIRECT_BUDGET,
    count_labeled,
    count_result,
)
from .errors import ValidationError
from .graphon import (
    StepGraphon,
    aligned_cut_norm,
    cap_at_half,
    difference_kernel,
    empirical_graphon,
    entropy,
    make_wrs,
    pointwise_leq,
)
from .graphs import ForbiddenFamily, SimpleGraph, coloring_number, crs_member
from .rng import SampleSeed, SequentialDraws
from .sampler import sample_coupled, sample_wrandom

# stream id layout: purpose base + size index * stride + sample index
_STRIDE = 1000
_STREAM_CHAIN = 1_000_000
_STREAM_ESTIMATE = 2_000_000
_STREAM_CALIBRATE = 3_000_000
_STREAM_CALIBRATE_ESTIMATE = 4_000_000
_STREAM_COUPLE = 5_000_000
_STREAM_EXACT = 6_000_000
_STREAM_PARTITION = 7_000_000

# local-search starts of the partition search
PARTITION_RESTARTS = 16


@dataclass
class ExperimentConfig:
    """Shared configuration of the experiment drivers.

    ``burnin`` defaults, per size n with P = C(n,2) vertex pairs, to
    ceil(20 P ln P); the default is engineering judgment, recorded in the
    report metadata.
    """

    family: Optional[ForbiddenFamily] = None
    sizes: Sequence[int] = (20, 40, 80)
    samples: int = 20
    burnin: Optional[int] = None
    seed: int = 0
    r_override: Optional[int] = None
    compare_crs: bool = False

    def __post_init__(self):
        self.sizes = tuple(int(n) for n in self.sizes)
        if any(b >= a for a, b in zip(self.sizes[1:], self.sizes)):
            raise ValidationError("sizes must be strictly increasing")
        if self.samples < 1:
            raise ValidationError("samples must be >= 1")
        # stream ids are base + size index * _STRIDE + sample index
        if self.samples > _STRIDE:
            raise ValidationError(f"samples must be <= {_STRIDE}")
        if len(self.sizes) > _STRIDE:
            raise ValidationError(f"at most {_STRIDE} sizes are allowed")
        if self.burnin is not None and self.burnin < 0:
            raise ValidationError("burnin must be >= 0")
        if self.r_override is not None and self.r_override < 1:
            raise ValidationError("r override must be >= 1")
        SampleSeed(self.seed)  # a seed outside 0..2^64-1 is a ValidationError

    def resolved_family(self) -> ForbiddenFamily:
        if self.family is not None:
            return self.family
        raise ValidationError("no family given")

    def burnin_for(self, n: int) -> int:
        if self.burnin is not None:
            return self.burnin
        npairs = n * (n - 1) // 2
        if npairs < 2:
            return 64
        return math.ceil(20 * npairs * math.log(npairs))


@dataclass
class ExperimentReport:
    """Tabular result: fixed columns, one row per configured unit."""

    columns: tuple
    rows: list
    metadata: dict = field(default_factory=dict)

    def to_csv_text(self) -> str:
        buffer = io.StringIO()
        for key in self.metadata:
            buffer.write(f"# {key}={self.metadata[key]}\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_render(cell) for cell in row])
        return buffer.getvalue()

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def _render(cell) -> str:
    if isinstance(cell, float):
        return repr(cell)
    return str(cell)


def _mean(values) -> float:
    return math.fsum(values) / len(values)


def _stdev(values) -> float:
    if len(values) < 2:
        return 0.0
    m = _mean(values)
    return math.sqrt(math.fsum((v - m) ** 2 for v in values) / (len(values) - 1))


def _lag1_autocorrelation(values) -> float:
    if len(values) < 3:
        return 0.0
    m = _mean(values)
    denom = math.fsum((v - m) ** 2 for v in values)
    if denom == 0.0:
        return 0.0
    num = math.fsum((a - m) * (b - m) for a, b in zip(values, values[1:]))
    return num / denom


# ---------------------------------------------------------------------------
# Distance estimator: empirical graphon vs the balanced block target
# ---------------------------------------------------------------------------

def estimate_distance_to_block_target(G: SimpleGraph, r: int,
                                      seed: SampleSeed) -> float:
    """Cut norm of G's empirical graphon minus the r-block target (0 on
    diagonal blocks, 1/2 off-diagonal), with G's vertices aligned to the
    target by a partition search.

    A local search over vertex r-partitions (balanced seeded starts,
    first-improvement single-vertex moves) minimizes intra-part edges plus
    the deviation of every cross density from 1/2; the vertices are then
    ordered part by part and the cut norm of the difference kernel on the
    partition-refined common structure is taken by ``aligned_cut_norm``.
    With at most 20 blocks that norm is exact, and, since any alignment is
    a coupling, an upper bound on the cut distance.  Beyond it the value
    is a hill-climbed lower bound on the aligned norm, so it bounds the
    cut distance from neither side.
    """
    if r < 1:
        raise ValidationError("target needs r >= 1")
    parts = _search_partition(G, r, seed)
    order = sorted(range(G.n), key=lambda v: (parts[v], v))
    position = [0] * G.n
    for pos, v in enumerate(order):
        position[v] = pos
    aligned = empirical_graphon(G.relabeled(position))
    return aligned_cut_norm(
        difference_kernel(aligned, make_wrs(r, 0)),
        SampleSeed(seed.seed, seed.stream + _STREAM_PARTITION),
    )


def _search_partition(G: SimpleGraph, r: int, seed: SampleSeed) -> list:
    n = G.n
    adj = G.adjacency_masks()
    npairs = max(1, n * (n - 1) // 2)
    draws = SequentialDraws(seed)

    def objective(sizes, within, between):
        deviation = 0.0
        for a in range(r):
            for b in range(a + 1, r):
                pairs_ab = sizes[a] * sizes[b]
                if pairs_ab:
                    deviation += abs(between[a][b] - pairs_ab / 2.0)
        return (sum(within) + deviation) / npairs

    best_parts = None
    best_value = None
    for restart in range(PARTITION_RESTARTS):
        parts = [v % r for v in range(n)]
        if restart > 0:  # balanced start, then a seeded shuffle
            for a in range(n - 1, 0, -1):
                b = draws.next_below(a + 1)
                parts[a], parts[b] = parts[b], parts[a]
        sizes = [0] * r
        for v in range(n):
            sizes[parts[v]] += 1
        within = [0] * r
        between = [[0] * r for _ in range(r)]
        for i in range(n):
            for j in range(i + 1, n):
                if adj[i] >> j & 1:
                    a, b = parts[i], parts[j]
                    if a == b:
                        within[a] += 1
                    else:
                        between[min(a, b)][max(a, b)] += 1
        value = objective(sizes, within, between)

        improved = True
        while improved:
            improved = False
            for v in range(n):
                current = parts[v]
                neighbor_parts = [0] * r
                for u in range(n):
                    if adj[v] >> u & 1:
                        neighbor_parts[parts[u]] += 1
                for target in range(r):
                    if target == current:
                        continue
                    _apply_move(v, current, target, parts, sizes, within,
                                between, neighbor_parts)
                    candidate = objective(sizes, within, between)
                    if candidate < value - 1e-15:
                        value = candidate
                        current = target
                        improved = True
                    else:
                        _apply_move(v, target, current, parts, sizes, within,
                                    between, neighbor_parts)
        if best_value is None or value < best_value:
            best_value = value
            best_parts = list(parts)
    return best_parts


def _apply_move(v, source, target, parts, sizes, within, between,
                neighbor_parts):
    within[source] -= neighbor_parts[source]
    within[target] += neighbor_parts[target]
    for p in range(len(sizes)):
        if p == source or p == target:
            continue
        count = neighbor_parts[p]
        if count:
            between[min(source, p)][max(source, p)] -= count
            between[min(target, p)][max(target, p)] += count
    # edges between source and target flip roles with the move
    between[min(source, target)][max(source, target)] += (
        neighbor_parts[source] - neighbor_parts[target]
    )
    sizes[source] -= 1
    sizes[target] += 1
    parts[v] = target


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

def _resolve_r(config: ExperimentConfig, fam: ForbiddenFamily) -> int:
    if config.r_override is not None:
        return config.r_override
    col = coloring_number(fam)
    if col == math.inf:
        raise ValidationError(
            "the empty family forbids nothing, its class is all graphs and "
            "its coloring number is infinite; there is no finite block target"
        )
    r = col - 1
    if r < 1:
        raise ValidationError(
            f"coloring number {col} gives r = {r}; no block target is "
            "defined for r < 1"
        )
    return r


def _sample_seed(config: ExperimentConfig, base: int, size_index: int,
                 s: int) -> SampleSeed:
    """Seed of sample s at one size for one purpose.  ExperimentConfig
    keeps sizes and samples at most _STRIDE, so no two (base, size index,
    sample) triples share a stream."""
    return SampleSeed(config.seed, base + size_index * _STRIDE + s)


def _uniform_samples(config: ExperimentConfig, fam: ForbiddenFamily,
                     n: int, size_index: int) -> list:
    if n <= LABELED_DIRECT_BUDGET:
        return [
            exact_uniform_sample(
                fam, n,
                _sample_seed(config, _STREAM_EXACT, size_index, s),
            )
            for s in range(config.samples)
        ]
    burnin = config.burnin_for(n)
    return [
        mcmc_trace(
            fam, n, [burnin],
            _sample_seed(config, _STREAM_CHAIN, size_index, s),
        )[0]
        for s in range(config.samples)
    ]


def run_convergence(config: ExperimentConfig) -> ExperimentReport:
    """Distance of random family-free graphs to the block-model target.

    For each size, uniform samples (exact below the enumeration budget,
    one independent Metropolis chain per sample beyond it) are pushed
    through the partition distance estimator against the r-block target,
    with r derived from the family's coloring number unless overridden.  A calibration series
    runs W-random samples of the target itself through the same estimator
    to measure its noise floor.
    """
    fam = config.resolved_family()
    r = _resolve_r(config, fam)
    target = make_wrs(r, 0)

    rows = []
    for size_index, n in enumerate(config.sizes):
        graphs = _uniform_samples(config, fam, n, size_index)
        distances = [
            estimate_distance_to_block_target(
                G, r,
                _sample_seed(config, _STREAM_ESTIMATE, size_index, s),
            )
            for s, G in enumerate(graphs)
        ]
        edge_counts = [G.edge_count for G in graphs]
        rows.append((
            "class", n, _mean(distances), _stdev(distances), len(distances),
            _lag1_autocorrelation(edge_counts),
        ))

        calibration = [
            sample_wrandom(
                target, n,
                _sample_seed(config, _STREAM_CALIBRATE, size_index, s),
            )
            for s in range(config.samples)
        ]
        floor = [
            estimate_distance_to_block_target(
                G, r,
                _sample_seed(config, _STREAM_CALIBRATE_ESTIMATE, size_index, s),
            )
            for s, G in enumerate(calibration)
        ]
        rows.append((
            "calibration", n, _mean(floor), _stdev(floor), len(floor), 0.0,
        ))

    report = ExperimentReport(
        columns=("series", "n", "mean_distance", "std_distance", "samples",
                 "edge_autocorr"),
        rows=rows,
        metadata={
            "experiment": "convergence",
            "r": str(r),
            "samples_per_size": str(config.samples),
            "seed": str(config.seed),
            # the chain_mode and gap lines are kept verbatim, though there is
            # no thinned mode, so that reports stay byte-identical
            "chain_mode": "independent",
            "burnin": "per-size ceil(20*P*ln P) unless overridden",
            "gap": "per-size P unless overridden (thinned mode only)",
            "partition_restarts": str(PARTITION_RESTARTS),
            "distances": "upper estimates; no convergence rate is claimed, "
                         "only the finite-size trend",
        },
    )
    return report


def run_speed(config: ExperimentConfig) -> ExperimentReport:
    """Exact counts and speed exponents per size, optionally with the ratio
    against the r-colorable class (which shares the asymptotic exponent)."""
    fam = config.resolved_family()
    columns = ["n", "speed_exponent", "labeled_count", "unlabeled_count"]
    compare = config.compare_crs
    r = None
    if compare:
        r = _resolve_r(config, fam)
        columns.append("ratio_vs_colorable")

    rows = []
    for n in config.sizes:
        result = count_result(fam, n)
        row = [n, result.speed_exponent, result.labeled_count,
               result.unlabeled_count]
        if compare:
            colorable = count_labeled(
                ForbiddenFamily(), n,
                predicate=lambda G: crs_member(G, r, 0) is not None,
            )
            row.append(result.labeled_count / colorable)
        rows.append(tuple(row))

    report = ExperimentReport(
        columns=tuple(columns),
        rows=rows,
        metadata={
            "experiment": "speed",
            "seed": str(config.seed),
            "exponent": "log2(labeled count) / C(n,2)",
        },
    )
    return report


def run_entropy_audit(tmax: int) -> ExperimentReport:
    """Entropy identities for every block count t <= tmax and every 0/1
    diagonal pattern, plus the strict entropy gain from capping at 1/2.

    Each block graphon with 1/2 off the diagonal has entropy exactly
    1 - 1/t regardless of the diagonal pattern; capping a pattern with at
    least one all-1 block at 1/2 must increase the entropy strictly.  Any
    violation raises.
    """
    if tmax > 8:
        raise ValidationError("entropy audit limited to t <= 8")
    if tmax < 1:
        raise ValidationError("tmax must be >= 1")
    rows = []
    for t in range(1, tmax + 1):
        base = 1.0 - 1.0 / t
        for pattern in range(1 << t):
            bits = [(pattern >> i) & 1 for i in range(t)]
            W = make_wrs(t, 0)
            values = W.values.copy()
            for i, bit in enumerate(bits):
                values[i, i] = float(bit)
            W = StepGraphon(W.measures, values)
            ent = entropy(W)
            if abs(ent - base) > 1e-12:
                raise RuntimeError(
                    f"entropy identity violated at t={t}, pattern={bits}: "
                    f"{ent} != {base}"
                )
            ones = sum(bits)
            capped_ent = entropy(cap_at_half(W))
            margin = capped_ent - base
            if ones > 0 and margin <= 0.0:
                raise RuntimeError(
                    f"capping failed to increase entropy at t={t}, "
                    f"pattern={bits}"
                )
            rows.append((
                t, "".join(str(b) for b in bits), ent, capped_ent, margin,
            ))
    report = ExperimentReport(
        columns=("t", "diagonal_pattern", "entropy", "capped_entropy",
                 "margin"),
        rows=rows,
        metadata={"experiment": "entropy_audit", "tolerance": "1e-12"},
    )
    return report


def run_coupling_demo(config: ExperimentConfig, low: StepGraphon,
                      high: StepGraphon) -> ExperimentReport:
    """Sample coupled pairs from two pointwise-ordered graphons and certify
    edge containment on every pair; report densities per size."""
    if not (isinstance(low, StepGraphon) and isinstance(high, StepGraphon)):
        raise ValidationError("coupling demo needs two graphons")
    if not pointwise_leq(low, high):
        raise ValidationError("coupling demo requires low <= high pointwise")

    rows = []
    for size_index, n in enumerate(config.sizes):
        npairs = n * (n - 1) // 2
        contained = 0
        low_density = []
        high_density = []
        for s in range(config.samples):
            G_low, G_high = sample_coupled(
                low, high, n,
                _sample_seed(config, _STREAM_COUPLE, size_index, s),
            )
            if G_low.edges <= G_high.edges:
                contained += 1
            else:  # unreachable by construction; a failure is a bug
                raise RuntimeError("coupled pair violated edge containment")
            if npairs:
                low_density.append(G_low.edge_count / npairs)
                high_density.append(G_high.edge_count / npairs)
        rows.append((
            n, contained, config.samples,
            _mean(low_density) if low_density else 0.0,
            _mean(high_density) if high_density else 0.0,
        ))
    report = ExperimentReport(
        columns=("n", "contained_pairs", "samples", "density_low",
                 "density_high"),
        rows=rows,
        metadata={"experiment": "coupling", "seed": str(config.seed)},
    )
    return report
