"""Exact counting, enumeration, and uniform sampling of family-free graphs.

Forbidding subgraphs yields a monotone (subgraph-closed) class, which the
algorithms here lean on throughout: labeled enumeration walks the
downward-closed set of edge masks, orderly generation extends canonical
representatives one vertex at a time, and the Metropolis chain only ever
needs a membership test for the single toggled edge.

Budgets: direct labeled enumeration up to n = 6 (LABELED_DIRECT_BUDGET;
exact uniform sampling and the membership table enumerate directly, so
they share it), census-based counting up to n = 10 (with a candidate
budget).
Counts are Python integers, hence arbitrary precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BudgetError, ValidationError
from .graphs import (
    ForbiddenFamily,
    SimpleGraph,
    _ExtensionPlan,
    all_pairs,
    automorphism_count,
    canonical_key,
    graph_from_mask,
    is_family_free,
)
from .rng import (
    SampleSeed,
    SequentialDraws,
    raw_block,
    raw_with_keys,
    stream_key,
    stream_keys_array,
)

LABELED_DIRECT_BUDGET = 6
CENSUS_BUDGET = 10
DEFAULT_CANDIDATE_BUDGET = 2_000_000


@dataclass(frozen=True)
class CountResult:
    """Exact labeled/unlabeled counts with the speed exponent at one n."""

    n: int
    labeled_count: int
    unlabeled_count: int
    speed_exponent: float

    def __post_init__(self):
        lo, hi = self.unlabeled_count, math.factorial(self.n) * self.unlabeled_count
        if not lo <= self.labeled_count <= hi:
            raise ValidationError(
                "counts violate the labeled/unlabeled sandwich "
                f"{lo} <= {self.labeled_count} <= {hi}"
            )
        if self.n >= 2 and not 0.0 <= self.speed_exponent <= 1.0:
            raise ValidationError("speed exponent outside [0,1]")


# ---------------------------------------------------------------------------
# Anchored membership tests
# ---------------------------------------------------------------------------

class AnchoredOracle:
    """Incremental family-freeness tests for graphs known to be family-free.

    ``edge_ok`` answers whether a graph stays family-free after one edge is
    added: only copies of a member using that edge can appear.  Likewise
    ``vertex_ok`` checks copies through one new vertex.  Extension plans
    per anchor are precomputed once; the hot path is pure backtracking.
    """

    def __init__(self, fam: ForbiddenFamily):
        self._edge_plans = []
        self._vertex_plans = []
        self._has_empty_member = False
        seen = set()

        def add(plans, plan):
            # plans with identical constraint structure embed identically
            key = (plan.size, plan.anchors, tuple(plan.degrees),
                   tuple(map(tuple, plan.earlier_neighbors)))
            if key not in seen:
                seen.add(key)
                plans.append(plan)

        for F in fam:
            if F.n == 0:
                self._has_empty_member = True
            F_adj = F.adjacency_masks()
            F_deg = F.degrees()
            for a, b in F.edges:
                add(self._edge_plans, _ExtensionPlan(F_adj, F_deg, [a, b]))
                add(self._edge_plans, _ExtensionPlan(F_adj, F_deg, [b, a]))
            for a in range(F.n):
                add(self._vertex_plans, _ExtensionPlan(F_adj, F_deg, [a]))

    def edge_ok(self, adj: list, deg: list, i: int, j: int) -> bool:
        """adj/deg already include edge (i, j); True iff still family-free."""
        for plan in self._edge_plans:
            if plan.embeds(adj, deg, (i, j)):
                return False
        return True

    def vertex_ok(self, adj: list, deg: list, v: int) -> bool:
        """adj/deg include the new vertex v; True iff still family-free."""
        if self._has_empty_member:
            return False
        for plan in self._vertex_plans:
            if plan.embeds(adj, deg, (v,)):
                return False
        return True


# ---------------------------------------------------------------------------
# Labeled enumeration (downward-closed DFS)
# ---------------------------------------------------------------------------

_labeled_cache: dict = {}


def labeled_class_masks(fam: ForbiddenFamily, n: int) -> list:
    """All edge masks of labeled family-free graphs on n vertices, n <= 6.

    Walks the downward-closed set: from each member, edges are added in
    increasing index only, and an addition that creates a forbidden copy
    prunes the whole branch (every supergraph contains the copy too).
    """
    if n > LABELED_DIRECT_BUDGET:
        raise BudgetError(
            f"direct labeled enumeration limited to n <= {LABELED_DIRECT_BUDGET}"
        )
    if n < 0:
        raise ValidationError("n must be nonnegative")
    key = (fam.key(), n)
    if key in _labeled_cache:
        return _labeled_cache[key]

    masks: list = []
    if is_family_free(SimpleGraph.empty(n), fam):
        pairs = all_pairs(n)
        oracle = AnchoredOracle(fam)
        adj = [0] * n
        deg = [0] * n

        def rec(mask: int, start: int):
            masks.append(mask)
            for e in range(start, len(pairs)):
                i, j = pairs[e]
                adj[i] |= 1 << j
                adj[j] |= 1 << i
                deg[i] += 1
                deg[j] += 1
                if oracle.edge_ok(adj, deg, i, j):
                    rec(mask | 1 << e, e + 1)
                adj[i] &= ~(1 << j)
                adj[j] &= ~(1 << i)
                deg[i] -= 1
                deg[j] -= 1

        rec(0, 0)
    _labeled_cache[key] = masks
    return masks


# ---------------------------------------------------------------------------
# Orderly generation (unlabeled census)
# ---------------------------------------------------------------------------

_census_cache: dict = {}


def census_representatives(fam: ForbiddenFamily, n: int,
                           max_candidates: int = DEFAULT_CANDIDATE_BUDGET) -> list:
    """Canonical representatives of unlabeled family-free graphs on n vertices.

    Orderly generation: every representative on m vertices is extended by
    one new vertex with every possible neighborhood; extensions that stay
    family-free (valid to test incrementally because the class is
    monotone) are deduplicated by canonical form.  n <= 10, and the number
    of extensions over all levels 1..n is capped by ``max_candidates``;
    cached levels are charged too, so the outcome never depends on which
    censuses were computed earlier.
    """
    if n > CENSUS_BUDGET:
        raise BudgetError(f"census limited to n <= {CENSUS_BUDGET}")
    if n < 0:
        raise ValidationError("n must be nonnegative")
    levels = _census_cache.setdefault(fam.key(), {})
    if 0 not in levels:
        empty = SimpleGraph.empty(0)
        levels[0] = [empty] if is_family_free(empty, fam) else []
    oracle = AnchoredOracle(fam)
    candidates = 0
    for m in range(1, n + 1):
        # level m extends each representative on m-1 vertices in 2^(m-1) ways
        candidates += len(levels[m - 1]) << (m - 1)
        if candidates > max_candidates:
            raise BudgetError(
                f"census exceeded the candidate budget {max_candidates}"
            )
        if m in levels:
            continue
        reps = []
        seen = set()
        for G in levels[m - 1]:
            base_adj = G.adjacency_masks()
            base_deg = G.degrees()
            for subset in range(1 << (m - 1)):
                adj = base_adj + [subset]
                deg = base_deg + [0]
                extra = 0
                for u in range(m - 1):
                    if subset >> u & 1:
                        adj[u] = base_adj[u] | 1 << (m - 1)
                        deg[u] = base_deg[u] + 1
                        extra += 1
                deg[m - 1] = extra
                # any forbidden copy in the extension must use the new
                # vertex, so the anchored test suffices
                if not oracle.vertex_ok(adj, deg, m - 1):
                    continue
                H = SimpleGraph.from_edges(
                    m,
                    [(u, m - 1) for u in range(m - 1) if subset >> u & 1]
                    + list(G.edges),
                )
                key = canonical_key(H)
                if key not in seen:
                    seen.add(key)
                    reps.append(H)
        levels[m] = reps
    return levels[n]


def count_unlabeled(fam: ForbiddenFamily, n: int,
                    max_candidates: int = DEFAULT_CANDIDATE_BUDGET) -> int:
    """Exact number of unlabeled family-free graphs on n vertices."""
    return len(census_representatives(fam, n, max_candidates))


# ---------------------------------------------------------------------------
# Labeled counting
# ---------------------------------------------------------------------------

def count_labeled(fam: ForbiddenFamily, n: int,
                  predicate: Optional[Callable[[SimpleGraph], bool]] = None,
                  method: str = "auto") -> int:
    """Exact number of labeled family-free graphs on [n].

    ``predicate`` intersects the class with an extra membership test; when
    the census path is used the predicate must be isomorphism-invariant
    (it is evaluated once per isomorphism class).  ``method`` forces the
    route: "direct" enumerates labeled graphs (n <= 6), "census" sums
    n!/|Aut| over canonical representatives (n <= 10), "auto" picks
    direct when feasible, with a closed form for the unrestricted class.
    """
    if n < 0:
        raise ValidationError("n must be nonnegative")
    if method not in ("auto", "direct", "census"):
        raise ValidationError(f"unknown counting method {method!r}")
    if method == "auto":
        if len(fam) == 0 and predicate is None:
            return 1 << (n * (n - 1) // 2)  # nothing forbidden: all graphs
        method = "direct" if n <= LABELED_DIRECT_BUDGET else "census"

    if method == "direct":
        masks = labeled_class_masks(fam, n)
        if predicate is None:
            return len(masks)
        pairs = all_pairs(n)
        return sum(
            1 for mask in masks if predicate(graph_from_mask(n, mask, pairs))
        )

    reps = census_representatives(fam, n)
    total = 0
    n_factorial = math.factorial(n)
    for G in reps:
        if predicate is not None and not predicate(G):
            continue
        total += n_factorial // automorphism_count(G)
    return total


def speed_exponent(fam: ForbiddenFamily, n: int,
                   predicate: Optional[Callable[[SimpleGraph], bool]] = None) -> float:
    """log2 of the labeled count, normalized by the number of vertex pairs."""
    if n < 2:
        raise ValidationError("speed exponent needs n >= 2")
    return _exponent(count_labeled(fam, n, predicate=predicate), n)


def _exponent(count: int, n: int) -> float:
    if count == 0:
        return -math.inf
    return math.log2(count) / (n * (n - 1) // 2)


def count_result(fam: ForbiddenFamily, n: int) -> CountResult:
    labeled = count_labeled(fam, n)
    unlabeled = count_unlabeled(fam, n)
    exponent = _exponent(labeled, n) if n >= 2 else math.nan
    return CountResult(n, labeled, unlabeled, exponent)


# ---------------------------------------------------------------------------
# Uniform sampling
# ---------------------------------------------------------------------------

def exact_uniform_sample(fam: ForbiddenFamily, n: int,
                         seed: SampleSeed) -> SimpleGraph:
    """Uniformly random labeled family-free graph by enumerate-and-index,
    n <= LABELED_DIRECT_BUDGET."""
    masks = labeled_class_masks(fam, n)
    if not masks:
        raise ValidationError("the class has no graphs at this size")
    draws = SequentialDraws(seed)
    return graph_from_mask(n, masks[draws.next_below(len(masks))], all_pairs(n))


# Steps drawn per raw_block call: 2 * 4096 uint64 draws make 64 KiB per
# array.  2^16-step blocks ran no faster, but their temporaries raised a
# converge run's peak resident memory by 2.4-7 MiB (7-19%).
_CHAIN_BLOCK = 1 << 12
_TOP_BIT = np.uint64(63)


def _decode_steps(lazy: np.ndarray, pair: np.ndarray, npairs: np.uint64):
    """The chain's step layout, applied to arrays of draws.

    ``lazy`` and ``pair`` hold the draws at counters 2t and 2t+1 of some
    steps (one chain's consecutive steps, or one step of many chains).
    Returns each step's code: the index, in ``all_pairs`` order, of the
    pair it proposes to toggle, which is the pair draw modulo ``npairs``,
    plus ``npairs`` if the step is lazy, which it is iff the top bit of
    its lazy draw is 1.  Codes below ``npairs`` are the moving steps.

    Works in place: both arrays are overwritten, and the codes are
    returned in ``pair``'s storage.  Callers pass draws they read once.
    """
    # x - (x // P) * P is x % P, bit for bit; on 10^4 uint64 draws numpy's
    # remainder by a scalar took 41 us and its floor division 8 us
    # (2-vCPU Xeon VM, numpy 2.4)
    quotient = pair // npairs
    quotient *= npairs
    pair -= quotient
    lazy >>= _TOP_BIT
    lazy *= npairs
    pair += lazy
    return pair


def mcmc_sample(fam: ForbiddenFamily, n: int, steps: int,
                seed: SampleSeed) -> SimpleGraph:
    """Lazy edge-toggle Metropolis chain started from the edgeless graph.

    Each step: with probability 1/2 stay put; otherwise toggle a uniform
    vertex pair, accepting iff the result is family-free.  The proposal is
    symmetric and the target the uniform distribution on the class, which
    is connected through edge deletions, so the chain is irreducible,
    aperiodic, and has the uniform stationary law.

    Step t reads counters 2t and 2t+1 of the stream: the lazy coin is the
    top bit of the first draw, the pair index is the second draw modulo
    the number of pairs, and ``_decode_steps`` folds both into one code.
    Since every draw is a pure function of its counter, ``mcmc_trace``
    draws the counters of up to ``_CHAIN_BLOCK`` steps with one
    ``raw_block`` call, decodes them as arrays, and runs Python only over
    the steps that are not lazy; the states are those of drawing step by
    step.
    """
    if steps < 0:
        raise ValidationError("steps must be nonnegative")
    return mcmc_trace(fam, n, [steps], seed)[0]


def mcmc_trace(fam: ForbiddenFamily, n: int, checkpoints,
               seed: SampleSeed) -> list:
    """States of one Metropolis chain at the requested step counts.

    Runs the chain described in ``mcmc_sample`` up to max(checkpoints) and
    snapshots the graph after each requested number of steps, so a single
    burn-in can serve several thinned samples.
    """
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if not checkpoints or checkpoints[0] < 0:
        raise ValidationError("checkpoints must be nonnegative step counts")
    if n < 1:
        raise ValidationError("need at least one vertex")
    if not is_family_free(SimpleGraph.empty(n), fam):
        raise ValidationError("the class has no graphs at this size")
    pairs = all_pairs(n)
    npairs = len(pairs)
    if npairs == 0:
        return [SimpleGraph.empty(n) for _ in checkpoints]

    key = stream_key(seed.seed, seed.stream)
    npairs_u = np.uint64(npairs)
    oracle = AnchoredOracle(fam)
    adj = [0] * n
    deg = [0] * n
    snapshots = []
    done = 0
    for checkpoint in checkpoints:
        for start in range(done, checkpoint, _CHAIN_BLOCK):
            count = min(_CHAIN_BLOCK, checkpoint - start)
            draws = raw_block(key, 2 * start, 2 * count)
            codes = _decode_steps(draws[0::2], draws[1::2], npairs_u)
            for p in codes[codes < npairs_u].tolist():
                i, j = pairs[p]
                adj[i] ^= 1 << j
                adj[j] ^= 1 << i
                if adj[i] >> j & 1:
                    deg[i] += 1
                    deg[j] += 1
                    if not oracle.edge_ok(adj, deg, i, j):
                        adj[i] ^= 1 << j
                        adj[j] ^= 1 << i
                        deg[i] -= 1
                        deg[j] -= 1
                else:
                    deg[i] -= 1
                    deg[j] -= 1
        done = checkpoint
        snapshots.append(SimpleGraph(n, frozenset(
            (i, j) for i, j in pairs if adj[i] >> j & 1)))
    return snapshots


def membership_table(fam: ForbiddenFamily, n: int) -> np.ndarray:
    """Boolean table over all edge masks: mask -> graph is family-free,
    n <= LABELED_DIRECT_BUDGET."""
    masks = labeled_class_masks(fam, n)
    table = np.zeros(1 << (n * (n - 1) // 2), dtype=bool)
    for mask in masks:
        table[mask] = True
    return table


def mcmc_ensemble(fam: ForbiddenFamily, n: int, steps: int, seed: SampleSeed,
                  chains: int, collect_occupation: bool = False):
    """Run many Metropolis chains at once with numpy, bit-identical to
    running ``mcmc_sample`` on streams seed.stream .. seed.stream+chains-1.

    Returns (final_masks, occupation): final edge masks per chain as a
    uint64 array and, when requested, the pooled visit counts over all
    post-step states of all chains (length 2^P, where P = n(n-1)/2 is
    the number of pairs).

    The chain's move is folded into a transition table, built once per
    call from ``membership_table``: for each state s (an edge mask) and
    each step code c of ``_decode_steps``, the entry at s * 2P + c is the
    state after the step.  For c < P it is s with pair c toggled if that
    graph is in the class, else s; for the lazy codes c >= P it is s.
    Each step is then one gather from the table for all chains.  The
    table has 2^P * 2P entries of 8 bytes: 160 KiB at n = 5, and 7.5 MiB
    at n = 6, where building it peaks at 12 MiB of numpy allocations
    (tracemalloc).  Needs n <= 6 so the membership table fits.
    """
    if chains < 1:
        raise ValidationError("need at least one chain")
    if steps < 0:
        raise ValidationError("steps must be nonnegative")
    if n < 1:
        raise ValidationError("need at least one vertex")
    npairs = n * (n - 1) // 2
    table = membership_table(fam, n)
    if not table[0]:
        raise ValidationError("the class has no graphs at this size")
    occupation = (
        np.zeros(1 << npairs, dtype=np.int64) if collect_occupation else None
    )
    if npairs == 0:
        # one vertex: the edgeless graph is the only state
        if occupation is not None:
            occupation[0] = chains * steps
        return np.zeros(chains, dtype=np.uint64), occupation

    step_table = _step_table(table, npairs)
    width = 2 * npairs
    keys = stream_keys_array(
        seed.seed, np.arange(seed.stream, seed.stream + chains, dtype=np.uint64)
    )
    states = np.zeros(chains, dtype=np.int64)
    npairs_u = np.uint64(npairs)
    for t in range(steps):
        codes = _decode_steps(raw_with_keys(keys, 2 * t),
                              raw_with_keys(keys, 2 * t + 1), npairs_u)
        states = step_table.take(states * width + codes.view(np.int64))
        if occupation is not None:
            occupation += np.bincount(states, minlength=1 << npairs)
    return states.astype(np.uint64), occupation


def _step_table(table: np.ndarray, npairs: int) -> np.ndarray:
    """The ensemble's transition table, flattened: the state after a step
    with code c from state s is at s * 2 * npairs + c."""
    states = np.arange(table.size, dtype=np.int64)[:, None]
    step_table = np.repeat(states, 2 * npairs, axis=1)
    toggled = states ^ (1 << np.arange(npairs, dtype=np.int64))
    np.copyto(step_table[:, :npairs], toggled, where=table[toggled])
    return step_table.ravel()
