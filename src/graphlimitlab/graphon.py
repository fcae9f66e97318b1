"""Step graphons: entropy, pointwise order, capping, cut norm, cut distance.

A step graphon is a symmetric function on [0,1]^2 that is constant on the
cells of a product partition.  Block measures are kept as exact rationals
so that common refinements of two step functions are exact; cell values
are float64.

Cut norms are evaluated in exact integer arithmetic on a common-denominator
grid (every float is a dyadic rational, every measure a Fraction), so the
exact routine and the hill-climbing estimator are comparable without any
floating-point slack: the estimator can never exceed the exact value, and
independent enumeration orders reproduce identical results.  The grid is
a numpy array of int64 when the sum of its absolute values is below 2^62,
so that no partial sum can overflow, and of Python ints otherwise.  The
exact routine enumerates row subsets meet-in-the-middle: the column sums
of all subsets of each half of the rows are combined chunk by chunk, and
the best column subset is read off the combined sums by sign.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from fractions import Fraction
from itertools import permutations
from typing import Optional

import numpy as np

from .errors import BudgetError, ValidationError
from .graphs import SimpleGraph
from .rng import SampleSeed, SequentialDraws

EXACT_CUT_NORM_THRESHOLD = 20
# hill-climb starts of the estimate beyond EXACT_CUT_NORM_THRESHOLD blocks
ESTIMATE_RESTARTS = 8
# starts of the LOCAL_SEARCH alignment in cut_distance
ALIGNMENT_RESTARTS = 4
MEASURE_SUM_TOLERANCE = 1e-12
INFINITY = math.inf


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x), with h(0) = h(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"binary_entropy needs x in [0,1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)  # exact binary value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass  # not a rational literal, or a zero denominator
    raise ValidationError(f"cannot interpret {value!r} as a block measure")


def _normalize_measures(measures) -> tuple:
    fracs = [_as_fraction(m) for m in measures]
    if not fracs:
        raise ValidationError("a step function needs at least one block")
    if any(m <= 0 for m in fracs):
        raise ValidationError("block measures must be positive")
    total = sum(fracs)
    if total != 1:
        if abs(float(total) - 1.0) > MEASURE_SUM_TOLERANCE:
            raise ValidationError(f"block measures sum to {float(total)}, not 1")
        fracs = [m / total for m in fracs]  # exact rescale inside tolerance
    return tuple(fracs)


def _validated_values(values, low: float, high: float) -> np.ndarray:
    array = np.array(values, dtype=np.float64)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        raise ValidationError("values must form a square matrix")
    if not np.array_equal(array, array.T):
        raise ValidationError("values matrix must be symmetric")
    if np.any(array < low) or np.any(array > high):
        raise ValidationError(f"values must lie in [{low}, {high}]")
    array.flags.writeable = False
    return array


class _StepFunction:
    """Shared representation of a symmetric step function on [0,1]^2."""

    _LOW = 0.0
    _HIGH = 1.0

    def __init__(self, block_measures, values):
        self.measures = _normalize_measures(block_measures)
        self.values = _validated_values(values, self._LOW, self._HIGH)
        if self.values.shape[0] != len(self.measures):
            raise ValidationError("values shape does not match number of blocks")

    @property
    def k(self) -> int:
        return len(self.measures)

    def boundaries(self) -> list:
        """Cumulative block boundaries as exact Fractions (ending at 1)."""
        cuts = []
        acc = Fraction(0)
        for m in self.measures:
            acc += m
            cuts.append(acc)
        return cuts

    def __eq__(self, other) -> bool:
        return (
            type(self) is type(other)
            and self.measures == other.measures
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(k={self.k})"


class StepGraphon(_StepFunction):
    """Symmetric step function with values in [0,1]."""

    @staticmethod
    def constant(p: float) -> "StepGraphon":
        return StepGraphon([Fraction(1)], [[p]])


class StepKernel(_StepFunction):
    """Symmetric step function with values in [-1,1]: a graphon difference."""

    _LOW = -1.0


def make_wrs(r, s: int = 0) -> StepGraphon:
    """Block benchmark graphon: r equal blocks, 1/2 off the diagonal,
    1 on the first s diagonal blocks and 0 on the rest.

    r = math.inf yields the single-block constant-1/2 graphon (s must be 0).
    """
    if r == INFINITY:
        if s != 0:
            raise ValidationError("infinite r admits only s = 0")
        return StepGraphon.constant(0.5)
    if not isinstance(r, int) or r < 1:
        raise ValidationError("r must be a positive integer or math.inf")
    if not 0 <= s <= r:
        raise ValidationError("s must satisfy 0 <= s <= r")
    values = np.full((r, r), 0.5)
    for i in range(r):
        values[i, i] = 1.0 if i < s else 0.0
    return StepGraphon([Fraction(1, r)] * r, values)


def empirical_graphon(G: SimpleGraph) -> StepGraphon:
    """Graph as a step graphon: n equal blocks, adjacency-indicator values."""
    if G.n < 1:
        raise ValidationError("empirical graphon needs at least one vertex")
    values = np.zeros((G.n, G.n))
    for i, j in G.edges:
        values[i, j] = values[j, i] = 1.0
    return StepGraphon([Fraction(1, G.n)] * G.n, values)


def entropy(W: StepGraphon) -> float:
    """Integral of the binary entropy of W over the square; exact for steps."""
    terms = []
    for i, mi in enumerate(W.measures):
        for j, mj in enumerate(W.measures):
            value = float(W.values[i, j])
            if 0.0 < value < 1.0:
                terms.append(float(mi * mj) * binary_entropy(value))
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# Common refinement
# ---------------------------------------------------------------------------

def common_refinement(A: _StepFunction, B: _StepFunction):
    """Refine both step functions onto the union of their block boundaries.

    Returns (measures, index_a, index_b): the refined block measures and,
    for each refined block, the source block index in A and in B.  Exact
    because boundaries are rationals; two step functions on [0,1] always
    admit this refinement.
    """
    cuts_a = A.boundaries()
    cuts_b = B.boundaries()
    if cuts_a[-1] != 1 or cuts_b[-1] != 1:
        raise ValidationError("step functions must cover [0,1]")
    merged = sorted(set(cuts_a) | set(cuts_b))
    measures = []
    index_a = []
    index_b = []
    prev = Fraction(0)
    ia = ib = 0
    for cut in merged:
        measures.append(cut - prev)
        index_a.append(ia)
        index_b.append(ib)
        if cut == cuts_a[ia]:
            ia += 1
        if cut == cuts_b[ib]:
            ib += 1
        prev = cut
    return tuple(measures), index_a, index_b


def _refined_values(F: _StepFunction, index: list) -> np.ndarray:
    idx = np.array(index)
    return F.values[np.ix_(idx, idx)]


def pointwise_leq(W1: StepGraphon, W2: StepGraphon) -> bool:
    """True iff W1 <= W2 everywhere (compared on the common refinement)."""
    _, ia, ib = common_refinement(W1, W2)
    return bool(np.all(_refined_values(W1, ia) <= _refined_values(W2, ib)))


def cap_at_half(W: StepGraphon) -> StepGraphon:
    """Entrywise minimum with 1/2; block structure unchanged."""
    return StepGraphon(W.measures, np.minimum(W.values, 0.5))


def difference_kernel(W1: StepGraphon, W2: StepGraphon) -> StepKernel:
    """W1 - W2 on the common refinement."""
    measures, ia, ib = common_refinement(W1, W2)
    return StepKernel(measures, _refined_values(W1, ia) - _refined_values(W2, ib))


# ---------------------------------------------------------------------------
# Cut norm
# ---------------------------------------------------------------------------

def _integer_grid(K: _StepFunction):
    """Cell integrals mu_i mu_j K_ij as integers over a common denominator.

    Returns (grid, denom) with grid a k x k array.  Its dtype is int64 when
    sum |grid| < 2^62: every partial column sum, and twice any cut value,
    then stays below 2^63.  Otherwise it is object (Python ints), which the
    same numpy code handles exactly.
    """
    k = K.k
    cells = [Fraction(float(K.values[i, j])) * K.measures[i] * K.measures[j]
             for i in range(k) for j in range(k)]
    denom = math.lcm(*(cell.denominator for cell in cells))
    flat = [int(cell * denom) for cell in cells]
    dtype = np.int64 if sum(map(abs, flat)) < 1 << 62 else object
    return np.array(flat, dtype=dtype).reshape(k, k), denom


def _twice_best(cols: np.ndarray, axis: int) -> np.ndarray:
    """Twice the best |sum of c_j over j in T| for column sums c along axis.

    The best T takes every positive or every negative c_j, and
    sum |c_j| + |sum c_j| = 2 max(positive, negative).
    """
    return np.abs(cols).sum(axis=axis) + np.abs(cols.sum(axis=axis))


def _subset_sums(rows: np.ndarray) -> np.ndarray:
    """Row s of the result is the sum of the rows selected by the bits of s."""
    out = np.zeros((1 << len(rows), rows.shape[1]), dtype=rows.dtype)
    for i, row in enumerate(rows):
        out[1 << i:2 << i] = out[:1 << i] + row
    return out


# cells of one chunk's column-sum block: 256 KiB of int64 per temporary
_CHUNK_CELLS = 1 << 15


def cut_norm(K: StepKernel) -> float:
    """Exact cut norm: sup over S, T of |integral of K over S x T|.

    The objective is bilinear in fractional block memberships, so it is
    maximized at extreme points: S and T may be taken to be unions of
    blocks, and the optimal T for fixed S picks each block by the sign of
    its column sum.  S is enumerated meet-in-the-middle: the column sums of
    every subset of each half of the rows are built by doubling, and each
    chunk of high-half subsets is added to every low-half subset at once.
    All arithmetic is exact integer arithmetic on the grid of
    _integer_grid, in int64 or in Python ints.
    """
    k = K.k
    if k > EXACT_CUT_NORM_THRESHOLD:
        raise BudgetError(
            f"exact cut_norm limited to k <= {EXACT_CUT_NORM_THRESHOLD}; "
            "use cut_norm_estimate for larger kernels"
        )
    grid, denom = _integer_grid(K)
    half = (k + 1) // 2
    low = np.ascontiguousarray(_subset_sums(grid[:half]).T)  # k x 2^half
    high = _subset_sums(grid[half:])
    step = max(1, _CHUNK_CELLS // low.size)
    best = 0
    for start in range(0, len(high), step):
        cols = high[start:start + step, :, None] + low
        best = max(best, _twice_best(cols, axis=1).max())
    return float(Fraction(int(best), 2 * denom))


def _pair_value(grid: np.ndarray, rows: np.ndarray):
    """Best |sum| over column subsets for the rows selected by a boolean
    mask, exactly; the positive columns win a tie."""
    cols = grid[rows].sum(axis=0)
    # a 1 x k block: on a 1-d object array, np.abs of the total would turn
    # a Python int into an int64 scalar that can overflow
    value = int(_twice_best(cols[None, :], axis=1)[0]) // 2
    return value, (cols > 0 if cols.sum() >= 0 else cols < 0)


def cut_norm_estimate(K: StepKernel, restarts: int = 8,
                      seed: Optional[SampleSeed] = None) -> float:
    """Lower bound on cut_norm(K) from alternating greedy hill climbing.

    Each restart seeds a row subset (the first restart uses all blocks),
    then alternates: pick the best column subset for the rows by sign,
    then the best row subset for the columns, until the exact objective
    stops improving.  Deterministic given the seed; every evaluated pair
    is feasible, so the result never exceeds the exact cut norm.
    """
    if restarts < 1:
        raise ValidationError("restarts must be >= 1")
    seed = seed if seed is not None else SampleSeed(0)
    draws = SequentialDraws(seed)
    k = K.k
    grid, denom = _integer_grid(K)

    best = 0
    for restart in range(restarts):
        mask = (1 << k) - 1
        if restart > 0:
            mask = draws.next_raw() & mask or mask
        rows = np.array([mask >> i & 1 for i in range(k)], dtype=bool)
        value, cols = _pair_value(grid, rows)
        while True:
            row_value, rows = _pair_value(grid.T, cols)
            if row_value <= value:
                break
            value = row_value
            col_value, cols = _pair_value(grid, rows)
            if col_value <= value:
                break
            value = col_value
        if value > best:
            best = value
    return float(Fraction(best, denom))


def aligned_cut_norm(K: StepKernel,
                     seed: Optional[SampleSeed] = None) -> float:
    """cut_norm(K) at most EXACT_CUT_NORM_THRESHOLD blocks; beyond, the
    estimate from ESTIMATE_RESTARTS hill climbs seeded by ``seed``, a
    lower bound on it."""
    if K.k <= EXACT_CUT_NORM_THRESHOLD:
        return cut_norm(K)
    return cut_norm_estimate(K, restarts=ESTIMATE_RESTARTS, seed=seed)


# ---------------------------------------------------------------------------
# Cut distance
# ---------------------------------------------------------------------------

class AlignmentMode(Enum):
    EXACT_PERMUTATION = "exact_permutation"
    LOCAL_SEARCH = "local_search"


def _equal_block_expansion(W: StepGraphon, blocks: int) -> np.ndarray:
    if blocks % W.k:
        raise ValidationError("refinement grid incompatible with block count")
    reps = blocks // W.k
    return np.repeat(np.repeat(W.values, reps, axis=0), reps, axis=1)


def _permuted_kernel(values1: np.ndarray, values2: np.ndarray, measures,
                     perm) -> StepKernel:
    idx = np.array(perm)
    return StepKernel(measures, values1[np.ix_(idx, idx)] - values2)


def cut_distance(W1: StepGraphon, W2: StepGraphon,
                 mode: AlignmentMode = AlignmentMode.EXACT_PERMUTATION,
                 seed: Optional[SampleSeed] = None) -> float:
    """Cut norm of W1 - W2, minimized over restricted alignments.

    Alignment is restricted to block permutations of a common equal-block
    refinement (EXACT_PERMUTATION, exhaustive) or to measure-preserving
    block permutations found by local search (LOCAL_SEARCH, from
    ALIGNMENT_RESTARTS starts).  The true cut distance infimizes over all
    measure-preserving bijections, so when every compared norm is exact
    (EXACT_PERMUTATION always; LOCAL_SEARCH at most
    EXACT_CUT_NORM_THRESHOLD refined blocks) the value is an upper bound,
    exact when the graphons are equal up to block permutation.  Beyond
    that threshold LOCAL_SEARCH minimizes hill-climbed lower bounds on the
    aligned norms, so the value bounds the cut distance from neither side.
    """
    if mode is AlignmentMode.EXACT_PERMUTATION:
        return _cut_distance_exact(W1, W2)
    return _cut_distance_local(W1, W2, seed)


def _cut_distance_exact(W1: StepGraphon, W2: StepGraphon) -> float:
    for W in (W1, W2):
        if len(set(W.measures)) != 1:
            raise ValidationError(
                "EXACT_PERMUTATION needs equal-measure blocks in each graphon"
            )
    blocks = W1.k * W2.k // math.gcd(W1.k, W2.k)
    if blocks > 8:
        raise BudgetError(
            "EXACT_PERMUTATION limited to a common refinement of <= 8 blocks"
        )
    values1 = _equal_block_expansion(W1, blocks)
    values2 = _equal_block_expansion(W2, blocks)
    measures = tuple([Fraction(1, blocks)] * blocks)

    best = None
    seen = set()
    for perm in permutations(range(blocks)):
        key = values1[np.ix_(np.array(perm), np.array(perm))].tobytes()
        if key in seen:
            continue
        seen.add(key)
        value = aligned_cut_norm(
            _permuted_kernel(values1, values2, measures, perm))
        if best is None or value < best:
            best = value
            if best == 0.0:
                break
    return best


def _cut_distance_local(W1: StepGraphon, W2: StepGraphon,
                        seed: Optional[SampleSeed]) -> float:
    measures, ia, ib = common_refinement(W1, W2)
    values1 = _refined_values(W1, ia)
    values2 = _refined_values(W2, ib)
    k = len(measures)
    seed = seed if seed is not None else SampleSeed(0)
    draws = SequentialDraws(seed)
    estimate_seed = seed.with_stream(seed.stream + 1)

    def norm_for(perm) -> float:
        return aligned_cut_norm(
            _permuted_kernel(values1, values2, measures, perm), estimate_seed)

    # only blocks of equal measure may be exchanged
    groups = {}
    for i, m in enumerate(measures):
        groups.setdefault(m, []).append(i)
    swappable = [g for g in groups.values() if len(g) > 1]

    def climb(perm):
        perm = list(perm)
        value = norm_for(perm)
        improved = True
        while improved and value > 0.0:
            improved = False
            for group in swappable:
                for a in range(len(group)):
                    for b in range(a + 1, len(group)):
                        i, j = group[a], group[b]
                        perm[i], perm[j] = perm[j], perm[i]
                        candidate = norm_for(perm)
                        if candidate < value:
                            value = candidate
                            improved = True
                        else:
                            perm[i], perm[j] = perm[j], perm[i]
        return value

    best = climb(range(k))
    for _ in range(ALIGNMENT_RESTARTS - 1):
        perm = list(range(k))
        for group in swappable:  # seeded Fisher-Yates within each group
            for a in range(len(group) - 1, 0, -1):
                b = draws.next_below(a + 1)
                ia_, ib_ = group[a], group[b]
                perm[ia_], perm[ib_] = perm[ib_], perm[ia_]
        best = min(best, climb(perm))
        if best == 0.0:
            break
    return best


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def graphon_to_json_dict(W: StepGraphon) -> dict:
    return {
        "measures": [f"{m.numerator}/{m.denominator}" for m in W.measures],
        "values": [float(v) for v in W.values.reshape(-1)],
    }


def graphon_from_json_dict(data: dict) -> StepGraphon:
    try:
        measures = data["measures"]
        flat = data["values"]
    except (KeyError, TypeError) as exc:
        raise ValidationError("graphon JSON needs 'measures' and 'values'") from exc
    if not isinstance(measures, list) or not isinstance(flat, list):
        raise ValidationError("graphon 'measures' and 'values' must be lists")
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in flat):
        raise ValidationError("graphon 'values' must all be numbers")
    k = len(measures)
    if len(flat) != k * k:
        raise ValidationError("'values' must hold k*k row-major entries")
    values = np.array(flat, dtype=np.float64).reshape(k, k)
    return StepGraphon(measures, values)


def save_graphon(W: StepGraphon, path) -> None:
    with open(path, "w", encoding="ascii") as handle:
        json.dump(graphon_to_json_dict(W), handle, indent=2)
        handle.write("\n")


def load_graphon(path) -> StepGraphon:
    with open(path, "r", encoding="ascii") as handle:
        return graphon_from_json_dict(json.load(handle))
