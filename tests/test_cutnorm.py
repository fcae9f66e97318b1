"""Cut norm and cut distance against independent brute-force oracles."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlimitlab import (
    AlignmentMode,
    BudgetError,
    SampleSeed,
    SequentialDraws,
    StepGraphon,
    StepKernel,
    ValidationError,
    cut_distance,
    cut_norm,
    cut_norm_estimate,
    difference_kernel,
    empirical_graphon,
    make_wrs,
    sample_wrandom,
)
from graphlimitlab.graphon import _integer_grid


def zero_kernel(k):
    return StepKernel([Fraction(1, k)] * k, np.zeros((k, k)))


def brute_force_cut_norm(K):
    """Oracle: enumerate every pair of block subsets in exact arithmetic."""
    k = K.k
    cells = [
        [Fraction(float(K.values[i, j])) * K.measures[i] * K.measures[j]
         for j in range(k)]
        for i in range(k)
    ]
    best = Fraction(0)
    for S in range(1 << k):
        for T in range(1 << k):
            total = sum(
                cells[i][j]
                for i in range(k) if S >> i & 1
                for j in range(k) if T >> j & 1
            )
            if abs(total) > best:
                best = abs(total)
    return float(best)


def python_int_grid(K):
    """Cell integrals mu_i mu_j K_ij as lists of Python ints over their
    common denominator, built without the library's grid."""
    cells = [[Fraction(float(K.values[i, j])) * K.measures[i] * K.measures[j]
              for j in range(K.k)] for i in range(K.k)]
    denom = math.lcm(*(cell.denominator for row in cells for cell in row))
    return [[int(cell * denom) for cell in row] for row in cells], denom


def gray_code_cut_norm(K):
    """Oracle: Gray-code walk over all row subsets in Python ints.

    Each step adds or removes one row's integer cells from the running
    column sums; the best column subset takes every positive or every
    negative column sum.
    """
    grid, denom = python_int_grid(K)
    cols = [0] * K.k
    best = 0
    gray = 0
    for step in range(1, 1 << K.k):
        new_gray = step ^ (step >> 1)
        bit = gray ^ new_gray
        row = grid[bit.bit_length() - 1]
        if new_gray & bit:
            cols = [c + r for c, r in zip(cols, row)]
        else:
            cols = [c - r for c, r in zip(cols, row)]
        gray = new_gray
        positive = sum(c for c in cols if c > 0)
        negative = -sum(c for c in cols if c < 0)
        best = max(best, positive, negative)
    return float(Fraction(best, denom))


def hill_climb_reference(K, restarts, seed):
    """Oracle: the estimator's alternating climb on Python-int column sums,
    drawing the same row masks from the same stream."""
    grid, denom = python_int_grid(K)
    full = (1 << K.k) - 1

    def best_side(matrix, mask):
        cols = [sum(matrix[i][j] for i in range(K.k) if mask >> i & 1)
                for j in range(K.k)]
        positive = sum(c for c in cols if c > 0)
        negative = -sum(c for c in cols if c < 0)
        if positive >= negative:
            return positive, sum(1 << j for j in range(K.k) if cols[j] > 0)
        return negative, sum(1 << j for j in range(K.k) if cols[j] < 0)

    transposed = [list(column) for column in zip(*grid)]
    draws = SequentialDraws(seed)
    best = 0
    for restart in range(restarts):
        rows = full if restart == 0 else (draws.next_raw() & full or full)
        value, cols = best_side(grid, rows)
        while True:
            row_value, rows = best_side(transposed, cols)
            if row_value <= value:
                break
            value = row_value
            col_value, cols = best_side(grid, rows)
            if col_value <= value:
                break
            value = col_value
        best = max(best, value)
    return float(Fraction(best, denom))


def random_kernel(rng, kmax=5):
    k = rng.randint(1, kmax)
    weights = [rng.randint(1, 6) for _ in range(k)]
    total = sum(weights)
    measures = [Fraction(w, total) for w in weights]
    values = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            values[i, j] = values[j, i] = rng.uniform(-1, 1)
    return StepKernel(measures, values)


class TestCutNormExact:
    def test_zero_kernel(self):
        assert cut_norm(zero_kernel(3)) == 0.0

    def test_constant_kernel(self):
        assert cut_norm(StepKernel([1], [[0.7]])) == 0.7
        assert cut_norm(StepKernel([1], [[-0.7]])) == 0.7

    def test_two_block_alternating(self):
        K = StepKernel([Fraction(1, 2), Fraction(1, 2)],
                       [[1.0, -1.0], [-1.0, 1.0]])
        assert brute_force_cut_norm(K) == 0.25  # optimum: S = T = one block
        assert cut_norm(K) == 0.25

    def test_matches_bruteforce_exactly(self):
        rng = random.Random(1234)
        for _ in range(40):
            K = random_kernel(rng)
            assert cut_norm(K) == brute_force_cut_norm(K)

    def test_bounds(self):
        rng = random.Random(77)
        for _ in range(25):
            K = random_kernel(rng)
            norm = cut_norm(K)
            mean = float(sum(
                K.measures[i] * K.measures[j] * Fraction(float(K.values[i, j]))
                for i in range(K.k) for j in range(K.k)
            ))
            l1 = float(sum(
                K.measures[i] * K.measures[j] * abs(Fraction(float(K.values[i, j])))
                for i in range(K.k) for j in range(K.k)
            ))
            assert abs(mean) <= norm + 1e-15
            assert norm <= l1 + 1e-15

    def test_seminorm_properties(self):
        rng = random.Random(4321)
        for _ in range(25):
            K1 = random_kernel(rng, kmax=4)
            scale = rng.choice([0.5, 0.25, -0.5, -1.0])
            scaled = StepKernel(K1.measures, K1.values * scale)
            assert cut_norm(scaled) == pytest.approx(
                abs(scale) * cut_norm(K1), abs=1e-12)
            # triangle inequality on a shared block structure
            values2 = np.zeros((K1.k, K1.k))
            for i in range(K1.k):
                for j in range(i, K1.k):
                    values2[i, j] = values2[j, i] = rng.uniform(-1, 1)
            K2 = StepKernel(K1.measures, values2)
            total = StepKernel(K1.measures, np.clip(K1.values + values2, -1, 1))
            if np.array_equal(total.values, K1.values + values2):
                assert cut_norm(total) <= cut_norm(K1) + cut_norm(K2) + 1e-12

    def test_int64_path_on_sampled_graph_kernel(self):
        W = make_wrs(2, 0)
        G = sample_wrandom(W, 16, SampleSeed(8))
        K = difference_kernel(empirical_graphon(G), W)
        assert K.k == 16
        assert _integer_grid(K)[0].dtype == np.int64
        assert cut_norm(K) == gray_code_cut_norm(K)

    def test_object_path_past_int64_guard(self):
        # full-mantissa floats on blocks of coprime weights push the common
        # denominator, and with it sum |grid|, far beyond 2^62
        rng = random.Random(16)
        k = 12
        weights = [rng.randint(1, 97) for _ in range(k)]
        values = np.zeros((k, k))
        for i in range(k):
            for j in range(i, k):
                values[i, j] = values[j, i] = rng.uniform(-1, 1)
        K = StepKernel([Fraction(w, sum(weights)) for w in weights], values)
        grid, _ = _integer_grid(K)
        assert grid.dtype == object
        assert sum(abs(v) for v in grid.flat) >= 1 << 62
        assert cut_norm(K) == gray_code_cut_norm(K)

    def test_budget_error_mentions_estimator(self):
        K = StepKernel([Fraction(1, 21)] * 21, np.zeros((21, 21)))
        with pytest.raises(BudgetError, match="cut_norm_estimate"):
            cut_norm(K)


DYADIC_VALUES = st.integers(-64, 64).map(lambda m: m / 64)
UNIFORM_VALUES = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def kernels(draw, kmax=12):
    k = draw(st.integers(1, kmax))
    weights = draw(st.lists(st.integers(1, 50), min_size=k, max_size=k))
    values = draw(st.sampled_from([DYADIC_VALUES, UNIFORM_VALUES]))
    upper = draw(st.lists(values, min_size=k * (k + 1) // 2,
                          max_size=k * (k + 1) // 2))
    matrix = np.zeros((k, k))
    matrix[np.triu_indices(k)] = upper
    matrix = np.triu(matrix) + np.triu(matrix, 1).T
    return StepKernel([Fraction(w, sum(weights)) for w in weights], matrix)


class TestCutNormDifferential:
    """The meet-in-the-middle enumeration against the Gray-code walk."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(kernels())
    def test_matches_gray_code_walk(self, K):
        exact = cut_norm(K)
        assert exact == gray_code_cut_norm(K)
        assert cut_norm_estimate(K, restarts=4, seed=SampleSeed(K.k)) <= exact

    @pytest.mark.parametrize("k", [13, 16, 20])
    def test_estimate_never_exceeds_exact_up_to_threshold(self, k):
        rng = random.Random(k)
        W = make_wrs(2, 0)
        for trial in range(3):
            K = difference_kernel(
                empirical_graphon(sample_wrandom(W, k, SampleSeed(trial))), W)
            assert cut_norm_estimate(K, seed=SampleSeed(trial)) <= cut_norm(K)
        weights = [rng.randint(1, 9) for _ in range(k)]
        values = np.zeros((k, k))
        for i in range(k):
            for j in range(i, k):
                values[i, j] = values[j, i] = rng.uniform(-1, 1)
        K = StepKernel([Fraction(w, sum(weights)) for w in weights], values)
        assert cut_norm_estimate(K, seed=SampleSeed(k)) <= cut_norm(K)


class TestCutNormEstimate:
    def test_zero_kernel(self):
        assert cut_norm_estimate(zero_kernel(2), restarts=3) == 0.0

    def test_never_exceeds_exact(self):
        rng = random.Random(2718)
        for trial in range(30):
            K = random_kernel(rng)
            estimate = cut_norm_estimate(K, restarts=4, seed=SampleSeed(trial))
            assert estimate <= cut_norm(K)

    def test_finds_alternating_optimum(self):
        K = StepKernel([Fraction(1, 2), Fraction(1, 2)],
                       [[1.0, -1.0], [-1.0, 1.0]])
        assert cut_norm_estimate(K, restarts=8, seed=SampleSeed(5)) == 0.25

    @pytest.mark.parametrize("k", [3, 12, 20, 30])
    def test_equals_python_int_climb(self, k):
        rng = random.Random(k)
        W = make_wrs(2, 0)
        G = sample_wrandom(W, k, SampleSeed(k))
        weights = [rng.randint(1, 97) for _ in range(k)]
        values = np.zeros((k, k))
        for i in range(k):
            for j in range(i, k):
                values[i, j] = values[j, i] = rng.uniform(-1, 1)
        # an int64 grid, then one past the int64 guard
        for K in (difference_kernel(empirical_graphon(G), W),
                  StepKernel([Fraction(w, sum(weights)) for w in weights],
                             values)):
            seed = SampleSeed(k, 7)
            assert cut_norm_estimate(K, restarts=6, seed=seed) == \
                hill_climb_reference(K, 6, seed)
        assert _integer_grid(K)[0].dtype == object

    def test_deterministic_given_seed(self):
        rng = random.Random(31415)
        K = random_kernel(rng, kmax=5)
        a = cut_norm_estimate(K, restarts=6, seed=SampleSeed(9, 2))
        b = cut_norm_estimate(K, restarts=6, seed=SampleSeed(9, 2))
        assert a == b

    def test_restart_validation(self):
        with pytest.raises(ValidationError):
            cut_norm_estimate(zero_kernel(2), restarts=0)


class TestCutDistance:
    def test_identical_graphons(self):
        W = make_wrs(3, 1)
        assert cut_distance(W, W) == 0.0

    def test_block_swap_is_free(self):
        W = make_wrs(2, 1)
        swapped = StepGraphon(W.measures, W.values[::-1, ::-1].copy())
        assert cut_distance(W, swapped) == 0.0
        assert cut_distance(W, swapped, AlignmentMode.LOCAL_SEARCH,
                            SampleSeed(1)) == 0.0

    def test_constants(self):
        assert cut_distance(StepGraphon.constant(0.5),
                            StepGraphon.constant(0.0)) == 0.5

    def test_symmetry(self):
        rng = random.Random(55)
        for _ in range(10):
            k1, k2 = rng.randint(1, 3), rng.randint(1, 3)
            def rand_graphon(k):
                values = np.zeros((k, k))
                for i in range(k):
                    for j in range(i, k):
                        values[i, j] = values[j, i] = rng.random()
                return StepGraphon([Fraction(1, k)] * k, values)
            W1, W2 = rand_graphon(k1), rand_graphon(k2)
            assert cut_distance(W1, W2) == pytest.approx(
                cut_distance(W2, W1), abs=1e-12)

    def test_exact_mode_requires_equal_blocks(self):
        W = StepGraphon([Fraction(1, 3), Fraction(2, 3)],
                        [[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(ValidationError):
            cut_distance(W, make_wrs(2, 0))

    def test_exact_mode_budget(self):
        with pytest.raises(BudgetError):
            cut_distance(make_wrs(3, 0), make_wrs(4, 0))  # lcm 12 blocks

    def test_local_search_handles_unequal_measures(self):
        W1 = StepGraphon([Fraction(1, 3), Fraction(2, 3)],
                         [[0.2, 0.5], [0.5, 0.8]])
        value = cut_distance(W1, W1, AlignmentMode.LOCAL_SEARCH, SampleSeed(3))
        assert value == 0.0

    def test_upper_bounds_difference_norm(self):
        # aligned difference is one feasible alignment, so distance <= its norm
        W1, W2 = make_wrs(2, 0), make_wrs(2, 2)
        assert cut_distance(W1, W2) <= cut_norm(difference_kernel(W1, W2))
