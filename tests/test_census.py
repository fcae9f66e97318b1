"""Counting, enumeration, uniform sampling, and the Metropolis chain."""

import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from graphlimitlab import (
    BudgetError,
    CountResult,
    ForbiddenFamily,
    SampleSeed,
    SimpleGraph,
    ValidationError,
    all_pairs,
    count_labeled,
    count_result,
    count_unlabeled,
    crs_member,
    exact_uniform_sample,
    graph_from_mask,
    is_family_free,
    labeled_class_masks,
    mcmc_ensemble,
    mcmc_sample,
    mcmc_trace,
    membership_table,
    speed_exponent,
)
from graphlimitlab.census import _CHAIN_BLOCK, AnchoredOracle, _census_cache
from graphlimitlab.rng import CounterStream

K3 = ForbiddenFamily([SimpleGraph.complete(3)])
K2 = ForbiddenFamily([SimpleGraph.complete(2)])
EMPTY = ForbiddenFamily()


def brute_count_labeled(fam, n):
    """Oracle: scan all 2^C(n,2) graphs with a fresh containment check."""
    pairs = list(combinations(range(n), 2))
    count = 0
    for mask in range(1 << len(pairs)):
        G = graph_from_mask(n, mask, pairs)
        if is_family_free(G, fam):
            count += 1
    return count


class TestCountLabeled:
    def test_triangle_free_small(self):
        assert count_labeled(K3, 3) == brute_count_labeled(K3, 3) == 7
        assert count_labeled(K3, 4) == brute_count_labeled(K3, 4) == 41

    def test_empty_family_closed_form(self):
        for n in range(7):
            assert count_labeled(EMPTY, n) == 1 << (n * (n - 1) // 2)

    def test_single_edge_family(self):
        for n in range(1, 7):
            assert count_labeled(K2, n) == 1

    def test_predicate_intersection(self):
        bipartite = count_labeled(
            EMPTY, 5, predicate=lambda G: crs_member(G, 2, 0) is not None)
        triangle_free = count_labeled(K3, 5)
        assert bipartite <= triangle_free  # every bipartite graph lacks triangles
        assert bipartite == brute_count_labeled(
            ForbiddenFamily([SimpleGraph.complete(3), SimpleGraph.cycle(5)]), 5)

    def test_methods_agree(self):
        for fam in (K3, ForbiddenFamily([SimpleGraph.path(4)])):
            for n in range(7):
                assert count_labeled(fam, n, method="direct") == \
                    count_labeled(fam, n, method="census")

    def test_budgets(self):
        with pytest.raises(BudgetError):
            count_labeled(K3, 7, method="direct")
        with pytest.raises(BudgetError):
            count_labeled(K3, 11)
        with pytest.raises(ValidationError):
            count_labeled(K3, 3, method="nope")


class TestCountUnlabeled:
    def test_all_graphs_on_four_vertices(self):
        assert count_unlabeled(EMPTY, 4) == 11

    def test_triangle_free_three_vertices(self):
        assert count_unlabeled(K3, 3) == 3

    def test_edgeless_class_is_singleton(self):
        for n in range(1, 8):
            assert count_unlabeled(K2, n) == 1

    def test_known_triangle_free_censuses(self):
        assert [count_unlabeled(K3, n) for n in range(1, 9)] == \
            [1, 2, 3, 7, 14, 38, 107, 410]

    def test_candidate_budget(self):
        with pytest.raises(BudgetError):
            count_unlabeled(ForbiddenFamily([SimpleGraph.complete(4)]), 8,
                            max_candidates=10)

    def test_candidate_budget_ignores_call_history(self):
        # K4-free levels 0..6 hold 1, 1, 2, 4, 10, 29, 120 graphs, so
        # n = 7 charges sum(count_{m-1} * 2^(m-1)) = 8811 candidates
        K4 = ForbiddenFamily([SimpleGraph.complete(4)])

        def outcome(budget):
            try:
                return count_unlabeled(K4, 7, max_candidates=budget)
            except BudgetError:
                return "budget"

        for budget, expected in ((8810, "budget"), (8811, 685)):
            _census_cache.clear()
            cold = outcome(budget)
            _census_cache.clear()
            count_unlabeled(K4, 6)
            warm = outcome(budget)
            assert cold == warm == expected


class TestCountResult:
    def test_sandwich_enforced(self):
        result = count_result(K3, 5)
        assert result.labeled_count == 388 and result.unlabeled_count == 14
        assert result.unlabeled_count <= result.labeled_count
        assert result.labeled_count <= math.factorial(5) * result.unlabeled_count
        with pytest.raises(ValidationError):
            CountResult(3, 100, 1, 0.5)

    def test_speed_exponent_values(self):
        assert speed_exponent(EMPTY, 5) == 1.0
        assert speed_exponent(K2, 6) == 0.0
        assert speed_exponent(K3, 4) == pytest.approx(math.log2(41) / 6)
        with pytest.raises(ValidationError):
            speed_exponent(K3, 1)

    def test_triangle_free_exponent_trend(self):
        values = [speed_exponent(K3, n) for n in range(3, 9)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v >= 0.5 for v in values)


class TestExactUniformSample:
    def test_singleton_class(self):
        for stream in range(5):
            G = exact_uniform_sample(K2, 5, SampleSeed(1, stream))
            assert G.edge_count == 0

    def test_uniform_over_all_graphs_n3(self):
        pairs = all_pairs(3)
        counts = {graph_from_mask(3, mask, pairs): 0 for mask in range(8)}
        for stream in range(8000):
            G = exact_uniform_sample(EMPTY, 3, SampleSeed(12, stream))
            counts[G] += 1
        assert stats.chisquare(list(counts.values())).pvalue > 0.01

    def test_uniform_over_triangle_free_n4(self):
        masks = labeled_class_masks(K3, 4)
        pairs = all_pairs(4)
        counts = {graph_from_mask(4, mask, pairs): 0 for mask in masks}
        for stream in range(41000):
            G = exact_uniform_sample(K3, 4, SampleSeed(303, stream))
            counts[G] += 1
        assert len(counts) == 41
        assert stats.chisquare(list(counts.values())).pvalue > 0.01

    def test_budget_and_empty_class(self):
        with pytest.raises(BudgetError):
            exact_uniform_sample(K3, 7, SampleSeed(0))
        with pytest.raises(ValidationError):
            exact_uniform_sample(ForbiddenFamily([SimpleGraph.empty(1)]), 3,
                                 SampleSeed(0))


def scalar_trace(fam, n, checkpoints, seed):
    """Oracle: the chain drawn step by step, two scalar draws per step."""
    pairs = all_pairs(n)
    npairs = len(pairs)
    stream = CounterStream(seed)
    oracle = AnchoredOracle(fam)
    adj = [0] * n
    deg = [0] * n
    snapshots = []
    done = 0
    for checkpoint in sorted(set(checkpoints)):
        for t in range(done, checkpoint):
            if stream.raw(2 * t) >> 63:
                continue
            i, j = pairs[stream.raw(2 * t + 1) % npairs]
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


CHAIN_MEMBERS = {
    "K3": SimpleGraph.complete(3),
    "C4": SimpleGraph.cycle(4),
    "C5": SimpleGraph.cycle(5),
    "K4": SimpleGraph.complete(4),
    "P4": SimpleGraph.path(4),
    "K3+K1": SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2)]),
}
# step counts on both sides of the first two block boundaries
BOUNDARY_STEPS = (0, 1, _CHAIN_BLOCK - 1, _CHAIN_BLOCK, _CHAIN_BLOCK + 1,
                  2 * _CHAIN_BLOCK + 1)


def assert_ensemble_matches_runner(fam, n, steps, chains, seed):
    """The ensemble's finals and pooled occupation equal those of
    ``mcmc_trace`` run on each chain's stream alone."""
    finals, occupation = mcmc_ensemble(fam, n, steps, seed, chains,
                                       collect_occupation=True)
    pairs = all_pairs(n)
    expected = Counter()
    for c in range(chains):
        # the state after every step, from the single-chain runner
        trace = mcmc_trace(fam, n, range(steps + 1),
                           seed.with_stream(seed.stream + c))
        assert trace[-1] == graph_from_mask(n, int(finals[c]), pairs)
        expected.update(trace[1:])
    assert occupation.sum() == chains * steps
    assert expected == {
        graph_from_mask(n, mask, pairs): int(occupation[mask])
        for mask in np.flatnonzero(occupation).tolist()}


class TestMcmc:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(CHAIN_MEMBERS)), st.integers(2, 12),
           st.integers(0, 2**64 - 1), st.integers(0, 1000),
           st.lists(st.sampled_from(BOUNDARY_STEPS) | st.integers(0, 300),
                    min_size=1, max_size=5))
    def test_block_chain_matches_scalar_steps(self, name, n, seed, stream,
                                              checkpoints):
        fam = ForbiddenFamily([CHAIN_MEMBERS[name]])
        chain_seed = SampleSeed(seed, stream)
        assert (mcmc_trace(fam, n, checkpoints, chain_seed)
                == scalar_trace(fam, n, checkpoints, chain_seed))

    def test_block_boundaries_unsorted_and_repeated(self):
        # every boundary step count, out of order and twice over
        checkpoints = [2 * _CHAIN_BLOCK + 1, _CHAIN_BLOCK, 1, _CHAIN_BLOCK,
                       _CHAIN_BLOCK - 1, 0, _CHAIN_BLOCK + 1, 1]
        for name in ("K3", "C5"):
            fam = ForbiddenFamily([CHAIN_MEMBERS[name]])
            seed = SampleSeed(31, 7)
            trace = mcmc_trace(fam, 12, checkpoints, seed)
            assert len(trace) == len(BOUNDARY_STEPS)
            assert trace == scalar_trace(fam, 12, checkpoints, seed)

    def test_zero_steps_is_edgeless(self):
        assert mcmc_sample(K3, 6, 0, SampleSeed(0)).edge_count == 0

    def test_states_stay_in_class(self):
        for stream in range(10):
            checkpoints = list(range(0, 400, 40))
            for G in mcmc_trace(K3, 6, checkpoints, SampleSeed(7, stream)):
                assert is_family_free(G, K3)

    def test_trace_consistent_with_sample(self):
        seed = SampleSeed(15, 4)
        trace = mcmc_trace(K3, 5, [0, 123, 500], seed)
        assert trace[0].edge_count == 0
        assert trace[1] == mcmc_sample(K3, 5, 123, seed)
        assert trace[2] == mcmc_sample(K3, 5, 500, seed)

    def test_ensemble_matches_single_chains(self):
        finals, occupation = mcmc_ensemble(
            K3, 5, 400, SampleSeed(77, 30), chains=12, collect_occupation=True)
        pairs = all_pairs(5)
        for c in range(12):
            single = mcmc_sample(K3, 5, 400, SampleSeed(77, 30 + c))
            assert graph_from_mask(5, int(finals[c]), pairs) == single
        assert occupation.sum() == 12 * 400
        table = membership_table(K3, 5)
        assert table[np.nonzero(occupation)[0]].all()

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(sorted(CHAIN_MEMBERS)), min_size=1,
                    max_size=2, unique=True),
           st.integers(1, 5), st.integers(0, 200), st.integers(1, 4),
           st.integers(0, 2**64 - 1), st.integers(0, 1000))
    def test_ensemble_matches_single_chain_runner(self, names, n, steps,
                                                  chains, seed, stream):
        fam = ForbiddenFamily([CHAIN_MEMBERS[name] for name in names])
        assert_ensemble_matches_runner(fam, n, steps, chains,
                                       SampleSeed(seed, stream))

    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(st.sampled_from(sorted(CHAIN_MEMBERS)), st.integers(0, 400),
           st.integers(1, 3), st.integers(0, 2**64 - 1),
           st.integers(0, 1000))
    def test_ensemble_matches_single_chain_runner_at_n6(self, name, steps,
                                                        chains, seed, stream):
        # 15 pairs: the largest transition table, 2^15 states
        fam = ForbiddenFamily([CHAIN_MEMBERS[name]])
        assert_ensemble_matches_runner(fam, 6, steps, chains,
                                       SampleSeed(seed, stream))

    def test_ensemble_without_vertices_rejected(self):
        with pytest.raises(ValidationError, match="need at least one vertex"):
            mcmc_ensemble(K3, 0, 10, SampleSeed(0), chains=3)

    def test_ensemble_on_one_vertex_stays_edgeless(self):
        finals, occupation = mcmc_ensemble(
            K3, 1, 25, SampleSeed(4, 2), chains=3, collect_occupation=True)
        assert finals.dtype == np.uint64 and finals.tolist() == [0, 0, 0]
        assert occupation.dtype == np.int64 and occupation.tolist() == [75]
        finals, occupation = mcmc_ensemble(K3, 1, 25, SampleSeed(4), 2)
        assert finals.tolist() == [0, 0] and occupation is None

    def test_final_state_distribution_uniform_at_n4(self):
        # 41 labeled triangle-free graphs on 4 vertices; enough independent
        # chains make the plug-in TV estimate resolve uniformity
        chains = 10_000
        finals, _ = mcmc_ensemble(K3, 4, 2000, SampleSeed(2024, 0), chains)
        counts = np.bincount(finals.astype(np.int64), minlength=1 << 6)
        members = sorted(labeled_class_masks(K3, 4))
        assert counts.sum() == chains
        assert sum(counts[m] for m in members) == chains
        empirical = counts / chains
        target = np.zeros(1 << 6)
        for m in members:
            target[m] = 1 / len(members)
        tv = 0.5 * np.abs(empirical - target).sum()
        assert tv < 0.05

    def test_empty_class_rejected(self):
        with pytest.raises(ValidationError):
            mcmc_sample(ForbiddenFamily([SimpleGraph.empty(2)]), 4, 10,
                        SampleSeed(0))

    def test_validation(self):
        with pytest.raises(ValidationError):
            mcmc_sample(K3, 5, -1, SampleSeed(0))
        with pytest.raises(ValidationError):
            mcmc_ensemble(K3, 5, 10, SampleSeed(0), chains=0)
