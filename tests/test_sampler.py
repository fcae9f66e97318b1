"""W-random sampling and the monotone coupling."""

from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlimitlab import (
    SampleSeed,
    SimpleGraph,
    StepGraphon,
    ValidationError,
    all_pairs,
    make_wrs,
    pointwise_leq,
    sample_coupled,
    sample_wrandom,
)
from graphlimitlab.rng import TWO_NEG_53, CounterStream


def scalar_wrandom(W, n, seed):
    """Reference: the sampler's draw layout read one scalar draw at a time."""
    stream = CounterStream(seed)
    cuts = W.boundaries()
    blocks = [min(bisect_right(cuts, Fraction(stream.raw(i) >> 11, 1 << 53)),
                  W.k - 1) for i in range(n)]
    edges = []
    for p, (i, j) in enumerate(all_pairs(n)):
        prob = W.values[blocks[i], blocks[j]]
        if prob > 0.0 and (stream.raw(n + p) >> 11) * TWO_NEG_53 < prob:
            edges.append((i, j))
    return SimpleGraph.from_edges(n, edges)


@st.composite
def step_graphons(draw):
    k = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    value = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
    values = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            values[i][j] = values[j][i] = draw(value)
    return StepGraphon([Fraction(w, sum(weights)) for w in weights], values)


def is_bipartite(G):
    """BFS 2-coloring, independent of the library's search code."""
    color = {}
    adjacency = {v: set() for v in range(G.n)}
    for i, j in G.edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
    for start in range(G.n):
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in adjacency[v]:
                if u not in color:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return False
    return True


class TestSampleWrandom:
    def test_constant_one_gives_complete_graph(self):
        for seed in range(5):
            G = sample_wrandom(StepGraphon.constant(1.0), 7, SampleSeed(seed))
            assert G.edges == SimpleGraph.complete(7).edges

    def test_constant_zero_gives_edgeless(self):
        for seed in range(5):
            G = sample_wrandom(StepGraphon.constant(0.0), 7, SampleSeed(seed))
            assert G.edge_count == 0

    def test_two_block_samples_are_bipartite(self):
        W = make_wrs(2, 0)
        for stream in range(50):
            G = sample_wrandom(W, 30, SampleSeed(404, stream))
            assert is_bipartite(G)

    def test_block_structure_of_clique_blocks(self):
        # diagonal-1 blocks induce cliques, diagonal-0 blocks independent sets
        W = make_wrs(3, 1)
        cuts = W.boundaries()
        for stream in range(20):
            n = 15
            seed = SampleSeed(777, stream)
            G = sample_wrandom(W, n, seed)
            from graphlimitlab.rng import CounterStream
            from graphlimitlab.sampler import _latent_blocks
            blocks = _latent_blocks(W, n, CounterStream(seed))
            for i in range(n):
                for j in range(i + 1, n):
                    if blocks[i] == blocks[j] == 0:
                        assert G.has_edge(i, j)
                    elif blocks[i] == blocks[j]:
                        assert not G.has_edge(i, j)

    def test_determinism_across_calls(self):
        W = make_wrs(2, 1)
        a = sample_wrandom(W, 25, SampleSeed(99, 5))
        b = sample_wrandom(W, 25, SampleSeed(99, 5))
        assert a == b
        c = sample_wrandom(W, 25, SampleSeed(99, 6))
        assert a != c

    def test_density_concentrates(self):
        for p in (0.1, 0.5, 0.9):
            W = StepGraphon.constant(p)
            total = 0
            samples = 200
            n = 100
            npairs = n * (n - 1) // 2
            for stream in range(samples):
                total += sample_wrandom(W, n, SampleSeed(1618, stream)).edge_count
            assert abs(total / samples / npairs - p) < 0.02

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(step_graphons(), st.integers(1, 40), st.integers(0, 2**64 - 1),
           st.integers(0, 1000))
    def test_block_draws_match_scalar_reference(self, W, n, seed, stream):
        sample_seed = SampleSeed(seed, stream)
        assert sample_wrandom(W, n, sample_seed) == scalar_wrandom(
            W, n, sample_seed)

    def test_needs_a_vertex(self):
        with pytest.raises(ValidationError):
            sample_wrandom(make_wrs(2, 0), 0, SampleSeed(0))


class TestSampleCoupled:
    def test_extremes(self):
        low, high = StepGraphon.constant(0.0), StepGraphon.constant(1.0)
        G_low, G_high = sample_coupled(low, high, 8, SampleSeed(3))
        assert G_low.edge_count == 0
        assert G_high.edges == SimpleGraph.complete(8).edges

    def test_identical_graphons_give_identical_graphs(self):
        W = make_wrs(2, 0)
        for stream in range(10):
            G1, G2 = sample_coupled(W, W, 20, SampleSeed(21, stream))
            assert G1 == G2

    def test_containment_always(self):
        low, high = make_wrs(2, 0), StepGraphon.constant(0.5)
        for stream in range(200):
            G_low, G_high = sample_coupled(low, high, 15, SampleSeed(8, stream))
            assert G_low.edges <= G_high.edges

    def test_coupled_marginals_match_plain_sampler(self):
        # same seed, same graphon: the coupled draw reproduces sample_wrandom
        W = make_wrs(3, 1)
        seed = SampleSeed(42, 17)
        G_low, G_high = sample_coupled(W, W, 12, seed)
        assert G_low == sample_wrandom(W, 12, seed) == G_high
        # two different ordered graphons with different block structures:
        # each side is that graphon's own sample_wrandom draw
        low = StepGraphon([Fraction(1, 3), Fraction(2, 3)],
                          [[0.0, 0.25], [0.25, 0.5]])
        high = StepGraphon([Fraction(1, 3)] * 3, [[1.0, 0.5, 0.75],
                                                  [0.5, 0.75, 0.5],
                                                  [0.75, 0.5, 0.625]])
        assert pointwise_leq(low, high) and low != high
        for stream in range(20):
            seed = SampleSeed(43, stream)
            G_low, G_high = sample_coupled(low, high, 12, seed)
            assert G_low == sample_wrandom(low, 12, seed)
            assert G_high == sample_wrandom(high, 12, seed)
            assert G_low.edges <= G_high.edges

    def test_pointwise_order_enforced(self):
        with pytest.raises(ValidationError):
            sample_coupled(StepGraphon.constant(0.6), StepGraphon.constant(0.4),
                           5, SampleSeed(0))
