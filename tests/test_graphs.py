"""Graph core: containment, coloring, partitions, canonical forms."""

import math
import random
from collections import Counter
from itertools import combinations, permutations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlimitlab import (
    BudgetError,
    ForbiddenFamily,
    SimpleGraph,
    ValidationError,
    all_pairs,
    automorphism_count,
    canonical_key,
    chromatic_number,
    coloring_number,
    contains_subgraph,
    count_labeled,
    crs_member,
    graph_from_mask,
    is_family_free,
)
from graphlimitlab.census import AnchoredOracle
from graphlimitlab.graphs import PartKind


def brute_aut(G):
    """Oracle: the vertex permutations that map the edge set onto itself."""
    return sum(
        1 for p in permutations(range(G.n))
        if frozenset((min(p[i], p[j]), max(p[i], p[j])) for i, j in G.edges)
        == G.edges
    )


@st.composite
def small_graphs(draw):
    """Graphs on at most 7 vertices: arbitrary edge sets, and blow-ups of a
    pattern on 3 classes (vertices of one class are twins), whose
    automorphism groups are large."""
    n = draw(st.integers(0, 7))
    pairs = list(combinations(range(n), 2))
    if draw(st.booleans()):
        mask = draw(st.integers(0, (1 << len(pairs)) - 1))
        return SimpleGraph.from_edges(
            n, [p for b, p in enumerate(pairs) if mask >> b & 1])
    classes = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    pattern = {tuple(sorted(ab)) for ab in draw(
        st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2))))}
    return SimpleGraph.from_edges(
        n, [(i, j) for i, j in pairs
            if tuple(sorted((classes[i], classes[j]))) in pattern])


def brute_canonical_key(G):
    """Oracle: the key by its definition.  Over all n! vertex orders take
    the least tuple of level codes, where code t holds the t adjacency bits
    of the vertex at position t to positions 0..t-1, first position first;
    then read the edge list back from it."""
    adj = G.adjacency_masks()
    best = min(
        tuple(sum((adj[order[t]] >> order[p] & 1) << (t - 1 - p)
                  for p in range(t))
              for t in range(G.n))
        for order in permutations(range(G.n)))
    return tuple(sorted((p, t) for t in range(G.n) for p in range(t)
                        if best[t] >> (t - 1 - p) & 1))


def switch_edges(G, times, rng):
    """Up to `times` random switches ab, cd -> ad, cb, each made only when
    it keeps the graph simple, so the degrees never change."""
    edges = set(G.edges)
    for _ in range(times):
        if len(edges) < 2:
            break
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        if rng.random() < 0.5:
            c, d = d, c
        new = {(min(a, d), max(a, d)), (min(c, b), max(c, b))}
        if len({a, b, c, d}) == 4 and not new & edges:
            edges -= {(a, b), (min(c, d), max(c, d))}
            edges |= new
    return SimpleGraph(G.n, frozenset(edges))


def to_networkx(G):
    graph = nx.Graph()
    graph.add_nodes_from(range(G.n))
    graph.add_edges_from(G.edges)
    return graph


def brute_contains(G, F):
    """Oracle: exhaustive injective map search."""
    if F.n > G.n:
        return False
    for images in permutations(range(G.n), F.n):
        if all(G.has_edge(images[a], images[b]) for a, b in F.edges):
            return True
    return False


def valid_witness(witness, G, r, s):
    """Oracle: every vertex lies in one part; parts 0..s-1 are cliques of
    G and parts s..r-1 independent sets."""
    assignment = witness.assignment
    if set(assignment) != set(range(G.n)):
        return False
    for p, kind in assignment.values():
        expected = PartKind.CLIQUE if p < s else PartKind.INDEPENDENT
        if not 0 <= p < r or kind is not expected:
            return False
    return all(G.has_edge(a, b) == (assignment[a][1] is PartKind.CLIQUE)
               for a, b in combinations(range(G.n), 2)
               if assignment[a][0] == assignment[b][0])


def grotzsch():
    """Mycielski graph of C5: triangle-free, chromatic number 4."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, (i + d) % 5) for i in range(5) for d in (1, 4)]
    edges += [(5 + i, 10) for i in range(5)]
    return SimpleGraph.from_edges(11, edges)


def clebsch():
    """Folded 5-cube: 4-bit words adjacent when they differ in one bit or
    in all four; 5-regular, triangle-free, chromatic number 4."""
    return SimpleGraph.from_edges(16, [
        (u, v) for u, v in combinations(range(16), 2)
        if bin(u ^ v).count("1") in (1, 4)])


def random_graph(n, p, rng):
    return SimpleGraph.from_edges(
        n, [e for e in combinations(range(n), 2) if rng.random() < p]
    )


class TestSimpleGraph:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SimpleGraph(2, frozenset({(0, 0)}))
        with pytest.raises(ValidationError):
            SimpleGraph(2, frozenset({(0, 2)}))
        with pytest.raises(ValidationError):
            SimpleGraph(-1, frozenset())

    def test_from_edges_normalizes(self):
        G = SimpleGraph.from_edges(3, [(2, 0), (0, 2), (1, 2)])
        assert G.edges == frozenset({(0, 2), (1, 2)})

    def test_constructors(self):
        assert SimpleGraph.complete(4).edge_count == 6
        assert SimpleGraph.cycle(5).edge_count == 5
        assert SimpleGraph.path(4).edge_count == 3
        assert SimpleGraph.petersen().degrees() == [3] * 10


class TestContainment:
    def test_c4_has_no_triangle(self):
        assert not contains_subgraph(SimpleGraph.cycle(4), SimpleGraph.complete(3))

    def test_k3_contains_itself(self):
        assert contains_subgraph(SimpleGraph.complete(3), SimpleGraph.complete(3))

    def test_c5_contains_p4(self):
        C5, P4 = SimpleGraph.cycle(5), SimpleGraph.path(4)
        assert brute_contains(C5, P4)  # oracle agrees
        assert contains_subgraph(C5, P4)

    def test_against_bruteforce_on_random_pairs(self):
        rng = random.Random(99)
        for _ in range(150):
            G = random_graph(rng.randint(1, 7), rng.random(), rng)
            F = random_graph(rng.randint(1, 4), rng.random(), rng)
            assert contains_subgraph(G, F) == brute_contains(G, F)

    def test_monotone_under_edge_addition(self):
        rng = random.Random(5)
        for _ in range(100):
            G = random_graph(8, 0.3, rng)
            F = random_graph(rng.randint(2, 4), 0.6, rng)
            if not contains_subgraph(G, F):
                continue
            extra = [e for e in combinations(range(8), 2) if e not in G.edges]
            if extra:
                G2 = SimpleGraph(8, G.edges | {extra[0]})
                assert contains_subgraph(G2, F)

    def test_empty_pattern_always_contained(self):
        assert contains_subgraph(SimpleGraph.empty(3), SimpleGraph.empty(0))
        assert contains_subgraph(SimpleGraph.empty(3), SimpleGraph.empty(3))
        assert not contains_subgraph(SimpleGraph.empty(3), SimpleGraph.empty(4))


ENGINE_MEMBERS = {
    "K3": SimpleGraph.complete(3),
    "C4": SimpleGraph.cycle(4),
    "C5": SimpleGraph.cycle(5),
    "P4": SimpleGraph.path(4),
    "K1,3": SimpleGraph.complete_bipartite(1, 3),
    "2K2": SimpleGraph.from_edges(4, [(0, 1), (2, 3)]),
    "K3+K1": SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2)]),
}


@st.composite
def engine_cases(draw):
    n = draw(st.integers(1, 9))
    names = draw(st.lists(st.sampled_from(sorted(ENGINE_MEMBERS)),
                          min_size=1, max_size=2, unique=True))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    raw = [p for b, p in enumerate(pairs) if mask >> b & 1]
    order = draw(st.permutations(pairs))
    v = draw(st.integers(0, n - 1))
    neighbors = draw(st.sets(st.integers(0, n - 1))) - {v}
    return n, [ENGINE_MEMBERS[name] for name in names], raw, order, v, neighbors


class TestEmbeddingEngine:
    """contains_subgraph and the anchored oracle share one search; both are
    checked against the exhaustive oracle, including disconnected members
    and members with an isolated vertex, whose later positions have no
    placed neighbor to narrow their candidates."""

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(engine_cases())
    def test_against_bruteforce(self, case):
        n, members, raw, order, v, neighbors = case

        def free(G):
            return not any(brute_contains(G, F) for F in members)

        G = SimpleGraph.from_edges(n, raw)
        for F in members:
            assert contains_subgraph(G, F) == brute_contains(G, F)

        # grow a family-free H one edge at a time; every attempted edge
        # is an edge_ok query whose precondition (H is free) holds
        oracle = AnchoredOracle(ForbiddenFamily(members))
        H = SimpleGraph.empty(n)
        for i, j in order:
            G = SimpleGraph(n, H.edges | {(i, j)})
            ok = free(G)
            assert oracle.edge_ok(G.adjacency_masks(), G.degrees(), i, j) == ok
            if ok:
                H = G

        # rewire v: G - v is a subgraph of the free H, so vertex_ok applies
        kept = [e for e in H.edges if v not in e]
        G = SimpleGraph.from_edges(n, kept + [(v, u) for u in neighbors])
        assert oracle.vertex_ok(G.adjacency_masks(), G.degrees(), v) == free(G)


class TestFamilies:
    def test_empty_family_frees_everything(self):
        fam = ForbiddenFamily()
        assert is_family_free(SimpleGraph.complete(5), fam)
        assert coloring_number(fam) == math.inf

    def test_k4_not_triangle_free(self):
        fam = ForbiddenFamily([SimpleGraph.complete(3)])
        assert not is_family_free(SimpleGraph.complete(4), fam)

    def test_petersen_triangle_free(self):
        fam = ForbiddenFamily([SimpleGraph.complete(3)])
        assert is_family_free(SimpleGraph.petersen(), fam)

    def test_members_deduplicated_up_to_isomorphism(self):
        K3 = SimpleGraph.complete(3)
        relabeled = SimpleGraph.from_edges(3, [(1, 2), (0, 2), (0, 1)])
        fam = ForbiddenFamily([K3, relabeled, SimpleGraph.cycle(3)])
        assert len(fam) == 1

    def test_members_differing_only_in_size_are_kept(self):
        # every edgeless graph has the canonical key ()
        fam = ForbiddenFamily([SimpleGraph.empty(2), SimpleGraph.empty(1)])
        assert len(fam) == 2
        assert fam.key() == ((1, ()), (2, ()))
        # the single vertex is itself a copy of the forbidden empty(1)
        assert count_labeled(fam, 1) == 0

    def test_closed_under_edge_deletion(self):
        fam = ForbiddenFamily([SimpleGraph.complete(3), SimpleGraph.cycle(5)])
        rng = random.Random(17)
        found = 0
        while found < 40:
            G = random_graph(7, rng.random(), rng)
            if not is_family_free(G, fam) or not G.edges:
                continue
            found += 1
            for e in G.edges:
                assert is_family_free(SimpleGraph(7, G.edges - {e}), fam)

    def test_coloring_number(self):
        assert coloring_number(ForbiddenFamily([SimpleGraph.complete(3)])) == 3
        fam = ForbiddenFamily([SimpleGraph.cycle(5), SimpleGraph.complete(4)])
        assert coloring_number(fam) == 3


class TestChromaticNumber:
    def test_known_values(self):
        assert chromatic_number(SimpleGraph.complete(4)) == 4
        assert chromatic_number(SimpleGraph.empty(5)) == 1
        assert chromatic_number(SimpleGraph.empty(0)) == 0
        assert chromatic_number(SimpleGraph.petersen()) == 3
        assert chromatic_number(SimpleGraph.complete_bipartite(3, 4)) == 2
        # clique number 2: the colour count comes from the search alone
        assert chromatic_number(grotzsch()) == 4
        assert chromatic_number(clebsch()) == 4

    def test_c5_needs_three_colors(self):
        C5 = SimpleGraph.cycle(5)
        # oracle: no proper 2-coloring exists, some 3-coloring does
        def proper(coloring):
            return all(coloring[i] != coloring[j] for i, j in C5.edges)
        two = any(proper([(m >> v) & 1 for v in range(5)]) for m in range(32))
        three = any(
            proper([(m // 3 ** v) % 3 for v in range(5)]) for m in range(3 ** 5)
        )
        assert not two and three
        assert chromatic_number(C5) == 3

    def test_against_bruteforce(self):
        rng = random.Random(31)

        def brute_chi(G):
            if G.n == 0:
                return 0
            for k in range(1, G.n + 1):
                for m in range(k ** G.n):
                    coloring = [(m // k ** v) % k for v in range(G.n)]
                    if all(coloring[i] != coloring[j] for i, j in G.edges):
                        return k
            return G.n

        for _ in range(60):
            G = random_graph(rng.randint(1, 6), rng.random(), rng)
            assert chromatic_number(G) == brute_chi(G)

    def test_budget(self):
        with pytest.raises(BudgetError):
            chromatic_number(SimpleGraph.empty(17))


class TestCrsMember:
    def test_bipartite_in_c20(self):
        G = SimpleGraph.complete_bipartite(3, 3)
        witness = crs_member(G, 2, 0)
        assert witness is not None and valid_witness(witness, G, 2, 0)

    def test_k5_is_one_clique(self):
        G = SimpleGraph.complete(5)
        witness = crs_member(G, 1, 1)
        assert witness is not None and valid_witness(witness, G, 1, 1)
        assert all(kind is PartKind.CLIQUE for _, kind in witness.assignment.values())

    def test_c5_not_in_c21(self):
        C5 = SimpleGraph.cycle(5)
        # oracle: all 2^5 assignments to (clique, independent) fail
        for mask in range(32):
            clique = [v for v in range(5) if mask >> v & 1]
            independent = [v for v in range(5) if not mask >> v & 1]
            ok = all(C5.has_edge(a, b) for a, b in combinations(clique, 2))
            ok = ok and not any(
                C5.has_edge(a, b) for a, b in combinations(independent, 2)
            )
            assert not ok
        assert crs_member(C5, 2, 1) is None

    def test_c_r0_equals_r_colorability(self):
        rng = random.Random(23)
        for _ in range(50):
            G = random_graph(rng.randint(1, 8), rng.random(), rng)
            chi = chromatic_number(G)
            for r in range(1, 5):
                witness = crs_member(G, r, 0)
                assert (witness is not None) == (chi <= r)
                assert witness is None or valid_witness(witness, G, r, 0)

    def test_validation_and_budget(self):
        with pytest.raises(ValidationError):
            crs_member(SimpleGraph.empty(2), 0, 0)
        with pytest.raises(ValidationError):
            crs_member(SimpleGraph.empty(2), 2, 3)
        with pytest.raises(BudgetError):
            crs_member(SimpleGraph.empty(15), 2, 0)


class TestCanonicalForm:
    def test_invariant_under_relabeling(self):
        for G in (SimpleGraph.path(4), SimpleGraph.cycle(5),
                  SimpleGraph.complete_bipartite(2, 3)):
            keys = {
                canonical_key(G.relabeled(list(p)))
                for p in permutations(range(G.n))
            }
            assert len(keys) == 1

    def test_distinguishes_nonisomorphic(self):
        assert canonical_key(SimpleGraph.complete(3)) != canonical_key(
            SimpleGraph.path(3))
        assert canonical_key(SimpleGraph.cycle(6)) != canonical_key(
            SimpleGraph.complete_bipartite(3, 3))
        assert canonical_key(SimpleGraph.cycle(4)) == canonical_key(
            SimpleGraph.complete_bipartite(2, 2))

    def test_automorphism_counts(self):
        assert automorphism_count(SimpleGraph.cycle(5)) == 10
        assert brute_aut(SimpleGraph.cycle(5)) == 10
        for G in (SimpleGraph.empty(5), SimpleGraph.complete(4),
                  SimpleGraph.path(5), SimpleGraph.complete_bipartite(3, 3),
                  SimpleGraph.cycle(7)):
            assert automorphism_count(G) == brute_aut(G)
        assert automorphism_count(SimpleGraph.petersen()) == 120

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(small_graphs())
    def test_automorphism_count_against_bruteforce(self, G):
        assert automorphism_count(G) == brute_aut(G)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(small_graphs(), st.data())
    def test_invariant_under_relabelling(self, G, data):
        perm = data.draw(st.permutations(range(G.n)))
        H = G.relabeled(list(perm))
        assert canonical_key(H) == canonical_key(G)
        assert automorphism_count(H) == automorphism_count(G)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(small_graphs())
    def test_equals_the_definition(self, G):
        assert canonical_key(G) == brute_canonical_key(G)

    def test_separates_exactly_the_isomorphism_classes(self):
        # pairs with equal degree sequences: edge switches of random graphs
        # (relabelled, so that the identity labelling is not favoured) and
        # independent random regular graphs
        rng = random.Random(20140)
        pairs = []
        for _ in range(200):
            n = rng.randint(4, 10)
            G = random_graph(n, rng.uniform(0.2, 0.8), rng)
            perm = list(range(n))
            rng.shuffle(perm)
            pairs.append((G, switch_edges(G, rng.randint(0, 2), rng)
                          .relabeled(perm)))
        for seed in range(100):
            n, d = rng.choice([(8, 3), (10, 3), (9, 4), (10, 4)])
            G, H = (SimpleGraph.from_edges(n, nx.random_regular_graph(
                d, n, seed=2 * seed + i).edges()) for i in (0, 1))
            pairs.append((G, H))
        outcomes = Counter()
        for G, H in pairs:
            assert sorted(G.degrees()) == sorted(H.degrees())
            isomorphic = nx.is_isomorphic(to_networkx(G), to_networkx(H))
            assert (canonical_key(G) == canonical_key(H)) == isomorphic
            outcomes[isomorphic] += 1
        assert min(outcomes[True], outcomes[False]) >= 50

    def test_canonical_form_returns_both(self):
        C5 = SimpleGraph.cycle(5)
        assert len(canonical_key(C5)) == 5
        assert automorphism_count(C5) == 10

    def test_orbit_stabilizer_partition_of_labeled_graphs(self):
        # sum of orbit sizes n!/|Aut| over all classes covers every graph
        for n in range(1, 6):
            pairs = all_pairs(n)
            classes = {}
            for mask in range(1 << len(pairs)):
                G = graph_from_mask(n, mask, pairs)
                classes.setdefault(canonical_key(G), G)
            total = sum(
                math.factorial(n) // automorphism_count(G)
                for G in classes.values()
            )
            assert total == 2 ** (n * (n - 1) // 2)

    def test_budget(self):
        with pytest.raises(BudgetError, match="canonical_key"):
            canonical_key(SimpleGraph.empty(13))
        with pytest.raises(BudgetError, match="automorphism_count"):
            automorphism_count(SimpleGraph.empty(13))
