"""graph6 codec: bit-exactness against networkx and format edge cases."""

import random
from itertools import combinations

import networkx as nx
import pytest

from graphlimitlab import (
    SimpleGraph,
    ValidationError,
    from_graph6,
    load_family,
    to_graph6,
)


def test_known_encodings():
    assert to_graph6(SimpleGraph.empty(0)) == "?"
    assert to_graph6(SimpleGraph.empty(1)) == "@"
    assert to_graph6(SimpleGraph.complete(2)) == "A_"
    assert to_graph6(SimpleGraph.complete(4)) == "C~"


def test_round_trip():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randrange(0, 20)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
        G = SimpleGraph.from_edges(n, edges)
        assert from_graph6(to_graph6(G)) == G


def test_bit_exact_against_networkx():
    rng = random.Random(12)
    for _ in range(100):
        n = rng.randrange(0, 15)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        G = SimpleGraph.from_edges(n, edges)
        H = nx.Graph()
        H.add_nodes_from(range(n))
        H.add_edges_from(edges)
        assert to_graph6(G) == nx.to_graph6_bytes(H, header=False).decode().strip()


def test_decode_accepts_optional_header():
    text = nx.to_graph6_bytes(nx.petersen_graph(), header=True).decode()
    G = from_graph6(text)
    assert G.n == 10 and G.edge_count == 15


def test_strictness():
    with pytest.raises(ValidationError):
        from_graph6("")
    with pytest.raises(ValidationError):
        from_graph6("C")  # truncated body
    with pytest.raises(ValidationError):
        from_graph6("B" + chr(62))  # character out of range
    with pytest.raises(ValidationError):
        from_graph6("A" + chr(63 + 1))  # nonzero padding bits
    with pytest.raises(ValidationError):
        to_graph6(SimpleGraph.empty(63))


def test_family_file_round_trip(tmp_path):
    path = tmp_path / "family.g6"
    graphs = [SimpleGraph.complete(3), SimpleGraph.cycle(5)]
    path.write_text("# a comment line\n\n"
                    + "".join(to_graph6(G) + "\n" for G in graphs))
    fam = load_family(path)
    assert len(fam) == 2
    assert {G.n for G in fam} == {3, 5}
