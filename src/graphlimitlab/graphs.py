"""Finite simple graphs and the exact combinatorics used everywhere else.

Contains the SimpleGraph value type, subgraph containment (non-induced
throughout), exact chromatic number, clique/independent-set partitions,
a homegrown canonical form with automorphism counting, and graph6 I/O.

One subgraph-embedding engine, ``_ExtensionPlan``, serves
``contains_subgraph`` (a plan with no anchors), ``automorphism_count``
(plans anchored at a prefix of the vertices) and the anchored
incremental tests of ``census.AnchoredOracle``.  One partition search,
``_partition``, serves ``crs_member`` and ``chromatic_number`` (the least
r for which it splits G into r independent sets).

``canonical_key`` is uncached: the census labels each extension once, and
a ForbiddenFamily labels each member once, when it is built.

All exact searches carry explicit vertex budgets and raise BudgetError
beyond them rather than approximating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, Optional

from .errors import BudgetError, ValidationError

CHROMATIC_BUDGET = 16
CRS_BUDGET = 14
CANONICAL_BUDGET = 12


# ---------------------------------------------------------------------------
# SimpleGraph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertices 0..n-1.

    Edges are stored as a frozenset of pairs (i, j) with i < j; no loops,
    no multi-edges.
    """

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 0:
            raise ValidationError("vertex count must be nonnegative")
        for e in self.edges:
            if not (isinstance(e, tuple) and len(e) == 2):
                raise ValidationError(f"edge {e!r} is not a pair")
            i, j = e
            if i == j:
                raise ValidationError(f"loop at vertex {i}")
            if not (0 <= i < j < self.n):
                raise ValidationError(f"edge {e!r} out of range for n={self.n}")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple]) -> "SimpleGraph":
        normalized = frozenset((min(i, j), max(i, j)) for i, j in edges)
        return SimpleGraph(n, normalized)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def adjacency_masks(self) -> list:
        """Per-vertex neighbor bitmasks; the workhorse of every search here."""
        adj = [0] * self.n
        for i, j in self.edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return adj

    def degrees(self) -> list:
        deg = [0] * self.n
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def relabeled(self, perm: list) -> "SimpleGraph":
        """Apply vertex relabeling v -> perm[v]."""
        return SimpleGraph.from_edges(
            self.n, ((perm[i], perm[j]) for i, j in self.edges)
        )

    # -- named constructors used throughout tests and demos --

    @staticmethod
    def empty(n: int) -> "SimpleGraph":
        return SimpleGraph(n, frozenset())

    @staticmethod
    def complete(n: int) -> "SimpleGraph":
        return SimpleGraph.from_edges(n, combinations(range(n), 2))

    @staticmethod
    def cycle(n: int) -> "SimpleGraph":
        if n < 3:
            raise ValidationError("cycle needs at least 3 vertices")
        return SimpleGraph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))

    @staticmethod
    def path(n: int) -> "SimpleGraph":
        return SimpleGraph.from_edges(n, ((i, i + 1) for i in range(n - 1)))

    @staticmethod
    def complete_bipartite(a: int, b: int) -> "SimpleGraph":
        return SimpleGraph.from_edges(
            a + b, ((i, a + j) for i in range(a) for j in range(b))
        )

    @staticmethod
    def petersen() -> "SimpleGraph":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        return SimpleGraph.from_edges(10, outer + spokes + inner)


def all_pairs(n: int) -> list:
    """Vertex pairs (i, j), i < j, in lexicographic order.

    This order is the canonical pair order shared by the samplers and the
    census code; edge/bit indexing must agree across modules.
    """
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def graph_from_mask(n: int, mask: int, pairs: list) -> SimpleGraph:
    edges = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
    return SimpleGraph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# Subgraph containment (non-induced)
# ---------------------------------------------------------------------------

def contains_subgraph(G: SimpleGraph, F: SimpleGraph) -> bool:
    """True iff some subgraph of G (not necessarily induced) is isomorphic to F.

    After a sorted-degree pre-check, an extension plan with no anchors
    searches for an injective homomorphism: F-edges must map onto G-edges,
    F-non-edges are unconstrained.
    """
    deg_f = F.degrees()
    deg_g = G.degrees()
    # sorted-degree domination: the k-th largest F-degree cannot exceed
    # the k-th largest G-degree under any embedding
    for df, dg in zip(sorted(deg_f, reverse=True), sorted(deg_g, reverse=True)):
        if df > dg:
            return False
    plan = _ExtensionPlan(F.adjacency_masks(), deg_f, [])
    return plan.embeds(G.adjacency_masks(), deg_g, ())


class _ExtensionPlan:
    """Static search plan: embed one pattern starting from fixed anchors.

    ``order`` lists the pattern's vertices, anchors first, then
    connectivity-first and high-degree-first; for each later position,
    ``earlier_neighbors`` holds the positions of its already placed
    neighbors (only pattern edges constrain the embedding) and ``degrees``
    its degree requirement.
    """

    __slots__ = ("size", "anchors", "degrees", "earlier_neighbors")

    def __init__(self, F_adj: list, F_deg: list, anchors: list):
        size = len(F_adj)
        order = list(anchors)
        placed = set(order)
        while len(order) < size:
            best, best_key = -1, None
            for a in range(size):
                if a in placed:
                    continue
                attached = sum(1 for b in order if F_adj[a] >> b & 1)
                key = (attached, F_deg[a], -a)
                if best_key is None or key > best_key:
                    best, best_key = a, key
            order.append(best)
            placed.add(best)
        position = {a: p for p, a in enumerate(order)}
        self.size = size
        self.anchors = len(anchors)
        self.degrees = [F_deg[a] for a in order]
        self.earlier_neighbors = [
            [position[b] for b in range(size)
             if F_adj[order[p]] >> b & 1 and position[b] < p]
            for p in range(size)
        ]

    def embeds(self, adj: list, deg: list, anchor_images: tuple) -> bool:
        """Backtracking injective extension of the anchored partial map.

        The candidates of a position are the unused target vertices
        adjacent to the images of all its earlier neighbors, one bitset
        tried from the lowest vertex up.
        """
        n_g = len(adj)
        if self.size > n_g:
            return False
        for p, v in enumerate(anchor_images):
            if self.degrees[p] > deg[v]:
                return False
        images = list(anchor_images) + [0] * (self.size - self.anchors)
        free = (1 << n_g) - 1
        for v in anchor_images:
            free &= ~(1 << v)
        degrees = self.degrees
        earlier = self.earlier_neighbors

        def rec(p: int, free: int) -> bool:
            if p == self.size:
                return True
            need = degrees[p]
            candidates = free
            for q in earlier[p]:
                candidates &= adj[images[q]]
            while candidates:
                bit = candidates & -candidates
                candidates ^= bit
                t = bit.bit_length() - 1
                if deg[t] < need:
                    continue
                images[p] = t
                if rec(p + 1, free ^ bit):
                    return True
            return False

        return rec(self.anchors, free)


# ---------------------------------------------------------------------------
# Forbidden families
# ---------------------------------------------------------------------------

class ForbiddenFamily:
    """Finite list of forbidden subgraphs, deduplicated up to isomorphism.

    Members are keyed by (vertex count, canonical key): every edgeless
    graph has the key (), so the vertex count is part of the identity.
    The sorted tuple of these keys is the family's cache key.

    An empty family forbids nothing: every graph is family-free and the
    coloring number is infinite.
    """

    def __init__(self, members: Iterable[SimpleGraph] = ()):
        unique = {}
        for F in members:
            unique.setdefault((F.n, canonical_key(F)), F)
        self.members = tuple(unique.values())
        self._key = tuple(sorted(unique))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __repr__(self) -> str:
        return f"ForbiddenFamily({list(self.members)!r})"

    def key(self) -> tuple:
        return self._key


def is_family_free(G: SimpleGraph, fam: ForbiddenFamily) -> bool:
    return all(not contains_subgraph(G, F) for F in fam)


def coloring_number(fam: ForbiddenFamily):
    """Minimum chromatic number over the family; math.inf for the empty one."""
    if len(fam) == 0:
        return math.inf
    return min(chromatic_number(F) for F in fam)


# ---------------------------------------------------------------------------
# Partitions into cliques and independent sets; chromatic number
# ---------------------------------------------------------------------------

class PartKind(Enum):
    CLIQUE = "clique"
    INDEPENDENT = "independent"


@dataclass(frozen=True)
class CrsWitness:
    """Partition witness: vertex -> (part index, part kind)."""

    assignment: dict


def crs_member(G: SimpleGraph, r: int, s: int) -> Optional[CrsWitness]:
    """Witness that G splits into s cliques and r-s independent sets, or None.

    Parts may be empty.  n <= 14.
    """
    if r < 1:
        raise ValidationError("r must be a positive integer")
    if not 0 <= s <= r:
        raise ValidationError("s must satisfy 0 <= s <= r")
    if G.n > CRS_BUDGET:
        raise BudgetError(f"crs_member limited to n <= {CRS_BUDGET}")
    return _partition(G, r, s)


def chromatic_number(G: SimpleGraph) -> int:
    """Exact chromatic number, n <= 16: the least r for which G splits
    into r independent sets."""
    if G.n > CHROMATIC_BUDGET:
        raise BudgetError(f"chromatic_number limited to n <= {CHROMATIC_BUDGET}")
    for r in range(1, G.n):
        if _partition(G, r, 0) is not None:
            return r
    return G.n  # n singleton parts; 0 for the empty graph


def _partition(G: SimpleGraph, r: int, s: int) -> Optional[CrsWitness]:
    """The search behind ``crs_member`` and ``chromatic_number``.

    Backtracking over vertex assignments, highest degree first; empty
    parts of the same kind are interchangeable, so only the first empty
    part of each kind is ever tried.
    """
    adj = G.adjacency_masks()
    deg = G.degrees()
    order = sorted(range(G.n), key=lambda v: -deg[v])
    part_masks = [0] * r
    assignment = {}

    def rec(idx: int) -> bool:
        if idx == G.n:
            return True
        v = order[idx]
        tried_empty_clique = False
        tried_empty_independent = False
        for p in range(r):
            kind = PartKind.CLIQUE if p < s else PartKind.INDEPENDENT
            if part_masks[p] == 0:
                if kind is PartKind.CLIQUE:
                    if tried_empty_clique:
                        continue
                    tried_empty_clique = True
                else:
                    if tried_empty_independent:
                        continue
                    tried_empty_independent = True
            if kind is PartKind.CLIQUE:
                if part_masks[p] & ~adj[v]:
                    continue
            else:
                if part_masks[p] & adj[v]:
                    continue
            part_masks[p] |= 1 << v
            assignment[v] = (p, kind)
            if rec(idx + 1):
                return True
            part_masks[p] &= ~(1 << v)
            del assignment[v]
        return False

    if rec(0):
        return CrsWitness(dict(assignment))
    return None


# ---------------------------------------------------------------------------
# Canonical form and automorphisms
# ---------------------------------------------------------------------------

def canonical_key(G: SimpleGraph) -> tuple:
    """Canonical edge list; invariant under relabeling, n <= 12.

    The canonical labeling minimizes the adjacency bit string read off
    level by level: the vertex at position t contributes the t-bit code
    of its adjacency to positions 0..t-1, first position first, and the
    key is the edge list of the order whose tuple of level codes is
    lexicographically least.  Vertices whose swap is an automorphism
    ("twins") are collapsed at every branch point, which keeps highly
    symmetric graphs cheap.

    Each search node hands its children the code of every unused vertex
    to the prefix so far; placing v at position t extends each of those
    codes by one bit, the vertex's adjacency to v, so no code is rebuilt.
    """
    if G.n > CANONICAL_BUDGET:
        raise BudgetError(f"canonical_key limited to n <= {CANONICAL_BUDGET}")
    n = G.n
    if n == 0:
        return ()
    adj = G.adjacency_masks()

    # twins[u]: mask of the vertices v for which exchanging u and v is an
    # automorphism
    twins = [0] * n
    for u, v in combinations(range(n), 2):
        strip = ~((1 << u) | (1 << v))
        if adj[u] & strip == adj[v] & strip:
            twins[u] |= 1 << v
            twins[v] |= 1 << u

    best = None
    cur = [0] * n  # cur[t] = level code of the vertex at position t

    def rec(t: int, candidates: list, free: bool) -> bool:
        # candidates: sorted (code, v) of the unused vertices, code to the
        # prefix.  Entry invariant: free means cur[:t] undercuts best (or
        # best unset); otherwise cur[:t] == best[:t].  Returns True iff
        # best was replaced.
        nonlocal best
        if t == n:
            if free:
                best = list(cur)
                return True
            return False
        tried = 0
        updated = False
        for code, v in candidates:
            if twins[v] & tried:
                continue
            tried |= 1 << v
            if not free:
                if code > best[t]:
                    break  # sorted candidates: the rest are worse too
                child_free = code < best[t]
            else:
                child_free = True
            cur[t] = code
            row = adj[v]
            children = [(c << 1 | row >> u & 1, u)
                        for c, u in candidates if u != v]
            children.sort()
            if rec(t + 1, children, child_free):
                # the new best shares our prefix, so this node is tight now
                updated = True
                free = False
        return updated

    rec(0, [(0, v) for v in range(n)], True)

    edges = []
    for t in range(1, n):
        code = best[t]
        for p in range(t):
            if code >> (t - 1 - p) & 1:
                edges.append((p, t))
    return tuple(sorted(edges))


def automorphism_count(G: SimpleGraph) -> int:
    """|Aut(G)| by the orbit-stabilizer chain over the vertex base 0..n-1.

    The orbit of base vertex i under the pointwise stabilizer of 0..i-1 is
    found by one embedding search per candidate image u: an extension plan
    anchored at 0..i places 0..i-1 on themselves and i on u.  An
    edge-preserving injection of a finite graph into itself is an
    automorphism, so the search is exact.  The group order is the product
    of the orbit sizes.
    """
    if G.n > CANONICAL_BUDGET:
        raise BudgetError(
            f"automorphism_count limited to n <= {CANONICAL_BUDGET}")
    n = G.n
    if n <= 1:
        return 1
    adj = G.adjacency_masks()
    deg = G.degrees()

    total = 1
    for i in range(n):
        low = (1 << i) - 1
        candidates = [u for u in range(i + 1, n)
                      if deg[u] == deg[i] and adj[u] & low == adj[i] & low]
        if candidates:
            plan = _ExtensionPlan(adj, deg, list(range(i + 1)))
            prefix = tuple(range(i))
            total *= 1 + sum(plan.embeds(adj, deg, prefix + (u,))
                             for u in candidates)
    return total


# ---------------------------------------------------------------------------
# graph6 encoding (bit-exact per the published format, n <= 62)
# ---------------------------------------------------------------------------

GRAPH6_HEADER = ">>graph6<<"


def to_graph6(G: SimpleGraph) -> str:
    if G.n > 62:
        raise ValidationError("graph6 support is limited to n <= 62 here")
    n = G.n
    out = [chr(n + 63)]
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if G.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k:k + 6]:
            value = (value << 1) | b
        out.append(chr(value + 63))
    return "".join(out)


def from_graph6(text: str) -> SimpleGraph:
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise ValidationError("empty graph6 string")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise ValidationError(f"invalid graph6 character {ch!r}")
    n = ord(s[0]) - 63
    if n > 62:
        raise ValidationError("graph6 support is limited to n <= 62 here")
    body = s[1:]
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise ValidationError(
            f"graph6 body has {len(body)} characters, expected {expected}"
        )
    bits = []
    for ch in body:
        value = ord(ch) - 63
        for shift in range(5, -1, -1):
            bits.append(value >> shift & 1)
    if any(bits[nbits:]):
        raise ValidationError("nonzero padding bits in graph6 string")
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return SimpleGraph.from_edges(n, edges)


def load_family(path) -> ForbiddenFamily:
    """Read a family file: one graph6 string per line, '#' lines are comments."""
    members = []
    with open(path, "r", encoding="ascii") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            members.append(from_graph6(line))
    return ForbiddenFamily(members)
