"""Exhaustive labeled-graph generators for cluster sums.

Vertices are 0-based internally.  The generators stream graphs in a fixed
canonical order (edge bitmask ascending, Pruefer sequence lexicographic),
so downstream sums are bit-stable.  The generators decide connectivity by
bitmask reachability, the ``classify`` filter by DFS and articulation
points, so the generator/filter equivalence tests compare two routes.

By convention the single edge on two vertices counts as 2-connected: it is
the first irreducible graph, giving the standard leading Mayer coefficient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .model import GuardError

MAX_CLUSTER_ORDER = 6
MAX_TREE_ORDER = 8


@dataclass(frozen=True)
class LabeledGraph:
    """A labeled simple graph."""

    n: int
    edges: frozenset[tuple[int, int]]

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj


def all_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _mask_to_edges(mask: int, pairs: list[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    return frozenset(p for b, p in enumerate(pairs) if mask >> b & 1)


def _neighbours(n: int, edges: frozenset[tuple[int, int]]) -> list[int]:
    nb = [0] * n
    for i, j in edges:
        nb[i] |= 1 << j
        nb[j] |= 1 << i
    return nb


def _spans(neighbours: list[int], keep: int) -> bool:
    """Whether the vertex set ``keep`` (a bitmask) induces a connected graph."""
    reached = todo = keep & -keep
    while todo:
        low = todo & -todo
        todo ^= low
        new = neighbours[low.bit_length() - 1] & keep & ~reached
        reached |= new
        todo |= new
    return reached == keep


def enumerate_all_graphs(n: int) -> Iterator[LabeledGraph]:
    """Every labeled simple graph on n vertices (2^(n(n-1)/2) of them)."""
    pairs = all_pairs(n)
    for mask in range(1 << len(pairs)):
        yield LabeledGraph(n, _mask_to_edges(mask, pairs))


def enumerate_connected(n: int) -> Iterator[LabeledGraph]:
    """All labeled connected graphs on n vertices, 1 <= n <= 6."""
    if not 1 <= n <= MAX_CLUSTER_ORDER:
        raise GuardError(f"connected enumeration guarded to n <= {MAX_CLUSTER_ORDER}")
    pairs, everyone = all_pairs(n), (1 << n) - 1
    for mask in range(1 << len(pairs)):
        edges = _mask_to_edges(mask, pairs)
        if _spans(_neighbours(n, edges), everyone):
            yield LabeledGraph(n, edges)


def enumerate_biconnected(n: int) -> Iterator[LabeledGraph]:
    """Labeled graphs on n vertices staying connected after any one deletion."""
    if not 2 <= n <= MAX_CLUSTER_ORDER:
        raise GuardError(f"biconnected enumeration guarded to 2 <= n <= {MAX_CLUSTER_ORDER}")
    pairs, everyone = all_pairs(n), (1 << n) - 1
    for mask in range(1 << len(pairs)):
        edges = _mask_to_edges(mask, pairs)
        nb = _neighbours(n, edges)
        if _spans(nb, everyone) and all(_spans(nb, everyone ^ (1 << v)) for v in range(n)):
            yield LabeledGraph(n, edges)


def _tree_from_pruefer(seq: tuple[int, ...], n: int) -> frozenset[tuple[int, int]]:
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = degree.index(1)  # the smallest leaf; a removed leaf has degree 0
        edges.append((leaf, v) if leaf < v else (v, leaf))
        degree[leaf] = 0
        degree[v] -= 1
    u = degree.index(1)
    edges.append((u, degree.index(1, u + 1)))
    return frozenset(edges)


def enumerate_trees(n: int) -> Iterator[LabeledGraph]:
    """All n^(n-2) labeled trees via Pruefer sequences, 1 <= n <= 8."""
    if not 1 <= n <= MAX_TREE_ORDER:
        raise GuardError(f"tree enumeration guarded to n <= {MAX_TREE_ORDER}")
    if n == 1:
        yield LabeledGraph(1, frozenset())
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield LabeledGraph(n, _tree_from_pruefer(seq, n))


def _dfs_connected(g: LabeledGraph) -> bool:
    if g.n == 0:
        return True
    adj = g.adjacency()
    seen = set()
    stack = [0]
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        stack.extend(adj[u] - seen)
    return len(seen) == g.n


def _articulation_points(g: LabeledGraph) -> set[int]:
    """Hopcroft-Tarjan articulation points (iterative low-link DFS)."""
    adj = [sorted(s) for s in g.adjacency()]
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    points: set[int] = set()
    counter = itertools.count()
    for root in range(g.n):
        if root in disc:
            continue
        stack: list[tuple[int, int | None, Iterator[int]]] = [(root, None, iter(adj[root]))]
        disc[root] = low[root] = next(counter)
        root_children = 0
        while stack:
            u, parent, it = stack[-1]
            advanced = False
            for w in it:
                if w == parent:
                    continue
                if w in disc:
                    low[u] = min(low[u], disc[w])
                    continue
                disc[w] = low[w] = next(counter)
                if u == root:
                    root_children += 1
                stack.append((w, u, iter(adj[w])))
                advanced = True
                break
            if advanced:
                continue
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[u])
                if p != root and low[u] >= disc[p]:
                    points.add(p)
        if root_children > 1:
            points.add(root)
    return points


_PREDICATES = {
    "connected": _dfs_connected,
    "biconnected": lambda g: _dfs_connected(g) and not _articulation_points(g),
    "tree": lambda g: len(g.edges) == g.n - 1 and _dfs_connected(g),
}


def classify(g: LabeledGraph) -> dict[str, bool]:
    """DFS-based predicates for one graph; ``biconnected`` keeps the
    single-edge convention, as a single edge has no articulation point."""
    return {name: test(g) for name, test in _PREDICATES.items()}


def brute_force_class(n: int, predicate: str) -> set[frozenset[tuple[int, int]]]:
    """Edge sets of all n-vertex graphs passing one ``classify`` predicate."""
    test = _PREDICATES[predicate]
    return {g.edges for g in enumerate_all_graphs(n) if test(g)}
