"""Exhaustive labeled-graph generators for cluster sums.

Vertices are 0-based internally.  The generators stream graphs in a fixed
canonical order (edge bitmask ascending, Pruefer sequence lexicographic),
so downstream sums are bit-stable.  Connectivity inside the generators is
decided with union-find; the ``classify`` predicates use DFS, so the
generator/filter equivalence tests exercise two independent routes.

By convention the single edge on two vertices counts as 2-connected: it is
the first irreducible graph, giving the standard leading Mayer coefficient.
"""

from __future__ import annotations

import heapq
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


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[ri] = rj

    def n_components(self) -> int:
        return len({self.find(i) for i in range(len(self.parent))})


def _mask_to_edges(mask: int, pairs: list[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    return frozenset(p for b, p in enumerate(pairs) if mask >> b & 1)


def _uf_connected(n: int, edges: frozenset[tuple[int, int]],
                  skip: int | None = None) -> bool:
    """Union-find connectivity, optionally with one vertex deleted."""
    keep = [v for v in range(n) if v != skip]
    if len(keep) <= 1:
        return True
    index = {v: k for k, v in enumerate(keep)}
    uf = _UnionFind(len(keep))
    for i, j in edges:
        if i != skip and j != skip:
            uf.union(index[i], index[j])
    return uf.n_components() == 1


def enumerate_all_graphs(n: int) -> Iterator[LabeledGraph]:
    """Every labeled simple graph on n vertices (2^(n(n-1)/2) of them)."""
    pairs = all_pairs(n)
    for mask in range(1 << len(pairs)):
        yield LabeledGraph(n, _mask_to_edges(mask, pairs))


def enumerate_connected(n: int) -> Iterator[LabeledGraph]:
    """All labeled connected graphs on n vertices, 1 <= n <= 6."""
    if not 1 <= n <= MAX_CLUSTER_ORDER:
        raise GuardError(f"connected enumeration guarded to n <= {MAX_CLUSTER_ORDER}")
    pairs = all_pairs(n)
    for mask in range(1 << len(pairs)):
        edges = _mask_to_edges(mask, pairs)
        if _uf_connected(n, edges):
            yield LabeledGraph(n, edges)


def enumerate_biconnected(n: int) -> Iterator[LabeledGraph]:
    """Labeled graphs on n vertices staying connected after any one deletion."""
    if not 2 <= n <= MAX_CLUSTER_ORDER:
        raise GuardError(f"biconnected enumeration guarded to 2 <= n <= {MAX_CLUSTER_ORDER}")
    pairs = all_pairs(n)
    for mask in range(1 << len(pairs)):
        edges = _mask_to_edges(mask, pairs)
        if not _uf_connected(n, edges):
            continue
        if all(_uf_connected(n, edges, skip=v) for v in range(n)):
            yield LabeledGraph(n, edges)


def _tree_from_pruefer(seq: tuple[int, ...], n: int) -> frozenset[tuple[int, int]]:
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
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


def classify(g: LabeledGraph) -> dict[str, bool]:
    """DFS-based predicates for one graph; ``biconnected`` keeps the
    single-edge convention, as a single edge has no articulation point."""
    connected = _dfs_connected(g)
    biconnected = connected and not _articulation_points(g)
    tree = connected and len(g.edges) == g.n - 1
    return {"connected": connected, "biconnected": biconnected, "tree": tree}


def brute_force_class(n: int, predicate: str) -> set[frozenset[tuple[int, int]]]:
    """Edge sets of all n-vertex graphs passing a ``classify`` predicate."""
    return {g.edges for g in enumerate_all_graphs(n) if classify(g)[predicate]}
