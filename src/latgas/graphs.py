"""Exhaustive labeled-graph classes for cluster sums.

A graph on n vertices (0-based) is an ``int`` edge bitmask: bit p marks the
pair ``all_pairs(n)[p]``, the pairs (i, j), i < j, in lexicographic order,
so p = i (2n - 3 - i) / 2 + j - 1.  The pair of a bit depends on n, so a
mask means nothing without its n, and every function that takes a graph
takes n too.  ``edges(n, graph)`` decodes a mask into its pairs.

Each class is one int64 array in ascending edge-mask order, so downstream
sums are bit-stable; ``enumerate_*`` stream the same arrays lazily.
Connected and 2-connected graphs are decided by bitmask reachability run
over all 2^(n(n-1)/2) masks at once, and trees are the connected graphs
with n - 1 edges.  The ``classify`` filter decides the same classes by DFS
and articulation points, so the array/filter equivalence tests compare two
routes.

By convention the single edge on two vertices counts as 2-connected: it is
the first irreducible graph, giving the standard leading Mayer coefficient.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator

import numpy as np

from .model import GuardError

MAX_CLUSTER_ORDER = 6


@functools.lru_cache(maxsize=16)
def _pair_table(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs of ``all_pairs(n)``, built once per n and immutable, so
    every caller shares one."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def all_pairs(n: int) -> list[tuple[int, int]]:
    return list(_pair_table(n))


def edges(n: int, graph: int) -> list[tuple[int, int]]:
    """The pairs of the n-vertex ``graph``, in pair order."""
    pairs, found = _pair_table(n), []
    while graph:
        low = graph & -graph
        found.append(pairs[low.bit_length() - 1])
        graph ^= low
    return found


def _neighbours(n: int, graphs: np.ndarray) -> np.ndarray:
    """(n, m) int64: row v holds the neighbours of vertex v in each of the
    m n-vertex ``graphs`` as a vertex bitmask."""
    nb = np.zeros((n, len(graphs)), dtype=np.int64)
    for p, (i, j) in enumerate(_pair_table(n)):
        bit = graphs >> p & 1
        nb[i] |= bit << j
        nb[j] |= bit << i
    return nb


def _spans(neighbours: np.ndarray, keep: int) -> np.ndarray:
    """Per graph, whether the vertex set ``keep`` (a bitmask) induces a
    connected subgraph.  Reachability from its lowest vertex grows by one
    step a round in every graph at once; every vertex of a connected k-set
    lies within k - 1 steps, so k - 1 rounds decide."""
    inside = [v for v in range(len(neighbours)) if keep >> v & 1]
    shifts = np.array(inside)[:, None]
    steps = neighbours[inside] & keep
    reached = np.full(neighbours.shape[1], keep & -keep)
    for _ in range(len(inside) - 1):
        reached = reached | np.bitwise_or.reduce(steps * (reached >> shifts & 1), axis=0)
    return reached == keep


def _connected(n: int, graphs: np.ndarray) -> np.ndarray:
    return _spans(_neighbours(n, graphs), (1 << n) - 1)


def _biconnected(n: int, graphs: np.ndarray) -> np.ndarray:
    """Connected, and still connected after any one vertex is deleted."""
    nb, everyone = _neighbours(n, graphs), (1 << n) - 1
    flags = _spans(nb, everyone)
    for v in range(n):
        flags &= _spans(nb, everyone ^ 1 << v)
    return flags


def connected_graphs(n: int) -> np.ndarray:
    """All labeled connected graphs on n vertices, 1 <= n <= 6, ascending."""
    if not 1 <= n <= MAX_CLUSTER_ORDER:
        raise GuardError(f"connected enumeration guarded to n <= {MAX_CLUSTER_ORDER}")
    graphs = np.arange(1 << n * (n - 1) // 2, dtype=np.int64)
    return graphs[_connected(n, graphs)]


def biconnected_graphs(n: int) -> np.ndarray:
    """Labeled graphs on n vertices staying connected after any one
    deletion, 2 <= n <= 6, ascending."""
    if not 2 <= n <= MAX_CLUSTER_ORDER:
        raise GuardError(f"biconnected enumeration guarded to 2 <= n <= {MAX_CLUSTER_ORDER}")
    graphs = np.arange(1 << n * (n - 1) // 2, dtype=np.int64)
    return graphs[_biconnected(n, graphs)]


def tree_graphs(n: int) -> np.ndarray:
    """All n^(n-2) labeled trees on n vertices, 1 <= n <= 6, ascending:
    the connected graphs with n - 1 edges."""
    graphs = connected_graphs(n)
    return graphs[np.bitwise_count(graphs) == n - 1]


def enumerate_connected(n: int) -> Iterator[int]:
    """``connected_graphs(n)``, streamed."""
    yield from connected_graphs(n).tolist()


def enumerate_biconnected(n: int) -> Iterator[int]:
    """``biconnected_graphs(n)``, streamed."""
    yield from biconnected_graphs(n).tolist()


def enumerate_trees(n: int) -> Iterator[int]:
    """``tree_graphs(n)``, streamed."""
    yield from tree_graphs(n).tolist()


def _adjacency(n: int, graph: int) -> list[list[int]]:
    """Each vertex's neighbours, ascending, as the pairs come in pair order."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges(n, graph):
        adj[i].append(j)
        adj[j].append(i)
    return adj


def _dfs_connected(n: int, graph: int) -> bool:
    if n == 0:
        return True
    adj = _adjacency(n, graph)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _articulation_points(n: int, graph: int) -> set[int]:
    """Hopcroft-Tarjan articulation points (iterative low-link DFS)."""
    adj = _adjacency(n, graph)
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    points: set[int] = set()
    counter = itertools.count()
    for root in range(n):
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
    "biconnected": lambda n, g: _dfs_connected(n, g) and not _articulation_points(n, g),
    "tree": lambda n, g: g.bit_count() == n - 1 and _dfs_connected(n, g),
}


def classify(n: int, graph: int) -> dict[str, bool]:
    """DFS-based predicates for one n-vertex graph; ``biconnected`` keeps
    the single-edge convention, as a single edge has no articulation point."""
    return {name: test(n, graph) for name, test in _PREDICATES.items()}


def brute_force_class(n: int, predicate: str) -> set[int]:
    """All n-vertex graphs passing one ``classify`` predicate."""
    test = _PREDICATES[predicate]
    return {g for g in range(1 << n * (n - 1) // 2) if test(n, g)}
