"""Exhaustive labeled-graph generators for cluster sums.

A graph on n vertices (0-based) is an ``int`` edge bitmask: bit p marks the
pair ``all_pairs(n)[p]``, the pairs (i, j), i < j, in lexicographic order.
The pair of a bit depends on n, so a mask means nothing without its n, and
every function that takes a graph takes n too.  ``edges(n, graph)`` decodes
a mask into its pairs.

The generators stream graphs in a fixed canonical order (edge mask
ascending, Pruefer sequence lexicographic), so downstream sums are
bit-stable.  The generators decide connectivity by bitmask reachability,
the ``classify`` filter by DFS and articulation points, so the
generator/filter equivalence tests compare two routes.

Trees are decoded from their Pruefer sequences a block at a time: the n^4
sequences that share all but their last four entries (the whole stream for
n <= 6) form one integer array, one row per sequence.  A row's leaves are
an n-bit vertex mask, the vertices neither removed nor among the entries
still to come; the smallest leaf is a lookup in a table of lowest set bits
and its edge bit a lookup in an n x n pair-bit table.  So a block takes
O(n) numpy calls, whatever its size, and no Python code runs per tree.

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
MAX_TREE_ORDER = 8
_BLOCK_ENTRIES = 4  # Pruefer entries that vary within one block of decoded trees


@functools.lru_cache(maxsize=16)
def _pair_table(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs of ``all_pairs(n)``, built once per n and immutable, so
    every caller shares one."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def all_pairs(n: int) -> list[tuple[int, int]]:
    return list(_pair_table(n))


def edges(n: int, graph: int) -> list[tuple[int, int]]:
    """The pairs of the n-vertex ``graph``, in pair order."""
    return [p for b, p in enumerate(_pair_table(n)) if graph >> b & 1]


def _neighbours(n: int, graph: int) -> list[int]:
    nb = [0] * n
    for i, j in edges(n, graph):
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


def enumerate_connected(n: int) -> Iterator[int]:
    """All labeled connected graphs on n vertices, 1 <= n <= 6."""
    if not 1 <= n <= MAX_CLUSTER_ORDER:
        raise GuardError(f"connected enumeration guarded to n <= {MAX_CLUSTER_ORDER}")
    everyone = (1 << n) - 1
    for graph in range(1 << n * (n - 1) // 2):
        if _spans(_neighbours(n, graph), everyone):
            yield graph


def enumerate_biconnected(n: int) -> Iterator[int]:
    """Labeled graphs on n vertices staying connected after any one deletion."""
    if not 2 <= n <= MAX_CLUSTER_ORDER:
        raise GuardError(f"biconnected enumeration guarded to 2 <= n <= {MAX_CLUSTER_ORDER}")
    everyone = (1 << n) - 1
    for graph in range(1 << n * (n - 1) // 2):
        nb = _neighbours(n, graph)
        if _spans(nb, everyone) and all(_spans(nb, everyone ^ (1 << v)) for v in range(n)):
            yield graph


def enumerate_trees(n: int) -> Iterator[int]:
    """All n^(n-2) labeled trees via Pruefer sequences, 1 <= n <= 8."""
    if not 1 <= n <= MAX_TREE_ORDER:
        raise GuardError(f"tree enumeration guarded to n <= {MAX_TREE_ORDER}")
    if n == 1:
        yield 0
        return
    everyone = (1 << n) - 1
    lowest = np.array([(m & -m).bit_length() - 1 for m in range(1 << n)])
    pair_bit = np.zeros((n, n), dtype=np.int64)
    for p, (i, j) in enumerate(_pair_table(n)):
        pair_bit[i, j] = pair_bit[j, i] = 1 << p
    width = n - 2
    free = min(width, _BLOCK_ENTRIES)
    seq = np.empty((n ** free, width), dtype=np.intp)
    seq[:, width - free:] = np.arange(n ** free)[:, None] // n ** np.arange(free - 1, -1, -1) % n
    for prefix in itertools.product(range(n), repeat=width - free):
        seq[:, :width - free] = prefix
        # ahead[:, i]: the vertices among entries i.. as a mask; none is a leaf yet
        ahead = np.bitwise_or.accumulate(1 << seq[:, ::-1], axis=1)[:, ::-1]
        removed = np.zeros(len(seq), dtype=np.int64)
        graph = np.zeros_like(removed)
        for i in range(width):
            leaf = lowest[everyone ^ (removed | ahead[:, i])]
            graph |= pair_bit[leaf, seq[:, i]]
            removed |= 1 << leaf
        last = everyone ^ removed
        first = lowest[last]
        graph |= pair_bit[first, lowest[last ^ (1 << first)]]
        yield from graph.tolist()


def _adjacency(n: int, graph: int) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for i, j in edges(n, graph):
        adj[i].add(j)
        adj[j].add(i)
    return adj


def _dfs_connected(n: int, graph: int) -> bool:
    if n == 0:
        return True
    adj = _adjacency(n, graph)
    seen = set()
    stack = [0]
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        stack.extend(adj[u] - seen)
    return len(seen) == n


def _articulation_points(n: int, graph: int) -> set[int]:
    """Hopcroft-Tarjan articulation points (iterative low-link DFS)."""
    adj = [sorted(s) for s in _adjacency(n, graph)]
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
