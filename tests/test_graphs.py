import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgas.graphs import (_biconnected, _connected, all_pairs, biconnected_graphs,
                           brute_force_class, classify, connected_graphs, edges,
                           enumerate_biconnected, enumerate_connected, enumerate_trees,
                           tree_graphs)
from latgas.model import GuardError


def test_connected_counts():
    assert [sum(1 for _ in enumerate_connected(n)) for n in range(1, 6)] == \
        [1, 1, 4, 38, 728]


def test_biconnected_counts():
    assert [sum(1 for _ in enumerate_biconnected(n)) for n in range(2, 6)] == \
        [1, 1, 10, 238]


def test_tree_counts_cayley():
    for n in range(1, 7):
        assert sum(1 for _ in enumerate_trees(n)) == n ** max(0, n - 2)


def test_generator_equals_filter():
    for n in range(1, 6):
        assert set(enumerate_connected(n)) == brute_force_class(n, "connected")
    for n in range(2, 6):
        assert set(enumerate_biconnected(n)) == brute_force_class(n, "biconnected")
    for n in range(1, 7):
        assert set(enumerate_trees(n)) == brute_force_class(n, "tree")


def test_biconnected_subset_of_connected():
    for n in range(2, 6):
        conn = set(enumerate_connected(n))
        for g in enumerate_biconnected(n):
            assert g in conn


def test_trees_have_right_edge_count():
    for n in range(2, 7):
        for g in enumerate_trees(n):
            assert len(edges(n, g)) == n - 1
            assert classify(n, g)["connected"]


def _mask(n, pairs):
    return sum(1 << all_pairs(n).index(e) for e in pairs)


def test_classify_examples():
    c = classify(3, _mask(3, [(0, 1), (1, 2)]))
    assert c["connected"] and c["tree"] and not c["biconnected"]
    assert classify(3, _mask(3, [(0, 1), (0, 2), (1, 2)]))["biconnected"]
    # the center of a star is an articulation point at the root of the DFS
    c = classify(4, _mask(4, [(0, 1), (0, 2), (0, 3)]))
    assert c["connected"] and c["tree"] and not c["biconnected"]


def test_guards():
    with pytest.raises(GuardError):
        list(enumerate_connected(7))
    with pytest.raises(GuardError):
        list(enumerate_biconnected(1))
    with pytest.raises(GuardError):
        list(enumerate_trees(7))
    for build, n in ((connected_graphs, 7), (biconnected_graphs, 1), (tree_graphs, 7)):
        with pytest.raises(GuardError):
            build(n)
    # a float n raised a bare TypeError, and True read as n = 1
    for build, n in ((connected_graphs, 3.0), (connected_graphs, True),
                     (biconnected_graphs, 3.0), (tree_graphs, 3.0)):
        with pytest.raises(ValueError, match="n must be an integer"):
            build(n)
    # the streams stay lazy: an out-of-guard call raises at the first step
    for stream in (enumerate_connected(0), enumerate_biconnected(7), enumerate_trees(0)):
        with pytest.raises(GuardError):
            next(stream)


def test_generators_are_deterministic():
    first = list(enumerate_connected(4))
    second = list(enumerate_connected(4))
    assert first == second
    # the promised order, ascending edge mask, keeps downstream sums bit-stable
    for n in range(1, 6):
        limit = 1 << len(all_pairs(n))
        for stream in (enumerate_connected(n), enumerate_biconnected(n) if n >= 2 else (),
                       enumerate_trees(n)):
            graphs = list(stream)
            assert all(a < b for a, b in zip(graphs, graphs[1:]))
            assert all(0 <= g < limit for g in graphs)


def _drawn_mask(data, n):
    # a uniform edge count mixes sparse, near-threshold and dense graphs
    bits = data.draw(st.permutations(range(len(all_pairs(n)))))
    return sum(1 << b for b in bits[:data.draw(st.integers(0, len(bits)))])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bitmask_route_equals_dfs_route(data):
    n = data.draw(st.integers(1, 7))
    g = _drawn_mask(data, n)
    # the decode both routes rely on: the pairs, in pair order, give g back
    pair_bits = [all_pairs(n).index(e) for e in edges(n, g)]
    assert pair_bits == sorted(pair_bits)
    assert sum(1 << b for b in pair_bits) == g
    flags = classify(n, g)
    assert _connected(n, np.array([g])).tolist() == [flags["connected"]]
    assert _biconnected(n, np.array([g])).tolist() == [flags["biconnected"]]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_array_reachability_equals_classify_on_drawn_masks(data):
    # many graphs at once, as the class arrays run it: no graph's rounds may
    # leak into another's
    n = data.draw(st.integers(1, 7))
    graphs = [_drawn_mask(data, n) for _ in range(data.draw(st.integers(1, 40)))]
    flags = [classify(n, g) for g in graphs]
    assert _connected(n, np.array(graphs)).tolist() == [f["connected"] for f in flags]
    assert _biconnected(n, np.array(graphs)).tolist() == [f["biconnected"] for f in flags]


def test_class_arrays_equal_the_sorted_brute_force():
    # element for element: the ascending order keeps series sums bit-stable
    for kind, build, orders in (("connected", connected_graphs, range(1, 7)),
                                ("biconnected", biconnected_graphs, range(2, 7)),
                                ("tree", tree_graphs, range(1, 7))):
        for n in orders:
            graphs = build(n)
            assert graphs.dtype == np.int64
            assert graphs.tolist() == sorted(brute_force_class(n, kind))


def _uncached_edges(n, graph):
    """``edges`` as a comprehension over pairs built afresh on each call."""
    return [p for b, p in enumerate([(i, j) for i in range(n) for j in range(i + 1, n)])
            if graph >> b & 1]


def test_cached_pairs_equal_a_fresh_table_at_every_small_mask():
    for n in range(0, 6):
        assert all(edges(n, g) == _uncached_edges(n, g) for g in range(1 << n * (n - 1) // 2))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, (1 << 28) - 1))
def test_cached_pairs_equal_a_fresh_table_at_n8(graph):
    assert edges(8, graph) == _uncached_edges(8, graph)


def test_mutating_a_returned_list_leaves_the_pair_table_alone():
    full = (1 << 10) - 1
    expected = _uncached_edges(5, full)
    pairs, decoded = all_pairs(5), edges(5, full)
    pairs.clear()
    decoded[0] = (4, 4)
    decoded.append((9, 9))
    assert all_pairs(5) == expected
    assert edges(5, full) == expected
    assert [edges(5, g) for g in range(1 << 10)] == [_uncached_edges(5, g) for g in range(1 << 10)]
