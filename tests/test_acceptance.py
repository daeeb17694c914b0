"""Run every acceptance criterion at its stated tolerance.

One pass/fail line is printed per criterion (run pytest with ``-s`` to see
them).  The negative controls at the end corrupt an extracted coefficient,
one tree or one cluster coefficient and confirm that the criterion
fails loudly.
"""

import pytest

from latgas import acceptance, graphs, series


@pytest.mark.parametrize("index", range(1, len(acceptance.CRITERIA) + 1),
                         ids=[f"criterion_{i:02d}" for i in
                              range(1, len(acceptance.CRITERIA) + 1)])
def test_acceptance_criterion(index):
    result = acceptance.run_all(indices={index})[0]
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {result.index}: {result.name} "
          f"({result.seconds:.1f}s) -- {result.detail}")
    assert result.passed, f"criterion {result.index} failed: {result.detail}"


def test_corrupted_coefficient_fails_reconstruction(monkeypatch):
    original = series.extract_b_lambda

    def corrupted(table, n_max):
        fe = original(table, n_max)
        bad = fe.coeffs.copy()
        bad[1] += 1e-3
        return series.CanonicalFreeEnergy(coeffs=bad, volume=fe.volume)

    monkeypatch.setattr(series, "extract_b_lambda", corrupted)
    passed, _detail = acceptance.criterion_reconstruction()
    assert not passed


@pytest.mark.parametrize("order", [5, 6])
def test_a_tree_short_of_an_edge_fails_the_graph_engine(monkeypatch, order):
    original = graphs.tree_graphs

    def corrupted(n):
        trees = original(n)
        if n == order:
            trees = trees.copy()
            trees[-1] &= trees[-1] - 1  # drop its lowest edge
        return trees

    monkeypatch.setattr(graphs, "tree_graphs", corrupted)
    passed, _detail = acceptance.criterion_graph_engine()
    assert not passed


@pytest.mark.parametrize("order", [5, 6])
def test_a_tree_missing_from_both_routes_fails_the_graph_engine(monkeypatch, order):
    # a defect the engine and its DFS reference share: only Cayley's count,
    # which neither route computes, can catch it
    trees, brute = graphs.tree_graphs, graphs.brute_force_class
    missing = int(trees(order)[-1])

    def short_trees(n):
        return trees(n)[:-1] if n == order else trees(n)

    def short_brute(n, kind):
        return brute(n, kind) - {missing} if (n, kind) == (order, "tree") else brute(n, kind)

    monkeypatch.setattr(graphs, "tree_graphs", short_trees)
    monkeypatch.setattr(graphs, "brute_force_class", short_brute)
    passed, _detail = acceptance.criterion_graph_engine()
    assert not passed


@pytest.mark.parametrize("name, n, err", [("connected_coefficient", 3, "6.16e-10"),
                                          ("irreducible_coefficient", 2, "1.67e-09")])
def test_a_coefficient_off_by_1e_9_fails_the_mayer_relations(monkeypatch, name, n, err):
    # b_3 and beta_2 meet only in the fugacity cross-check: the Legendre
    # check holds for every beta_n
    original = getattr(series, name)

    def corrupted(k, d, pot, beta):
        value = original(k, d, pot, beta)
        return value * (1 + 1e-9) if k == n else value

    monkeypatch.setattr(series, name, corrupted)
    passed, detail = acceptance.criterion_mayer_relations()
    assert not passed
    assert f"fugacity cross-check err = {err} (tol 1e-10)" in detail
