"""Run every acceptance criterion at its stated tolerance.

One pass/fail line is printed per criterion (run pytest with ``-s`` to see
them).  The negative controls at the end corrupt an extracted coefficient,
one tree, one cluster coefficient, log Xi or the variance of N and
confirm that the criterion fails loudly.
"""

import dataclasses
import math

import pytest

from latgas import acceptance, graphs, series
from latgas.oracle import GrandCanonicalEval


@pytest.mark.parametrize("index", range(1, len(acceptance.CRITERIA) + 1),
                         ids=[f"criterion_{i:02d}" for i in
                              range(1, len(acceptance.CRITERIA) + 1)])
def test_acceptance_criterion(index):
    result = acceptance.run_all(indices={index})[0]
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {result.index}: {result.name} "
          f"({result.seconds:.1f}s) -- {result.detail}")
    assert result.passed, f"criterion {result.index} failed: {result.detail}"
    assert type(result.passed) is bool  # a numpy bool is not JSON-serializable


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


def _plant(monkeypatch, name, n, error):
    original = getattr(series, name)

    def corrupted(k, d, pot, beta):
        value = original(k, d, pot, beta)
        return value * (1 + error) if k == n else value

    monkeypatch.setattr(series, name, corrupted)


@pytest.mark.parametrize("name, n, err", [
    ("connected_coefficient", 2, "1.00e-09"), ("connected_coefficient", 3, "1.00e-09"),
    ("connected_coefficient", 4, "1.00e-09"), ("connected_coefficient", 5, "1.00e-09"),
    ("irreducible_coefficient", 1, "1.47e-08"), ("irreducible_coefficient", 2, "4.87e-09"),
    ("irreducible_coefficient", 3, "2.55e-08"), ("irreducible_coefficient", 4, "1.37e-08")])
def test_a_coefficient_off_by_1e_9_fails_the_mayer_relations(monkeypatch, name, n, err):
    _plant(monkeypatch, name, n, 1e-9)
    passed, detail = acceptance.criterion_mayer_relations()
    assert not passed
    assert f"relative err = {err} (tol 1e-12)" in detail


def test_b5_off_by_1e_11_fails_the_mayer_relations(monkeypatch):
    # ten times the 1e-12 tolerance: it passes a tolerance 100 times looser
    _plant(monkeypatch, "connected_coefficient", 5, 1e-11)
    passed, detail = acceptance.criterion_mayer_relations()
    assert not passed
    assert "relative err = 1.00e-11 (tol 1e-12)" in detail


@pytest.mark.parametrize("rung", range(len(acceptance.LADDER_SIDES)),
                         ids=[f"L{side}" for side in acceptance.LADDER_SIDES])
def test_log_xi_off_by_1e_2_fails_the_peak_clt(monkeypatch, rung):
    # log Xi rises by 1e-2 on that rung alone, and every P(N) falls with it,
    # so K(mu0, N*) = P(N*) does: |Lambda| x gap reads -1.12, -1.79 and -3.12
    # against a bound of 1
    def planted(gc):
        return dataclasses.replace(gc, log_xi=gc.log_xi + 1e-2, probs=gc.probs * math.exp(-1e-2))

    ladder = tuple((planted(gc) if i == rung else gc, fe)
                   for i, (gc, fe) in enumerate(acceptance._ladder_tables()))
    monkeypatch.setattr(acceptance, "_ladder_tables", lambda: ladder)
    passed, _detail = acceptance.criterion_appendix()
    assert not passed


def test_a_variance_2_percent_high_fails_the_peak_clt(monkeypatch):
    # the peak product rises by sqrt(1.02) - 1 = 1e-2: |Lambda| x gap moves by
    # about 0.64, 1.27 and 2.55, past the bound of 1 at L = 256 only
    variance = GrandCanonicalEval.variance_particles
    monkeypatch.setattr(GrandCanonicalEval, "variance_particles",
                        lambda gc: 1.02 * variance(gc))
    passed, detail = acceptance.criterion_appendix()
    assert not passed
    assert "gap at N* = ['0.142', '0.748', '1.962'] (tol 1)" in detail
