"""Cluster-series checks.

The independent oracles here deliberately bypass the library's geometry
table: coefficients are re-summed with plain itertools loops over a
strictly larger box, with graphs taken from the DFS brute-force filter,
and the full-box sweep below (every pinned configuration of the l1 ball
or l-infinity box, float graph sums and the partition recursion per
configuration) re-derives coefficients and tree-graph reports.  The
geometry table itself is checked against a set-of-tuples growth of the
same configurations, pattern row for pattern row.
"""

import functools
import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import latgas.series as ls
from latgas.graphs import brute_force_class, edges, enumerate_connected, enumerate_trees
from latgas.model import GuardError, LatticeSpec, PotentialSpec
from latgas.oracle import canonical_table, exact_canonical_table, transfer_matrix_table
from latgas.series import (CanonicalFreeEnergy, VirialSeries, beta1_closed_form,
                           connected_coefficient, extract_b_lambda, f_coefficient,
                           falling_p, irreducible_coefficient,
                           reconstruct_log_z, stirling_remainder, tree_graph_check)
from references import b_lambda_1_direct, rho_of_z_numeric, virial_series_exact

POT = PotentialSpec("standard", 1.0)
BETA = 0.2


def brute_coefficient(edge_sets, n_points, d, beta, reach):
    """Plain re-summation over the l-infinity box of radius ``reach``."""
    box = range(-reach, reach + 1)
    total = 0.0
    for config in itertools.product(itertools.product(box, repeat=d),
                                    repeat=n_points - 1):
        pts = [(0,) * d] + list(config)
        for pairs in edge_sets:
            prod = 1.0
            for i, j in pairs:
                prod *= POT.mayer_f(tuple(a - b for a, b in zip(pts[i], pts[j])), beta)
                if prod == 0.0:
                    break
            total += prod
    return total


def test_b1_is_one():
    assert connected_coefficient(1, 1, POT, BETA) == 1.0
    assert connected_coefficient(1, 3, POT, 0.7) == 1.0


def test_b2_closed_form():
    expected = (2 * math.expm1(4 * BETA) - 1) / 2
    assert connected_coefficient(2, 1, POT, BETA) == pytest.approx(expected, abs=1e-15)


def test_b3_against_brute_resummation():
    graphs = sorted(edges(3, g) for g in brute_force_class(3, "connected"))
    brute = brute_coefficient(graphs, 3, 1, BETA, reach=3) / math.factorial(3)
    assert connected_coefficient(3, 1, POT, BETA) == pytest.approx(brute, abs=1e-12)


def test_beta1_closed_form_and_mayer_relation():
    for d in (1, 2):
        val = irreducible_coefficient(1, d, POT, BETA)
        assert val == pytest.approx(2 * d * math.expm1(4 * BETA) - 1, abs=1e-12)
        assert val == pytest.approx(beta1_closed_form(d, POT, BETA), abs=1e-15)
        assert val == pytest.approx(2 * connected_coefficient(2, d, POT, BETA),
                                    abs=1e-12)


def test_beta2_against_brute_resummation():
    graphs = sorted(edges(3, g) for g in brute_force_class(3, "biconnected"))
    brute = brute_coefficient(graphs, 3, 2, 0.1, reach=4) / math.factorial(2)
    assert irreducible_coefficient(2, 2, POT, 0.1) == pytest.approx(brute, abs=1e-10)


def test_order_guards():
    with pytest.raises(GuardError):
        connected_coefficient(6, 1, POT, BETA)
    with pytest.raises(GuardError):
        irreducible_coefficient(5, 1, POT, BETA)


def test_coefficients_past_float_range_raise_guard_error():
    # unguarded, the sums and beta_1 read +-inf and the Mayer f raised a bare
    # OverflowError
    cases = [
        # beta = 60: f = e^240, and the exact sums lie beyond the largest float
        (connected_coefficient, 5, 1, POT, 60.0), (irreducible_coefficient, 4, 1, POT, 60.0),
        # beta = 200: f = e^800 itself is past the float range
        (connected_coefficient, 2, 1, POT, 200.0), (irreducible_coefficient, 1, 2, POT, 200.0),
        (irreducible_coefficient, 2, 1, POT, 200.0), (beta1_closed_form, 1, POT, 200.0),
        (beta1_closed_form, 1, PotentialSpec("kac", 1.0, 2), 200.0),
        (POT.mayer_f, (1,), 1000.0)]
    for function, *args in cases:
        with pytest.raises(GuardError, match="float range"):
            function(*args)


def test_cluster_sums_past_the_configuration_guard_raise_guard_error():
    # the Kac range 3 in d = 2 has more than 100,000 pinned configurations at
    # n = 4; unguarded, n = 5 grew them until the memory ran out
    with pytest.raises(GuardError, match="pinned configurations"):
        connected_coefficient(4, 2, PotentialSpec("kac", 1.0, 3), 0.3)


def test_falling_p_examples():
    assert falling_p(3, 10, 2) == pytest.approx(0.02)
    assert falling_p(3, 10, 3) == 0.0
    assert falling_p(3, 10, 5) == 0.0
    # P_{n+1,|L|}(N/|L|) = (N/|L|) P_{N,|L|}(n), P_{n+1} the free energy's factor
    poly = CanonicalFreeEnergy(coeffs=np.zeros(3), volume=10)._interaction_poly(2)
    assert np.polynomial.polynomial.polyval(0.3, poly) == pytest.approx(0.3 * falling_p(3, 10, 2))
    assert f_coefficient(3, 10, 2, 5.0) == pytest.approx(0.02 * 5.0 / 3.0)


def test_extracted_b1_closed_form():
    lat = LatticeSpec(1, 10, "periodic")
    table = exact_canonical_table(lat, POT, BETA)
    fe = extract_b_lambda(table, 3)
    assert fe.coeffs[1] == pytest.approx(b_lambda_1_direct(lat, POT, BETA), abs=1e-12)
    # beta = 0 periodic: only the hard-core diagonal survives
    t0 = exact_canonical_table(lat, POT, 0.0)
    assert extract_b_lambda(t0, 2).coeffs[1] == pytest.approx(10 * math.log(1 - 1 / 10), abs=1e-12)


def test_reconstruction_round_trip():
    for lat in (LatticeSpec(1, 10, "periodic"), LatticeSpec(2, 3, "periodic"),
                LatticeSpec(1, 8, "zero")):
        table = exact_canonical_table(lat, POT, BETA)
        fe = extract_b_lambda(table, 5)
        for n in range(2, 7):
            assert reconstruct_log_z(fe, n) == pytest.approx(
                table.log_z_of(n), abs=1e-10)


def test_extraction_guards():
    table = exact_canonical_table(LatticeSpec(1, 4, "zero"), POT, BETA)
    with pytest.raises(GuardError):
        extract_b_lambda(table, 4)  # table depth insufficient


def test_extended_precision_extraction_path():
    table = transfer_matrix_table(128, POT, BETA, "zero")
    fe = extract_b_lambda(table, 3)  # the same 50-digit solve as at any volume
    # open box: B(1) = V log(1 + zeta) with the boundary-depleted pair sum
    direct = b_lambda_1_direct(LatticeSpec(1, 128, "zero"), POT, BETA)
    assert fe.coeffs[1] == pytest.approx(direct, abs=1e-11)
    beta1 = irreducible_coefficient(1, 1, POT, BETA)
    assert abs(fe.coeffs[1] - beta1) < 0.05  # O(1/L) away


def _reference_b_lambda(table, n_max):
    """The triangular Theorem-1 solve in 120-digit mpmath, rounded once."""
    volume = table.n_sites
    with mp.workdps(120):
        b = [mp.mpf(0)] * (n_max + 1)
        for n_particles in range(2, n_max + 2):
            acc = (mp.mpf(table.log_z_of(n_particles)) - n_particles * mp.log(volume)
                   + mp.log(mp.factorial(n_particles)))
            for n in range(1, n_particles):
                p = mp.fprod(mp.mpf(n_particles - k) / volume for k in range(1, n + 1))
                if n < n_particles - 1:
                    acc -= n_particles * p * b[n] / (n + 1)
                else:
                    b[n] = acc * (n + 1) / (n_particles * p)
        return [float(x) for x in b[1:]]


@pytest.mark.parametrize("lattice", [LatticeSpec(1, side, "periodic")
                                     for side in (24, 64, 99, 100, 256)]
                         + [LatticeSpec(2, 3, "periodic")],
                         ids=lambda lat: f"d{lat.dimension}-side{lat.side}")
@pytest.mark.parametrize("beta", [0.02, 0.2])
def test_extraction_is_correctly_rounded(lattice, beta):
    table = canonical_table(lattice, POT, beta)
    fe = extract_b_lambda(table, 5)
    assert fe.volume == table.n_sites
    assert fe.coeffs[1:].tolist() == _reference_b_lambda(table, 5)


def test_coefficient_convergence_trend():
    beta1 = irreducible_coefficient(1, 1, POT, BETA)
    beta2 = irreducible_coefficient(2, 1, POT, BETA)
    diffs1, diffs2 = [], []
    for side in (10, 20):
        table = exact_canonical_table(LatticeSpec(1, side, "periodic"), POT, BETA)
        fe = extract_b_lambda(table, 2)
        diffs1.append(abs(fe.coeffs[1] - beta1))
        diffs2.append(abs(fe.coeffs[2] - beta2))
    assert 1.6 <= diffs1[0] / diffs1[1] <= 2.6
    assert 1.6 <= diffs2[0] / diffs2[1] <= 2.6


def test_coefficient_exponential_decay():
    table = transfer_matrix_table(40, POT, BETA, "periodic")
    fe = extract_b_lambda(table, 5)
    n_particles = 6  # rho = 0.15
    vals = [abs(f_coefficient(n_particles, 40, n, fe.coeffs[n]))
            for n in range(1, 6)]
    logs = [math.log(v) for v in vals if v > 0]
    slope = np.polyfit(range(len(logs)), logs, 1)[0]
    assert slope < 0  # fitted decay rate c = -slope > 0


def test_free_energy_ideal_reduction():
    fe = CanonicalFreeEnergy(coeffs=np.zeros(1), volume=100)
    rho = 0.3
    assert fe.derivative(rho) == pytest.approx(rho * (math.log(rho) - 1))
    assert fe.derivative(rho, 2) == pytest.approx(1 / rho)


def test_free_energy_derivatives_vs_finite_differences():
    # Richardson-extrapolated central differences kill the h^2 truncation
    # term, which at rho = 0.05 would otherwise dwarf the 1e-6 tolerance.
    table = exact_canonical_table(LatticeSpec(1, 12, "periodic"), POT, BETA)
    fe = extract_b_lambda(table, 4)
    rho, h = 0.05, 1e-4

    def central(m, step):
        return (fe.derivative(rho + step, m - 1)
                - fe.derivative(rho - step, m - 1)) / (2 * step)

    for m in range(1, 5):
        fd = (4 * central(m, h / 2) - central(m, h)) / 3
        assert fe.derivative(rho, m) == pytest.approx(fd, abs=1e-6 * max(1, abs(fd)))


def test_free_energy_guards():
    fe = CanonicalFreeEnergy(coeffs=np.zeros(1), volume=None)
    with pytest.raises(ValueError):
        fe.derivative(0.1, 7)
    with pytest.raises(ValueError):
        fe.derivative(1.5, 0)


def test_stirling_identity_and_scaling():
    lat = LatticeSpec(1, 12, "periodic")
    table = exact_canonical_table(lat, POT, BETA)
    fe = extract_b_lambda(table, 5)
    for n in range(2, 7):
        f_exact = -table.log_z_of(n) / lat.n_sites
        rho = n / lat.n_sites
        assert f_exact == pytest.approx(fe.derivative(rho) + stirling_remainder(n, 12),
                                        abs=1e-10)
    # exact evaluation at N = |Lambda|
    v = 12
    assert stirling_remainder(v, v) == pytest.approx(
        1.0 - (v * math.log(v) - math.lgamma(v + 1)) / v)
    cs = [abs(stirling_remainder(v // 4, v)) * v / math.log(v)
          for v in (64, 128, 256, 512)]
    assert max(cs) / min(cs) < 1.5


def test_fugacity_series_consistency():
    # b_1..b_5 from beta_1..beta_4 by Lagrange inversion, against the
    # connected-graph sums
    betas = [0.0, *(irreducible_coefficient(n, 1, POT, BETA) for n in range(1, 5))]
    vs = VirialSeries(np.array(betas), 5)
    composed = vs.pressure_fugacity()
    for n in range(1, 6):
        assert composed[n] == pytest.approx(connected_coefficient(n, 1, POT, BETA), rel=1e-12)
    # numeric fixed point agrees with the series inverse at small z
    z = 1e-3
    rho_series = float(np.polyval(vs.rho_of_z()[::-1], z))
    assert rho_of_z_numeric(vs, z) == pytest.approx(rho_series, abs=1e-9)


def _assert_virial_series_are_the_exact_reversion(beta_irr, order):
    vs = VirialSeries(beta_irr, order)
    for got, exact in zip((vs.z_of_rho(), vs.rho_of_z(), vs.pressure_fugacity()),
                          virial_series_exact(beta_irr, order)):
        assert got.tobytes() == np.array(exact, dtype=float).tobytes()


@pytest.mark.parametrize("d, pot", [(1, POT), (2, POT), (1, PotentialSpec("kac", 1.0, 2)),
                                    (1, PotentialSpec("kac", 1.0, 3))])
def test_virial_series_are_the_exact_reversion_rounded_once(d, pot):
    for beta in (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0):
        beta_irr = np.array([0.0] + [irreducible_coefficient(n, d, pot, beta)
                                     for n in range(1, 5)])
        for order in range(1, 6):
            _assert_virial_series_are_the_exact_reversion(beta_irr, order)


@settings(max_examples=200, deadline=None)
@given(beta_irr=hnp.arrays(np.float64, st.integers(1, 6), elements=st.floats(-50.0, 50.0)),
       order=st.integers(1, 5))
def test_virial_series_of_drawn_coefficients_are_the_exact_reversion(beta_irr, order):
    _assert_virial_series_are_the_exact_reversion(beta_irr, order)


def test_mu_series_ideal_limit():
    beta1 = irreducible_coefficient(1, 1, POT, BETA)
    vs = VirialSeries(np.array([0.0, beta1]), 2)
    mu_tail = vs.mu_minus_log()
    rho = 1e-8
    assert abs(float(np.polyval(mu_tail[::-1], rho))) < 1e-7


def test_tree_graph_pair_bound():
    # n = 2 at contact: |f| <= e^{2 beta B} (1 - e^{-beta |V|})
    beta = 0.5
    lhs = abs(POT.mayer_f((1,), beta))
    rhs = math.exp(2 * beta * 8) * (1 - math.exp(-4 * beta))
    assert lhs <= rhs
    rep = tree_graph_check(2, 1, POT, beta)
    assert rep.holds and rep.violations == 0


def test_tree_graph_small_orders():
    for n in (3, 4):
        rep = tree_graph_check(n, 1, POT, 0.5)
        assert rep.violations == 0
        assert rep.lhs_total <= rep.rhs_total
    rep0 = tree_graph_check(3, 1, POT, 0.0)
    assert rep0.violations == 0  # hard-core indicators only


def test_tree_graph_check_past_float_range_is_guarded():
    rep = tree_graph_check(5, 1, POT, 5.0)
    assert rep.holds and rep.violations == 0
    # beta = 17.6, 17.7: the totals and the pattern sums overflow; beta = 20
    # and 60: so does e^{beta B n} itself
    for beta in (17.6, 17.7, 20.0, 60.0):
        with pytest.raises(GuardError):
            tree_graph_check(5, 1, POT, beta)


def test_partition_recursion_equals_graph_sum():
    for n in (3, 4):
        graphs = _graph_indices(enumerate_connected(n), n)
        polys = _polys_by_pattern("connected", n, 1, POT)
        f = math.expm1(4 * BETA)
        for cats in _config_blocks(n, 1, POT):
            fv = _f_lut(POT, BETA)[cats]
            direct = _graph_product_sum(fv, graphs)
            dp = _connected_sum_partition(fv, n)
            assert np.allclose(direct, dp, atol=1e-13)
            # the geometry table's integer polynomial, at the same f
            connected = _support_connected(cats, n)
            poly = np.array([np.polyval(polys[tuple(row)][::-1], f) if ok else 0.0
                             for row, ok in zip(cats.tolist(), connected)])
            assert np.allclose(poly, dp, atol=1e-13)


def test_thermodynamic_free_energy_source():
    betas = np.array([0.0, irreducible_coefficient(1, 1, POT, BETA)])
    fe = CanonicalFreeEnergy(betas)
    rho = 0.1
    expected = rho * (math.log(rho) - 1) - betas[1] * rho ** 2 / 2
    assert fe.derivative(rho) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# Full-box reference sweep

def _categories(coords, radius):
    """Pair categories 0 = out of range, 1 = in range, 2 = coincident."""
    n = coords.shape[1]
    cols = []
    for i, j in itertools.combinations(range(n), 2):
        r2 = np.sum((coords[:, i] - coords[:, j]) ** 2, axis=1)
        cols.append(np.where(r2 == 0, 2, np.where(r2 <= radius ** 2, 1, 0)))
    return np.stack(cols, axis=1).astype(np.int8)


def _config_blocks(n_points, d, pot, chunk=200_000):
    """Pair categories of every configuration with x_1 = 0 and x_2..x_n in
    the l1 ball (standard) or l-infinity box (Kac) of radius (n-1)R."""
    reach = (n_points - 1) * pot.support_radius
    ball = np.array([p for p in itertools.product(range(-reach, reach + 1), repeat=d)
                     if pot.kind != "standard" or sum(map(abs, p)) <= reach])
    k = len(ball)
    total = k ** (n_points - 1)
    for start in range(0, total, chunk):
        rem = np.arange(start, min(start + chunk, total), dtype=np.int64)
        coords = np.zeros((len(rem), n_points, d), dtype=np.int64)
        for p in range(n_points - 1, 0, -1):
            coords[:, p, :] = ball[rem % k]
            rem //= k
        yield _categories(coords, pot.support_radius)


def _support_connected(cats, n):
    """True where the in-range/coincidence support graph spans all n points."""
    adj = np.zeros((cats.shape[0], n, n), dtype=bool)
    for p, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        adj[:, i, j] = adj[:, j, i] = cats[:, p] > 0
    reach = np.zeros((cats.shape[0], n), dtype=bool)
    reach[:, 0] = True
    for _ in range(n - 1):
        reach = reach | np.einsum("mu,muv->mv", reach, adj)
    return reach.all(axis=1)


@functools.lru_cache(maxsize=None)
def _swept(n_points, d, pot):
    """(configurations swept, pair categories of those with connected support).

    Every sum below has a factor f = 0 or w = 0 on a disconnected support,
    so dropping those rows leaves each per-configuration value exact."""
    swept, kept = 0, []
    for cats in _config_blocks(n_points, d, pot):
        swept += len(cats)
        kept.append(cats[_support_connected(cats, n_points)])
    return swept, np.concatenate(kept)


def _f_lut(pot, beta):
    return np.array([0.0, math.expm1(-beta * pot.bond_energy), -1.0])


def _graph_indices(masks, n):
    pidx = {e: p for p, e in enumerate(itertools.combinations(range(n), 2))}
    return [[pidx[e] for e in edges(n, g)] for g in masks]


def _graph_product_sum(fvals, graphs):
    """sum over graphs of the product of f over each graph's pair indices."""
    total = np.zeros(fvals.shape[0])
    for graph in graphs:
        prod = np.ones(fvals.shape[0])
        for e in graph:
            prod = prod * fvals[:, e]
        total += prod
    return total


def _connected_sum_partition(fvals, n):
    """sum over connected spanning graphs of prod f, per configuration.

    The partition recursion C(S) = A(S) - sum_{T < S, T ni v} C(T) A(S\\T),
    with A(S) the product of (1+f) over pairs inside S.
    """
    pidx = {e: p for p, e in enumerate(itertools.combinations(range(n), 2))}
    one_plus = 1.0 + fvals
    full = (1 << n) - 1
    A = [np.ones(fvals.shape[0])] + [None] * full
    for S in range(1, full + 1):
        v = (S & -S).bit_length() - 1
        rest = S & ~(1 << v)
        acc = A[rest].copy()
        for w in range(n):
            if rest >> w & 1:
                acc *= one_plus[:, pidx[(v, w)]]
        A[S] = acc
    C = [None] * (full + 1)
    for S in range(1, full + 1):
        v = (S & -S).bit_length() - 1
        rest = S & ~(1 << v)
        acc = A[S].copy()
        T = rest
        while T:  # T runs over the proper submasks of rest, 0 included
            T = (T - 1) & rest
            sub = T | (1 << v)
            acc -= C[sub] * A[S & ~sub]
        C[S] = acc
    return C[full]


def _sweep_coefficient(kind, n, d, pot, beta):
    points = n if kind == "b" else n + 1
    _, cats = _swept(points, d, pot)
    fv = _f_lut(pot, beta)[cats]
    if kind == "b":
        vals = _connected_sum_partition(fv, points)
    else:
        graphs = _graph_indices(brute_force_class(points, "biconnected"), points)
        vals = _graph_product_sum(fv, graphs)
    return float(np.sum(vals)) / math.factorial(n)


def _sweep_tree_check(n, d, pot, beta):
    """(lhs_total, rhs_total, violations, configurations swept)."""
    swept, cats = _swept(n, d, pot)
    stability = math.exp(beta * ls.model_constants(d, pot, beta).stability_B * n)
    w_lut = np.array([0.0, -math.expm1(-beta * abs(pot.bond_energy)), 1.0])
    lhs = np.abs(_connected_sum_partition(_f_lut(pot, beta)[cats], n))
    trees = _graph_indices(enumerate_trees(n), n)
    rhs = stability * _graph_product_sum(w_lut[cats], trees)
    violations = int(np.sum(lhs > rhs * (1 + 1e-12) + 1e-300))
    return float(np.sum(lhs)), float(np.sum(rhs)), violations, swept


def _polys_by_pattern(kind, n_points, d, pot):
    rows, _ = ls._patterns(n_points, d, pot.support_radius)
    _, polys = ls._graph_polys(kind, n_points, d, pot.support_radius)
    return {tuple(r): p for r, p in zip(rows.tolist(), polys)}


KAC = {R: PotentialSpec("kac", 1.0, R) for R in (2, 3)}
ORDERS = {"b": range(2, 6), "beta": range(1, 5)}
SWEEP_CASES = ([(kind, n, 1, pot) for pot in (POT, *KAC.values())
                for kind in ORDERS for n in ORDERS[kind]]
               + [(kind, n, 2, POT) for kind in ORDERS for n in ORDERS[kind] if n <= 4])


@pytest.mark.parametrize("kind,n,d,pot", SWEEP_CASES,
                         ids=[f"{k}{n}-d{d}-{p.kind}{p.support_radius}"
                              for k, n, d, p in SWEEP_CASES])
def test_geometry_table_equals_full_box_sweep(kind, n, d, pot):
    fn = connected_coefficient if kind == "b" else irreducible_coefficient
    for beta in (0.1, 0.7):
        ref = _sweep_coefficient(kind, n, d, pot, beta)
        assert fn(n, d, pot, beta) == pytest.approx(ref, rel=1e-12)


TREE_CASES = ([(n, 1, POT, beta) for n in range(2, 6) for beta in (0.1, 1.0)]
              + [(n, 2, POT, 0.5) for n in range(2, 6)]
              + [(n, 1, KAC[R], 0.4) for R in KAC for n in range(2, 6)])


@pytest.mark.parametrize("n,d,pot,beta", TREE_CASES,
                         ids=[f"n{n}-d{d}-{p.kind}{p.support_radius}-b{b}"
                              for n, d, p, b in TREE_CASES])
def test_tree_check_equals_full_box_sweep(n, d, pot, beta):
    lhs, rhs, violations, swept = _sweep_tree_check(n, d, pot, beta)
    rep = tree_graph_check(n, d, pot, beta)
    assert rep.lhs_total == pytest.approx(lhs, rel=1e-12)
    assert rep.rhs_total == pytest.approx(rhs, rel=1e-12)
    assert rep.violations == violations == 0
    # the grown configurations are exactly the connected part of the box
    assert rep.n_configs == len(_swept(n, d, pot)[1]) <= swept


def test_geometry_counts_are_pinned():
    # d = 3 is pinned rather than regrown by the reference growth (0.9 s)
    for d, configs, patterns in ((3, 87_061, 466), (2, 13_081, 466), (1, 541, 271)):
        rows, mult = ls._patterns(5, d, 1)
        assert (int(mult.sum()), len(rows)) == (configs, patterns)
        assert tree_graph_check(5, d, POT, 0.3).n_configs == configs


def _reference_configs(n_points, d, radius):
    """The pinned connected tuples grown as a set of tuples, one parent at a
    time, with the same guard: the route the array growth replaced."""
    box = range(-radius, radius + 1)
    offsets = [v for v in itertools.product(box, repeat=d)
               if sum(c * c for c in v) <= radius ** 2]
    level = {((0,) * d,)}
    for size in range(1, n_points):
        grown = set()
        for cfg in level:
            sites = {tuple(a + b for a, b in zip(x, v)) for x in cfg for v in offsets}
            for site in sites:
                for j in range(1, size + 1):
                    grown.add(cfg[:j] + (site,) + cfg[j:])
            if len(grown) > ls.MAX_CLUSTER_CONFIGS:
                raise GuardError("pinned configurations")
        level = grown
    return np.array(list(level), dtype=np.int64).reshape(len(level), n_points, d)


GROWTH_CASES = ([(n, d, R) for n in range(2, 6) for d in (1, 2) for R in (1, 2, 3)]
                + [(n, 3, R) for n in range(2, 5) for R in (1, 2, 3)]
                # (4, 8, 1) packs its keys in two int64 words
                + [(3, 10, 1), (4, 8, 1), (5, 3, 2), (5, 3, 3)])


@pytest.mark.parametrize("n,d,radius", GROWTH_CASES,
                         ids=[f"n{n}-d{d}-R{R}" for n, d, R in GROWTH_CASES])
def test_patterns_equal_the_set_growth(n, d, radius):
    # rows and multiplicities in the same order: tree_graph_check sums
    # mult @ lhs in floats in this order
    try:
        ref_rows, ref_mult = np.unique(_categories(_reference_configs(n, d, radius), radius),
                                       axis=0, return_counts=True)
    except GuardError:
        with pytest.raises(GuardError, match="pinned configurations"):
            ls._patterns(n, d, radius)
        return
    rows, mult = ls._patterns(n, d, radius)
    assert rows.dtype == ref_rows.dtype and mult.dtype == ref_mult.dtype
    assert np.array_equal(rows, ref_rows) and np.array_equal(mult, ref_mult)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss counts KiB on Linux only")
@pytest.mark.parametrize("n,d,radius", [(5, 3, 3), (5, 2, 2)])
def test_configuration_guard_raises_in_bounded_memory(n, d, radius):
    # in a fresh process, after the import and a small warm-up: the set of
    # tuples peaked 19.0 and 15.1 MB above that, the array growth 11.2 and 9.2
    script = ("import resource, latgas.series as ls\n"
              "ls._patterns(3, 1, 1)\n"
              "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
              "try:\n"
              f"    ls._patterns({n}, {d}, {radius})\n"
              "except ls.GuardError:\n"
              "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n")
    src = str(Path(ls.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert int(out) / 1024 < 14


POTENTIALS = st.one_of(st.just(POT), st.builds(PotentialSpec, st.just("kac"), st.just(1.0),
                                               st.integers(1, 3)))
BETAS = st.floats(0.0, 1e300)


def _finite_or_typed_error(call):
    try:
        value = call()
    except (GuardError, ValueError):
        return
    assert all(math.isfinite(v) for v in value), value


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, ls.MAX_B_ORDER), d=st.integers(1, 3), pot=POTENTIALS, beta=BETAS)
def test_connected_coefficient_over_the_guarded_space(n, d, pot, beta):
    _finite_or_typed_error(lambda: [connected_coefficient(n, d, pot, beta)])


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, ls.MAX_BETA_IRR_ORDER), d=st.integers(1, 3), pot=POTENTIALS,
       beta=BETAS)
def test_irreducible_coefficient_over_the_guarded_space(n, d, pot, beta):
    _finite_or_typed_error(lambda: [irreducible_coefficient(n, d, pot, beta)])


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, ls.MAX_TREE_CHECK_ORDER), d=st.integers(1, 3), pot=POTENTIALS,
       beta=BETAS)
def test_tree_graph_check_over_the_guarded_space(n, d, pot, beta):
    def totals():
        rep = tree_graph_check(n, d, pot, beta)
        return [rep.lhs_total, rep.rhs_total]

    _finite_or_typed_error(totals)


# oracle tables in one and two dimensions, up to 24 sites, with every wall type
SERIES_BOXES = [(LatticeSpec(1, 12, "periodic"), POT),
                (LatticeSpec(1, 9, "zero"), PotentialSpec("kac", 1.0, 2)),
                (LatticeSpec(2, 4, "periodic"), PotentialSpec("standard", 0.7)),
                (LatticeSpec(2, 3, "fixed", gamma=((-1, 0), (0, -1), (3, 2))), POT),
                (LatticeSpec(1, 20, "fixed", gamma=((-1,), (20,))), PotentialSpec("kac", 1.0, 3)),
                (LatticeSpec(1, 24, "periodic"), POT)]


@settings(max_examples=150, deadline=None)
@given(box=st.sampled_from(SERIES_BOXES),
       beta=st.one_of(st.just(0.0), st.floats(0.0, 1e300),
                      st.floats(-300.0, 300.0).map(lambda u: 10.0 ** u)),
       rho=st.just(1e-300) | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       order=st.integers(0, ls.MAX_DERIVATIVE_ORDER), data=st.data())
def test_series_layer_over_the_guarded_space(box, beta, rho, order, data):
    # each helper returns a finite value or a documented sentinel, or raises
    # GuardError or ValueError
    table = canonical_table(*box, beta)
    volume = table.n_sites
    n_max = data.draw(st.integers(1, volume - 1), label="n_max")
    n_particles = data.draw(st.integers(-1, volume + 1), label="N")

    def outcome(call):
        try:
            return call()
        except ValueError:  # GuardError included
            return None

    extracted = outcome(lambda: extract_b_lambda(table, n_max))
    if extracted is None:
        coeffs = data.draw(hnp.arrays(np.float64, n_max + 1, elements=st.floats(
            allow_nan=False, allow_infinity=False)), label="coeffs")
        extracted = CanonicalFreeEnergy(coeffs, volume)
    else:
        assert extracted.volume == volume and extracted.n_max == n_max
        assert np.isfinite(extracted.coeffs).all()
    log_z = outcome(lambda: reconstruct_log_z(extracted, n_particles))
    assert log_z is None or math.isfinite(log_z)
    with pytest.raises(ValueError, match="volume"):
        reconstruct_log_z(CanonicalFreeEnergy(extracted.coeffs), n_particles)
    remainder = outcome(lambda: stirling_remainder(n_particles, volume))
    assert remainder is None or math.isfinite(remainder)
    p = outcome(lambda: falling_p(n_particles, data.draw(st.integers(-1, volume)), n_max))
    assert p is None or math.isfinite(p)
    for fe in (extracted, CanonicalFreeEnergy(extracted.coeffs)):
        value = outcome(lambda: fe.derivative(rho, order))
        assert value is None or math.isfinite(value)

    beta_irr = data.draw(hnp.arrays(np.float64, st.integers(0, 8), elements=st.floats()),
                         label="beta_irr")
    vs = outcome(lambda: VirialSeries(beta_irr, data.draw(st.integers(-2, 7), label="order")))
    if vs is not None:
        for method in ("mu_minus_log", "pressure_rho", "z_of_rho", "rho_of_z",
                       "pressure_fugacity"):
            c = outcome(getattr(vs, method))
            assert c is None or (len(c) == vs.order + 1 and np.isfinite(c).all())


def test_series_helpers_raise_typed_errors_at_their_edges():
    # each raised a bare IndexError, OverflowError, ZeroDivisionError or
    # TypeError, or returned a value that is not finite; a virial series
    # checks itself when it is built
    for order in (0, -1):
        with pytest.raises(ValueError, match="order"):
            VirialSeries(np.array([0.0, 0.3]), order)
    with pytest.raises(ValueError, match="finite"):
        VirialSeries(np.array([0.0, math.nan]), 2)
    with pytest.raises(GuardError, match="float range"):
        VirialSeries(np.array([0.0, 1e308, -1e308]), 3)
    with pytest.raises(GuardError, match="float range"):
        VirialSeries(np.array([0.0, 1e100]), 5)
    # volume 0 divided by zero in derivative, and volume -5 gave a number
    for volume in (0, -5):
        with pytest.raises(ValueError, match="volume"):
            CanonicalFreeEnergy(np.zeros(3), volume).derivative(0.5)
    for volume in (None, 100):
        with pytest.raises(GuardError, match="float range"):
            CanonicalFreeEnergy(np.zeros(1), volume).derivative(1e-300, 6)
    with pytest.raises(GuardError, match="float range"):
        CanonicalFreeEnergy(np.array([0.0, 1.7e308, 1.7e308])).derivative(0.9, 2)
    with pytest.raises(ValueError, match="volume"):
        falling_p(3, 0, 1)
    with pytest.raises(ValueError, match="volume"):
        reconstruct_log_z(CanonicalFreeEnergy(np.zeros(3)), 2)
    # B_Lambda(23) of the 24-ring at beta = 1e300 is about 1e310
    table = canonical_table(LatticeSpec(1, 24, "periodic"), POT, 1e300)
    with pytest.raises(GuardError, match="float range"):
        extract_b_lambda(table, 23)
    with pytest.raises(GuardError, match="float range"):
        reconstruct_log_z(CanonicalFreeEnergy(np.array([0.0, 1.7e308, 1.7e308]), 3), 3)
    # beta outside [0, inf] (nan included): beta_1 was nan, b_3 and beta_2
    # failed on converting nan to a ratio, the nan tree-graph check read as
    # past the float range and the one at beta = -1 reported 13 violations
    for beta in (math.nan, -1.0):
        for call in (lambda: beta1_closed_form(1, POT, beta),
                     lambda: connected_coefficient(3, 1, POT, beta),
                     lambda: irreducible_coefficient(2, 1, POT, beta),
                     lambda: tree_graph_check(3, 1, POT, beta)):
            with pytest.raises(ValueError, match="beta must be >= 0"):
                call()
    # an order, a dimension or a particle number that is a float or a bool:
    # the floats raised a bare TypeError or AttributeError, d = 0 numpy's
    # reshape error, and True read as 1
    table = exact_canonical_table(LatticeSpec(1, 8, "periodic"), POT, BETA)
    fe = extract_b_lambda(table, 3)
    for call in (lambda: extract_b_lambda(table, 2.0), lambda: extract_b_lambda(table, True),
                 lambda: connected_coefficient(2.0, 1, POT, BETA),
                 lambda: connected_coefficient(True, 1, POT, BETA),
                 lambda: connected_coefficient(2, 1.0, POT, BETA),
                 lambda: connected_coefficient(2, 0, POT, BETA),
                 lambda: irreducible_coefficient(2.0, 1, POT, BETA),
                 lambda: irreducible_coefficient(2, 0, POT, BETA),
                 lambda: tree_graph_check(3.0, 1, POT, BETA),
                 lambda: tree_graph_check(3, 0, POT, BETA),
                 lambda: reconstruct_log_z(fe, 3.0),
                 lambda: VirialSeries(np.array([0.0, 0.3]), True),
                 lambda: VirialSeries(np.array([0.0, 0.3]), 2.0)):
        with pytest.raises(ValueError, match="must be an integer"):
            call()
    # a numpy integer volume is a volume, as it is for the specs
    assert CanonicalFreeEnergy(fe.coeffs, np.int64(8)).derivative(0.5) == fe.derivative(0.5)


def _graph_terms(cls, n_points, d):
    """Configurations per (in-range edges, coincident edges) over the
    patterns and the DFS-filtered graphs without an out-of-range edge."""
    rows, mult = ls._patterns(n_points, d, POT.support_radius)
    graphs = _graph_indices(brute_force_class(n_points, cls), n_points)
    terms = Counter()  # (in-range edges, coincident edges) -> configurations
    for row, m in zip(rows.tolist(), mult.tolist()):
        for g in graphs:
            cats = [row[e] for e in g]
            if 0 not in cats:
                terms[cats.count(1), cats.count(2)] += m
    return terms


@pytest.mark.parametrize("d", [1, 2])
def test_coefficients_are_correctly_rounded_fraction_sums(d):
    cases = ([(connected_coefficient, n, "connected", n) for n in ORDERS["b"]]
             + [(irreducible_coefficient, n, "biconnected", n + 1) for n in ORDERS["beta"]])
    for fn, n, cls, points in cases:
        terms = _graph_terms(cls, points, d)
        for beta in (0.2, 1.3):
            f = Fraction(math.expm1(4 * beta))
            exact = sum(m * f ** k * (-1) ** c for (k, c), m in terms.items())
            assert fn(n, d, POT, beta) == float(exact / math.factorial(n))


def test_warm_cache_is_bit_identical_to_cold():
    def values():
        return ([connected_coefficient(n, 2, POT, 0.3) for n in range(2, 5)]
                + [irreducible_coefficient(n, 1, KAC[2], 0.3) for n in range(1, 5)]
                + [tree_graph_check(4, 2, POT, 0.3)])

    ls._patterns.cache_clear()
    ls._graph_polys.cache_clear()
    cold = values()
    assert values() == cold


@settings(max_examples=40, deadline=None)
@given(beta=st.floats(0.0, 2.0), n=st.integers(2, 5))
def test_tree_check_holds_on_the_line(beta, n):
    rep = tree_graph_check(n, 1, POT, beta)
    assert rep.violations == 0
    assert rep.lhs_total <= rep.rhs_total
