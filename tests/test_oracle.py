import decimal
import functools
import hashlib
import itertools
import math
from fractions import Fraction
from math import comb

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp

from latgas import cli, oracle, series
from latgas.model import GuardError, LatticeSpec, PotentialSpec
from latgas.oracle import (_interaction_pairs, _logsumexp, _subset_counts,
                           canonical_table, exact_canonical_table, exact_correlations,
                           grand_canonical_eval, transfer_matrix_table)
from references import (boundary_weight, edge_count, ising_gas_consistency,
                        ising_grand_partition, lattice_gas_hamiltonian, mu_from_field)

POT = PotentialSpec("standard", 1.0)
KAC2, KAC3 = PotentialSpec("kac", 1.0, 2), PotentialSpec("kac", 1.0, 3)
FIXED_BOX = LatticeSpec(2, 3, "fixed", gamma=((-1, 0), (0, -1), (3, 2)))
TORUS3, TORUS4 = LatticeSpec(2, 3, "periodic"), LatticeSpec(2, 4, "periodic")
RING = functools.partial(LatticeSpec, 1, boundary="periodic")


def test_two_site_chain_table():
    beta = 0.3
    t = exact_canonical_table(LatticeSpec(1, 2, "zero"), POT, beta)
    assert t.log_z_of(0) == pytest.approx(0.0)
    assert t.log_z_of(1) == pytest.approx(math.log(2))
    assert t.log_z_of(2) == pytest.approx(4 * beta)  # single adjacent pair
    assert t.log_z_of(3) == -math.inf  # hard core beyond |Lambda|


def test_single_particle_counts_sites():
    for lat in (LatticeSpec(1, 5, "zero"), LatticeSpec(2, 3, "periodic")):
        t = exact_canonical_table(lat, POT, 0.7)
        assert t.log_z_of(1) == pytest.approx(math.log(lat.n_sites))


def test_transfer_matrix_two_sites():
    beta = 0.25
    t = transfer_matrix_table(2, POT, beta, "zero")
    assert np.allclose(np.exp(t.log_z), [1.0, 2.0, math.exp(4 * beta)])


def test_transfer_matrix_free_counting():
    t = transfer_matrix_table(10, POT, 0.0, "zero")
    assert np.allclose(np.exp(t.log_z), [comb(10, n) for n in range(11)])


@pytest.mark.parametrize("boundary", ["zero", "periodic"])
@pytest.mark.parametrize("side", [3, 5, 10, 14])
def test_cross_oracle_agreement(boundary, side):
    beta = 0.35
    tm = transfer_matrix_table(side, POT, beta, boundary)
    en = exact_canonical_table(LatticeSpec(1, side, boundary), POT, beta)
    for n in range(side + 1):
        a, b = tm.log_z_of(n), en.log_z_of(n)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_kac_transfer_matrix_matches_enumeration():
    kac = PotentialSpec("kac", 1.0, 2)
    beta = 0.2
    tm = transfer_matrix_table(9, kac, beta, "zero")
    en = exact_canonical_table(LatticeSpec(1, 9, "zero"), kac, beta)
    assert np.allclose(tm.log_z, en.log_z, atol=1e-12)


def test_transfer_matrix_guards():
    with pytest.raises(GuardError):
        transfer_matrix_table(5000, POT, 0.1, "zero")
    with pytest.raises(GuardError):
        transfer_matrix_table(10, PotentialSpec("kac", 1.0, 2), 0.1, "periodic")


def test_canonical_table_dispatch():
    assert canonical_table(RING(40), POT, 0.2).method == "transfer-matrix"
    assert canonical_table(RING(24), POT, 0.2).method == "enumeration"
    with pytest.raises(GuardError, match="enumeration guarded"):
        canonical_table(LatticeSpec(2, 5, "periodic"), POT, 0.2)


@pytest.mark.parametrize("beta", [-1.0, -0.5e-300, -math.inf, math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda beta: exact_canonical_table(RING(20), POT, beta),
    lambda beta: exact_correlations(RING(20), POT, beta, 10),
    lambda beta: transfer_matrix_table(20, POT, beta, "periodic"),
    lambda beta: transfer_matrix_table(30, KAC3, beta, "zero"),
    lambda beta: canonical_table(RING(20), POT, beta),
    lambda beta: canonical_table(RING(30), POT, beta)],
    ids=["enumeration-20", "correlations-20", "transfer-matrix-20", "transfer-matrix-30",
         "canonical-table-20", "canonical-table-30"])
def test_oracles_take_beta_from_zero_to_inf(call, beta):
    # one check for all three oracles, so canonical_table answers alike on
    # both sides of the enumeration guard; before it an enumeration at
    # beta = -1 gave a table and at nan all-nan rows, and an infinite beta
    # raised a bare decimal.InvalidOperation
    with pytest.raises(ValueError, match="0 <= beta < inf"):
        call(beta)


def test_canonical_table_raises_guard_error_on_inf_rows():
    # past the float range both builders keep +inf rows: 88 of the Kac R = 3
    # 100-chain at beta = 1e306, and the 12-ring's full row, 12 bonds at
    # x = 4e308; unguarded, these tables went on to inf and nan in the CSVs
    chain = transfer_matrix_table(100, KAC3, 1e306)
    assert np.count_nonzero(chain.log_z == math.inf) == 88
    assert exact_canonical_table(RING(12), POT, 1e308).log_z_of(12) == math.inf
    for lattice, pot, beta in ((LatticeSpec(1, 100, "zero"), KAC3, 1e306),
                               (RING(12), POT, 1e308)):
        with pytest.raises(GuardError, match="log Z"):
            canonical_table(lattice, pot, beta)


def test_canonical_table_raises_value_error_on_a_nan_entry():
    # unguarded, grand_canonical_eval gave log Xi = nan and nan probabilities
    # at mu = -1, find_n_star read 1 and mean_occupation raised a bare error
    with pytest.raises(ValueError, match="nan"):
        oracle.CanonicalTable(LatticeSpec(1, 4, "zero"), 0.3, POT,
                              np.array([0.0, 1.0, math.nan, 0.5, 0.0]), "planted")


def test_array_holding_results_compare_by_identity_and_hash():
    # with generated field equality, == on two equal-valued results raised
    # ValueError (an array's truth value) and hash raised TypeError
    def build():
        table = exact_canonical_table(LatticeSpec(1, 6, "periodic"), POT, 0.3)
        return (table, grand_canonical_eval(table, -1.0),
                exact_correlations(LatticeSpec(1, 6, "periodic"), POT, 0.3, 2),
                series.extract_b_lambda(table, 2),
                series.VirialSeries(np.array([0.0, 0.1, 0.2]), 3))
    for first, second in zip(build(), build()):
        assert first == first and first != second
        assert hash(first) == hash(first)
        assert first in {first} and len({first, second}) == 2


def test_grand_canonical_eval_raises_guard_error_where_log_xi_is_inf():
    # the raw chain above: log Xi was inf and 88 probabilities nan at mu = -1
    chain = transfer_matrix_table(100, KAC3, 1e306)
    with pytest.raises(GuardError, match="log Xi"):
        grand_canonical_eval(chain, -1.0)


def test_enumeration_guard():
    with pytest.raises(GuardError):
        exact_canonical_table(LatticeSpec(1, 25, "zero"), POT, 0.1)


def test_grand_canonical_normalization_and_limits():
    t = exact_canonical_table(LatticeSpec(1, 8, "zero"), POT, 0.3)
    g = grand_canonical_eval(t, -0.5)
    assert abs(g.probs.sum() - 1.0) <= 1e-12
    assert g.log_xi >= 0.0  # Xi >= 1 (N=0 term)
    g_far = grand_canonical_eval(t, -80.0)
    assert g_far.probs[0] == pytest.approx(1.0, abs=1e-9)


def test_two_site_occupation_probability():
    beta, mu = 0.3, -1.0
    t = exact_canonical_table(LatticeSpec(1, 2, "zero"), POT, beta)
    g = grand_canonical_eval(t, mu)
    z = math.exp(beta * mu)
    xi = 1 + 2 * z + math.exp(4 * beta) * z * z
    assert g.probs[1] == pytest.approx(2 * z / xi)


def test_pressure_monotone_convex_in_mu():
    t = exact_canonical_table(LatticeSpec(1, 10, "periodic"), POT, 0.4)
    mus = np.linspace(-6.0, 2.0, 51)
    vals = [grand_canonical_eval(t, float(m)).log_xi for m in mus]
    diffs = np.diff(vals)
    assert np.all(diffs > 0)
    assert np.all(np.diff(diffs) > -1e-10)


def test_mean_is_pressure_derivative():
    t = exact_canonical_table(LatticeSpec(1, 10, "zero"), POT, 0.3)
    mu, h = -1.5, 1e-4
    g = grand_canonical_eval(t, mu)
    fd = (grand_canonical_eval(t, mu + h).pressure
          - grand_canonical_eval(t, mu - h).pressure) / (2 * h)
    assert g.mean_particles() / t.n_sites == pytest.approx(fd, abs=1e-6)


def test_pressure_at_beta_zero_raises_value_error():
    # log Xi / (beta |Lambda|) divided by zero; beta p = log 2 per site stays defined
    g = grand_canonical_eval(exact_canonical_table(LatticeSpec(1, 10, "zero"), POT, 0.0), 1.0)
    assert g.beta_pressure == pytest.approx(math.log(2.0))  # fugacity e^{beta mu} = 1
    with pytest.raises(ValueError, match="beta = 0"):
        g.pressure


def test_correlation_sum_rules():
    lat = LatticeSpec(1, 10, "periodic")
    t = exact_correlations(lat, POT, 0.25, 3)
    assert t.rho1.sum() == pytest.approx(3.0)
    assert t.rho2.sum() == pytest.approx(6.0)
    assert np.allclose(t.rho2.sum(axis=1), 2 * t.rho1)
    assert np.allclose(t.u2, t.u2.T)
    assert np.allclose(t.rho1, 0.3)  # torus translation invariance
    # coincident pins: rho2 = 0, u2 = -rho1^2
    assert t.rho2[0, 0] == 0.0
    assert t.u2[0, 0] == pytest.approx(-0.09)


def test_correlations_free_case():
    lat = LatticeSpec(1, 10, "periodic")
    t = exact_correlations(lat, POT, 0.0, 3)
    assert t.rho2[0, 4] == pytest.approx(3 * 2 / (10 * 9))
    assert t.u2[0, 4] == pytest.approx(6 / 90 - 0.09)
    assert t.u2[0, 4] < 0  # sampling without replacement anticorrelates


def test_ising_gas_consistency():
    # m = -1: both sides reduce to the empty-gas prefactor
    lat = LatticeSpec(1, 4, "zero")
    lhs, rhs = ising_gas_consistency(lat, POT, 0.5, -1.0)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    lhs, rhs = ising_gas_consistency(lat, POT, 0.5, -0.5)
    assert lhs == pytest.approx(rhs, rel=1e-10)
    lat2 = LatticeSpec(2, 3, "zero")
    lhs, rhs = ising_gas_consistency(lat2, POT, 0.3, -7.0 / 9.0)
    assert lhs == pytest.approx(rhs, rel=1e-10)
    # denser magnetizations exercise real pair interactions on both sides
    for lattice, m in ((lat, 0.0), (LatticeSpec(1, 5, "zero"), 0.2),
                       (lat2, 8.0 / 9.0 - 1.0)):
        lhs, rhs = ising_gas_consistency(lattice, POT, 0.45, m)
        assert lhs == pytest.approx(rhs, rel=1e-12)
    with pytest.raises(ValueError):
        ising_gas_consistency(lat, POT, 0.5, -0.4)  # non-integral N


def test_ising_gas_consistency_past_the_float_range_raises_guard_error():
    # e^{-beta H} of the spin sum overflows: no bare OverflowError escapes
    with pytest.raises(GuardError):
        ising_gas_consistency(LatticeSpec(1, 8, "zero"), POT, 1000.0, -0.5)


def test_grand_canonical_ising_gas_identity():
    # Xi_ising^-(h) = exp(-beta |Lambda| [h - J |E|/|Lambda|]) Xi_gas(mu(h))
    beta = 0.35
    for d, L in ((1, 4), (2, 2)):
        lat = LatticeSpec(d, L, "fixed")  # empty gamma = uniform -1 walls
        h = -1.2
        log_ising = ising_grand_partition(lat, POT, beta, h)
        mu = mu_from_field(h, lat, POT)
        gas = grand_canonical_eval(exact_canonical_table(lat, POT, beta), mu)
        expected = (-beta * (h * lat.n_sites - POT.coupling * edge_count(lat))
                    + gas.log_xi)
        assert log_ising == pytest.approx(expected, abs=1e-10)


def test_table_csv_rows():
    # the rows cmd_oracle hands to the CSV writer
    files = cli.cmd_oracle({"dimension": 1, "side": 2, "beta": 0.3, "boundary": "zero",
                            "mu": -1.0})
    rows = files["canonical_table.csv"]
    assert rows[0] == ("N", "logZ")
    assert len(rows) == 4
    g = grand_canonical_eval(exact_canonical_table(LatticeSpec(1, 2, "zero"), POT, 0.3), -1.0)
    prows = files["probabilities.csv"]
    assert prows[0] == ("N", "prob")
    assert float(prows[1][1]) == pytest.approx(g.probs[0])


def test_fixed_boundary_table_via_boundary_weights():
    # Z^gamma(N) = sum over N-subsets of exp(-beta H^0) prod_i nu(x_i|gamma)
    beta = 0.4
    lat = LatticeSpec(2, 3, "fixed", gamma=((-1, 0), (0, -1), (3, 2)))
    open_box = LatticeSpec(2, 3, "zero")
    table = exact_canonical_table(lat, POT, beta)
    for n in (1, 2, 3):
        acc = 0.0
        for sub in itertools.combinations(lat.sites(), n):
            h0 = lattice_gas_hamiltonian(list(sub), open_box, POT)
            w = 0.0 if math.isinf(h0) else math.exp(-beta * h0)
            for x in sub:
                w *= boundary_weight(x, lat, POT, beta)
            acc += w
        assert math.exp(table.log_z_of(n)) == pytest.approx(acc, rel=1e-10)


# ---------------------------------------------------------------------------
# Brute-force reference: every N-subset, its energy from the model's
# Hamiltonian, sums in 40-digit mpmath.

@functools.lru_cache(maxsize=None)
def _subset_energies(lattice, pot, n):
    """(subset, H) for every n-site subset, H from lattice_gas_hamiltonian.
    That refuses the side-2 torus, whose range-1 H is the bond energy once
    per torus bond (x, x + e_k mod 2) with both ends occupied."""
    sites = lattice.sites()
    if lattice.boundary == "periodic" and lattice.side == 2:
        def energy(occ):
            return pot.bond_energy * sum(x in occ and y in occ
                                         for x, y in lattice.interior_bonds())
    else:
        def energy(occ):
            return lattice_gas_hamiltonian(occ, lattice, pot)
    return tuple((sub, energy([sites[i] for i in sub]))
                 for sub in itertools.combinations(range(lattice.n_sites), n))


def _reference_log_z(lattice, pot, beta, n):
    with mp.workdps(40):
        return float(mp.log(mp.fsum(mp.exp(-mp.mpf(beta) * e)
                                    for _, e in _subset_energies(lattice, pot, n))))


def _reference_correlations(lattice, pot, beta, n):
    """rho1, rho2 and u2, each rounded once.  u2 = rho2 - rho1 rho1^T is not
    formed by that subtraction, which cancels to 0 at low temperature, but
    from Z^2 u2 = sum over energy pairs (e, f) of the exact integers
    C_e P_f - n_e n_f^T times e^{-beta (e + f)}: C_e subsets at energy e,
    n_e their count per site, P_f per site pair (0 on the diagonal)."""
    S = lattice.n_sites
    levels = {}  # energy -> [number of subsets, subsets holding each site pair]
    for sub, e in _subset_energies(lattice, pot, n):
        occ = np.zeros(S, dtype=np.int64)
        occ[list(sub)] = 1
        level = levels.setdefault(e, [0, np.zeros((S, S), dtype=np.int64)])
        level[0] += 1
        level[1] += np.outer(occ, occ)
    numerators = {}  # e + f -> the integer coefficients of Z^2 u2
    for e, (count, pairs) in levels.items():
        for f, (_, other) in levels.items():
            coef = count * (other - np.diag(other.diagonal()))
            coef -= np.outer(pairs.diagonal(), other.diagonal())
            numerators[e + f] = numerators.get(e + f, 0) + coef
    with mp.workdps(40):
        weights = {e: mp.exp(-mp.mpf(beta) * e) for e in levels}
        z = mp.fsum(count * weights[e] for e, (count, _) in levels.items())
        moments = [[mp.fsum(int(pairs[i, j]) * weights[e]
                            for e, (_, pairs) in levels.items()) / z
                    for j in range(S)] for i in range(S)]
        rho1 = [moments[i][i] for i in range(S)]
        rho2 = [[moments[i][j] if i != j else mp.mpf(0) for j in range(S)] for i in range(S)]
        u2 = [[mp.fsum(int(coef[i, j]) * mp.exp(-mp.mpf(beta) * ef)
                       for ef, coef in numerators.items()) / z ** 2
               for j in range(S)] for i in range(S)]
        return tuple(np.array(a, dtype=float) for a in (rho1, rho2, u2))


@pytest.mark.parametrize("lattice, pot, particles", [
    (LatticeSpec(1, 10, "periodic"), POT, range(11)),
    (LatticeSpec(1, 7, "zero"), POT, range(8)),
    (TORUS3, POT, range(10)),
    # the middle of the 4x4 torus costs seconds by brute force; N = 8 is the
    # largest sum, and particle-hole symmetry ties the rest to N <= 7
    (TORUS4, POT, (0, 1, 2, 3, 8, 13, 14, 15, 16)),
    (LatticeSpec(1, 8, "zero"), KAC2, range(9)),
    (LatticeSpec(1, 8, "zero"), KAC3, range(9)),
    (LatticeSpec(2, 3, "zero"), KAC2, range(10)),
    (FIXED_BOX, POT, range(10)),
])
@pytest.mark.parametrize("beta", [0.35, 25.0])
def test_table_equals_brute_force(lattice, pot, particles, beta):
    table = exact_canonical_table(lattice, pot, beta)
    for n in particles:
        ref = _reference_log_z(lattice, pot, beta, n)
        assert abs(table.log_z_of(n) - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("lattice, n", [(LatticeSpec(1, 10, "periodic"), 3),
                                        (LatticeSpec(1, 7, "periodic"), 4),
                                        (TORUS3, 4), (TORUS4, 8),
                                        # 24 and 8 entries below 1e-30 rho1^2 at beta = 25
                                        (LatticeSpec(1, 12, "periodic"), 6),
                                        (LatticeSpec(2, 2, "periodic"), 2)])
@pytest.mark.parametrize("beta", [0.0, 0.3, 25.0])
def test_correlations_equal_brute_force(lattice, n, beta):
    table = exact_correlations(lattice, POT, beta, n)
    rho1, rho2, u2 = _reference_correlations(lattice, POT, beta, n)
    assert table.rho1 == pytest.approx(rho1, rel=1e-13, abs=0)
    assert table.rho2 == pytest.approx(rho2, rel=1e-13, abs=0)
    assert table.u2 == pytest.approx(u2, rel=1e-13, abs=0)


@pytest.mark.parametrize("lattice, pot", [(LatticeSpec(1, 12, "periodic"), POT),
                                          (TORUS4, POT), (FIXED_BOX, POT),
                                          (LatticeSpec(1, 10, "zero"), KAC3)])
def test_density_of_states_counts_every_subset(lattice, pot):
    counts = _subset_counts(lattice, pot.support_radius, (0,))[0]
    assert [sum(row) for row in counts] == [comb(lattice.n_sites, n)
                                             for n in range(lattice.n_sites + 1)]


def _whole_array_counts(lattice, radius, mark=0):
    """The kernel before blocking: every mask of the box in one array, the
    N-subsets per level k that hold every site of ``mark``."""
    masks = np.arange(1 << lattice.n_sites, dtype=np.int64)
    bonds = np.zeros(len(masks), dtype=np.int64)
    for i, j in _interaction_pairs(lattice, radius):
        bonds += (masks >> i) & (masks >> j) & 1
    levels = int(bonds.max()) + 1
    keys = np.bitwise_count(masks).astype(np.int64) * levels + bonds
    counts = np.bincount(keys[masks & mark == mark], minlength=(lattice.n_sites + 1) * levels)
    return tuple(map(tuple, counts.reshape(-1, levels).tolist()))


@pytest.mark.parametrize("lattice, radius", [
    (LatticeSpec(1, 18, "periodic"), 1), (LatticeSpec(1, 17, "zero"), 3), (TORUS4, 1),
    (LatticeSpec(2, 4, "zero"), 2), (FIXED_BOX, 1),
    (LatticeSpec(1, 10, "fixed", gamma=((-1,), (10,))), 1)])
@pytest.mark.parametrize("block", [1 << 10, oracle.SUBSET_BLOCK])
def test_blocked_density_of_states_equals_whole_array(monkeypatch, lattice, radius, block):
    monkeypatch.setattr(oracle, "SUBSET_BLOCK", block)
    assert (_subset_counts.__wrapped__(lattice, radius, (0,))[0]
            == _whole_array_counts(lattice, radius))


@st.composite
def _boxes(draw):
    """A box of at most 12 sites with any wall, a range R <= 3 that the
    periodic guard allows, and for fixed walls a set of exterior sites each
    in range of the box."""
    dimension = draw(st.integers(1, 3))
    side = draw(st.integers(2, {1: 12, 2: 3, 3: 2}[dimension]))
    boundary = draw(st.sampled_from(["zero", "periodic", "fixed"]))
    radius = draw(st.sampled_from([r for r in (1, 2, 3)
                                   if r == 1 or boundary != "periodic" or side > 2 * r]))
    gamma = ()
    if boundary == "fixed":
        box = LatticeSpec(dimension, side)
        near = [g for g in itertools.product(range(-radius, side + radius), repeat=dimension)
                if not box.contains(g)
                and any(sum((p - q) ** 2 for p, q in zip(x, g)) <= radius ** 2
                        for x in box.sites())]
        gamma = tuple(draw(st.lists(st.sampled_from(near), unique=True, max_size=6)))
    return LatticeSpec(dimension, side, boundary, gamma=gamma), radius


@settings(max_examples=80, deadline=None)
@given(case=_boxes(), data=st.data())
def test_split_density_of_states_equals_whole_array(case, data):
    # split widths of 2^b masks down to b = 1, so small boxes run many high
    # parts and cross patterns; the drawn marks hold sites on either side
    lattice, radius = case
    block = 1 << data.draw(st.integers(1, lattice.n_sites))
    marks = (0, *data.draw(st.lists(st.integers(1, (1 << lattice.n_sites) - 1), max_size=4)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "SUBSET_BLOCK", block)
        counts = _subset_counts.__wrapped__(lattice, radius, marks)
    assert counts == tuple(_whole_array_counts(lattice, radius, mark) for mark in marks)
    masks = np.arange(1 << lattice.n_sites, dtype=np.int32)
    per_pair = np.zeros(1 << lattice.n_sites, dtype=np.int64)
    for i, j in _interaction_pairs(lattice, radius):
        per_pair += (masks >> i) & (masks >> j) & 1
    assert np.array_equal(oracle._bonds(masks, oracle._bond_groups(lattice, radius)), per_pair)


# the 18-ring's sites 16 and 17 are past the default split width
@pytest.mark.parametrize("lattice, n", [(LatticeSpec(1, 12, "periodic"), 5), (TORUS3, 4),
                                        (RING(18), 9)])
def test_blocked_correlations_equal_one_block(monkeypatch, lattice, n):
    _subset_counts.cache_clear()
    whole = exact_correlations(lattice, POT, 0.4, n)
    _subset_counts.cache_clear()
    monkeypatch.setattr(oracle, "SUBSET_BLOCK", 1 << 5)
    blocked = exact_correlations(lattice, POT, 0.4, n)
    _subset_counts.cache_clear()
    for a, b in ((whole.rho1, blocked.rho1), (whole.rho2, blocked.rho2), (whole.u2, blocked.u2)):
        assert a.tobytes() == b.tobytes()


def test_warm_cache_table_is_bit_identical_to_cold():
    _subset_counts.cache_clear()
    cold = exact_canonical_table(TORUS4, POT, 0.37)
    warm = exact_canonical_table(TORUS4, POT, 0.37)
    assert _subset_counts.cache_info().hits == 1
    assert warm.log_z.tobytes() == cold.log_z.tobytes()


def test_correlations_count_subsets_once_per_box():
    # the pair counts are free of beta and N: a second beta or N is a hit
    _subset_counts.cache_clear()
    first = exact_correlations(TORUS4, POT, 0.37, 8)
    exact_correlations(TORUS4, POT, 1.5, 8)
    exact_correlations(TORUS4, POT, 0.37, 5)
    info = _subset_counts.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert exact_correlations(TORUS4, POT, 0.37, 8).u2.tobytes() == first.u2.tobytes()


def test_table_is_finite_far_past_the_float_range():
    # e^{32 x} with x = 4e6 is far past the float range; log Z is not
    table = exact_canonical_table(TORUS4, POT, 1e6)
    assert np.all(np.isfinite(table.log_z))
    assert table.log_z_of(0) == 0.0
    assert table.log_z_of(16) == 32 * 4e6


def test_single_subset_row_is_correctly_rounded():
    # the full ring has one subset at 10 bonds: log Z(10) = 40 beta, and this
    # beta puts 40 beta exactly halfway between two floats
    beta = 0.7873971570789526
    table = exact_canonical_table(LatticeSpec(1, 10, "periodic"), POT, beta)
    assert table.log_z_of(10) == float(Fraction(beta) * 40)


def _particle_hole_residual(lattice, beta):
    table = exact_canonical_table(lattice, POT, beta)
    d, edges = lattice.dimension, edge_count(lattice)
    worst = 0.0
    for n in range(lattice.n_sites + 1):
        expected = table.log_z_of(n) + 4.0 * beta * (edges - 2 * d * n)
        got = table.log_z_of(lattice.n_sites - n)
        worst = max(worst, abs(got - expected) / max(1.0, abs(expected)))
    return worst


@settings(max_examples=30, deadline=None)
@given(lattice=st.one_of(st.integers(3, 20).map(lambda L: LatticeSpec(1, L, "periodic")),
                         st.sampled_from([TORUS3, TORUS4])),
       beta=st.floats(0.0, 30.0))
def test_particle_hole_symmetry(lattice, beta):
    # log Z(|L| - N) = log Z(N) + 4 beta J (|E| - 2 d N) on periodic boxes
    assert _particle_hole_residual(lattice, beta) <= 1e-12


@pytest.mark.parametrize("side", [257, 4096])
@pytest.mark.parametrize("beta", [0.3, 25.0])
def test_transfer_matrix_particle_hole_at_scale(side, beta):
    # log Z(L - N) = log Z(N) + 4 beta J (L - 2N) on the ring.  Z(N) carries
    # ~L eps relative error, a few ulps of log Z; the residual is formed from
    # terms as large as the larger log Z, so it scales with that
    log_z = transfer_matrix_table(side, POT, beta, "periodic").log_z
    residual = log_z[::-1] - log_z - 4.0 * beta * (side - 2 * np.arange(side + 1))
    scale = np.maximum(1.0, np.maximum(np.abs(log_z), np.abs(log_z[::-1])))
    assert np.all(np.abs(residual) <= 1e-15 * scale)


def test_transfer_matrix_exact_rows_at_scale():
    table = transfer_matrix_table(4096, PotentialSpec("kac", 1.0, 4), 0.4, "zero")
    assert table.log_z_of(0) == 0.0
    assert table.log_z_of(1) == pytest.approx(math.log(4096), rel=1e-15)


def _aligned_transfer_matrix(side, pot, beta):
    """log Z of the zero-wall transfer matrix before exponent windows: every
    site aligns each sum's two terms to the larger exponent, at every
    column.  The full row is its one configuration, rounded once."""
    R = pot.support_radius
    x = oracle._bond_exponent(pot, beta)
    powers = [oracle._binary_power(oracle._EXACT.multiply(x, p)) for p in range(R + 1)]
    bond_m, bond_e = np.array([powers[p] for p in np.bitwise_count(np.arange(1 << R))]).T
    bond_m, bond_e = bond_m[:, None], bond_e[:, None]
    half = 1 << (R - 1)
    shape = (2, 1 << R, side + 2)
    mant, next_mant = np.zeros(shape), np.zeros(shape)
    expo, next_expo = np.full(shape, -math.inf), np.full(shape, -math.inf)
    comp, next_comp = np.zeros(shape[1:]), np.zeros(shape[1:])
    mant[0, 0, 0] = mant[0, half, 1] = 1.0
    expo[0, 0, 0] = expo[0, half, 1] = 0.0
    pair = (2, half, 2)
    terms = np.empty((2 << R) * (side + 2))
    shifts = np.empty(len(terms), dtype=np.int32)
    larger = np.empty(len(terms) // 2)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for n in range(1, side):
            cols = n + 2
            occupied = mant[1, :, 1:cols]
            np.multiply(mant[0, :, :n + 1], bond_m, out=occupied)
            occupied[:half] += comp[:half, :n + 1] * bond_m[:half]
            np.add(expo[0, :, :n + 1], bond_e, out=expo[1, :, 1:cols])
            new_m = next_mant[0, :, :cols].reshape(pair[:2] + (cols,))
            new_e = next_expo[0, :, :cols].reshape(pair[:2] + (cols,))
            e_pair = expo[..., :cols].reshape(pair + (cols,))
            np.maximum(e_pair[..., 0, :], e_pair[..., 1, :], out=new_e)
            t = terms[:2 * new_m.size].reshape(pair + (cols,))
            sh = shifts[:t.size].reshape(t.shape)
            oracle._shifts(e_pair, new_e[..., None, :], t, sh)
            np.ldexp(mant[..., :cols].reshape(t.shape), sh, out=t)
            np.add(t[..., 0, :], t[..., 1, :], out=new_m)
            s0, a0, b0 = new_m[0], t[0, :, 0], t[0, :, 1]
            big, err0 = larger[:s0.size].reshape(s0.shape), next_comp[:half, :cols]
            np.maximum(a0, b0, out=big)
            np.minimum(a0, b0, out=a0)
            np.subtract(s0, big, out=err0)
            np.subtract(a0, err0, out=err0)
            c = np.ldexp(comp[..., :cols].reshape(pair[1:] + (cols,)), sh[0], out=t[0])
            err0 += c[..., 0, :]
            err0 += c[..., 1, :]
            mant, next_mant, expo, next_expo = next_mant, mant, next_expo, expo
            comp, next_comp = next_comp, comp
            if n % 256 == 0:
                frac, bump = np.frexp(mant[0])
                mant[0] = frac
                expo[0] += bump
                comp[...] = np.ldexp(comp, -bump)
        mant = mant[0, :, :side + 1] + comp[..., :side + 1]
        expo = expo[0, :, :side + 1]
        top = expo.max(axis=0)
        shifts = oracle._shifts(expo, top, np.empty(expo.shape),
                                np.empty(expo.shape, dtype=np.int32))
        frac, bump = np.frexp(np.ldexp(mant, shifts).sum(axis=0))
        e = top + bump
        log_z = e * oracle._LN2_HI + (e * oracle._LN2_LO + np.log(frac))
    log_z[e >= oracle._FLOAT_MAX] = math.inf
    log_z[side] = float(oracle._EXACT.fma(R * side - R * (R + 1) // 2, x, 0))
    return log_z


# A ring of L sites runs the zero-wall chain of L - 1 sites, so a periodic
# case below checks that chain: every side still ends just past a window's
# edge.
@pytest.mark.parametrize("pot, boundary", [(POT, "zero"), (POT, "periodic"),
                                           *[(PotentialSpec("kac", 1.0, r), "zero")
                                             for r in (1, 2, 3, 4)]])
@pytest.mark.parametrize("beta", [0.0, 0.3, 25.0, 1e300])
def test_windowed_transfer_matrix_equals_aligned_bit_for_bit(pot, boundary, beta):
    # a column's exponent is frozen for a window of sites only where the
    # power of two it factors out leaves every rounding as it was; sides end
    # just past a window's edge
    R, w = pot.support_radius, oracle.WINDOW_SITES
    for side in [k * w + R + d for k in (1, 2) for d in (1, 2, 3)] + [300]:
        side -= boundary == "periodic"
        assert (transfer_matrix_table(side, pot, beta).log_z.tobytes()
                == _aligned_transfer_matrix(side, pot, beta).tobytes()), side


@pytest.mark.parametrize("pot, boundary",
                         [(POT, "periodic"), (PotentialSpec("kac", 1.0, 4), "zero")])
def test_windowed_transfer_matrix_equals_aligned_bit_for_bit_over_16_windows(pot, boundary):
    side = 1024 - (boundary == "periodic")
    assert (transfer_matrix_table(side, pot, 0.14).log_z.tobytes()
            == _aligned_transfer_matrix(side, pot, 0.14).tobytes())


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from([(POT, "zero"), (POT, "periodic"),
                             *[(PotentialSpec("kac", 1.0, r), "zero") for r in (1, 2, 3, 4)]]),
       beta=st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda u: 10.0 ** u),
                      st.just(1e300)),
       data=st.data())
def test_windowed_transfer_matrix_equals_aligned_at_any_side(case, beta, data):
    pot, boundary = case
    side = data.draw(st.integers(max(pot.support_radius + 1, 3), 400))
    side -= boundary == "periodic"
    assert (transfer_matrix_table(side, pot, beta).log_z.tobytes()
            == _aligned_transfer_matrix(side, pot, beta).tobytes())


@pytest.fixture
def frozen_windows(monkeypatch):
    """Per window of each table built after a ``clear()``, whether it froze
    its columns at one exponent each (``_site`` called with frozen true,
    twice per window)."""
    paths, site = [], oracle._site

    def spy(state, new, expo, hi, frozen, *rest):
        paths.append(frozen)
        return site(state, new, expo, hi, frozen, *rest)

    monkeypatch.setattr(oracle, "_site", spy)
    return paths


# the transfer-matrix tables of the benchmark's seed-7 inputs
# (bench/workloads.py): beta-scan rings, cli-oneshot Kac chains and deviate
# ring and chains
SEED7_TABLES = [(4096, POT, 0.3576411265915042, "periodic"),
                (4096, POT, 0.668387749387861, "periodic"),
                (4096, KAC3, 0.8302105773917429, "zero"),
                (4096, PotentialSpec("kac", 1.0, 4), 0.13942353984269842, "zero"),
                (4096, POT, 0.1382615282086033, "periodic"),
                (256, POT, 0.031173140379592318, "zero"),
                (64, POT, 0.07436237967819874, "zero")]


def test_window_paths(frozen_windows):
    # every window of the measured tables runs with no exponent work; past
    # the bound (b^4 = e^400 at beta = 25, R = 4) every window aligns
    for side, pot, beta, boundary in SEED7_TABLES:
        frozen_windows.clear()
        transfer_matrix_table(side, pot, beta, boundary)
        assert all(frozen_windows) and frozen_windows, (side, pot, beta)
    frozen_windows.clear()
    transfer_matrix_table(300, PotentialSpec("kac", 1.0, 4), 25.0)
    assert frozen_windows and not any(frozen_windows)


def _nan_empty(shape, dtype=float):
    """``np.empty`` whose buffers come filled, NaN where they hold floats, so
    a cell read before it is written shows even against fresh, zeroed memory."""
    return np.full(shape, np.nan if np.dtype(dtype).kind == "f" else 7, dtype)


@pytest.mark.parametrize("pot, beta, side", [(KAC3, 6.0, 300),
                                             (PotentialSpec("kac", 1.0, 4), 3.5, 200)])
def test_banded_windows_equal_aligned_bit_for_bit(monkeypatch, frozen_windows, pot, beta, side):
    # past the frozen-column bound each window aligns every column at every
    # site; in these tables one Z(N) depends in its last bit on each c
    # moving with its cell.  Buffers from np.empty come NaN-filled, so a
    # cell read before it is written shows even when the test runs alone
    monkeypatch.setattr(oracle.np, "empty", _nan_empty)
    log_z = transfer_matrix_table(side, pot, beta).log_z
    assert not any(frozen_windows)
    assert log_z.tobytes() == _aligned_transfer_matrix(side, pot, beta).tobytes()


# sha256 of total.tobytes() + top.tobytes() from _chain_sums(L, R, x) of the
# Kac chain, first 16 hex digits.  The kernel is IEEE arithmetic alone
# (multiply, add, max, min, frexp, ldexp and an axis-0 sum on doubles; the
# bond weights from decimal), so these bits hold on every platform.  The
# np.log of transfer_matrix_table is not IEEE-exact and stays out.  beta = 0.5
# freezes every window, beta = 25 aligns every window
CHAIN_SUMS_DIGESTS = {
    (1, 130, 0.5): "7b3ad490f1a9cf60", (1, 130, 25.0): "a38b04d6b6a3c6e3",
    (1, 4096, 0.5): "13aece49a042f969", (1, 4096, 25.0): "43e87b2c70532563",
    (2, 130, 0.5): "f7520c868919f498", (2, 130, 25.0): "e29dd62aa34b406c",
    (2, 4096, 0.5): "4548b89f86d22c05", (2, 4096, 25.0): "c540bfe75cd0a01d",
    (3, 130, 0.5): "f376a5e4e31fdb98", (3, 130, 25.0): "bac45591ef8388a6",
    (3, 4096, 0.5): "00d8a5d35e70861a", (3, 4096, 25.0): "b684fb7a4da23e56",
    (4, 130, 0.5): "868dd55306b3ab1d", (4, 130, 25.0): "5d645f84455c61bf",
    (4, 4096, 0.5): "6d0659f4f0963c7a", (4, 4096, 25.0): "b9be2f397fbf4998"}


@pytest.mark.parametrize("radius, side, beta", sorted(CHAIN_SUMS_DIGESTS))
def test_chain_sums_bits_are_pinned(monkeypatch, frozen_windows, radius, side, beta):
    # every bit of Z(N) = total 2^top, with every buffer the kernel takes
    # from np.empty filled with NaN (7 for integers)
    monkeypatch.setattr(oracle.np, "empty", _nan_empty)
    x = oracle._bond_exponent(PotentialSpec("kac", 1.0, radius), beta)
    total, top = oracle._chain_sums(side, radius, x)
    digest = hashlib.sha256(total.tobytes() + top.tobytes()).hexdigest()[:16]
    assert set(frozen_windows) == {beta == 0.5}
    assert digest == CHAIN_SUMS_DIGESTS[radius, side, beta]


class _FirstWindow(Exception):
    """Stops a table once its first window's buffers are checked."""


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
@pytest.mark.parametrize("beta", [0.5, 25.0])
def test_every_array_a_site_writes_starts_on_a_cache_line(monkeypatch, radius, beta):
    # in the first window of a 4096-chain, frozen at beta = 0.5 and aligned
    # at beta = 25, every array a site writes starts on a 64-byte boundary
    # and its rows lie a whole number of 64-byte lines apart
    windows = []

    def spy(state, new, expo, hi, frozen, bond_e, scale, work):
        (mant, _), (next_mant, next_comp) = state, new
        band_e, diff, _ = work
        written = {"occupied terms from column 1": mant[1, :, 1:hi],
                   "c_term": next_comp[:, :hi - 1], "next mantissas": next_mant[0, :, :hi],
                   "err0": next_comp[:, :hi]}
        if not frozen:
            written |= {"e_occupied": band_e[1, :, 1:hi], "state exponents": band_e[0, :, :hi],
                        "new exponents": expo[:, :hi], "differences": diff[..., :hi],
                        "shifted state terms": mant[0, :, :hi]}
        for name, array in written.items():
            assert array.ctypes.data % 64 == 0 and array.strides[-2] % 64 == 0, name
        windows.append(frozen)
        raise _FirstWindow

    monkeypatch.setattr(oracle, "_site", spy)
    x = oracle._bond_exponent(PotentialSpec("kac", 1.0, radius), beta)
    with pytest.raises(_FirstWindow):
        oracle._chain_sums(4096, radius, x)
    assert windows == [beta == 0.5]


# ---------------------------------------------------------------------------
# The standard ring in closed form: a third oracle, independent of both the
# subset kernel and the transfer matrix, at any L.

def _ring_density_of_states(side):
    """{k: c(N, k)} per N on the ring: an N-subset with r = N - k runs of
    occupied sites is counted (L / r) C(N - 1, r - 1) C(L - N - 1, r - 1) times."""
    return ([{0: 1}]
            + [{n - r: side * comb(n - 1, r - 1) * comb(side - n - 1, r - 1) // r
                for r in range(1, min(n, side - n) + 1)} for n in range(1, side)]
            + [{side: 1}])


def _ring_log_z(side, beta):
    """log Z(N) of the standard ring to 30 digits, as Decimals: the terms
    c(N, N - r) e^{(N - r) x} of the closed form, summed by their ratios
    c(N, N - r - 1) / c(N, N - r) = (N - r)(L - N - r) / (r (r + 1)).  The
    ratios fall with r, so once one is below 1 the terms only shrink, and
    the sum stops when they drop below 1e-35 of it."""
    x = decimal.Decimal(beta) * 4  # exact
    with decimal.localcontext(decimal.Context(prec=30)):
        q, log_z = (-x).exp(), [decimal.Decimal(0)]
        for n in range(1, side):
            term = total = decimal.Decimal(side)
            for r in range(1, min(n, side - n)):
                ratio = decimal.Decimal((n - r) * (side - n - r)) / (r * (r + 1)) * q
                term *= ratio
                total += term
                if ratio < 1 and term < total * decimal.Decimal("1e-35"):
                    break
            log_z.append((n - 1) * x + total.ln())
        return log_z + [side * x]


@pytest.mark.parametrize("side", [8, 13, 20])
def test_ring_closed_form_equals_density_of_states(side):
    counts = _subset_counts(LatticeSpec(1, side, "periodic"), 1, (0,))[0]
    assert [{k: c for k, c in enumerate(row) if c} for row in counts] == \
        _ring_density_of_states(side)


def test_ring_is_the_chain_one_site_shorter():
    # rotations keep a ring configuration's bond level and leave site 1
    # empty in a share (L - N)/L of the N-subsets; with site 1 empty no bond
    # touches it, and sites 2..L are a zero-wall chain
    for side in range(3, 21):
        ring = _subset_counts(LatticeSpec(1, side, "periodic"), 1, (0,))[0]
        chain = _subset_counts(LatticeSpec(1, side - 1, "zero"), 1, (0,))[0]
        for n, row in enumerate(chain):
            padded = row + (0,) * (len(ring[n]) - len(row))
            assert [c * (side - n) for c in ring[n]] == [side * c for c in padded], (side, n)
        assert ring[side] == (0,) * side + (1,)


@settings(max_examples=60, deadline=None)
@given(case=st.one_of(st.tuples(st.floats(0.1, 10.0).map(lambda j: PotentialSpec("standard", j)),
                                st.sampled_from(["zero", "periodic"])),
                      st.tuples(st.integers(1, 4).map(lambda r: PotentialSpec("kac", 1.0, r)),
                                st.just("zero"))),
       beta=st.one_of(st.just(0.0), st.floats(-4.0, 300.0).map(lambda u: 10.0 ** u)),
       data=st.data())
def test_transfer_matrix_full_row_equals_enumeration_bit_for_bit(case, beta, data):
    # the full box is one configuration at the top bond level: both oracles
    # round top * x once (at J = 1, x = 4 beta is already a float)
    pot, boundary = case
    side = data.draw(st.integers(max(pot.support_radius + 1, 2 + (boundary == "periodic")), 24))
    en = exact_canonical_table(LatticeSpec(1, side, boundary), pot, beta)
    assert transfer_matrix_table(side, pot, beta, boundary).log_z[side] == en.log_z[side]


def test_transfer_matrix_full_row_is_rounded_once():
    # at J = 0.1, x = 0.4 beta is not a float, and at beta = 0.1 the full
    # 10-ring's 10 x rounded once differs from 10 * float(x) in its last bit
    pot = PotentialSpec("standard", 0.1)
    en = exact_canonical_table(LatticeSpec(1, 10, "periodic"), pot, 0.1)
    assert transfer_matrix_table(10, pot, 0.1, "periodic").log_z[10] == en.log_z[10]


@pytest.mark.parametrize("side", [257, 1024])
@pytest.mark.parametrize("beta", [0.3, 1.0, 25.0, 200.0])
def test_transfer_matrix_is_within_an_ulp_of_the_closed_form_ring(side, beta):
    # the compensated running sums keep Z(N) to a few eps at any L; without
    # them Z(2) drifts by up to ~L eps, all one way (5.9 ulps of log Z at
    # L = 1024)
    log_z = transfer_matrix_table(side, POT, beta, "periodic").log_z
    ulps = [abs(decimal.Decimal(float(a)) - ref) / decimal.Decimal(math.ulp(float(ref)))
            for a, ref in zip(log_z, _ring_log_z(side, beta)) if ref]
    assert log_z[0] == 0.0
    assert max(ulps) <= 1


@pytest.mark.parametrize("beta", [1e4, 1e8, 1e300])
def test_transfer_matrix_ground_states_at_huge_beta(beta):
    # one bond-maximal configuration class dominates each row
    side, n = 1024, np.arange(1025)
    ring = transfer_matrix_table(side, POT, beta, "periodic").log_z
    kac = transfer_matrix_table(side, PotentialSpec("kac", 1.0, 4), beta, "zero").log_z
    assert np.all(np.isfinite(ring)) and np.all(np.isfinite(kac))
    assert ring[1:-1] == pytest.approx(4 * beta * (n[1:-1] - 1) + math.log(side), rel=1e-12)
    assert kac[6:] == pytest.approx(4 * beta * (4 * n[6:] - 10) + np.log(side - n[6:] + 1.0),
                                    rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(beta=st.floats(0.0, 1.7976931348623157e308),
       case=st.sampled_from([(POT, "periodic"), (KAC3, "zero")]))
def test_transfer_matrix_is_never_nan(beta, case):
    # rows past 1.2e308 read inf, where the enumeration oracle reads inf or
    # a value at the end of the float range
    pot, boundary = case
    en = exact_canonical_table(LatticeSpec(1, 12, boundary), pot, beta).log_z
    tm = transfer_matrix_table(12, pot, beta, boundary).log_z
    assert not np.isnan(tm).any()
    with np.errstate(invalid="ignore"):  # inf - inf
        agree = np.abs(en - tm) <= 1e-12 * np.maximum(1.0, np.abs(tm))
    assert np.all(agree | ((tm == math.inf) & (en >= 1.2e308)))


@settings(max_examples=40, deadline=None)
@given(side=st.integers(3, 16), beta=st.floats(0.0, 30.0),
       case=st.sampled_from([(POT, "zero"), (POT, "periodic"),
                             (PotentialSpec("kac", 1.0, 1), "zero"),
                             (KAC2, "zero"), (KAC3, "zero"),
                             (PotentialSpec("kac", 1.0, 4), "zero")]))
def test_enumeration_equals_transfer_matrix(side, beta, case):
    pot, boundary = case
    assume(side > pot.support_radius)
    en = exact_canonical_table(LatticeSpec(1, side, boundary), pot, beta)
    tm = transfer_matrix_table(side, pot, beta, boundary)
    assert np.all(np.abs(en.log_z - tm.log_z) <= 1e-12 * np.maximum(1.0, np.abs(tm.log_z)))


@settings(max_examples=40, deadline=None)
@given(lattice=st.one_of(st.integers(4, 12).map(lambda L: LatticeSpec(1, L, "periodic")),
                         st.sampled_from([TORUS3, TORUS4])),
       beta=st.floats(0.0, 60.0), data=st.data())
def test_correlation_sum_rules_at_any_beta(lattice, beta, data):
    n = data.draw(st.integers(2, lattice.n_sites))
    t = exact_correlations(lattice, POT, beta, n)
    assert np.all(np.isfinite(t.rho1)) and np.all(np.isfinite(t.rho2))
    assert np.all(np.isfinite(t.u2))
    assert abs(t.rho1.sum() - n) <= 1e-13 * n
    assert np.allclose(t.rho2.sum(axis=1), (n - 1) * t.rho1, rtol=1e-13, atol=0)


@st.composite
def _tori(draw):
    """A periodic box of at most 16 sites, the standard potential or a Kac
    range R <= 3 with L > 2R, and N in [2, |Lambda|]."""
    dimension = draw(st.integers(1, 3))
    side = draw(st.integers(2, {1: 16, 2: 4, 3: 2}[dimension]))
    pot = draw(st.sampled_from([POT] + [PotentialSpec("kac", 1.0, r) for r in (1, 2, 3)
                                        if side > 2 * r]))
    lattice = LatticeSpec(dimension, side, "periodic")
    return lattice, pot, draw(st.integers(2, lattice.n_sites))


@settings(max_examples=150, deadline=None)
@given(case=_tori(), beta=st.just(0.0) | st.floats(-4.0, 300.0).map(lambda e: 10.0 ** e))
# the 5-ring at N = 2: -(2 / 5) ** 2 rounds twice, to -0.16000000000000003
@example(case=(LatticeSpec(1, 5, "periodic"), POT, 2), beta=0.3)
def test_correlations_over_the_guarded_space(case, beta):
    lattice, pot, n = case
    S = lattice.n_sites
    t = exact_correlations(lattice, pot, beta, n)
    for a in (t.rho1, t.rho2, t.u2):
        assert np.all(np.isfinite(a))
    assert np.all(t.rho1 == float(Fraction(n, S)))
    assert np.all(t.u2.diagonal() == float(Fraction(-n * n, S * S)))
    sites = lattice.sites()
    for shift in sites:  # every translation of the torus maps the tables onto themselves
        moved = [lattice.site_index(tuple((x + a) % lattice.side for x, a in zip(q, shift)))
                 for q in sites]
        for a in (t.rho2, t.u2):
            assert np.array_equal(a[np.ix_(moved, moved)], a)
    for a in (t.rho2, t.u2):
        assert np.array_equal(a, a.T)
    rule = n * (n - 1) / S
    assert np.all(np.abs(t.rho2.sum(axis=1) - rule) <= 1e-13 * rule)
    if S - n >= 2:  # particle-hole: Cov(1 - eta_i, 1 - eta_j) = Cov(eta_i, eta_j)
        off = ~np.eye(S, dtype=bool)
        holes = exact_correlations(lattice, pot, beta, S - n).u2[off]
        ulps = np.spacing(np.maximum(np.abs(t.u2[off]), np.abs(holes)))
        assert np.all(np.abs(t.u2[off] - holes) <= ulps)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 300),
                  elements=st.floats(-1e3, 1e3) | st.sampled_from([-math.inf, 0.0, 1.0])))
def test_logsumexp_equals_scipy_bit_for_bit(terms):
    assume(np.isfinite(terms).any())  # log Z(0) = 0 is finite in every table
    assert _logsumexp(terms) == float(logsumexp(terms))
