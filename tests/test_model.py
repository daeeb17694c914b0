import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latgas.model import GuardError, LatticeSpec, PotentialSpec, model_constants
from latgas.radii import lattice_gas_threshold, sweep_radii
from references import (boltzmann_weight, boundary_weight, edge_count, field_from_mu,
                        ising_gas_consistency, ising_hamiltonian, lattice_gas_hamiltonian,
                        mu_from_field, occupancy_from_spins, spin_gas_energy_identity,
                        spins_from_occupancy, wall_bonds)

POT = PotentialSpec("standard", 1.0)


def all_plus(lattice):
    return {x: 1 for x in lattice.sites()}


def test_ising_open_chain_all_plus():
    lat = LatticeSpec(1, 2, "zero")
    assert ising_hamiltonian(all_plus(lat), lat, POT) == -1.0


def test_ising_single_flip_energy():
    # flipping one spin in an all-(-1) state costs 2J * coordination
    for d, L in ((1, 4), (2, 3)):
        lat = LatticeSpec(d, L, "periodic")
        spins = {x: -1 for x in lat.sites()}
        base = ising_hamiltonian(spins, lat, POT)
        site = lat.sites()[0]
        spins[site] = 1
        assert ising_hamiltonian(spins, lat, POT) - base == pytest.approx(2.0 * 2 * d)


def test_ising_two_by_two_torus():
    lat = LatticeSpec(2, 2, "periodic")
    assert edge_count(lat) == 8
    assert ising_hamiltonian(all_plus(lat), lat, POT) == -8.0


def test_ising_rejects_bad_spin():
    lat = LatticeSpec(1, 2, "zero")
    with pytest.raises(ValueError):
        ising_hamiltonian({(0,): 1, (1,): 0}, lat, POT)


def test_gas_adjacent_pair():
    lat = LatticeSpec(1, 4, "zero")
    assert lattice_gas_hamiltonian([(0,), (1,)], lat, POT) == -4.0


def test_gas_hard_core_sentinel():
    lat = LatticeSpec(1, 4, "zero")
    e = lattice_gas_hamiltonian([(2,), (2,)], lat, POT)
    assert math.isinf(e)
    assert boltzmann_weight(0.0, e) == 0.0
    assert boltzmann_weight(1.0, e) == 0.0


def test_gas_out_of_range_pair():
    lat = LatticeSpec(1, 4, "zero")
    assert lattice_gas_hamiltonian([(0,), (2,)], lat, POT) == 0.0


def test_gas_rejects_outside_coordinates():
    lat = LatticeSpec(1, 4, "zero")
    with pytest.raises(ValueError):
        lattice_gas_hamiltonian([(5,)], lat, POT)


def test_spin_gas_identity_empty():
    lat = LatticeSpec(1, 2, "zero")
    spins = {x: -1 for x in lat.sites()}
    lhs, rhs = spin_gas_energy_identity(spins, lat, POT)
    edges = len(lat.interior_bonds()) + len(wall_bonds(lat))
    assert lhs == rhs == -1.0 * edges


def test_spin_gas_identity_center_particle():
    lat = LatticeSpec(1, 3, "zero")
    spins = {(0,): -1, (1,): 1, (2,): -1}
    lhs, rhs = spin_gas_energy_identity(spins, lat, POT)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    assert lhs == pytest.approx(0.0)


def test_spin_gas_identity_fuzz():
    rng = np.random.default_rng(7)
    for d, L in ((1, 6), (2, 3)):
        lat = LatticeSpec(d, L, "zero")
        sites = lat.sites()
        for _ in range(500):
            bits = rng.integers(0, 2, size=len(sites))
            spins = {x: int(2 * b - 1) for x, b in zip(sites, bits)}
            lhs, rhs = spin_gas_energy_identity(spins, lat, POT)
            assert lhs == pytest.approx(rhs, abs=1e-9)


def test_ising_hamiltonian_on_minus_walls():
    # fixed walls with no gamma are uniform -1 walls: each wall bond adds -sigma_x
    pot = PotentialSpec("standard", 1.5)
    for d, L in ((1, 5), (2, 3)):
        lat = LatticeSpec(d, L, "fixed")
        sites = lat.sites()
        for bits in range(1 << len(sites)):
            spins = {x: 1 if bits >> i & 1 else -1 for i, x in enumerate(sites)}
            interior = sum(spins[x] * spins[y] for x, y in lat.interior_bonds())
            walls = sum(spins[x] for x, _y in wall_bonds(lat))
            assert ising_hamiltonian(spins, lat, pot) == -1.5 * (interior - walls)


def test_minus_wall_identities_reject_the_torus():
    lat = LatticeSpec(2, 3, "periodic")
    with pytest.raises(ValueError):
        spin_gas_energy_identity(all_plus(lat), lat, POT)
    with pytest.raises(ValueError):
        ising_gas_consistency(lat, POT, 0.5, -1.0)


def test_occupancy_round_trip():
    rng = np.random.default_rng(3)
    lat = LatticeSpec(2, 3, "zero")
    sites = lat.sites()
    for _ in range(100):
        eta = {x: int(b) for x, b in zip(sites, rng.integers(0, 2, len(sites)))}
        assert occupancy_from_spins(spins_from_occupancy(eta)) == eta


def test_boundary_weight_interior_and_walls():
    beta = 0.3
    lat = LatticeSpec(2, 3, "fixed", gamma=((-1, 0), (0, -1)))
    assert boundary_weight((1, 1), lat, POT, beta) == pytest.approx(1.0)
    assert boundary_weight((0, 0), lat, POT, beta) == pytest.approx(math.exp(8 * beta))
    assert boundary_weight((2, 0), lat, POT, beta) == pytest.approx(1.0)
    lat1 = LatticeSpec(2, 3, "fixed", gamma=((-1, 0),))
    assert boundary_weight((0, 0), lat1, POT, beta) == pytest.approx(math.exp(4 * beta))


def test_boundary_weight_bounds():
    # 1 <= nu <= exp(beta * B) for any gamma (B = 8Jd)
    rng = np.random.default_rng(11)
    beta = 0.4
    lat_sites = LatticeSpec(2, 3, "zero").sites()
    exterior = [(-1, j) for j in range(3)] + [(3, j) for j in range(3)] + \
               [(i, -1) for i in range(3)] + [(i, 3) for i in range(3)]
    for _ in range(50):
        take = rng.integers(0, 2, len(exterior)).astype(bool)
        gamma = tuple(g for g, t in zip(exterior, take) if t)
        lat = LatticeSpec(2, 3, "fixed", gamma=gamma)
        for x in lat_sites:
            nu = boundary_weight(x, lat, POT, beta)
            assert 1.0 - 1e-12 <= nu <= math.exp(beta * 8 * 2) + 1e-12


def test_model_constants_examples():
    c = model_constants(2, POT, 0.25)
    assert c.stability_B == 16.0
    assert c.regularity_C == pytest.approx(4 * (math.e - 1) + 1)
    assert c.tree_C_bar == pytest.approx(1 + 4 * (1 - math.exp(-1)))
    c0 = model_constants(3, PotentialSpec("standard", 2.0), 0.0)
    assert c0.regularity_C == 1.0 and c0.tree_C_bar == 1.0
    kac = model_constants(1, PotentialSpec("kac", 1.0, 3), 0.5)
    assert kac.stability_B == 24.0
    assert kac.tree_C_bar == pytest.approx(1 + 6 * (1 - math.exp(-2)))


def test_model_constants_guard_past_float_range():
    # C = 2d expm1(4 beta J) + 1 leaves the float range at beta J ~ 177.4
    for pot in (POT, PotentialSpec("kac", 1.0, 2)):
        with pytest.raises(GuardError):
            model_constants(1, pot, 200.0)
        assert math.isfinite(model_constants(1, pot, 170.0).regularity_C)


def test_model_constants_reject_nan_beta_and_dimension_zero():
    # a nan beta gave C = C-bar = nan, and d = 0 gave B = 0
    with pytest.raises(ValueError, match="beta"):
        model_constants(1, POT, math.nan)
    with pytest.raises(ValueError, match="dimension"):
        model_constants(0, POT, 0.3)
    # True read as d = 1, and d = 1.5 gave R_C = 0.0093 and M_LG = -inf
    for call in (lambda: model_constants(True, POT, 0.3),
                 lambda: sweep_radii(1.5, POT, [0.1]),
                 lambda: lattice_gas_threshold(1.5, POT, 0.0)):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            call()


@settings(max_examples=200, deadline=None)
@given(d=st.integers(-1, 4) | st.integers(),
       pot=st.builds(PotentialSpec, st.just("standard"),
                     st.floats(0.0, exclude_min=True, allow_infinity=False)
                     | st.floats(0.1, 10.0))
       | st.builds(PotentialSpec, st.just("kac"), st.just(1.0),
                   st.integers(1, 4) | st.integers(1)),
       beta=st.floats() | st.floats(0.0, 200.0))
@example(d=1, pot=POT, beta=math.nan)
def test_model_constants_over_the_guarded_space(d, pot, beta):
    # finite constants with C-bar <= C, or a ValueError (GuardError included)
    try:
        c = model_constants(d, pot, beta)
    except ValueError:
        return
    assert d >= 1 and beta >= 0
    assert all(map(math.isfinite, (c.stability_B, c.regularity_C, c.tree_C_bar)))
    assert c.stability_B > 0 and 1.0 <= c.tree_C_bar <= c.regularity_C * (1 + 1e-12)


def test_constants_ordering_on_grid():
    for d in (1, 2, 3):
        for J in (1.0, 2.0):
            pot = PotentialSpec("standard", J)
            for beta in np.linspace(0.0, 1.0, 101):
                c = model_constants(d, pot, float(beta))
                assert c.tree_C_bar <= c.regularity_C + 1e-12
                assert c.stability_B > 0


def test_stability_bound_random_configs():
    # sum_j V(x* - x_j) >= -B for distinct particles, any probe point
    rng = np.random.default_rng(5)
    for d in (1, 2):
        B = model_constants(d, POT, 0.1).stability_B
        for _ in range(200):
            pts = {tuple(rng.integers(-3, 4, d)) for _ in range(6)}
            probe = tuple(rng.integers(-3, 4, d))
            total = sum(POT.pair_energy(tuple(a - b for a, b in zip(probe, x)))
                        for x in pts if x != probe)
            assert total >= -B - 1e-12


def test_kac_pair_energy_support():
    kac = PotentialSpec("kac", 1.0, 2)
    assert kac.pair_energy((1,)) == -4.0
    assert kac.pair_energy((2,)) == -4.0
    assert kac.pair_energy((3,)) == 0.0
    assert math.isinf(kac.pair_energy((0,)))


def test_mu_field_maps_are_inverse():
    lat = LatticeSpec(1, 4, "fixed")
    for h in (-3.0, -1.0, 0.5):
        assert field_from_mu(mu_from_field(h, lat, POT), lat, POT) == pytest.approx(h)


def test_lattice_guards():
    with pytest.raises(ValueError):
        LatticeSpec(0, 4)
    with pytest.raises(ValueError):
        LatticeSpec(1, 1)
    with pytest.raises(ValueError):
        LatticeSpec(1, 4, "fixed", gamma=((2,),))  # inside the box
    with pytest.raises(ValueError):
        PotentialSpec("standard", -1.0)
    with pytest.raises(ValueError):  # a nan coupling made every constant nan
        PotentialSpec("standard", math.nan)
    with pytest.raises(ValueError):  # an infinite one failed untyped in the oracles
        PotentialSpec("standard", math.inf)
    with pytest.raises(ValueError):
        PotentialSpec("standard", 1.0, 2)
    with pytest.raises(ValueError):  # the Kac kernel fixes J = 1
        PotentialSpec("kac", 2.0, 3)
    # a float or bool size built, then failed untyped deep in an oracle
    for args in ((1, 6.0, "periodic"), (1, 30.0, "periodic"), (2.0, 4), (True, 4), (1, True)):
        with pytest.raises(ValueError, match="must be an integer >= "):
            LatticeSpec(*args)
    for range_ in (2.0, True):
        with pytest.raises(ValueError, match="must be an integer >= "):
            PotentialSpec("kac", 1.0, range_)
    lattice = LatticeSpec(np.int64(1), np.int32(6), "periodic")
    assert lattice == LatticeSpec(1, 6, "periodic")
    assert type(lattice.dimension) is type(lattice.side) is int
    assert PotentialSpec("kac", 1.0, np.int8(2)) == PotentialSpec("kac", 1.0, 2)
