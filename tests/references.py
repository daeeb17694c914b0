"""Independent references that only the tests call.

The Ising spin picture of the lattice gas (sigma = 2*eta - 1), with its
Hamiltonians, the wall weights and the field/chemical-potential map, and
alternate routes to numbers that ``latgas`` computes another way: the
fixed-magnetization and grand Ising sums, B_Lambda(1) by the polymer
route, rho(z) by fixed-point iteration and the partial polymer-sum bound.
Tests compare the library against them; nothing in ``latgas`` imports
this module.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from latgas.model import EXCLUDED, GuardError, LatticeSpec, PotentialSpec, Site, tree_constants
from latgas.oracle import _logsumexp, exact_canonical_table
from latgas.radii import radius_canonical
from latgas.series import VirialSeries


def boltzmann_weight(beta: float, energy: float) -> float:
    """exp(-beta*energy) with hard-core exclusion as an indicator."""
    if math.isinf(energy):
        return 0.0
    return math.exp(-beta * energy)


def wall_bonds(lattice: LatticeSpec) -> list[tuple[Site, Site]]:
    """Bonds from interior sites to exterior neighbours (non-periodic)."""
    if lattice.boundary == "periodic":
        return []
    bonds = []
    for x in lattice.sites():
        for k in range(lattice.dimension):
            for s in (-1, 1):
                y = list(x)
                y[k] += s
                if not lattice.contains(tuple(y)):
                    bonds.append((x, tuple(y)))
    return bonds


def edge_count(lattice: LatticeSpec) -> int:
    """|E_Lambda| under this box's wall convention.

    zero: interior bonds only; periodic: d*|Lambda| torus bonds;
    fixed: interior bonds plus every wall bond (exterior spins exist).
    """
    n = len(lattice.interior_bonds())
    if lattice.boundary == "fixed":
        n += len(wall_bonds(lattice))
    return n


def _check_spins(spins: dict[Site, int], lattice: LatticeSpec) -> None:
    sites = lattice.sites()
    if set(spins) != set(sites):
        raise ValueError("spins must be defined on exactly the box sites")
    for v in spins.values():
        if v not in (-1, 1):
            raise ValueError(f"spin value {v} outside {{-1,+1}}")


def spins_from_occupancy(eta: dict[Site, int]) -> dict[Site, int]:
    """sigma = 2*eta - 1."""
    return {x: 2 * v - 1 for x, v in eta.items()}


def occupancy_from_spins(spins: dict[Site, int]) -> dict[Site, int]:
    """eta = (sigma + 1)/2."""
    return {x: (v + 1) // 2 for x, v in spins.items()}


def ising_hamiltonian(spins: dict[Site, int], lattice: LatticeSpec,
                      pot: PotentialSpec) -> float:
    """-J sum of sigma*sigma' over the box's bonds.

    zero walls have no exterior spins; periodic uses torus bonds; fixed
    walls carry sigma = +1 on the listed gamma sites and -1 on every other
    exterior neighbour.
    """
    if pot.kind != "standard":
        raise ValueError("the Ising Hamiltonian is defined for the standard potential")
    _check_spins(spins, lattice)
    J = pot.coupling
    total = 0.0
    for x, y in lattice.interior_bonds():
        total += spins[x] * spins[y]
    if lattice.boundary == "fixed":
        occupied = set(lattice.gamma)
        for x, y in wall_bonds(lattice):
            sigma_out = 1 if y in occupied else -1
            total += spins[x] * sigma_out
    return -J * total


def lattice_gas_hamiltonian(particles: list[Site], lattice: LatticeSpec,
                            pot: PotentialSpec) -> float:
    """Pairwise gas energy plus the interaction with the gamma walls.

    Returns the infinite-energy sentinel when two coordinates coincide.
    Periodic boxes use minimum-image displacements and need L > 2R.
    """
    for x in particles:
        if not lattice.contains(x):
            raise ValueError(f"particle {x} outside the box")
    if lattice.boundary == "periodic" and lattice.side <= 2 * pot.support_radius:
        raise GuardError("periodic box too small for the interaction range")
    total = 0.0
    n = len(particles)
    for i in range(n):
        for j in range(i + 1, n):
            e = pot.pair_energy(lattice.wrap_diff(particles[i], particles[j]))
            if math.isinf(e):
                return EXCLUDED
            total += e
    if lattice.boundary == "fixed":
        for x in particles:
            total += _wall_energy(x, lattice, pot)
    return total


def _wall_energy(x: Site, lattice: LatticeSpec, pot: PotentialSpec) -> float:
    """sum_j V(x - gamma_j) over the occupied wall sites gamma_j."""
    total = 0.0
    for g in lattice.gamma:
        e = pot.pair_energy(tuple(a - b for a, b in zip(x, g)))
        total += 0.0 if math.isinf(e) else e
    return total


def spin_gas_energy_identity(spins: dict[Site, int], lattice: LatticeSpec,
                             pot: PotentialSpec) -> tuple[float, float]:
    """Ising energy with -1 walls versus its exact lattice-gas rewriting.

    The -1 walls are the spin side of the zero-boundary gas: empty exterior
    occupancy is sigma = -1, i.e. fixed walls with no gamma.  The rewriting
    is 4*J*d*N - J*|E_Lambda| - 4*J*sum(eta*eta') with the full bond set
    (interior + walls).  The two sides agree exactly for every
    configuration; 4*J*d*N equals 4*J*m'*|E_Lambda| only when
    |E_Lambda| = d*|Lambda| (torus), so the site-degree form is used.
    """
    if lattice.boundary == "periodic":
        raise ValueError("minus walls make no sense on a torus")
    walls = LatticeSpec(lattice.dimension, lattice.side, "fixed")
    lhs = ising_hamiltonian(spins, walls, pot)
    eta = occupancy_from_spins(spins)
    J = pot.coupling
    n_particles = sum(eta.values())
    pair_sum = 0.0
    for x, y in lattice.interior_bonds():
        pair_sum += eta[x] * eta[y]
    rhs = 4.0 * J * lattice.dimension * n_particles - J * edge_count(walls) - 4.0 * J * pair_sum
    return lhs, rhs


def boundary_weight(x: Site, lattice: LatticeSpec, pot: PotentialSpec,
                    beta: float) -> float:
    """nu_Lambda(x | gamma) = exp(-beta * sum_j V(x - gamma_j)).

    Equals 1 whenever x is farther than the interaction range from the
    complement; bounded by exp(beta*B) when the walls are fully occupied.
    """
    if lattice.boundary != "fixed":
        raise ValueError("boundary weight needs fixed walls")
    return math.exp(-beta * _wall_energy(x, lattice, pot))


def mu_from_field(h: float, lattice: LatticeSpec, pot: PotentialSpec) -> float:
    """Chemical potential matching an Ising field: mu = 2h - 4Jd.

    The 4Jd comes from the uniform site degree across interior plus wall
    bonds, so the map is exact at finite volume for -1 walls (the edge-count
    form 4J|E|/|Lambda| agrees only on the torus, where |E| = d|Lambda|).
    """
    return 2.0 * h - 4.0 * pot.coupling * lattice.dimension


def field_from_mu(mu: float, lattice: LatticeSpec, pot: PotentialSpec) -> float:
    """Inverse map: h = mu/2 + 2Jd."""
    return mu / 2.0 + 2.0 * pot.coupling * lattice.dimension


def ising_gas_consistency(lattice: LatticeSpec, pot: PotentialSpec, beta: float,
                          m: float) -> tuple[float, float]:
    """Fixed-magnetization Ising sum versus its lattice-gas factorization.

    Left: sum of exp(-beta H) over spin configurations at magnetization m,
    with uniform -1 walls (fixed walls with no gamma).  Right:
    exp(-beta(4JdN - J|E|)) * Z(N) with the zero-boundary gas partition
    function, N = (m+1)/2 * |Lambda| and |E| counting interior plus wall
    bonds.  The two agree exactly.  Raises ``GuardError`` once a weight
    leaves the float range.
    """
    if lattice.boundary == "periodic":
        raise ValueError("consistency check uses -1 walls on an open box")
    S = lattice.n_sites
    if S > 16:
        raise GuardError("spin enumeration guarded to |Lambda| <= 16")
    n_float = (m + 1.0) / 2.0 * S
    n_particles = round(n_float)
    if abs(n_float - n_particles) > 1e-9:
        raise ValueError(f"magnetization {m} gives non-integral particle number")

    sites = lattice.sites()
    walls = LatticeSpec(lattice.dimension, lattice.side, "fixed")
    lhs = 0.0
    open_box = LatticeSpec(lattice.dimension, lattice.side, "zero")
    J = pot.coupling
    try:
        for subset in itertools.combinations(range(S), n_particles):
            occ = set(subset)
            spins = {x: (1 if i in occ else -1) for i, x in enumerate(sites)}
            lhs += math.exp(-beta * ising_hamiltonian(spins, walls, pot))
        z_gas = math.exp(exact_canonical_table(open_box, pot, beta).log_z_of(n_particles))
        rhs = math.exp(-beta * (4.0 * J * lattice.dimension * n_particles
                                - J * edge_count(walls))) * z_gas
    except OverflowError:
        lhs = rhs = math.inf
    if math.inf in (lhs, rhs):
        raise GuardError(f"spin weights at beta = {beta:g} exceed the float range")
    return lhs, rhs


def ising_grand_partition(lattice: LatticeSpec, pot: PotentialSpec, beta: float,
                          h: float) -> float:
    """log of the Ising grand sum with field h (walls per the lattice spec)."""
    S = lattice.n_sites
    if S > 16:
        raise GuardError("spin enumeration guarded to |Lambda| <= 16")
    sites = lattice.sites()
    logs = []
    for bits in range(1 << S):
        spins = {x: (1 if bits >> i & 1 else -1) for i, x in enumerate(sites)}
        mag = sum(spins.values())
        logs.append(beta * h * mag - beta * ising_hamiltonian(spins, lattice, pot))
    return _logsumexp(np.array(logs))


def b_lambda_1_direct(lattice: LatticeSpec, pot: PotentialSpec, beta: float) -> float:
    """Direct polymer-route value B_Lambda(1) = |Lambda| log(1 + zeta({1,2})).

    zeta({1,2}) = |Lambda|^{-2} sum over ordered site pairs of f; the
    multi-index sum over repeated copies of the single polymer {1,2}
    resums to the logarithm.
    """
    sites = lattice.sites()
    volume = lattice.n_sites
    acc = 0.0
    for x in sites:
        for y in sites:
            acc += pot.mayer_f(lattice.wrap_diff(x, y), beta)
    return volume * math.log1p(acc / volume ** 2)


def rho_of_z_numeric(series: VirialSeries, z: float) -> float:
    """Fixed point rho = z * exp(sum beta_n rho^n) for small |z|, to a
    relative step of 1e-14 within 500 iterations."""
    rho = z
    for _ in range(500):
        s = sum(series.beta_irr[n] * rho ** n for n in range(1, len(series.beta_irr)))
        new = z * math.exp(s)
        if abs(new - rho) <= 1e-14 * max(1.0, abs(new)):
            return new
        rho = new
    raise RuntimeError("fugacity fixed point did not converge")


def cluster_sum_margin(n_particles: int, volume: int, d: int,
                       pot: PotentialSpec, beta: float) -> tuple[float, float, float]:
    """Partial polymer-sum bound versus the e^a - 1 budget at the reported a*.

    Assembles sum_{V ni i} |zeta(V)| e^{a|V|} from the per-size bounds
    |zeta_n| <= n^{n-2} e^{beta B n} C-bar^{n-1} / |Lambda|^{n-1} with
    n <= 5, at a = a*(R_C); returns (partial bound, budget, a*).
    """
    B, c_bar = tree_constants(d, pot, beta)
    _r_c, a_star = radius_canonical(d, pot, beta)
    total = 0.0
    for n in range(2, min(n_particles, 5) + 1):
        log_term = (beta * B + a_star
                    + (n - 2) * math.log(n)
                    + (n - 1) * (beta * B + a_star + math.log(c_bar) - math.log(volume)))
        log_term += math.lgamma(n_particles) - math.lgamma(n) - math.lgamma(n_particles - n + 1)
        total += math.exp(log_term)
    return total, math.expm1(a_star), a_star
