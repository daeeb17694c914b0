"""Finite lattice-gas / Ising models on Z^d.

The model is written in occupancy variables eta; the spin picture,
sigma = 2*eta - 1, is a test-side reference (``tests/references.py``).  A
box Lambda = {0,...,L-1}^d carries one of three wall types:

* ``zero``      -- free walls, no exterior sites at all;
* ``periodic``  -- torus bonds (each site keeps its 2d neighbours);
* ``fixed``     -- an explicit list gamma of occupied exterior sites, all
                   remaining exterior sites empty (sigma = -1).

Pair interactions are hard-core at distance 0 and -4J at distance 1
(``standard``), or -4 within Euclidean distance R (``kac``, J = 1).  Excluded
configurations are reported with an infinite-energy sentinel; the Mayer
function treats that sentinel as an indicator, so f = -1 exactly even at
beta = 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

Site = tuple[int, ...]

EXCLUDED = math.inf


class GuardError(ValueError):
    """A desk-scale size or order guard was violated."""


@dataclass(frozen=True)
class PotentialSpec:
    """Pair potential: ``standard`` (coupling J, range 1) or ``kac`` (range R).

    The Kac kernel is the normalized indicator J(|Rx - Rx'|) = 1_{|x-x'|<=R}/R^d,
    which makes the pair energy -4 within Euclidean distance R; its
    coupling is therefore 1.
    """

    kind: str = "standard"
    coupling: float = 1.0
    range_: int = 1

    def __post_init__(self):
        if self.kind not in ("standard", "kac"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "standard" and self.range_ != 1:
            raise ValueError("standard potential has range 1")
        if self.coupling <= 0:
            raise ValueError("coupling must be positive")
        if self.kind == "kac" and self.coupling != 1.0:
            raise ValueError("the Kac potential has coupling 1")
        if self.range_ < 1:
            raise ValueError("range must be a positive integer")

    @property
    def bond_energy(self) -> float:
        """Energy of one in-range pair, -4J."""
        return -4.0 * self.coupling

    @property
    def support_radius(self) -> int:
        return self.range_

    def pair_energy(self, diff: Site) -> float:
        """V(x - x') for a displacement on Z^d (no wrapping)."""
        if all(c == 0 for c in diff):
            return EXCLUDED
        r2 = sum(c * c for c in diff)
        if r2 <= self.support_radius ** 2:
            return self.bond_energy
        return 0.0

    def mayer_f(self, diff: Site, beta: float) -> float:
        """Mayer function f(x) = exp(-beta*V(x)) - 1, with f(0) = -1;
        ``GuardError`` once f leaves the float range."""
        e = self.pair_energy(diff)
        if math.isinf(e):
            return -1.0
        if e == 0.0:
            return 0.0
        try:
            return math.expm1(-beta * e)
        except OverflowError:
            raise GuardError(f"Mayer f = e^{-beta * e:g} - 1 exceeds the float range") from None


@dataclass(frozen=True)
class LatticeSpec:
    """A box {0,...,L-1}^d with a wall type.

    ``gamma`` (occupied exterior sites) is only meaningful for ``fixed``
    walls; every gamma site must lie outside the box.
    """

    dimension: int
    side: int
    boundary: str = "zero"
    gamma: tuple[Site, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.side < 2:
            raise ValueError("side must be >= 2")
        if self.boundary not in ("zero", "periodic", "fixed"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        object.__setattr__(self, "gamma", tuple(tuple(g) for g in self.gamma))
        if self.boundary == "fixed":
            for g in self.gamma:
                if len(g) != self.dimension:
                    raise ValueError(f"gamma site {g} has wrong dimension")
                if self.contains(g):
                    raise ValueError(f"gamma site {g} lies inside the box")
        elif self.gamma:
            raise ValueError("gamma sites only allowed with fixed boundary")

    @property
    def n_sites(self) -> int:
        return self.side ** self.dimension

    def contains(self, x: Site) -> bool:
        return all(0 <= c < self.side for c in x)

    def sites(self) -> list[Site]:
        return list(itertools.product(range(self.side), repeat=self.dimension))

    def site_index(self, x: Site) -> int:
        idx = 0
        for c in x:
            idx = idx * self.side + c
        return idx

    def wrap_diff(self, x: Site, y: Site) -> Site:
        """Minimum-image displacement x - y (componentwise for periodic)."""
        if self.boundary != "periodic":
            return tuple(a - b for a, b in zip(x, y))
        L = self.side
        out = []
        for a, b in zip(x, y):
            c = (a - b) % L
            if c > L // 2:
                c -= L
            out.append(c)
        return tuple(out)

    def interior_bonds(self) -> list[tuple[Site, Site]]:
        """Nearest-neighbour bonds with both endpoints inside the box.

        Periodic boxes list one bond per (site, direction); for L = 2 the
        same pair therefore appears twice, which is the torus multiplicity.
        """
        bonds = []
        for x in self.sites():
            for k in range(self.dimension):
                y = list(x)
                y[k] += 1
                if self.boundary == "periodic":
                    y[k] %= self.side
                    bonds.append((x, tuple(y)))
                elif y[k] < self.side:
                    bonds.append((x, tuple(y)))
        return bonds


@dataclass(frozen=True)
class ModelConstants:
    """Stability and regularity constants of the pair potential."""

    stability_B: float
    regularity_C: float
    tree_C_bar: float


def _kernel_terms(dimension: int, pot: PotentialSpec, beta: float) -> tuple[float, float, float]:
    """B = 4J * nbrs, the number nbrs of in-range neighbours, and 4 beta J."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    nbrs = 2.0 * dimension * pot.range_  # range_ is 1 for the standard form
    return 4.0 * pot.coupling * nbrs, nbrs, 4.0 * beta * pot.coupling


def tree_constants(dimension: int, pot: PotentialSpec, beta: float) -> tuple[float, float]:
    """(B, C-bar_{J,d}(beta)); unlike C, both are finite at every beta."""
    B, nbrs, bond = _kernel_terms(dimension, pot, beta)
    return B, 1.0 + nbrs * (-math.expm1(-bond))


def model_constants(dimension: int, pot: PotentialSpec, beta: float) -> ModelConstants:
    """B, C_{J,d}(beta) and the tree-graph constant C-bar_{J,d}(beta).

    For the Kac kernel the closed forms are B_R = 8Rd,
    C_{d,R} = 2dR(e^{4 beta} - 1) + 1 and C-bar_{d,R} = 1 + 2dR(1 - e^{-4 beta});
    they count neighbours exactly in d = 1.  Raises ``GuardError`` once C
    leaves the float range (beta J > ~177 in the standard form).
    """
    B, c_bar = tree_constants(dimension, pot, beta)
    _, nbrs, bond = _kernel_terms(dimension, pot, beta)
    try:
        C = nbrs * math.expm1(bond) + 1.0
    except OverflowError:
        C = math.inf
    if C == math.inf:
        raise GuardError(f"C = {nbrs:g}(e^{bond:g} - 1) + 1 exceeds the float range")
    return ModelConstants(stability_B=B, regularity_C=C, tree_C_bar=c_bar)
