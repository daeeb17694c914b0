"""Truncated two-point bound: literal right-hand side, constant calibration,
and the decay-rate fit against exact torus correlations.

The bound's constants are existential in the source estimate, so the
module calibrates the smallest feasible (C, C1) on a grid over a family of
exactly solved cases and reports the binding case, rather than hard-coding
guesses.  Distances are minimum-image on the torus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GuardError, LatticeSpec, PotentialSpec
from .oracle import CorrelationTable, exact_correlations


def torus_distance(lattice: LatticeSpec, q1, q2) -> float:
    diff = lattice.wrap_diff(tuple(q1), tuple(q2))
    return math.sqrt(sum(c * c for c in diff))


def bound_rhs(dist: float, n_particles: int, volume: int, beta: float,
              coupling: float, c_const: float, c1_const: float) -> float:
    """Literal truncated-pair bound at separation ``dist``.

    rho^2 [ (e^{4 beta J}-1) 1_{dist=1} + 1_{dist=0}
            + ((e^{4 beta J}-1) 1_{dist=1} + 1_{dist=0})/N + C e^{-dist} ]
    + C1/|Lambda|.  Raises ``ValueError`` for beta outside [0, inf), a
    negative or nan distance, a non-finite coupling or constant, or fewer
    than one particle or site, and ``GuardError`` once the bound leaves the
    float range (beta J > ~177 at dist = 1).
    """
    if not 0 <= beta < math.inf:
        raise ValueError(f"the bound needs 0 <= beta < inf, not {beta}")
    if not dist >= 0:
        raise ValueError(f"the bound needs a distance >= 0, not {dist}")
    if not all(map(math.isfinite, (coupling, c_const, c1_const))):
        raise ValueError(f"the bound needs a finite coupling and constants, not "
                         f"J = {coupling}, C = {c_const}, C1 = {c1_const}")
    if n_particles < 1 or volume < 1:
        raise ValueError(f"the bound needs at least one particle and site, not "
                         f"N = {n_particles}, |Lambda| = {volume}")
    rho = n_particles / volume
    try:
        near = math.expm1(4.0 * beta * coupling) if dist == 1.0 else 0.0
    except OverflowError:
        near = math.inf
    same = 1.0 if dist == 0.0 else 0.0
    inner = (near + same) * (1.0 + 1.0 / n_particles) + c_const * math.exp(-dist)
    rhs = rho * rho * inner + c1_const / volume
    if not math.isfinite(rhs):
        raise GuardError(f"the bound at beta J = {beta * coupling:g} exceeds the float range")
    return rhs


@dataclass(frozen=True)
class PairRow:
    q1: tuple
    q2: tuple
    dist: float
    u2_exact: float
    rhs: float
    feasible: bool


@dataclass(frozen=True)
class CorrelationBoundReport:
    lattice: LatticeSpec
    beta: float
    n_particles: int
    c_const: float
    c1_const: float
    rows: list[PairRow]

    @property
    def all_feasible(self) -> bool:
        return all(r.feasible for r in self.rows)


def _pairs(table: CorrelationTable):
    """(q1, q2, minimum-image distance, exact |u2|) for every ordered site pair."""
    sites = table.lattice.sites()
    for i, q1 in enumerate(sites):
        for j, q2 in enumerate(sites):
            yield q1, q2, torus_distance(table.lattice, q1, q2), abs(float(table.u2[i, j]))


def pair_rows(table: CorrelationTable, c_const: float, c1_const: float) -> CorrelationBoundReport:
    """Exact |u2| vs the bound for every ordered site pair of one case."""
    lattice = table.lattice
    rows = []
    for q1, q2, dist, exact in _pairs(table):
        rhs = bound_rhs(dist, table.n_particles, lattice.n_sites,
                        table.beta, table.pot.coupling, c_const, c1_const)
        rows.append(PairRow(q1, q2, dist, exact, rhs, exact <= rhs * (1 + 1e-12)))
    return CorrelationBoundReport(lattice=lattice, beta=table.beta,
                                  n_particles=table.n_particles,
                                  c_const=c_const, c1_const=c1_const, rows=rows)


@dataclass(frozen=True)
class Calibration:
    c_min: float
    c1_min: float
    binding_case: tuple
    feasible: bool


def calibrate_constants(tables: list[CorrelationTable]) -> Calibration:
    """Smallest (C, C1) on a grid making the bound hold for every pair.

    Scans C = 0, 0.05, ..., 20 ascending and takes the least C1 on the
    0.05 grid that closes all remaining slack; a case where even
    (C, C1) = (20, 50) fails is a diagnostic failure (reported with
    feasible=False).  Ordering: minimal C first, then C1.
    """
    c_grid = np.arange(0.0, 20.0 + 1e-9, 0.05)
    constraints = []  # (coef_C, coef_C1, required, case_tag)
    for t in tables:
        volume = t.lattice.n_sites
        rho = t.n_particles / volume
        for _q1, _q2, dist, exact in _pairs(t):
            base = bound_rhs(dist, t.n_particles, volume, t.beta, t.pot.coupling, 0.0, 0.0)
            slack = exact - base
            if slack > 0:
                constraints.append((rho * rho * math.exp(-dist), 1.0 / volume,
                                    slack, (volume, t.n_particles, t.beta, dist)))
    if not constraints:
        return Calibration(0.0, 0.0, (), True)
    for c_val in c_grid:
        needed = 0.0
        binding = ()
        for coef_c, coef_c1, req, tag in constraints:
            resid = req - coef_c * c_val
            c1_here = max(0.0, resid / coef_c1)
            if c1_here > needed:
                needed = c1_here
                binding = tag
        c1_val = math.ceil(needed / 0.05 - 1e-12) * 0.05
        if c1_val <= 50.0:
            return Calibration(float(c_val), float(c1_val), binding, True)
    return Calibration(float(c_grid[-1]), math.inf, (), False)


@dataclass(frozen=True)
class DecayFit:
    rate: float
    n_points: int
    flagged_flat: bool
    dropped: int


def decay_fit(lattice: LatticeSpec, pot: PotentialSpec, beta: float,
              n_particles: int) -> DecayFit:
    """Decay rate of the distance-dependent part of u2 over 2 <= r < L/2.

    The canonical ensemble pins u2 at an exactly flat O(1/|Lambda|)
    background at large separation (the bound's C1 term); the exponential
    structure lives in u2(r) minus that plateau (taken at r = L/2).  Rows
    where the subtracted signal is below the rounding floor are dropped
    and counted.  Cases with fewer than two usable rows (beta = 0, or too
    few particles to mediate correlations past r = 2) return a flat flag
    instead of a rate.
    """
    if lattice.dimension != 1:
        raise ValueError("decay fit is a d=1 diagnostic")
    if lattice.side < 10:
        raise ValueError("need L >= 10 for a meaningful fit window")
    table = exact_correlations(lattice, pot, beta, n_particles)
    origin = (0,)
    plateau = table.u2_at(origin, (lattice.side // 2,))
    floor = 1e-12 * max(abs(plateau), float(np.max(np.abs(table.u2))))
    rs, logs = [], []
    dropped = 0
    for r in range(2, lattice.side // 2):
        val = abs(table.u2_at(origin, (r,)) - plateau)
        if val <= floor:
            dropped += 1
            continue
        rs.append(float(r))
        logs.append(math.log(val))
    if len(rs) < 2:
        return DecayFit(rate=0.0, n_points=len(rs), flagged_flat=True, dropped=dropped)
    slope = float(np.polyfit(np.array(rs), np.array(logs), 1)[0])
    return DecayFit(rate=-slope, n_points=len(rs),
                    flagged_flat=(beta == 0.0), dropped=dropped)
