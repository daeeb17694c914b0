"""Mayer coefficients, canonical-expansion extraction, and free energies.

Conventions
-----------
* ``connected_coefficient`` b_n pins x_1 = 0 (per-volume normalization);
  the unpinned sum over (Z^d)^n diverges by translation invariance.
* ``irreducible_coefficient`` beta_n sums 2-connected graphs on n+1
  vertices with x_1 = 0.
* Geometry is split from thermodynamics.  Two points are joined in the
  support graph when they coincide or lie within range (squared
  Euclidean distance <= R^2, for the Kac kernel as well); any other pair
  has f = 0.  A connected graph, a 2-connected graph or a spanning tree
  all of whose edges are joined exists only if the support graph is
  connected, so the lattice sums run exactly over the pinned
  configurations with connected support.  Those are grown from x_1 = 0
  once per (n, d, R), independent of beta, as integer arrays: each level
  inserts every in-range site into every tuple of the last one, a block
  of parents at a time, and drops repeats by sorting packed int64 keys of
  the coordinates, so the growth holds at most ``MAX_CLUSTER_CONFIGS``
  tuples and one block.  They are bucketed by their pair-category
  pattern (out of range, in range, coincident), in lexicographic row
  order by a base-3 key, with integer multiplicities.  Per pattern, each
  graph without an out-of-range edge contributes (-1)^{#coincident edges}
  f^{#in-range edges}, or w^{#in-range edges} to the tree sum,
  w = 1 - e^{-beta|V|}: integer polynomials in f and in w.  A graph is
  its edge bitmask, whose bit p is the pattern's pair p, so its edges in
  each category are the popcount of its mask and the pattern's mask of
  that category.  The graph masks of a class are listed once per n, for
  every (d, R).
* Each beta then costs one polynomial evaluation.  b_n and beta_n are
  evaluated exactly in rationals at the float f and rounded once: each is
  the correctly rounded lattice sum at that f.  The tree-graph check
  evaluates both sides per pattern in floats; its ``n_configs`` counts
  the configurations evaluated, the ones with connected support.
* Finite-volume coefficients B_Lambda(n) are extracted from an exact
  oracle table by solving the triangular system
      log Z(N) - log(|Lambda|^N / N!) = N * sum_n P_{N,|Lambda|}(n) B(n)/(n+1),
  which truncates at n = N-1 since P vanishes for n >= N.  The solve runs
  in 50-digit decimal arithmetic at every volume and rounds each B(n) once.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import all_pairs, enumerate_biconnected, enumerate_connected, enumerate_trees
from .model import GuardError, PotentialSpec, model_constants
from .oracle import _DECIMAL50, CanonicalTable
from .powerseries import ps_compose, ps_exp, ps_mul, ps_revert

MAX_B_ORDER = 5
MAX_BETA_IRR_ORDER = 4
MAX_TREE_CHECK_ORDER = 5
MAX_DERIVATIVE_ORDER = 6
# pinned configurations a lattice sum may grow.  Range 1 in d = 3 has 87,061
# at n = 5 (about 0.1 s to grow); the Kac range 2 in d = 2 has 522,721 there
# (1.1 s and 33 MB above the import to grow unguarded), and range 3 in d = 2
# would insert some 55 million children into its 119,333 tuples of n = 4
MAX_CLUSTER_CONFIGS = 100_000
# children per block of the growth: about 1 MB of int8 coordinates and
# 0.5 MB of keys at n = 5, d = 3
_GROWTH_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# Geometry: pinned configurations with connected support, by pair pattern

def _pair_categories(coords: np.ndarray, radius: int) -> np.ndarray:
    """(m, n(n-1)/2) int8 categories for all vertex pairs, pair index (i<j):
    0 = out of range, 1 = in range, 2 = coincident."""
    m, n, _d = coords.shape
    cats = np.zeros((m, n * (n - 1) // 2), dtype=np.int8)
    for p, (i, j) in enumerate(all_pairs(n)):
        diff = coords[:, i, :].astype(np.int64) - coords[:, j, :]
        r2 = np.einsum("md,md->m", diff, diff)
        cats[:, p] = np.where(r2 == 0, 2, np.where(r2 <= radius ** 2, 1, 0))
    return cats


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Indices of one row of each distinct row of the (m, W) int64 ``keys``,
    in lexicographic key order."""
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return order[first]


def _connected_configs(n_points: int, d: int, radius: int) -> np.ndarray:
    """(m, n_points, d) tuples with x_1 = 0 whose support graph is connected,
    in the lexicographic order of their keys.

    Grown from (0,) by inserting, at any position j >= 1, a site that
    coincides with or is in range of a point already present.  This
    reaches every connected tuple: a connected graph on >= 2 vertices has
    a non-cut vertex other than x_1, and deleting it leaves a smaller
    connected tuple.

    A level is grown in blocks of parents, each of about ``_GROWTH_BLOCK``
    children: every parent, with each in-range offset of each of its points
    inserted at every position j >= 1.  A block joins the distinct tuples
    grown so far and repeats are dropped by key (``_distinct``).  The key
    packs the coordinates of x_2..x_n, each shifted by the reach
    (n - 1) R into [0, 2 (n - 1) R] and given the bit length of 2 (n - 1) R
    bits, 63 bits to an int64 word and as many words as the tuple needs, so
    no key overflows: (3, 10, 1) takes one word, (4, 8, 1) two.
    Coordinates are held in the smallest signed type that holds the reach.
    ``GuardError`` as soon as the distinct tuples pass
    ``MAX_CLUSTER_CONFIGS``, so the growth holds at most that many tuples,
    one block of children and their keys.
    """
    reach = (n_points - 1) * radius
    dtype = np.min_scalar_type(-reach - 1)  # holds -reach - 1, so also +reach
    bits = (2 * reach).bit_length()
    per_word = 63 // bits
    box = range(-radius, radius + 1)
    offsets = np.array([v for v in itertools.product(box, repeat=d)
                        if sum(c * c for c in v) <= radius ** 2], dtype=dtype)
    level = np.zeros((1, 1, d), dtype=dtype)
    for size in range(1, n_points):
        # child j of a candidate site: the parent's points with the site, the
        # last of them, moved to position j
        insert = np.array([[*range(j), size, *range(j, size)] for j in range(1, size + 1)])
        words = -(-size * d // per_word)
        grown = np.empty((0, size + 1, d), dtype=dtype)
        keys = np.empty((0, words), dtype=np.int64)
        step = max(1, _GROWTH_BLOCK // (size * len(offsets) * size))
        for start in range(0, len(level), step):
            parents = level[start:start + step]
            sites = (parents[:, :, None, :] + offsets).reshape(len(parents), -1, 1, d)
            spread = np.broadcast_to(parents[:, None], sites.shape[:2] + (size, d))
            children = np.concatenate([spread, sites], axis=2)[:, :, insert]
            children = children.reshape(-1, size + 1, d)
            packed = np.zeros((len(children), words), dtype=np.int64)
            for t, column in enumerate(children[:, 1:].reshape(len(children), -1).T):
                field = (column.astype(np.int64) + reach) << bits * (t % per_word)
                packed[:, t // per_word] += field
            grown = np.concatenate([grown, children])
            keys = np.concatenate([keys, packed])
            keep = _distinct(keys)
            grown, keys = grown[keep], keys[keep]
            if len(grown) > MAX_CLUSTER_CONFIGS:
                raise GuardError(f"cluster sums guarded to {MAX_CLUSTER_CONFIGS:,} pinned "
                                 f"configurations: n = {n_points}, d = {d}, range {radius} "
                                 "has more")
        level = grown
    return level


@functools.lru_cache(maxsize=16)
def _patterns(n_points: int, d: int, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct pair-category rows of the connected configurations, in
    lexicographic order, and how many configurations share each row.
    Read-only: the cache shares them."""
    cats = _pair_categories(_connected_configs(n_points, d, radius), radius)
    # base 3, pair 0 most significant: the key order is the row order
    # (within int64 up to n = 9 points, 36 pairs)
    key = np.zeros(len(cats), dtype=np.int64)
    for column in cats.T:
        key = key * 3 + column
    _, first, mult = np.unique(key, return_index=True, return_counts=True)
    rows = cats[first]
    rows.flags.writeable = mult.flags.writeable = False
    return rows, mult


@functools.lru_cache(maxsize=16)
def _graphs(kind: str, n_points: int) -> np.ndarray:
    """The edge bitmasks of every graph of class ``kind`` on n_points
    vertices, shared by every (d, R).  Read-only: the cache shares them."""
    generate = {"connected": enumerate_connected, "biconnected": enumerate_biconnected,
                "tree": enumerate_trees}[kind]
    graphs = np.fromiter(generate(n_points), np.int64)
    graphs.flags.writeable = False
    return graphs


@functools.lru_cache(maxsize=48)
def _graph_polys(kind: str, n_points: int, d: int, radius: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Multiplicities (U,) and integer coefficients (U, n(n-1)/2 + 1) of the
    graph sum of class ``kind``, per pattern, as a polynomial in f (in w
    for trees).  Read-only: the cache shares them."""
    coincident = 1 if kind == "tree" else -1  # w = 1, f = -1 on a coincident pair
    cats, mult = _patterns(n_points, d, radius)
    n_pairs = cats.shape[1]
    graphs = _graphs(kind, n_points)
    # each pattern's pairs of one category as a bitmask, like the graphs'
    out, joined, same = ((cats == c) @ (1 << np.arange(n_pairs)) for c in (0, 1, 2))
    pattern, graph = np.nonzero((out[:, None] & graphs) == 0)
    degree = np.bitwise_count(joined[pattern] & graphs[graph])
    sign = coincident ** np.bitwise_count(same[pattern] & graphs[graph]).astype(np.int64)
    polys = np.zeros((len(cats), n_pairs + 1), dtype=np.int64)
    np.add.at(polys, (pattern, degree), sign)
    polys.flags.writeable = False
    return mult, polys


def _horner(polys: np.ndarray, x: float) -> np.ndarray:
    """Row-wise sum_k polys[:, k] x^k in floats."""
    acc = np.zeros(len(polys))
    for k in range(polys.shape[1] - 1, -1, -1):
        acc = acc * x + polys[:, k]
    return acc


def _lattice_sum(kind: str, n_points: int, d: int, pot: PotentialSpec,
                 beta: float, scale: int) -> float:
    """(1/scale) sum over pinned configurations and graphs of class ``kind``
    of prod f: exact in rationals at the float f, rounded once.  Raises
    ``GuardError`` once f or the sum leaves the float range."""
    mult, polys = _graph_polys(kind, n_points, d, pot.support_radius)
    coeffs = (mult @ polys).tolist()
    try:
        f = Fraction(math.expm1(-beta * pot.bond_energy))
        total = Fraction(0)
        for c in reversed(coeffs):
            total = total * f + c
        return float(total / scale)
    except OverflowError:
        raise GuardError(f"{kind} graph sum over {n_points} points past the float range "
                         f"at beta = {beta:g}") from None


# ---------------------------------------------------------------------------
# Coefficients

def connected_coefficient(n: int, d: int, pot: PotentialSpec, beta: float) -> float:
    """b_n = (1/n!) sum_{g in C_n} sum_{x_2..x_n} prod f, with x_1 = 0."""
    if not 1 <= n <= MAX_B_ORDER:
        raise GuardError(f"connected coefficients guarded to n <= {MAX_B_ORDER}")
    if n == 1:
        return 1.0
    return _lattice_sum("connected", n, d, pot, beta, math.factorial(n))


def irreducible_coefficient(n: int, d: int, pot: PotentialSpec, beta: float) -> float:
    """beta_n = (1/n!) sum over 2-connected graphs on n+1 vertices, x_1 = 0."""
    if not 1 <= n <= MAX_BETA_IRR_ORDER:
        raise GuardError(f"irreducible coefficients guarded to n <= {MAX_BETA_IRR_ORDER}")
    return _lattice_sum("biconnected", n + 1, d, pot, beta, math.factorial(n))


def beta1_closed_form(d: int, pot: PotentialSpec, beta: float) -> float:
    """beta_1 = 2d(e^{-beta*v1} - 1) - 1 with v1 the bond energy.

    For the Kac kernel the 2d neighbour count becomes the in-range count;
    exact in d = 1 (2dR sites within range R).  Raises ``GuardError`` once
    beta_1 leaves the float range, like ``irreducible_coefficient(1, ...)``.
    """
    if pot.kind == "kac" and d != 1:
        raise ValueError("Kac closed form implemented for d = 1 only")
    try:
        beta1 = 2 * d * pot.support_radius * math.expm1(-beta * pot.bond_energy) - 1.0
    except OverflowError:
        beta1 = math.inf
    if beta1 == math.inf:
        raise GuardError(f"beta_1 past the float range at beta = {beta:g}")
    return beta1


# ---------------------------------------------------------------------------
# Theorem-1 coefficient structure

def falling_p(n_particles: int, volume: int, n: int) -> float:
    """P_{N,|Lambda|}(n) = (N-1)...(N-n)/|Lambda|^n for n < N, else 0."""
    if n >= n_particles:
        return 0.0
    num = 1.0
    for k in range(1, n + 1):
        num *= (n_particles - k) / volume
    return num


def f_coefficient(n_particles: int, volume: int, n: int, b_lambda_n: float) -> float:
    """F_{beta,N,Lambda}(n) = P_{N,|Lambda|}(n) * B_Lambda(n) / (n+1)."""
    return falling_p(n_particles, volume, n) * b_lambda_n / (n + 1)


def _log_z_ideal(n_particles: int, volume: int) -> float:
    return n_particles * math.log(volume) - math.lgamma(n_particles + 1)


@dataclass(frozen=True)
class SeriesCoefficients:
    """Finite-volume coefficients B_Lambda(n), n = 1..n_max (index 0 unused)."""

    b_lambda: np.ndarray
    volume: int

    @property
    def n_max(self) -> int:
        return len(self.b_lambda) - 1

    def value(self, n: int) -> float:
        return float(self.b_lambda[n])


def extract_b_lambda(table: CanonicalTable, n_max: int) -> SeriesCoefficients:
    """Solve the triangular Theorem-1 system for B_Lambda(1..n_max).

    Row N (= 2..n_max+1) reads
        log Z^int(N) = sum_{n=1}^{N-1} N P_{N,|Lambda|}(n) B(n) / (n+1),
    so each new row determines one new coefficient.  The solve runs in
    50-digit decimal arithmetic from the exact float table entries.
    """
    volume = table.n_sites
    if n_max + 1 >= len(table.log_z):
        raise GuardError("oracle table too shallow for the requested order")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    for n_particles in range(2, n_max + 2):
        if not math.isfinite(table.log_z_of(n_particles)):
            raise GuardError(f"table has no particles at N = {n_particles}")

    with decimal.localcontext(_DECIMAL50):
        log_volume = decimal.Decimal(volume).ln()
        b = [decimal.Decimal(0)] * (n_max + 1)
        for n_particles in range(2, n_max + 2):
            acc = (decimal.Decimal(table.log_z_of(n_particles)) - n_particles * log_volume
                   + decimal.Decimal(math.factorial(n_particles)).ln())
            p = decimal.Decimal(1)  # P_{N,|Lambda|}(n), built up factor by factor
            for n in range(1, n_particles):
                p *= decimal.Decimal(n_particles - n) / volume
                if n < n_particles - 1:
                    acc -= n_particles * p * b[n] / (n + 1)
            b[n_particles - 1] = acc / p  # the last term is N P(N-1) B(N-1) / N
        vals = np.array([0.0] + [float(x) for x in b[1:]])
    return SeriesCoefficients(b_lambda=vals, volume=volume)


def reconstruct_log_z(coeffs: SeriesCoefficients, n_particles: int) -> float:
    """Rebuild log Z(N) from B_Lambda via the Theorem-1 identity."""
    if n_particles - 1 > coeffs.n_max:
        raise GuardError("not enough coefficients to reconstruct this N")
    volume = coeffs.volume
    acc = _log_z_ideal(n_particles, volume)
    for n in range(1, n_particles):
        acc += n_particles * f_coefficient(n_particles, volume, n, coeffs.value(n))
    return acc


# ---------------------------------------------------------------------------
# Canonical free energy and Stirling remainder

@dataclass(frozen=True)
class CanonicalFreeEnergy:
    """beta * F(rho) = rho(log rho - 1) - sum_n P_{n+1,|Lambda|}(rho) B(n)/(n+1).

    ``volume = None`` selects the thermodynamic series (powers rho^{n+1}
    with coefficients beta_n).  ``derivative`` returns d^m(beta F)/d rho^m,
    analytic for the ideal part and exact polynomial calculus for the
    interaction part; orders above 6 fail loudly.
    """

    coeffs: np.ndarray
    volume: int | None = None

    @property
    def n_max(self) -> int:
        return len(self.coeffs) - 1

    def _interaction_poly(self, n: int) -> np.ndarray:
        """Ascending coefficients of the degree-(n+1) factor for order n:
        P_{n+1,|Lambda|}(rho) = rho(rho - 1/|Lambda|)...(rho - n/|Lambda|)."""
        if self.volume is None:
            c = np.zeros(n + 2)
            c[n + 1] = 1.0
            return c
        roots = np.array([k / self.volume for k in range(n + 1)])
        return np.polynomial.polynomial.polyfromroots(roots).real

    def derivative(self, rho: float, order: int = 0) -> float:
        if not 0 < rho < 1:
            raise ValueError("density must lie in (0, 1)")
        if order < 0 or order > MAX_DERIVATIVE_ORDER:
            raise ValueError(f"derivative order {order} outside 0..{MAX_DERIVATIVE_ORDER}")
        if order == 0:
            ideal = rho * (math.log(rho) - 1.0)
        elif order == 1:
            ideal = math.log(rho)
        else:
            ideal = (-1.0) ** order * math.factorial(order - 2) * rho ** (1 - order)
        inter = 0.0
        for n in range(1, self.n_max + 1):
            if self.volume is not None and rho < n / self.volume:
                continue
            poly = self._interaction_poly(n)
            der = np.polynomial.polynomial.polyder(poly, order) if order else poly
            inter += float(np.polynomial.polynomial.polyval(rho, der)) * self.coeffs[n] / (n + 1)
        return ideal - inter

    def value(self, rho: float) -> float:
        return self.derivative(rho, 0)


def free_energy_from_extraction(coeffs: SeriesCoefficients) -> CanonicalFreeEnergy:
    return CanonicalFreeEnergy(coeffs=coeffs.b_lambda.copy(), volume=coeffs.volume)


def free_energy_thermodynamic(beta_irr: np.ndarray) -> CanonicalFreeEnergy:
    """TFE series: beta f(rho) = rho(log rho - 1) - sum beta_n rho^{n+1}/(n+1)."""
    return CanonicalFreeEnergy(coeffs=np.asarray(beta_irr, dtype=float), volume=None)


def stirling_remainder(n_particles: int, volume: int) -> float:
    """beta * S_{|Lambda|}(rho) = -rho(log rho - 1) - (1/|Lambda|) log(|Lambda|^N/N!).

    Defined so that the finite-volume free energy satisfies
    f = F + S exactly when F carries extracted coefficients; decays like
    log(sqrt(|Lambda|))/|Lambda|.
    """
    if not 1 <= n_particles <= volume:
        raise ValueError("need 1 <= N <= |Lambda|")
    rho = n_particles / volume
    return -rho * (math.log(rho) - 1.0) - _log_z_ideal(n_particles, volume) / volume


# ---------------------------------------------------------------------------
# Virial inversion

@dataclass(frozen=True)
class VirialSeries:
    """Density expansions built from the irreducible coefficients.

    mu_minus_log(): coefficients of beta*mu(rho) - log(rho) (powers rho^1..)
    pressure_rho(): coefficients of beta*p as a series in rho
    pressure_fugacity(): coefficients of beta*p as a series in z, obtained
    by composing through the numerically inverted rho(z).
    """

    beta_irr: np.ndarray
    order: int

    def mu_minus_log(self) -> np.ndarray:
        c = np.zeros(self.order + 1)
        for n in range(1, min(len(self.beta_irr), self.order + 1)):
            c[n] = -self.beta_irr[n]
        return c

    def pressure_rho(self) -> np.ndarray:
        """beta*p(rho) = rho - sum n beta_n rho^{n+1}/(n+1).

        The minus sign is forced by the Legendre pairing with the free
        energy and mu series (and by matching the fugacity expansion's
        connected coefficients); a repulsive gas then has positive virial
        corrections, as it must.
        """
        c = np.zeros(self.order + 1)
        c[1] = 1.0
        for n in range(1, len(self.beta_irr)):
            if n + 1 <= self.order:
                c[n + 1] = -n * self.beta_irr[n] / (n + 1)
        return c

    def z_of_rho(self) -> np.ndarray:
        return ps_mul(_x_series(self.order), ps_exp(self.mu_minus_log(), self.order),
                      self.order)

    def rho_of_z(self) -> np.ndarray:
        return ps_revert(self.z_of_rho(), self.order)

    def pressure_fugacity(self) -> np.ndarray:
        return ps_compose(self.pressure_rho(), self.rho_of_z(), self.order)


def _x_series(order: int) -> np.ndarray:
    c = np.zeros(order + 1)
    c[1] = 1.0
    return c


def virial_series(beta_irr: np.ndarray, order: int) -> VirialSeries:
    if order > MAX_B_ORDER:
        raise GuardError(f"virial series guarded to order <= {MAX_B_ORDER}")
    return VirialSeries(beta_irr=np.asarray(beta_irr, dtype=float), order=order)


def legendre_sides(beta_irr: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient arrays (powers rho^2..) of both sides of the free-energy /
    pressure Legendre identity; they must agree term by term.

    Left: -sum beta_n rho^{n+1}/(n+1).  Right: rho*(-sum beta_n rho^n)
    + sum n beta_n rho^{n+1}/(n+1).  (The shared ideal part cancels.)
    """
    lhs = np.zeros(order + 2)
    rhs = np.zeros(order + 2)
    for n in range(1, min(len(beta_irr), order + 1)):
        lhs[n + 1] = -beta_irr[n] / (n + 1)
        rhs[n + 1] = -beta_irr[n] + n * beta_irr[n] / (n + 1)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Tree-graph inequality

@dataclass(frozen=True)
class TreeGraphReport:
    order: int
    dimension: int
    beta: float
    lhs_total: float
    rhs_total: float
    violations: int
    n_configs: int

    @property
    def holds(self) -> bool:
        return self.violations == 0 and self.lhs_total <= self.rhs_total * (1 + 1e-12)


def tree_graph_check(n: int, d: int, pot: PotentialSpec, beta: float) -> TreeGraphReport:
    """Check |sum over connected graphs of prod f| <= e^{beta B n} * tree sum.

    Exhaustive over pinned configurations: the inequality is checked once
    per pair pattern, and violations and totals are weighted by the
    pattern's multiplicity, so both the per-configuration inequality and
    the aggregate are verified.  Configurations with disconnected support
    are not evaluated: every connected graph and every spanning tree has an
    out-of-range edge there, so lhs = rhs = 0 exactly and they cannot
    violate.  ``n_configs`` counts the configurations evaluated.
    """
    if not 2 <= n <= MAX_TREE_CHECK_ORDER:
        raise GuardError(f"tree-graph check guarded to 2 <= n <= {MAX_TREE_CHECK_ORDER}")
    mult, f_polys = _graph_polys("connected", n, d, pot.support_radius)
    _, w_polys = _graph_polys("tree", n, d, pot.support_radius)
    try:  # the stability constant B does not depend on beta
        stability = math.exp(beta * model_constants(d, pot, 0.0).stability_B * n)
        with np.errstate(over="ignore", invalid="ignore"):
            lhs = np.abs(_horner(f_polys, math.expm1(-beta * pot.bond_energy)))
            rhs = stability * _horner(w_polys, -math.expm1(-beta * abs(pot.bond_energy)))
            lhs_total, rhs_total = float(mult @ lhs), float(mult @ rhs)
        if not math.isfinite(lhs_total + rhs_total):  # sums of nonnegative terms
            raise OverflowError
    except OverflowError:
        raise GuardError(f"tree-graph check past the float range at beta = {beta:g}") from None
    violations = int(mult @ (lhs > rhs * (1 + 1e-12) + 1e-300))
    return TreeGraphReport(order=n, dimension=d, beta=beta, lhs_total=lhs_total,
                           rhs_total=rhs_total, violations=violations,
                           n_configs=int(mult.sum()))
