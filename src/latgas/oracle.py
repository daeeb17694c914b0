"""Exact finite-volume oracles.

Two independent routes to the canonical partition function Z(N):

* occupancy-subset enumeration over all 2^|Lambda| configurations (any
  dimension, |Lambda| <= 24).  The bond level k of a subset (in-range
  occupied pairs plus wall contacts) is one bitmask formula, a popcount
  per group of pairs of equal index offset.  One kernel, cached per (box,
  range R, site masks) and free of beta and N, counts the N-subsets per
  (N, k) that hold given sites: none for Z(N); sites 0 and r for the
  torus correlations, where every site is alike, and u2 comes from
  integer numerators, not by subtracting rho1^2.  Each beta then costs a
  30-digit decimal evaluation against e^{k x}, x = -beta * bond energy,
  rounded to float once, so no beta overflows;
* a d = 1 transfer matrix over Z_h(N) of a zero-wall chain, per occupancy
  history h of the last R sites and per particle number N.  Each cell is a
  float mantissa and a binary exponent, so no beta overflows, and a
  running sum keeps the exact rounding error of each of its sums, so Z(N)
  is good to a few eps at any L up to the 4096 guard.  It goes in windows
  of 64 sites.  Where a proved bound on b^R allows, a window gives each
  column one exponent and a site does no exponent work; elsewhere every
  live column aligns its exponents at every site.  The windows change no
  bit of Z(N).  A ring of L sites is the chain of L - 1 (see
  ``transfer_matrix_table``).

``canonical_table`` is the one place that picks between the two, and it
refuses rows past the float range.  Everything downstream (grand-canonical
probabilities, correlation functions, deviation checks) is derived from
these tables.
"""

from __future__ import annotations

import decimal
import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import GuardError, LatticeSpec, PotentialSpec, _integer

ENUMERATION_MAX_SITES = 24
TRANSFER_MAX_SIDE = 4096
WINDOW_SITES = 64
SUBSET_BLOCK = 1 << 16

_FLOAT_MAX = float(np.finfo(np.float64).max)
# ln 2 = _LN2_HI + _LN2_LO, with E * _LN2_HI exact for |E| < 2^20 (fdlibm's
# split), so E ln 2 + log m rounds about once
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10

LOG_ZERO = -math.inf

# 30 digits leave ten to spare after rounding to float; _EXACT only
# multiplies and adds, where MAX_PREC never rounds.  _DECIMAL50 serves the
# B_Lambda(n) solve of series.extract_b_lambda, whose row n cancels about
# n log10 |Lambda| digits (18 at |Lambda| = 4096, n = 5)
_DECIMAL = decimal.Context(prec=30, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
_DECIMAL50 = decimal.Context(prec=50, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
_EXACT = decimal.Context(prec=decimal.MAX_PREC)


@dataclass(frozen=True, eq=False)
class CanonicalTable:
    """Exact log Z(N) for N = 0..|Lambda| (log-0 sentinel for excluded N);
    ``ValueError`` on a nan entry."""

    lattice: LatticeSpec
    beta: float
    pot: PotentialSpec
    log_z: np.ndarray
    method: str

    def __post_init__(self):
        if np.isnan(self.log_z).any():
            raise ValueError("log Z(N) has a nan entry")

    @property
    def n_sites(self) -> int:
        return self.lattice.n_sites

    def log_z_of(self, n: int) -> float:
        """log Z(N); ``ValueError`` below 0, log 0 past the row."""
        if n < 0:
            raise ValueError("negative particle number")
        return float(self.log_z[n]) if n < len(self.log_z) else LOG_ZERO


@dataclass(frozen=True, eq=False)
class GrandCanonicalEval:
    """Grand-canonical layer built on a canonical table at one mu: the
    tilted log weights beta mu N + log Z(N), log Xi and the distribution of N."""

    table: CanonicalTable
    mu: float
    log_weights: np.ndarray
    log_xi: float
    probs: np.ndarray

    @property
    def beta_pressure(self) -> float:
        """beta * p_{Lambda,beta}(mu) = log Xi / |Lambda|."""
        return self.log_xi / self.table.n_sites

    @property
    def pressure(self) -> float:
        """log Xi / (beta |Lambda|); ``ValueError`` at beta = 0, see ``beta_pressure``."""
        if self.table.beta == 0:
            raise ValueError("the pressure needs beta > 0; at beta = 0 use beta_pressure")
        return self.log_xi / (self.table.beta * self.table.n_sites)

    def mean_particles(self) -> float:
        """<N> over ``probs`` divided by their float sum, which misses 1 by
        about eps |log Xi|: undivided, a dense table's mean passes |Lambda|."""
        ns = np.arange(len(self.probs))
        return float(np.dot(ns, self.probs) / self.probs.sum())

    def variance_particles(self) -> float:
        ns = np.arange(len(self.probs)) - self.mean_particles()
        return float(np.dot(ns ** 2, self.probs) / self.probs.sum())


def _interaction_pairs(lattice: LatticeSpec, radius: int) -> list[tuple[int, int]]:
    """In-range site-index pairs, with torus multiplicity where it applies,
    and one (a, a) per occupied wall site in range of site a.

    For range 1 these are the nearest-neighbour bonds (one per direction on
    the torus, so L = 2 pairs appear twice).  For longer ranges every
    unordered pair within Euclidean distance R contributes once; periodic
    boxes then need L > 2R so minimum images are unambiguous.
    """
    sites = lattice.sites()
    if radius == 1:
        pairs = [tuple(sorted((lattice.site_index(x), lattice.site_index(y))))
                 for x, y in lattice.interior_bonds()]
    elif lattice.boundary == "periodic" and lattice.side <= 2 * radius:
        raise GuardError("periodic box too small for the interaction range")
    else:
        pairs = [(a, b) for a in range(len(sites)) for b in range(a + 1, len(sites))
                 if sum(c * c for c in lattice.wrap_diff(sites[a], sites[b])) <= radius ** 2]
    # gamma is empty unless the walls are fixed
    return pairs + [(a, a) for a, x in enumerate(sites) for g in lattice.gamma
                    if 0 < sum((p - q) ** 2 for p, q in zip(x, g)) <= radius ** 2]


def _bond_groups(lattice: LatticeSpec, radius: int) -> list[tuple[int, int]]:
    """The pairs of ``_interaction_pairs`` as (d, mask) groups: bit i of mask
    marks the pair (i, i + d), d = 0 for a wall contact.  A pair met again
    (the L = 2 torus, a second wall contact) opens a further group of the
    same offset, so a subset m holds
    sum over groups of popcount(m & (m >> d) & mask) bonds."""
    groups = []
    for i, j in _interaction_pairs(lattice, radius):
        for g, (d, mask) in enumerate(groups):
            if d == j - i and not mask >> i & 1:
                groups[g] = (d, mask | 1 << i)
                break
        else:
            groups.append((j - i, 1 << i))
    return groups


def _bonds(masks: np.ndarray, groups) -> np.ndarray:
    """The bond level of each int32 mask, per ``_bond_groups``."""
    bonds = np.zeros(len(masks), dtype=np.int32)
    for d, mask in groups:
        bonds += np.bitwise_count(masks & (masks >> d) & mask)
    return bonds


@functools.lru_cache(maxsize=16)
def _subset_counts(lattice: LatticeSpec, radius: int,
                   marks: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """[mark][N][k]: per site mask ("mark") of ``marks``, the N-subsets at
    bond level k that hold every site of the mark, as Python ints.  Mark 0
    gives c(N, k), the density of states, and a mark {0, r} p_k[r].

    Each mask m splits into its low B bits L and its high bits H, kept in
    place, 2^B = SUBSET_BLOCK.  A bond lies within H, within L, or crosses
    from L to H, so bonds(m) = bonds(H) + bonds(L) + sum over groups of
    popcount(L & X), with the cross pattern X = (H >> d) & mask & (2^B - 1)
    fixed by H.  Per pattern and mark, one histogram over the low parts
    holding the mark's low sites (a strided view of the keys as a cube of
    side 2, index 1 on those sites' axes), shifted by popcount(H) rows and
    bonds(H) levels for each high part of the pattern holding its high
    sites, counts every such mask once.
    """
    groups = _bond_groups(lattice, radius)
    # the full box holds every pair, so it sets the top level
    levels = sum(mask.bit_count() for _, mask in groups) + 1
    counts = np.zeros((len(marks), (lattice.n_sites + 1) * levels), dtype=np.int64)
    low_bits = min(lattice.n_sites, SUBSET_BLOCK.bit_length() - 1)
    # int32 holds both the masks (S <= 24) and the bond counts at half the memory
    lows = np.arange(1 << low_bits, dtype=np.int32)
    low_keys = np.bitwise_count(lows).astype(np.int32) * levels + _bonds(lows, groups)
    highs = np.arange(1 << (lattice.n_sites - low_bits), dtype=np.int32) << low_bits
    shifts = np.bitwise_count(highs).astype(np.int32) * levels + _bonds(highs, groups)
    # the high sites a low site bonds to: H & crossing fixes every pattern
    crossing = 0
    for d, mask in groups:
        crossing |= (mask & (1 << low_bits) - 1) << d
    by_pattern = {}
    for high, shift in zip(highs.tolist(), shifts.tolist()):
        by_pattern.setdefault(high & crossing, []).append((high, shift))
    for pattern, members in by_pattern.items():
        keys = low_keys.copy()
        for d, mask in groups:
            keys += np.bitwise_count(lows & (pattern >> d) & mask)
        cube = keys.reshape((2,) * low_bits)  # axis a is low bit B - 1 - a
        for row, mark in zip(counts, marks):
            low = tuple(mark >> b & 1 or slice(None) for b in range(low_bits - 1, -1, -1))
            hist = np.bincount(cube[low].ravel())
            for high, shift in members:
                if not (mark & ~high) >> low_bits:  # H holds the mark's high sites
                    row[shift:shift + len(hist)] += hist
    return tuple(tuple(map(tuple, row.reshape(-1, levels).tolist())) for row in counts)


def _bond_exponent(pot: PotentialSpec, beta: float) -> decimal.Decimal:
    """x = -beta * bond energy, exactly: one bond weighs e^x.  Every oracle
    table comes through here, so ``ValueError`` unless 0 <= beta < inf."""
    if not 0 <= beta < math.inf:
        raise ValueError(f"the oracles need 0 <= beta < inf, not {beta}")
    return _EXACT.multiply(decimal.Decimal(beta), decimal.Decimal(-pot.bond_energy))


def _level_weights(pot: PotentialSpec, beta: float, depth: int) -> tuple[decimal.Decimal, list]:
    """x = -beta * bond energy, exactly, and e^{-j x} for j < depth: the
    weight of bond level top - j relative to the top level, to 30 digits."""
    x = _bond_exponent(pot, beta)
    with decimal.localcontext(_DECIMAL):
        return x, [(-j * x).exp() for j in range(depth)]


def exact_canonical_table(lattice: LatticeSpec, pot: PotentialSpec,
                          beta: float) -> CanonicalTable:
    """Z(N) for every N by direct enumeration of occupancy subsets.

    Z(N) = sum over N-site subsets of exp(-beta * H); the 1/N! of the
    ordered sum cancels against the N! orderings of each subset, and
    coincident particles carry weight 0 (hard core).  Adding top * x exactly
    keeps a single-subset row, possibly halfway between floats, correct.
    """
    if lattice.n_sites > ENUMERATION_MAX_SITES:
        raise GuardError(f"enumeration guarded to |Lambda| <= {ENUMERATION_MAX_SITES}")
    counts = _subset_counts(lattice, pot.support_radius, (0,))[0]
    x, weights = _level_weights(pot, beta, len(counts[0]))
    log_z = []
    with decimal.localcontext(_DECIMAL):
        for row in counts:
            top = max(k for k, c in enumerate(row) if c)
            rest = sum(c * weights[top - k] for k, c in enumerate(row)).ln()
            log_z.append(float(_EXACT.fma(top, x, rest)))
    return CanonicalTable(lattice=lattice, beta=beta, pot=pot,
                          log_z=np.array(log_z), method="enumeration")


def _binary_power(t: decimal.Decimal) -> tuple[float, float]:
    """e^t = m 2^E for t >= 0: E = floor(t / ln 2) as an integral float
    (the largest float past the float range) and m in [1, 2), rounded from
    30 digits.  The working precision grows with the digits of t, so the
    reduction t - E ln 2 keeps 30."""
    ctx = decimal.Context(prec=30 + max(0, t.adjusted()), Emax=decimal.MAX_EMAX,
                          Emin=decimal.MIN_EMIN)
    ln2 = ctx.ln(2)
    e = ctx.divide_int(t, ln2)
    return float(ctx.exp(ctx.subtract(t, ctx.multiply(e, ln2)))), min(float(e), _FLOAT_MAX)


def _aligned(make, shape: tuple, dtype=np.float64) -> np.ndarray:
    """``make(..., dtype)`` (np.zeros or np.empty) of ``shape``, starting on
    a 64-byte boundary: a cache line, and a whole AVX-512 vector."""
    raw = make(math.prod(shape) + 64 // np.dtype(dtype).itemsize, dtype)
    skip = -raw.ctypes.data % 64 // raw.itemsize
    return raw[skip:skip + math.prod(shape)].reshape(shape)


def _two_blocks(flat: np.ndarray, first: int, second: int, shape: tuple) -> np.ndarray:
    """The [s, h, N] view of the two C-order (rows, width) blocks that start
    at items ``first`` and ``second`` of ``flat``."""
    step = flat.itemsize
    return np.ndarray((2,) + shape, flat.dtype, flat, first * step,
                      ((second - first) * step, shape[1] * step, step))


def _shifts(expo: np.ndarray, top: np.ndarray, scratch: np.ndarray,
            out: np.ndarray) -> np.ndarray:
    """expo - top as int32 ldexp shifts, flushed to -1100 below that: a term
    2^1100 below the one it joins does not reach its last bit.  An empty
    cell (-inf, or nan against another empty cell) flushes too."""
    np.subtract(expo, top, out=scratch)
    np.fmax(scratch, -1100.0, out=scratch)
    np.copyto(out, scratch, casting="unsafe")
    return out


def _site(state, new, expo, hi: int, frozen: bool, bond_e, scale, work):
    """One site of the columns N < hi of ``state`` into ``new``, as a
    callable with its views bound once per window.  In a frozen window
    (``_freeze_columns``) every column has one exponent and an empty term's
    factor is 1, so a site runs no exponent work.  Otherwise each term of a
    sum is scaled to its cell by an exact ldexp shift to the larger
    exponent, which the cell takes in ``expo``, and an occupied term's
    factor is the bond mantissa alone.  The multiplies, sums and Fast2Sum
    then run once over every column.

    Buffers.  The mantissas of ``state`` and ``new`` are [s, h, N] views of
    one slab, each with its own s = 0 block and s = 1, the occupied terms,
    shared.  A site writes the occupied terms from the state before the
    pair sums read them, so between sites that block is dead.  The next c
    is dead from the start of a site (the c adds of the site before were
    its last reads) until Fast2Sum writes it.  So the c fold puts its
    product, c times factor, there and adds it into the occupied terms
    before the pair sums run; then Fast2Sum puts the larger term of each
    sum there and turns it in place into s0 - larger and the error.  The
    smaller term goes over the state's first term of each sum, which the
    pair sums have read.  The state's c stays whole for the c adds."""
    (mant, comp), (next_mant, next_comp) = state, new
    band_e, scratch, shifts = work
    _, rows, size = mant.shape
    half = rows // 2
    # [s, q, parity, N] views split h = 2q + parity, the two terms of each
    # sum; h = 2q and 2q + 1 (oldest site empty, occupied) both lead to
    # [s, q] of the next state.  Column 0 of s = 1 stays empty
    pair = (2, half, 2)
    terms = mant.reshape(pair + (size,))
    # the occupied terms, cells one column down times their factors, with
    # the c of their sources folded in through the dead next c
    occupied, source = mant[1, :, 1:hi], mant[0, :, :hi - 1]
    s_occupied = scale[1, :, 1:hi]
    c_source, c_occupied, c_scale = comp[:, :hi - 1], occupied[:half], s_occupied[:half]
    c_term = next_comp[:, :hi - 1]
    # Fast2Sum of the empty-site sums, from the larger term (in the next c)
    # and the smaller (over the state's first term); then the c of their
    # terms: only h < half carries one, into q = h // 2
    t, new_m = terms[..., :hi], next_mant[0, :, :hi].reshape(pair[:2] + (hi,))
    t0, t1 = t[..., 0, :], t[..., 1, :]
    s0, a0, b0 = new_m[0], t[0, :, 0], t[0, :, 1]
    err0 = next_comp[:, :hi]
    even, odd = err0[:(half + 1) // 2], err0[:half // 2]
    c_even, c_odd = comp[0::2, :hi], comp[1::2, :hi]
    if not frozen:
        # the exponents of both terms of each sum, in ``band_e``, whose
        # column 0 of the occupied terms is never written and stays -inf
        e_old, e_source = expo[:, :hi], expo[:, :hi - 1]
        e_state, e_occupied = band_e[0, :, :hi], band_e[1, :, 1:hi]
        e_pair = band_e[..., :hi].reshape(pair + (hi,))
        e0, e1 = e_pair[..., 0, :], e_pair[..., 1, :]
        new_e = e_old.reshape(pair[:2] + (hi,))
        top = new_e[..., None, :]
        diff, sh_rows = scratch[..., :hi].reshape(e_pair.shape), shifts[..., :hi]
        sh = sh_rows.reshape(e_pair.shape)
        # the state's terms shift from column 0, the occupied terms from
        # column 1, where their rows start on a cache line: their column 0
        # is empty, and an ldexp keeps it 0
        m_state, sh_state, sh_occupied = mant[0, :, :hi], sh_rows[0], sh_rows[1, :, 1:]
        c_band, c_sh = comp[:, :hi], sh_state[:half]

    def step():
        np.multiply(source, s_occupied, out=occupied)
        np.multiply(c_source, c_scale, out=c_term)
        np.add(c_occupied, c_term, out=c_occupied)
        if not frozen:
            np.copyto(e_state, e_old)
            np.add(e_source, bond_e, out=e_occupied)
            np.maximum(e0, e1, out=new_e)
            _shifts(e_pair, top, diff, sh)
            np.ldexp(m_state, sh_state, out=m_state)
            np.ldexp(occupied, sh_occupied, out=occupied)
            np.ldexp(c_band, c_sh, out=c_band)
        np.add(t0, t1, out=new_m)
        np.maximum(a0, b0, out=err0)
        np.minimum(a0, b0, out=a0)
        np.subtract(s0, err0, out=err0)
        np.subtract(a0, err0, out=err0)
        np.add(even, c_even, out=even)
        np.add(odd, c_odd, out=odd)
    return step


def _freeze_columns(expo: np.ndarray, n0: int, stop: int, step, bond, state,
                    scale: np.ndarray, ints: np.ndarray) -> None:
    """One exponent E[N] per column N <= stop for the window: a live column
    (N <= n0) takes its largest cell's, a column born in the window
    E[N - 1] + step.  Each mantissa and c moves to its column by an exact
    ldexp, and scale[1, h, N] = b_m[h] 2^(E[N - 1] + b_e[h] - E[N]) takes
    cell [h, N - 1] into cell [half + h // 2, N]; an empty term's factor is
    1.  E goes in scale[0, 0], which the window does not read."""
    (mant, comp), half = state, len(state[1])
    top, e, sh = scale[0, 0, :stop + 1], expo[:, :n0 + 1], ints[:, :n0 + 1]
    e.max(axis=0, out=top[:n0 + 1])
    top[n0 + 1:] = top[n0] + step * np.arange(1, stop - n0 + 1)
    _shifts(e, top[:n0 + 1], scale[1, :, :n0 + 1], sh)
    np.ldexp(mant[0, :, :n0 + 1], sh, out=mant[0, :, :n0 + 1])
    np.ldexp(comp[:, :n0 + 1], sh[:half], out=comp[:, :n0 + 1])
    expo[:, :stop + 1] = top
    factors, shifts = scale[1, :, 1:stop + 1], ints[:, 1:stop + 1]
    np.add(top[:-1], bond[1], out=factors)
    np.subtract(factors, top[1:], out=factors)
    np.copyto(shifts, factors, casting="unsafe")
    np.ldexp(bond[0], shifts, out=factors)


def _chain_sums(side: int, radius: int, x: decimal.Decimal) -> tuple[np.ndarray, np.ndarray]:
    """Z(N) = total[N] 2^top[N], N = 0..side, of the zero-wall chain of
    ``side`` sites, range ``radius`` and bond weight b = e^x >= 1.

    Cell [h, N] holds Z(N) = m 2^E of the sites placed so far, restricted
    to the occupancy history h of the last R sites (bit R - 1 the newest).
    Placing a site sends h to s 2^(R-1) + h // 2; an occupied one (s = 1)
    raises N by one and multiplies by b^{popcount h}, split once per h into
    a mantissa and a binary exponent, and sums align their two terms by an
    exact ldexp shift to the larger exponent.  A cell whose newest site is
    empty is a running sum over the whole chain, whose terms can share
    their low bits (Z(2) adds ~L terms n + b), so plain rounding would
    drift by up to ~L eps, all one way: such a cell also carries the exact
    rounding error of each of its sums (Fast2Sum) in a second mantissa c,
    Z = (m + c) 2^E.  A row's cells are summed once, at the end, each
    shifted to the row's largest exponent ``top``.

    The chain goes in windows of W = WINDOW_SITES sites.  A window starts
    with n0 sites placed by bringing every mantissa to [1/2, 1), and then
    runs one of two ways.  Where the bound below holds, it freezes its
    columns (``_freeze_columns``): column N <= stop takes one exponent E[N],
    a live one its largest cell's, one born in the window E[N - 1] + B, with
    b^R < 2^B (B the exponent of b^R plus 1); mantissas and c move to their
    column by an exact ldexp.  An empty term then joins its cell with factor
    1, so a site runs only the occupied multiply, the c fold, the pair sum,
    Fast2Sum and the c adds.  Scaling by a power of two changes no rounding,
    so every Z(N) is the same float as when each sum aligns to its larger
    exponent.  After the window a cell still empty takes E = -inf again.

    Otherwise every column keeps that alignment at every site: the occupied
    terms take the bond mantissa alone as their factor, and each site
    shifts the mantissas and c in place by ldexp before the one pass of
    multiplies, sums and Fast2Sum.  The shifts go on the mantissas, not on
    factors of 1 or b_m: the not-yet-live cells carry the -1100 flush, and
    an ldexp whose result underflows costs ~13 ns an element against under
    1 ns; a zero mantissa does not underflow.  A mantissa at most
    quadruples per site over the largest of its terms' (b_m < 2), so it
    stays below 2^(2 W) in the window.

    Buffers (``_site`` says which is dead when).  One slab of three
    (2^R, w) blocks holds the mantissas: the two states take turns in
    blocks 0 and 1, and block 2 holds the occupied terms of whichever is
    the state, so each state is an [s, h, N] view of its block and block 2
    (``_two_blocks``) and every reshape stays a view.  Two c buffers take
    turns with them.  ``expo`` holds the cells' exponents,
    ``scale[1]`` the occupied terms' factors (and ``scale[0, 0]`` a frozen
    window's column exponents), and ``ints`` the int32 frexp exponents and
    shifts.  The aligned windows alone touch ``band_e`` and the difference
    and shift scratch, each of ``band_e``'s size, so a table whose windows
    all freeze never touches their pages.  The row sums at the end shift into
    ``scale[1]`` and ``ints`` and run their ldexp in place.  At R = 4,
    L = 4096 the buffers a frozen table touches come to about 3.4 MB.

    Layout.  A row is w = L + 2 columns rounded up to a multiple of 8
    doubles, 64 bytes, and every buffer starts on a 64-byte boundary
    (``_aligned``), so every row starts on a cache line.  Block 2 alone
    starts 7 doubles past one, so that its column 1, where the occupied
    multiply and the c fold write, is on one; so does ``band_e``'s block 1,
    whose column 1 takes the occupied terms' exponents.  Then every array a
    site writes starts on a cache line, the occupied terms' shifts included
    (they run from column 1; column 0 is empty).  numpy's own buffers of
    this size start 16 bytes past a boundary, and on AVX-512 a misaligned
    output halves a multiply's throughput: 32,768 elements take 5.1 us
    aligned and 12.3 us 8 bytes off (2-core AVX-512 Xeon).  The aligned
    rows add under 0.2% to each buffer, and a table keeps as many pages
    resident as unaligned ones (3.32 MB at R = 4, L = 4096).

    The bound for frozen columns.  Let n < 2^ell be the sites placed, ell
    the bit length of L, and g = 2 B + ell.  Moving one particle changes a
    configuration's weight by at most b^{2R} < 2^{2B} (it has at most 2R
    bonds), and at most n configurations move to the same one; deleting an
    empty site never lowers a weight, so every cell grows with n.  Hence,
    at every site of the window and in exact arithmetic:
    (a) the two terms of a sum are within 2^g: move the particle on the
        site leaving the history, or one into it;
    (b) the nonzero cells of a column are within 2^{R g}: at most R moves
        turn one history into another;
    (c) a column's largest cell is at least 2^(E[N] - 1) if it was live;
        if born, it holds the packed configuration, with at least
        R N - R(R+1)/2 bonds against at most R n0 in the one configuration
        of column n0, so it is at least 2^(E[N] - W - (R+1) B/2 - 2);
    (d) N particles make at most top(N) = R N - R(R+1)/2 bonds, and
        2^E[N] >= b^top(N) / 2^R (live: the column holds the packed
        configuration) or 2^E[N] >= b^top(N) (born).  k <= W sites into
        the window, deleting the first k empty sites outside the history
        maps a configuration onto one of the same cell at the window's
        start, no lighter, at most (L + W)^W onto each; a cell with fewer
        such sites has at most (L + W)^W configurations, none above
        b^top(N).  So every cell is below 2^(R + 1 + W ell'), ell' the
        bit length of L + W.
    So, in its column's scale, every nonzero cell and term is at least
    2^-Lb, Lb = W + 3 + (R + 1)(g + B/2), and below 2^(R + 2 + W ell').
    A factor lies in [2^-(g + 1), 2^(B + ell + 1)]: removing a particle
    shows E[N] - E[N - 1] <= g + 1, adding one E[N - 1] - E[N] <= ell + 1.
    A nonzero c is a sum of exact Fast2Sum errors, each a multiple of its
    smaller term's last bit, and of the c held at the window's start.  The
    window freezes its columns only if each such nonzero c is at least
    2^((R + 1) g - 968) while its mantissa is in [1/2, 1), which (b) puts
    at 2^-(969 - g) of the column.  So while Lb + g <= 969 and
    R + 2 + W ell' <= 1022, every mantissa, c, factor and product of the
    window, c times its factor included, is a normal float: the frozen
    window scales each value by a power of two and changes no rounding.
    And no term falls more than 2^(g + 1) below its cell, so while
    g <= 201 an aligned sum, whose mantissas stay in [1/4, 2^(2 W)), shifts
    it by at most g + 2 W + 3 < 1100 and flushes no term either.  The
    computed values lie within a factor 1 + L eps of the exact ones, which
    the slack of one bit in each bound covers.  At L = 4096 the bound
    holds to beta ~ 16 at R = 1, ~ 7.7 at R = 2, ~ 4 at R = 3 and ~ 2.4 at
    R = 4.
    """
    R = radius
    powers = [_binary_power(_EXACT.multiply(x, p)) for p in range(R + 1)]
    bond_m, bond_e = np.array([powers[p] for p in np.bitwise_count(np.arange(1 << R))]).T
    bond = bond_m[:, None], bond_e[:, None]
    # the bound that lets a window freeze its columns (see above)
    B, W = powers[R][1] + 1, WINDOW_SITES
    g = 2 * B + side.bit_length()
    columns = (g <= 201 and W + 3 + (R + 1) * (g + B / 2) + g <= 969
               and R + 2 + W * (side + W).bit_length() <= 1022)
    tiny = 2.0 ** ((R + 1) * g - 968) if columns else 0.0

    # mantissas [s, h, N]: s = 0 the state, s = 1 its terms times
    # b^{popcount h} one column up, which feed an occupied site.  Slab
    # blocks 0 and 1 take turns as state and next state, and block 2 is the
    # s = 1 of both; each has c [h < half, N] (0 where the newest site is
    # occupied); one array holds the exponents.  An empty cell is m = 0,
    # E = -inf, so the slab starts at zero: column 0 of the occupied terms
    # is never written, nor a column before its window.  Rows are whole
    # cache lines, and block 2 starts 7 doubles past one (see above)
    half, rows = 1 << (R - 1), 1 << R
    shape = rows, (side + 2 + 7) // 8 * 8
    block = math.prod(shape)
    slab, shared = _aligned(np.zeros, (3 * block + 7,)), 2 * block + 7
    state = _two_blocks(slab, 0, shared, shape), _aligned(np.zeros, (half, shape[1]))
    new = _two_blocks(slab, block, shared, shape), _aligned(np.zeros, (half, shape[1]))
    expo = _aligned(np.empty, shape)
    expo[...] = -math.inf
    state[0][0, 0, 0] = state[0][0, half, 1] = 1.0  # site 1 empty or occupied
    expo[0, 0] = expo[half, 1] = 0.0
    # the factors of the occupied terms; and the aligned windows'
    # exponents, differences and shifts, which a frozen window does not touch
    scale, ints = _aligned(np.empty, (2,) + shape), _aligned(np.empty, shape, np.int32)
    band_e = _two_blocks(_aligned(np.empty, (2 * block + 7,)), 0, block + 7, shape)
    work = band_e, _aligned(np.empty, (2,) + shape), _aligned(np.empty, (2,) + shape, np.int32)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        # a ufunc on strided rows copies them through numpy's buffer (8192
        # elements by default); a buffer shorter than the rows makes it run
        # on the rows in place: the Kac R = 4 4096-chain at beta = 0.14
        # takes 0.28 s, against 0.42 s at the default (256 and 512 are no
        # faster, 4096 is slower).  errstate restores it
        np.setbufsize(1024)
        for n0 in range(1, side, W):
            # n0 sites placed, so N <= n0 is live.  The window places sites
            # n0 + 1 .. stop: first every live mantissa goes to [1/2, 1),
            # then every column N <= stop freezes its exponent, or where the
            # bound fails every column aligns at every site
            stop, (mant, comp) = min(side, n0 + W), state
            live, bump = mant[0, :, :n0 + 1], ints[:, :n0 + 1]
            np.frexp(live, out=(live, bump))
            expo[:, :n0 + 1] += bump
            np.negative(bump, out=bump)
            c = comp[:, :n0 + 1]
            np.ldexp(c, bump[:half], out=c)
            # frozen columns also need every nonzero c at least tiny
            size = np.abs(c, out=scale[1, :half, :n0 + 1])
            frozen = columns and np.count_nonzero(size >= tiny) == np.count_nonzero(size)
            if frozen:
                _freeze_columns(expo, n0, stop, B, bond, state, scale, ints)
            else:
                # past a site's live columns the cells are empty.  The
                # occupied terms take the bond mantissa alone, and their
                # exponents go into the per-site alignment, which reads
                # those of column 0 unwritten: an empty term
                scale[1, :, 1:stop + 1] = bond[0]
                band_e[1, :, 0] = -math.inf
            steps = [_site(a, b, expo, stop + 1, frozen, bond[1], scale, work)
                     for a, b in ((state, new), (new, state))]
            for n in range(n0, stop):
                steps[(n - n0) % 2]()
            if (stop - n0) % 2:
                state, new = new, state
            if frozen:
                # a cell still empty takes E = -inf again
                np.copyto(expo[:, :stop + 1], -math.inf, where=state[0][0, :, :stop + 1] == 0)
        mant = state[0][0, :, :side + 1]
        mant[:half] += state[1][:, :side + 1]
        expo = expo[:, :side + 1]
        top = expo.max(axis=0)
        shifts = _shifts(expo, top, scale[1, :, :side + 1], ints[:, :side + 1])
        return np.ldexp(mant, shifts, out=mant).sum(axis=0), top


def transfer_matrix_table(side: int, pot: PotentialSpec, beta: float,
                          boundary: str = "zero") -> CanonicalTable:
    """d = 1 fugacity-polynomial transfer matrix; exact Z(N) for large L.

    A ring of L sites runs the zero-wall chain of L - 1 (``_chain_sums``):
    rotations keep each configuration's weight, so site 1 is empty in a
    share (L - N)/L of Z_ring(N), and with site 1 empty no range-1 bond
    touches it.  So Z_ring(N) = L/(L - N) Z_chain(L - 1, N) for N < L.  The
    full row is one configuration at the top bond level (L on a ring,
    RL - R(R+1)/2 on a chain), top * x rounded once, x = -beta * bond
    energy.  Rings need a range-1 potential and L >= 3.
    """
    side = _integer("side", side, 2)
    if side > TRANSFER_MAX_SIDE:
        raise GuardError(f"transfer matrix guarded to L <= {TRANSFER_MAX_SIDE}")
    if boundary not in ("zero", "periodic"):
        raise GuardError("transfer matrix supports zero or periodic walls")
    R = pot.support_radius
    if boundary == "periodic" and R != 1:
        raise GuardError("periodic transfer matrix supports range-1 potentials")
    if boundary == "periodic" and side < 3:
        raise GuardError("periodic transfer matrix needs L >= 3")
    if side <= R:
        raise GuardError("side must exceed the interaction range")
    x, ring = _bond_exponent(pot, beta), boundary == "periodic"
    total, top = _chain_sums(side - ring, R, x)
    if ring:
        total = total * side / (side - np.arange(side))
    top_level = side if ring else R * side - R * (R + 1) // 2
    with np.errstate(invalid="ignore", divide="ignore"):
        frac, bump = np.frexp(total[:side])
        e = top[:side] + bump
        log_z = e * _LN2_HI + (e * _LN2_LO + np.log(frac))
    # an exponent at the end of the float range: log Z >= 1.2e308 reads inf
    log_z[e >= _FLOAT_MAX] = math.inf
    log_z = np.append(log_z, float(_EXACT.fma(top_level, x, 0)))
    return CanonicalTable(lattice=LatticeSpec(dimension=1, side=side, boundary=boundary),
                          beta=beta, pot=pot, log_z=log_z, method="transfer-matrix")


def canonical_table(lattice: LatticeSpec, pot: PotentialSpec, beta: float) -> CanonicalTable:
    """The exact oracle table: the transfer matrix for d = 1 boxes past the
    enumeration guard, enumeration otherwise.  ``GuardError`` where a row of
    log Z(N) is +inf, past the float range; the two builders keep such rows."""
    table = (transfer_matrix_table(lattice.side, pot, beta, lattice.boundary)
             if lattice.dimension == 1 and lattice.n_sites > ENUMERATION_MAX_SITES
             else exact_canonical_table(lattice, pot, beta))
    if np.isposinf(table.log_z).any():
        raise GuardError(f"log Z(N) past the float range at beta = {beta:g}")
    return table


def _logsumexp(a: np.ndarray) -> float:
    """log sum e^a for a 1-d ``a`` with a finite entry, split at the maximum
    as ``scipy.special.logsumexp`` (1.17) does:
    log1p(sum_{a != max} e^{a - max} / m) + log m + max, m the number of
    entries equal to the max.  The sum runs over the whole array with the
    max entries set to -inf, so numpy's pairwise summation gives the same bits."""
    top = a.max()
    at_top = a == top
    m = np.count_nonzero(at_top)
    s = np.exp(np.where(at_top, -np.inf, a) - top).sum()
    return float(np.log1p(s / m) + np.log(m) + top)


def grand_canonical_eval(table: CanonicalTable, mu: float) -> GrandCanonicalEval:
    """The tilted log weights, log Xi and the particle-number distribution at
    chemical potential mu, the only place the weights are formed.  Raises
    ``GuardError`` where beta mu |Lambda| is not finite or log Xi is +inf."""
    if not math.isfinite(table.beta * mu * table.n_sites):
        raise GuardError(f"beta mu |Lambda| = {table.beta * mu * table.n_sites:g} "
                         "leaves the float range")
    log_weights = table.beta * mu * np.arange(len(table.log_z)) + table.log_z
    with np.errstate(invalid="ignore"):  # inf - inf at a +inf weight
        log_xi = _logsumexp(log_weights)
    if log_xi == math.inf:
        raise GuardError(f"log Xi is +inf at mu = {mu:g}: the probabilities are not a number")
    return GrandCanonicalEval(table=table, mu=mu, log_weights=log_weights, log_xi=log_xi,
                              probs=np.exp(log_weights - log_xi))


@dataclass(frozen=True, eq=False)
class CorrelationTable:
    """rho1, rho2 and the truncated pair function on a periodic box at fixed N."""

    lattice: LatticeSpec
    beta: float
    pot: PotentialSpec
    n_particles: int
    rho1: np.ndarray
    rho2: np.ndarray
    u2: np.ndarray

    def u2_at(self, q1, q2) -> float:
        i, j = self.lattice.site_index(tuple(q1)), self.lattice.site_index(tuple(q2))
        return float(self.u2[i, j])


def exact_correlations(lattice: LatticeSpec, pot: PotentialSpec, beta: float,
                       n_particles: int) -> CorrelationTable:
    """One- and two-point functions by enumerating N-subsets on the torus.

    Every site is alike, so rho1 = N/|Lambda| and rho2, u2 depend on j - i.
    p_k[r] counts the N-subsets at bond level k holding sites 0 and r, of
    weight w_k = e^{(k - top) x} <= 1: rho2(0, r) = sum_k p_k[r] w_k / Z and
    |Lambda|^2 Z u2(0, r) = sum_k (|Lambda|^2 p_k[r] - N^2 c(N, k)) w_k, from
    exact integers to 30 digits, so no u2 cancels to 0."""
    n = _integer("n_particles", n_particles, 2)
    if lattice.boundary != "periodic":
        raise ValueError("correlation oracle assumes periodic walls")
    S = lattice.n_sites
    if S > ENUMERATION_MAX_SITES:
        raise GuardError(f"enumeration guarded to |Lambda| <= {ENUMERATION_MAX_SITES}")
    if n > S:
        raise ValueError("need 2 <= N <= |Lambda|")
    dos, *pair_counts = _subset_counts(lattice, pot.support_radius,
                                       (0,) + tuple(1 | 1 << r for r in range(1, S)))
    counts = dos[n]
    top = max(k for k, c in enumerate(counts) if c)
    # p_k[r] at [r, k]; r = 0 stays 0, as rho2 is on the diagonal
    pairs = [(0,) * (top + 1)] + [p[n][:top + 1] for p in pair_counts]
    _, weights = _level_weights(pot, beta, top + 1)
    with decimal.localcontext(_DECIMAL):
        z = sum(c * weights[top - k] for k, c in enumerate(counts[:top + 1]))
        rho2 = [sum(p * weights[top - k] for k, p in enumerate(row)) / z for row in pairs]
        u2 = [sum((S * S * p - n * n * c) * weights[top - k]
                  for k, (p, c) in enumerate(zip(row, counts))) / (z * S * S)
              for row in pairs]
    u2[0] = -(n * n) / (S * S)
    sites = np.array(lattice.sites())  # [i, j] reads the rows at the index of x_j - x_i
    offset = (sites[None] - sites[:, None]) % lattice.side @ lattice.side ** np.arange(
        lattice.dimension)[::-1]
    return CorrelationTable(lattice, beta, pot, n, np.full(S, n / S),
                            *np.array([rho2, u2], dtype=float)[:, offset])
