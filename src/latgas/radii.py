"""Closed-form convergence thresholds and the shared 1-D maximization.

All five bounds are explicit functions of (d, J or R, beta):

* canonical radius   R_C     = F(e^{-beta B}) / (e^{beta B} C-bar)
* Penrose variant    R-bar_C = F(e^{2 beta B}) / (e^{2 beta B} C)
* contour threshold  h_IS    = -(2d + 1 + 2 log(2d) + log 2)/(2 beta),
                     M_IS    = 2 h_IS - 4 d J
* fugacity threshold M_LG    = -(1/beta) log(e^{beta B + 1} C-bar)
* virial radius      R_V     = 1 / (2 e^{1 + beta(B + 4J)} C-bar)

with F(u) = max_{a>0} ln s / (e^a s), s = 1 + u(1 - e^{-a}), found as the
unique root of its stationarity condition (proof in ``maximize_big_f``).
At beta = 0 the two threshold chemical potentials are reported as explicit
-inf sentinels; a radius whose true value underflows is reported as 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GuardError, PotentialSpec, _integer, model_constants, tree_constants


def _exp(x: float) -> float:
    """e^x, +inf past the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _over_exp(num: float, x: float, c: float) -> float:
    """num / (e^x c), through e^{-x} (down to 0.0) once e^x c overflows."""
    den = _exp(x) * c
    return num / den if den < math.inf else num * math.exp(-x) / c


def maximize_big_f(u: float) -> tuple[float, float]:
    """(a*, F(u)) for g(a) = ln s / (e^a s), s = 1 + u(1 - e^{-a}).

    Write r = 1 - e^{-a}, t = u r = s - 1 and L = ln s.  Then d ln g/da =
    h - 1 with h = (u e^{-a}/s)(1/L - 1), and as u e^{-a} = u - t, h - 1 has
    the sign of q(r) = 1 - L - r - L/u.  L = log1p(u r) grows with r, so q
    strictly decreases: the maximum is unique, at the one root r* of q.  It
    lies in [1/(2 + u), (e - 1)/max(u, 2(e - 1))], whose ends are within a
    factor e: L <= t gives q(1/(2 + u)) >= 0, ln(1 + v) >= v/(1 + v) gives
    q(1/2) <= 1/2 - (1 + u)/(2 + u) <= 0, and L = 1 at r = (e - 1)/u.
    Bisection in r reaches adjacent floats in ~54 steps; in a, the
    cancellation in 1 - L ~ e/u would cost the large-u root its digits.
    For u below ~2e-16 the bracket is closed at r = 1/2 from the start,
    which gives the limit (ln 2, 0) at u = 0; at u = +inf it is (0, 1/e).
    """
    if not u >= 0.0:
        raise ValueError("u must be >= 0")
    if u == math.inf:
        return 0.0, 1.0 / math.e
    lo, hi = 1.0 / (2.0 + u), (math.e - 1.0) / max(u, 2.0 * (math.e - 1.0))
    while lo < (r := 0.5 * (lo + hi)) < hi:
        ln_s = math.log1p(u * r)
        if 1.0 - ln_s - r - ln_s / u > 0.0:
            lo = r
        else:
            hi = r
    x = u * r
    return -math.log1p(-r), math.log1p(x) * (1.0 - r) / (1.0 + x)


def radius_canonical(d: int, pot: PotentialSpec, beta: float) -> tuple[float, float]:
    """(R_C, a*) from the refined tree-graph route."""
    B, c_bar = tree_constants(d, pot, beta)
    a_star, f_val = maximize_big_f(math.exp(-beta * B))
    return _over_exp(f_val, beta * B, c_bar), a_star


def radius_canonical_penrose(d: int, pot: PotentialSpec, beta: float) -> tuple[float, float]:
    """(R-bar_C, a*) from the classical Penrose tree-graph route."""
    try:
        c = model_constants(d, pot, beta)
    except GuardError:  # C overflows, and e^{2 beta B} long before it: u = +inf
        return 0.0, 0.0
    a_star, f_val = maximize_big_f(_exp(2.0 * beta * c.stability_B))
    return _over_exp(f_val, 2.0 * beta * c.stability_B, c.regularity_C), a_star


def contour_threshold(d: int, pot: PotentialSpec, beta: float) -> tuple[float, float]:
    """(h_IS, M_IS); -inf sentinels at beta = 0.  Raises ``GuardError`` where
    B leaves the float range (``tree_constants``), before 4dJ in M_IS can."""
    tree_constants(d, pot, beta)
    if beta == 0.0:
        return -math.inf, -math.inf
    h_is = -(2 * d + 1 + 2 * math.log(2 * d) + math.log(2.0)) / (2.0 * beta)
    return h_is, 2.0 * h_is - 4.0 * d * pot.coupling


def lattice_gas_threshold(d: int, pot: PotentialSpec, beta: float) -> float:
    """M_LG; -inf sentinel at beta = 0.  Where beta B leaves the float range,
    M_LG = -B - (1 + log C-bar)/beta, which is finite."""
    _integer("dimension", d, 1)
    if beta == 0.0:
        return -math.inf
    B, c_bar = tree_constants(d, pot, beta)
    if beta * B == math.inf:
        return -B - (1.0 + math.log(c_bar)) / beta
    return -(beta * B + 1.0 + math.log(c_bar)) / beta


def radius_virial(d: int, pot: PotentialSpec, beta: float) -> float:
    """R_V; the exponent beta(B + B*) equals 4 beta J(2d+1) for range 1.
    Where B + 4J leaves the float range, beta B + 4 beta J is the exponent."""
    B, c_bar = tree_constants(d, pot, beta)
    exponent = beta * (B + 4.0 * pot.coupling)
    if B + 4.0 * pot.coupling == math.inf:
        exponent = beta * B + 4.0 * beta * pot.coupling
    return _over_exp(1.0, 1.0 + exponent, 2.0 * c_bar)


@dataclass(frozen=True)
class RadiusReport:
    dimension: int
    pot: PotentialSpec
    beta: float
    r_c: float
    a_star_rc: float
    r_c_bar: float
    a_star_rcbar: float
    h_is: float
    m_is: float
    m_lg: float
    r_v: float


def radius_report(d: int, pot: PotentialSpec, beta: float) -> RadiusReport:
    r_c, a_rc = radius_canonical(d, pot, beta)
    r_cb, a_rcb = radius_canonical_penrose(d, pot, beta)
    h_is, m_is = contour_threshold(d, pot, beta)
    return RadiusReport(dimension=d, pot=pot, beta=beta,
                        r_c=r_c, a_star_rc=a_rc,
                        r_c_bar=r_cb, a_star_rcbar=a_rcb,
                        h_is=h_is, m_is=m_is,
                        m_lg=lattice_gas_threshold(d, pot, beta),
                        r_v=radius_virial(d, pot, beta))


def sweep_radii(d: int, pot: PotentialSpec, betas) -> list[RadiusReport]:
    return [radius_report(d, pot, float(b)) for b in betas]


def sign_change_count(values) -> int:
    """Sign flips along a sequence, ignoring zeros and non-finite entries."""
    arr = np.asarray([v for v in values if math.isfinite(v)], dtype=float)
    if len(arr) == 0:
        return 0
    scale = np.max(np.abs(arr))
    signs = [int(np.sign(v)) for v in arr if abs(v) > 1e-13 * max(scale, 1e-300)]
    flips = 0
    for a, b in zip(signs, signs[1:]):
        if a != b:
            flips += 1
    return flips
