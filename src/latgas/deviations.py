"""Deviation probabilities: N*, tilted potentials, rate function, variance
formulas and their comparison against exact oracle probabilities.

All pressures and the rate function use exact finite-volume grand-canonical
values; the free-energy derivatives entering the variance and error terms
come from a ``CanonicalFreeEnergy`` (extracted or thermodynamic source), as
those are the quantities the asymptotic formulas reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import GuardError
from .oracle import CanonicalTable, GrandCanonicalEval, grand_canonical_eval
from .series import MAX_DERIVATIVE_ORDER, CanonicalFreeEnergy

DENSITY_HARD_CAP = 0.4


def mean_occupation(gc: GrandCanonicalEval) -> tuple[float, int]:
    """(rho_bar, N_bar): exact mean density and its floor particle count."""
    rho = gc.mean_particles() / gc.table.n_sites
    return rho, int(math.floor(rho * gc.table.n_sites))


def find_n_star(gc: GrandCanonicalEval) -> int:
    """argmax_N of the tilted log weight beta*mu*N + log Z(N); ties resolved
    to the smaller N.

    A new best must beat the best so far by more than 1e-12 relative.  Only
    a strict prefix maximum can, so until the first such step that falls
    inside the tolerance the best is the running maximum; from there the
    rule runs on the remaining strict prefix maxima alone.
    """
    v = gc.log_weights
    top = np.maximum.accumulate(v)
    climbs = np.flatnonzero(v[1:] > top[:-1]) + 1  # the strict prefix maxima past N = 0
    below = top[climbs - 1]
    clear = v[climbs] > below + 1e-12 * np.maximum(1.0, np.abs(below))
    stall = len(clear) if clear.all() else int(np.argmin(clear))
    best_n = int(climbs[stall - 1]) if stall else 0
    best_v = float(v[best_n])
    for n in climbs[stall:].tolist():
        if v[n] > best_v + 1e-12 * max(1.0, abs(best_v)):
            best_n, best_v = n, float(v[n])
    return best_n


def tilted_potential(table: CanonicalTable, n_tilde: float) -> float:
    """mu with E_mu[N] = n_tilde, by safeguarded Newton steps from mu = 0.

    Each step solves for the logit of the mean, log(m / (|Lambda| - m)),
    which is nearly linear in beta mu (exactly so for independent sites),
    with dE/dmu = beta Var N; m - n_tilde enters through log1p, so the
    residual keeps the mean's own rounding.  The steps stop once one is
    within 2 ulps of mu.  A step that leaves the bracket of the means seen
    so far, is not finite, or is not half the step before the last (as in
    Numerical Recipes' rtsafe) instead doubles the distance to the open
    side, or bisects a closed bracket down to a width of 1e-12 (or adjacent
    floats).

    Boundary targets (n_tilde <= 0 or >= |Lambda|) have no finite solution
    and return signed infinity sentinels.  At beta = 0 the mean does not
    depend on mu, so an interior target raises ``ValueError``, as does a
    nan target; a mean that is not a number raises ``GuardError``.
    """
    if math.isnan(n_tilde):
        raise ValueError("tilted potential needs a target particle number, not nan")
    volume = table.n_sites
    if n_tilde <= 0.0:
        return -math.inf
    if n_tilde >= volume:
        return math.inf
    if table.beta == 0:
        raise ValueError("at beta = 0 no mu tilts the mean particle number")
    lo, hi, mu, before, last = -math.inf, math.inf, 0.0, math.inf, math.inf
    while True:
        gc = grand_canonical_eval(table, mu)
        mean = gc.mean_particles()
        d = mean - n_tilde
        if math.isnan(d):
            raise GuardError(f"the mean particle number at mu = {mu:g} is not a number")
        if d == 0:
            return mu
        if d < 0:
            lo = mu
        else:
            hi = mu
        slope = table.beta * gc.variance_particles() * volume
        low, high = d / n_tilde, -d / (volume - n_tilde)
        if low > -1 and high > -1 and slope > 0:
            logit = math.log1p(low) - math.log1p(high)
            step = -logit * mean * (volume - mean) / slope
        else:  # the logit or its slope is not finite
            step = -math.copysign(math.inf, d)
        new = mu + step
        if abs(step) <= 2 * math.ulp(mu):
            return new
        newton = lo < new < hi and abs(step) <= 0.5 * before
        if not newton and (math.isinf(lo) or math.isinf(hi)):
            new = mu - math.copysign(max(1.0, abs(mu)), d)
        elif not newton:
            new = 0.5 * (lo + hi)
            if hi - lo <= 1e-12 or new in (lo, hi):
                return new
        before, last, mu = last, abs(new - mu), new


def _rate(gc0: GrandCanonicalEval, gct: GrandCanonicalEval, n_tilde: float) -> float:
    table = gc0.table
    rate = (table.beta * (n_tilde / table.n_sites) * (gct.mu - gc0.mu)
            - (gct.log_xi - gc0.log_xi) / table.n_sites)
    if not math.isfinite(rate):  # mu_tilde - mu0 past the float range
        raise GuardError(f"the rate at mu0 = {gc0.mu:g}, mu_tilde = {gct.mu:g} "
                         "leaves the float range")
    return rate


def rate_function(gc0: GrandCanonicalEval, n_tilde: float) -> float:
    """I^GC(rho_tilde; rho_bar) at gc0's mu0 from exact finite-volume pressures.

    Collapses to beta*rho_tilde*(mu_tilde - mu0) - (log Xi(mu_tilde)
    - log Xi(mu0))/|Lambda|; the rho_bar terms cancel identically.  Raises
    ``GuardError`` where that leaves the float range.
    """
    mu_tilde = tilted_potential(gc0.table, n_tilde)
    if not math.isfinite(mu_tilde):
        raise ValueError("rate function needs an interior target density")
    return _rate(gc0, grand_canonical_eval(gc0.table, mu_tilde), n_tilde)


def m_of_alpha(alpha) -> int:
    """min{m in N : m(1-alpha) - 1 > 0} = floor(1/(1-alpha)) + 1, in rationals."""
    if not -math.inf < alpha < 1:  # nan included
        raise ValueError(f"m(alpha) is defined for finite alpha < 1, got {alpha!r}")
    return math.floor(1 / (1 - Fraction(alpha))) + 1


@dataclass(frozen=True)
class VarianceTerms:
    d_plain: float
    d_alpha: float
    d_alpha_plus: float
    m_alpha: int
    error_term: float


def variance_terms(fe: CanonicalFreeEnergy, rho_star: float, alpha, u_prime: float,
                   volume: int, beta: float, mu0: float) -> VarianceTerms:
    """D, D^alpha, D^{alpha,+}, m(alpha) and the error envelope E.

    Derivatives above the order-6 cap fail loudly; the error series' tail
    beyond the cap is bounded by a geometric envelope (ratio from the
    dominant ideal part) and added to E as certified slack; E is +inf where
    that envelope diverges.  ``ValueError`` for a volume below 1, u', beta
    or mu0 not finite, or alpha outside [1/2, 1), ``GuardError`` where a
    term leaves the float range.
    """
    if volume < 1:
        raise ValueError(f"volume must be >= 1, got {volume}")
    if not all(map(math.isfinite, (u_prime, beta, mu0))):
        raise ValueError(f"u' = {u_prime!r}, beta = {beta!r} and mu0 = {mu0!r} must be finite")
    if not 0.5 <= alpha < 1:  # nan included
        raise ValueError(f"the variance terms need alpha in [1/2, 1), got {alpha!r}")
    m_alpha = m_of_alpha(alpha)
    if m_alpha > MAX_DERIVATIVE_ORDER:
        raise GuardError(f"m(alpha) = {m_alpha} exceeds the derivative cap "
                         f"{MAX_DERIVATIVE_ORDER}")
    alpha = float(alpha)
    bf = {m: fe.derivative(rho_star, m) for m in range(1, MAX_DERIVATIVE_ORDER + 1)}
    try:
        d_plain = 1.0 / bf[2]

        acc = bf[2]
        acc_plus = bf[2]
        for m in range(3, m_alpha):
            term = 2.0 * u_prime ** (m - 2) * bf[m] / (
                math.factorial(m) * volume ** ((m - 2) * (1.0 - alpha)))
            acc += term
            acc_plus += abs(term)
        d_alpha = 1.0 / acc
        d_alpha_plus = 1.0 / acc_plus

        lead = u_prime ** m_alpha * bf[m_alpha] / math.factorial(m_alpha)
        tilt = (u_prime * (beta * mu0 - bf[1])
                / volume ** (1.0 - m_alpha * (1.0 - alpha) - alpha))
        tail = 0.0
        last = 0.0
        for m in range(m_alpha + 1, MAX_DERIVATIVE_ORDER + 1):
            last = (u_prime ** m * bf[m]
                    / (math.factorial(m) * volume ** ((m - m_alpha) * (1.0 - alpha))))
            tail += last
        # geometric envelope for the dropped m > cap terms (ideal part dominates)
        cap = MAX_DERIVATIVE_ORDER
        ratio = u_prime * (cap - 1) / ((cap + 1) * rho_star * volume ** (1.0 - alpha))
        slack = abs(last) * ratio / (1.0 - ratio) if 0.0 < ratio < 1.0 else (
            0.0 if last == 0.0 or u_prime == 0.0 else math.inf)
        error = (abs(lead + tilt + tail) + slack) / volume ** (m_alpha * (1.0 - alpha) - 1.0)
        if not all(map(math.isfinite, (d_plain, d_alpha, d_alpha_plus))) or math.isnan(error):
            raise OverflowError
    except (OverflowError, ZeroDivisionError):
        raise GuardError(f"the variance terms at rho* = {rho_star:g}, u' = {u_prime:g} "
                         "leave the float range") from None
    return VarianceTerms(d_plain=d_plain, d_alpha=d_alpha,
                         d_alpha_plus=d_alpha_plus, m_alpha=m_alpha,
                         error_term=error)


@dataclass(frozen=True)
class DeviationReport:
    volume: int
    mu0: float
    alpha: float
    u: float
    u_prime: float
    n_bar: int
    n_star: int
    n_tilde: int
    mu_tilde: float
    rate: float
    d_plain: float
    d_alpha: float
    d_alpha_plus: float
    m_alpha: int
    error_term: float
    p_exact: float
    p_formula: float

    @property
    def gap(self) -> float:
        return abs(self.p_exact - self.p_formula)

    @property
    def relative_gap(self) -> float:
        return self.gap / self.p_exact if self.p_exact > 0 else math.inf


def formula_probability(gc0: GrandCanonicalEval, alpha, u: float,
                        fe: CanonicalFreeEnergy) -> DeviationReport:
    """Exact P(A_N-tilde) at gc0's mu0 versus the regime's asymptotic formula.

    alpha = 1 gives the precise-large-deviation form; alpha in [1/2, 1)
    the moderate/local-CLT form.  N-tilde is made integral as
    N* + round(u'|Lambda|^alpha), after which u' is recomputed so the
    deviation identity is exact for the reported u'.  At alpha = 1 the
    report's m(alpha) is 0 and its E is nan: no error envelope applies.
    """
    alpha_f = float(alpha)
    if not 0.5 <= alpha_f <= 1.0:
        raise ValueError("alpha must lie in [1/2, 1]")
    table, mu0 = gc0.table, gc0.mu
    volume = table.n_sites
    _rho_bar, n_bar = mean_occupation(gc0)
    n_star = find_n_star(gc0)
    # center on N* with u as the seed deviation (u' ~ u), then make u'
    # exact for the integral target
    shift = u * volume ** alpha_f
    if not math.isfinite(shift):
        raise ValueError(f"the deviation u |Lambda|^alpha = {shift!r} must be finite")
    n_tilde = n_star + round(shift)
    if not 0 < n_tilde < volume:
        raise ValueError("deviation target outside the open particle range")
    u_prime = (n_tilde - n_star) / volume ** alpha_f
    if n_tilde / volume > DENSITY_HARD_CAP:
        raise GuardError("deviation target density beyond the validated cap")

    mu_tilde = tilted_potential(table, n_tilde)
    gct = grand_canonical_eval(table, mu_tilde)
    rate = _rate(gc0, gct, n_tilde)
    if alpha_f == 1.0:
        d_plain = 1.0 / fe.derivative(find_n_star(gct) / volume, 2)
        vt = VarianceTerms(d_plain=d_plain, d_alpha=d_plain, d_alpha_plus=d_plain,
                           m_alpha=0, error_term=math.nan)
        p_formula = math.exp(-volume * rate) / math.sqrt(2.0 * math.pi * d_plain * volume)
    else:
        vt = variance_terms(fe, n_star / volume, alpha, u_prime, volume, table.beta, mu0)
        exponent = u_prime ** 2 * volume ** (2.0 * alpha_f - 1.0) / (2.0 * vt.d_alpha)
        p_formula = math.exp(-exponent) / math.sqrt(
            2.0 * math.pi * vt.d_alpha_plus * volume)
    return DeviationReport(volume=volume, mu0=mu0, alpha=alpha_f, u=u,
                           u_prime=u_prime, n_bar=n_bar, n_star=n_star,
                           n_tilde=n_tilde, mu_tilde=mu_tilde, rate=rate,
                           d_plain=vt.d_plain, d_alpha=vt.d_alpha,
                           d_alpha_plus=vt.d_alpha_plus, m_alpha=vt.m_alpha,
                           error_term=vt.error_term, p_exact=float(gc0.probs[n_tilde]),
                           p_formula=p_formula)


def appendix_ratio(gc: GrandCanonicalEval, n: int, n_ref: int) -> float:
    """J^C_mu(N, N') = e^{beta mu (N - N')} Z(N)/Z(N'); +inf when Z(N') = 0.
    Raises ``GuardError`` where the ratio is not finite."""
    log_num, log_den = gc.log_weight_of(n), gc.log_weight_of(n_ref)
    if log_den == -math.inf:
        return math.inf
    if log_num == -math.inf:
        return 0.0
    try:
        return math.exp(log_num - log_den)
    except OverflowError:
        raise GuardError(f"J^C_mu(N, N') = e^{log_num - log_den:g} leaves "
                         "the float range") from None


def appendix_normalization(gc: GrandCanonicalEval, n_ref: int) -> float:
    """K(mu, N') = e^{beta mu N'} Z(N') / Xi(mu); 0 when Z(N') = 0."""
    log_num = gc.log_weight_of(n_ref)
    if log_num == -math.inf:
        return 0.0
    return math.exp(log_num - gc.log_xi)
