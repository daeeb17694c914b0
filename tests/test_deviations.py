import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgas import deviations
from latgas.deviations import (find_n_star, formula_probability, m_of_alpha, rate_function,
                               tilted_potential, variance_terms)
from latgas.model import GuardError, LatticeSpec, PotentialSpec
from latgas.oracle import (CanonicalTable, canonical_table, exact_canonical_table,
                           grand_canonical_eval, transfer_matrix_table)
from latgas.radii import lattice_gas_threshold
from latgas.series import CanonicalFreeEnergy, extract_b_lambda
from references import tilted_potential_bisection, tilted_root

POT = PotentialSpec("standard", 1.0)
BETA = 0.3


def two_site_table():
    return exact_canonical_table(LatticeSpec(1, 2, "zero"), POT, BETA)


def ladder_table(side, beta=0.0258):
    table = transfer_matrix_table(side, POT, beta, "zero")
    fe = extract_b_lambda(table, 4)
    return table, fe


def _find_n_star_loop(table, mu0):
    """The reference: one Python step per N, the tie rule applied at each."""
    best_n = 0
    best_v = table.log_z_of(0)
    for n in range(1, len(table.log_z)):
        v = table.beta * mu0 * n + table.log_z_of(n)
        if v > best_v + 1e-12 * max(1.0, abs(best_v)):
            best_n, best_v = n, v
    return best_n


def _n_star(table, mu0):
    n_star = find_n_star(grand_canonical_eval(table, mu0))
    assert n_star == _find_n_star_loop(table, mu0)
    return n_star


def test_mean_particles_hand_value():
    t = two_site_table()
    mu0 = -1.0
    z = math.exp(BETA * mu0)
    k = math.exp(4 * BETA)
    hand = (2 * z + 2 * z * z * k) / (2 * (1 + 2 * z + z * z * k))
    mean = grand_canonical_eval(t, mu0).mean_particles()
    assert mean / 2 == pytest.approx(hand, abs=1e-14)
    assert math.floor(mean) == 1  # the report's N_bar: the mean is 1.19


def test_mean_particles_empty_limit():
    t = two_site_table()
    mean = grand_canonical_eval(t, -200.0).mean_particles()
    assert mean / 2 == pytest.approx(0.0, abs=1e-12)
    assert math.floor(mean) == 0


def test_n_star_three_way():
    t = two_site_table()
    for mu0 in (-6.0, -2.0, -1.0, 0.0, 2.0):
        cands = [0.0, BETA * mu0 + math.log(2), 2 * BETA * mu0 + 4 * BETA]
        assert _n_star(t, mu0) == int(np.argmax(cands))
    assert _n_star(t, -200.0) == 0
    # the tables the rest of this file builds, over a range of mu0
    tables = [exact_canonical_table(LatticeSpec(1, 8, "zero"), POT, BETA)]
    tables += [ladder_table(side)[0] for side in (64, 128, 256, 512)]
    tables += [transfer_matrix_table(side, POT, 0.0258, "zero") for side in (16, 32)]
    threshold = lattice_gas_threshold(1, POT, 0.0258)
    for table in tables:
        for mu0 in (-200.0, -6.0, -2.0, threshold - 1.0, threshold, 0.0, 2.0, 200.0):
            _n_star(table, mu0)


# a step from the anchor of tol(anchor) = 1e-12 * max(1, |anchor|) times one
# of these: ties, steps just inside and just outside the tie tolerance, drops
_STEP_FACTORS = (0.0, 0.5, 0.999, 1.0, 1.001, 1.5, 3.0, 1e6, -0.5, -1e6)


@settings(max_examples=300, deadline=None)
@given(start=st.sampled_from([0.0, 1.0, -1.0, 1e3]) | st.floats(-1e4, 1e4),
       steps=st.lists(st.tuples(st.sampled_from(["last", "max", "max", "-inf"]),
                                st.sampled_from(_STEP_FACTORS)), max_size=40),
       mu0=st.sampled_from([0.0, -0.0]) | st.floats(-5.0, 5.0),
       beta=st.floats(0.01, 2.0))
def test_find_n_star_equals_the_loop_on_planted_steps(start, steps, mu0, beta):
    # mu0 = 0 keeps the planted steps exact; other mu0 tilt them
    log_z = [start]
    running_max = start
    for anchor, factor in steps:
        if anchor == "-inf":
            log_z.append(-math.inf)
            continue
        base = log_z[-1] if anchor == "last" and math.isfinite(log_z[-1]) else running_max
        log_z.append(base + factor * 1e-12 * max(1.0, abs(base)))
        running_max = max(running_max, log_z[-1])
    table = CanonicalTable(LatticeSpec(1, max(2, len(log_z) - 1), "zero"), beta, POT,
                           np.array(log_z), "planted")
    _n_star(table, mu0)


def test_tilted_potential_closed_form():
    # L = 2, target N = 1: z^2 e^{4 beta J} = 1, so mu = -2J
    t = two_site_table()
    assert tilted_potential(t, 1.0) == pytest.approx(-2.0, abs=1e-9)


def test_tilted_potential_recovers_mu0():
    t = two_site_table()
    mu0 = -0.7
    mean = grand_canonical_eval(t, mu0).mean_particles()
    assert tilted_potential(t, mean) == pytest.approx(mu0, abs=1e-9)


def test_tilted_potential_monotone_and_sentinels():
    t = exact_canonical_table(LatticeSpec(1, 8, "zero"), POT, BETA)
    targets = [1.0, 2.5, 4.0, 6.0]
    mus = [tilted_potential(t, x) for x in targets]
    assert all(b > a for a, b in zip(mus, mus[1:]))
    assert tilted_potential(t, 0.0) == -math.inf
    assert tilted_potential(t, 8.0) == math.inf


def test_tilted_potential_stops_where_adjacent_floats_exceed_the_bracket():
    # at beta = 1e-5 the tilt is near -8e4, where adjacent floats lie 1.5e-11
    # apart: a 1e-12 bracket never closed, and the bisection ran forever
    t = exact_canonical_table(LatticeSpec(1, 8, "periodic"), POT, 1e-5)
    mu = tilted_potential(t, 2.5)
    assert mu < -2.0 ** 13
    assert grand_canonical_eval(t, mu).mean_particles() == pytest.approx(2.5, rel=1e-9)


@pytest.fixture
def gc_calls(monkeypatch):
    """The mu of each grand_canonical_eval call the deviation layer makes."""
    calls = []

    def counted(table, mu):
        calls.append(mu)
        return grand_canonical_eval(table, mu)

    monkeypatch.setattr(deviations, "grand_canonical_eval", counted)
    return calls


def _deviate_targets(table, alphas_us):
    """N-tilde of ``formula_probability`` at mu0 = M_LG - 1, the deviate
    default, for each (alpha, u)."""
    mu0 = lattice_gas_threshold(1, POT, table.beta) - 1.0
    n_star = find_n_star(grand_canonical_eval(table, mu0))
    return sorted({n_star + round(u * table.n_sites ** alpha) for alpha, u in alphas_us})


# the ladder of criteria 8 (alpha = 1/2, u = 0, 1/2, 1) and 9 (alpha = 1,
# u = 0.05), and the 4096-ring of the benchmark's deviate jobs (beta from
# 0.02 to 0.15, alpha = 1/2 and 1, u = 0 and 0.05)
LADDER_TILTS = [(0.5, 0.0), (0.5, 0.5), (0.5, 1.0), (1.0, 0.05)]
RING_TILTS = [(0.5, 0.0), (0.5, 0.05), (1.0, 0.05)]


@pytest.mark.parametrize("side, beta, boundary, tilts",
                         [(64, 0.0258, "zero", LADDER_TILTS),
                          (128, 0.0258, "zero", LADDER_TILTS),
                          (256, 0.0258, "zero", LADDER_TILTS),
                          (4096, 0.02, "periodic", RING_TILTS),
                          (4096, 0.15, "periodic", RING_TILTS)])
def test_newton_tilt_lands_within_ulps_of_the_root(gc_calls, side, beta, boundary, tilts):
    # safeguarded Newton steps: at most 10 grand-canonical evaluations per
    # tilt (the bisection took about 53), and mu-tilde within 8 ulps of the
    # 60-digit root on the same float table.  The float mean itself strays
    # by a few ulps of N-tilde near the root, which moves its crossing by up
    # to ~5 ulps of mu here; the bisection's 1e-12 bracket left mu-tilde up
    # to ~150 ulps away
    table = transfer_matrix_table(side, POT, beta, boundary)
    for target in _deviate_targets(table, tilts):
        gc_calls.clear()
        mu = tilted_potential(table, target)
        assert len(gc_calls) <= 10, (target, len(gc_calls))
        root = tilted_root(table, target, mu)
        ulps = float((mp.mpf(mu) - root) / math.ulp(mu))
        assert abs(ulps) <= 8, (target, ulps)


@pytest.mark.parametrize("side, beta, boundary", [(256, 0.0258, "zero"), (4096, 0.15, "periodic")])
def test_newton_tilt_reaches_tail_targets_in_few_evaluations(gc_calls, side, beta, boundary):
    # the step solves for the mean's logit, so a target near an empty or a
    # full box, where E_mu[N] flattens, takes as few steps as one in the
    # middle (a plain Newton step on the mean took 9 to 17 here)
    table = transfer_matrix_table(side, POT, beta, boundary)
    for target in (1, 3, side // 100, side - side // 100, side - 3):
        gc_calls.clear()
        tilted_potential(table, target)
        assert len(gc_calls) <= 8, (target, len(gc_calls))


@settings(max_examples=40, deadline=None)
@given(box=st.sampled_from([(LatticeSpec(1, 12, "periodic"), POT),
                            (LatticeSpec(1, 9, "zero"), PotentialSpec("kac", 1.0, 2)),
                            (LatticeSpec(2, 4, "periodic"), PotentialSpec("standard", 0.7)),
                            (LatticeSpec(1, 100, "zero"), PotentialSpec("kac", 1.0, 3))]),
       beta=st.floats(-2.0, 1.0).map(lambda u: 10.0 ** u), share=st.floats(0.05, 0.95))
def test_newton_tilt_agrees_with_the_bisection(box, beta, share):
    # both land where the mean crosses the target; the bisection to within
    # its bracket of 1e-12
    table = canonical_table(*box, beta)
    target = share * table.n_sites
    newton, bisection = tilted_potential(table, target), tilted_potential_bisection(table, target)
    assert abs(newton - bisection) <= 1e-12 + 1e-13 * abs(bisection)


def test_tilted_potential_raises_guard_error_where_the_mean_is_not_a_number():
    # past the float range log Z(N) reads inf for most N, and the mean at
    # every mu is nan; the bisection returned mu = -0.99999999999954
    table = transfer_matrix_table(100, PotentialSpec("kac", 1.0, 3), 1e306)
    with np.errstate(invalid="ignore"), pytest.raises(GuardError, match="not a number"):
        tilted_potential(table, 50.0)


def test_tilted_measure_consistency():
    table, _fe = ladder_table(64)
    mu_t = tilted_potential(table, 20.0)
    back = grand_canonical_eval(table, mu_t).mean_particles()
    assert back == pytest.approx(20.0, abs=1e-9)


def test_rate_function_zero_at_mean_and_nonnegative():
    table, _fe = ladder_table(64)
    mu0 = lattice_gas_threshold(1, POT, 0.0258) - 1.0
    gc0 = grand_canonical_eval(table, mu0)
    assert rate_function(gc0, gc0.mean_particles()) == pytest.approx(0.0, abs=1e-12)
    for n_t in (5.0, 9.0, 13.5, 20.0, 30.0):
        assert rate_function(gc0, n_t) >= -1e-13


def test_rate_function_curvature_matches_variance():
    # I''(rho_bar) = 1/sigma^2 with the exact grand-canonical variance
    table, _fe = ladder_table(64)
    mu0 = lattice_gas_threshold(1, POT, 0.0258) - 1.0
    gc = grand_canonical_eval(table, mu0)
    rho_bar = gc.mean_particles() / 64
    sigma2 = gc.variance_particles() / 64
    h = 1e-3
    second = (rate_function(gc, (rho_bar + h) * 64)
              - 2 * rate_function(gc, rho_bar * 64)
              + rate_function(gc, (rho_bar - h) * 64)) / h ** 2
    assert second * sigma2 == pytest.approx(1.0, abs=1e-3)


def test_m_of_alpha_values():
    assert m_of_alpha(0.5) == 3
    assert m_of_alpha(0.75) == 5
    assert m_of_alpha(Fraction(2, 3)) == 4
    with pytest.raises(ValueError):
        m_of_alpha(1.0)
    # the closed form equals the search from m = 1 on rationals below 1
    for alpha in (Fraction(p, q) for q in range(1, 12) for p in range(-2 * q, q)):
        m = 1
        while m * (1 - alpha) - 1 <= 0:
            m += 1
        assert m_of_alpha(alpha) == m, alpha


def test_deviation_helpers_raise_typed_errors_at_their_edges():
    # each raised a bare OverflowError or ZeroDivisionError, or returned E = nan
    fe = CanonicalFreeEnergy(coeffs=np.zeros(1), volume=None)
    with pytest.raises(GuardError, match="float range"):
        variance_terms(fe, 1e-300, 0.5, 0.1, 64, 0.0258, -3.0)
    with pytest.raises(GuardError, match="float range"):
        variance_terms(fe, 0.1, 0.5, 1e200, 64, 0.0258, -3.0)
    with pytest.raises(ValueError, match="volume"):
        variance_terms(fe, 0.1, 0.5, 0.1, 0, 0.0258, -3.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            variance_terms(fe, 0.1, 0.5, bad, 64, 0.0258, -3.0)
    for alpha in (-math.inf, math.inf, math.nan):
        with pytest.raises(ValueError):
            m_of_alpha(alpha)
    # alpha = -1 and 1/4 returned numbers for formulas stated on [1/2, 1)
    for alpha in (-1.0, 0.25, 1.0):
        with pytest.raises(ValueError, match="alpha"):
            variance_terms(fe, 0.1, alpha, 0.1, 64, 0.0258, -3.0)
    # u = nan met a ValueError only inside round(), and an infinite u |Lambda|^alpha
    # an OverflowError there
    table, fe = ladder_table(64)
    for u in (math.nan, math.inf, 1e308):
        with pytest.raises(ValueError, match="deviation u"):
            formula_probability(grand_canonical_eval(table, -3.0), 0.5, u, fe)


def test_variance_terms_ideal_gas():
    # with interaction coefficients zeroed, beta F'' = 1/rho so D = rho
    fe = CanonicalFreeEnergy(coeffs=np.zeros(1), volume=None)
    vt = variance_terms(fe, 0.1, 0.5, 0.5, 256, 1.0, math.log(0.1))
    assert vt.d_plain == pytest.approx(0.1)
    assert vt.d_alpha == pytest.approx(vt.d_plain)  # empty correction sum
    assert vt.m_alpha == 3
    assert vt.error_term >= 0


def test_variance_terms_alpha_34_uses_corrections():
    table, fe = ladder_table(128)
    n_star = _n_star(table, lattice_gas_threshold(1, POT, 0.0258) - 1.0)
    vt = variance_terms(fe, n_star / 128, 0.75, 0.5, 128, 0.0258, -50.0)
    assert vt.m_alpha == 5
    assert vt.d_alpha != vt.d_plain
    assert vt.d_alpha_plus <= vt.d_plain + 1e-12  # extra positive curvature


def test_variance_terms_derivative_cap():
    fe = CanonicalFreeEnergy(coeffs=np.zeros(1), volume=None)
    with pytest.raises(GuardError):
        variance_terms(fe, 0.1, 0.95, 0.5, 64, 1.0, -1.0)  # m(alpha) = 21 > cap


def test_formula_probability_zero_deviation():
    table, fe = ladder_table(64)
    mu0 = lattice_gas_threshold(1, POT, 0.0258) - 1.0
    rep = formula_probability(grand_canonical_eval(table, mu0), 0.5, 0.0, fe)
    assert rep.n_tilde == rep.n_star
    assert rep.p_formula == pytest.approx(
        1.0 / math.sqrt(2 * math.pi * rep.d_plain * 64))
    assert rep.relative_gap < 0.05


def test_formula_probability_within_envelope():
    # realized gap stays within 3x the theorem's own first-order envelope
    # (checked for u > 0; the displayed error vanishes identically at u' = 0)
    table, fe = ladder_table(128)
    mu0 = lattice_gas_threshold(1, POT, 0.0258) - 1.0
    for u in (0.5, 1.0):
        rep = formula_probability(grand_canonical_eval(table, mu0), 0.5, u, fe)
        envelope = (2 * rep.error_term
                    * math.exp(-rep.u_prime ** 2 / (2 * rep.d_alpha))
                    / math.sqrt(2 * math.pi * rep.d_alpha_plus * 128))
        assert rep.gap <= 3 * envelope


def test_formula_probability_ld_branch():
    table, fe = ladder_table(128)
    mu0 = lattice_gas_threshold(1, POT, 0.0258) - 1.0
    rep = formula_probability(grand_canonical_eval(table, mu0), 1.0, 0.05, fe)
    assert rep.alpha == 1.0
    assert rep.rate > 0
    assert rep.relative_gap < 0.05
    # log-domain agreement of the LD normalization
    q = abs(math.log(rep.p_exact) + 128 * rep.rate
            + 0.5 * math.log(2 * math.pi * rep.d_plain * 128))
    assert q < 0.05


@settings(max_examples=40, deadline=None)
@given(alpha=st.sampled_from([0.5, 0.75, 1.0]), u=st.sampled_from([0.0, 0.05, 0.3]),
       side=st.integers(20, 64), beta=st.floats(0.02, 0.15))
def test_report_fields_equal_the_public_functions_bit_for_bit(alpha, u, side, beta):
    # the report tilts once and shares mu0's grand-canonical evaluation; its
    # fields must still be the numbers the public functions give
    mu0 = lattice_gas_threshold(1, POT, beta) - 1.0
    try:
        table, fe = ladder_table(side, beta)
        rep = formula_probability(grand_canonical_eval(table, mu0), alpha, u, fe)
    except ValueError:  # GuardError included: a target past the density cap
        return
    gc0 = grand_canonical_eval(table, mu0)
    assert rep.mu_tilde == tilted_potential(table, rep.n_tilde)
    assert rep.rate == rate_function(gc0, rep.n_tilde)
    assert rep.p_exact == float(gc0.probs[rep.n_tilde])
    assert rep.n_bar == math.floor(gc0.mean_particles())


def test_formula_probability_guards():
    table, fe = ladder_table(64)
    with pytest.raises(ValueError):
        formula_probability(grand_canonical_eval(table, -50.0), 0.3, 0.0, fe)  # alpha too low
    with pytest.raises(ValueError):
        formula_probability(grand_canonical_eval(table, 20.0), 1.0, 1.0, fe)  # target beyond box
    # the free energy of the 128-chain gave p_formula = 0.12178 against 0.12172
    mu0 = lattice_gas_threshold(1, POT, 0.0258) - 1.0
    with pytest.raises(ValueError, match="volume 128"):
        formula_probability(grand_canonical_eval(table, mu0), 0.5, 0.0, ladder_table(128)[1])


def test_mean_vs_argmax_stay_close():
    mu0 = lattice_gas_threshold(1, POT, 0.0258) - 1.0
    for side in (16, 32, 64, 128, 256):
        table = transfer_matrix_table(side, POT, 0.0258, "zero")
        n_bar = math.floor(grand_canonical_eval(table, mu0).mean_particles())
        assert abs(n_bar - _n_star(table, mu0)) <= 3


@pytest.mark.parametrize("beta, call", [
    (0.5, lambda t: grand_canonical_eval(t, 1e308)),
    (1e300, lambda t: grand_canonical_eval(t, -1e300).mean_particles()),
    (1e300, lambda t: find_n_star(grand_canonical_eval(t, 1e10))),
    (1e-300, lambda t: rate_function(grand_canonical_eval(t, 1.7976931108833632e308), 1.0))],
    ids=["grand_canonical_eval", "mean_particles", "find_n_star", "rate_function"])
def test_grand_canonical_layer_raises_guard_error_past_the_float_range(beta, call):
    # beta mu |Lambda| or mu_tilde - mu0 overflows: unguarded, these give
    # nan, -inf, an untyped ValueError or OverflowError or, from
    # find_n_star, N = 1 for a maximum at N = 12
    t = exact_canonical_table(LatticeSpec(1, 12, "periodic"), POT, beta)
    with pytest.raises(GuardError):
        call(t)
    assert 0 <= grand_canonical_eval(t, 1.0).mean_particles() <= 12


def test_tilted_potential_at_beta_zero_raises_for_an_interior_target():
    # the beta = 0 mean is |Lambda|/2 at every mu: no mu reaches 5.5
    t = exact_canonical_table(LatticeSpec(1, 12, "periodic"), POT, 0.0)
    with pytest.raises(ValueError, match="beta = 0"):
        tilted_potential(t, 5.5)
    assert tilted_potential(t, 0.0) == -math.inf
    assert tilted_potential(t, 12.0) == math.inf


def test_a_nan_target_raises_value_error():
    # a nan target bisected to mu = -0.9999999999995453 on this ring, so the
    # rate function returned nan; the boundary sentinels stay
    t = exact_canonical_table(LatticeSpec(1, 12, "periodic"), POT, 0.3)
    with pytest.raises(ValueError, match="nan"):
        tilted_potential(t, math.nan)
    with pytest.raises(ValueError, match="nan"):
        rate_function(grand_canonical_eval(t, -10.0), math.nan)
    assert tilted_potential(t, -math.inf) == -math.inf
    assert tilted_potential(t, math.inf) == math.inf


def test_mean_particles_is_normalised_on_a_dense_chain():
    # exp(terms - log Xi) sums to 1 + 2.2e-13 here: the undivided mean read
    # rho = 1.000000000000115 and N_bar = 100; against the same table's
    # moments in 50 digits the divided mean is 1 ulp off
    table = canonical_table(LatticeSpec(1, 100, "zero"), PotentialSpec("kac", 1.0, 3), 2.0)
    mean = grand_canonical_eval(table, 1.0).mean_particles()
    rho, n_bar = mean / 100, math.floor(mean)
    with mp.workdps(50):
        weights = [mp.exp(2 * n + mp.mpf(float(log_z))) for n, log_z in enumerate(table.log_z)]
        exact = float(mp.fsum(n * w for n, w in enumerate(weights)) / (100 * mp.fsum(weights)))
    assert abs(rho - exact) <= math.ulp(exact) and rho <= 1 and n_bar == 99


# the deviation layer's tables: enumeration up to 24 sites, in one and two
# dimensions, and the transfer matrix past it
DEVIATION_BOXES = [(LatticeSpec(1, 12, "periodic"), POT),
                   (LatticeSpec(1, 9, "zero"), PotentialSpec("kac", 1.0, 2)),
                   (LatticeSpec(2, 4, "periodic"), PotentialSpec("standard", 0.7)),
                   (LatticeSpec(1, 24, "periodic"), POT),
                   (LatticeSpec(1, 100, "zero"), PotentialSpec("kac", 1.0, 3))]


@settings(max_examples=200, deadline=None)
@given(box=st.sampled_from(DEVIATION_BOXES),
       beta=st.one_of(st.just(0.0), st.floats(0.0, 1e300),
                      st.floats(-300.0, 300.0).map(lambda u: 10.0 ** u),
                      st.floats(0.01, 2.0)),  # where the formulas apply
       mu=st.floats() | st.floats(-20.0, 20.0), data=st.data())
def test_deviation_layer_over_the_guarded_space(box, beta, mu, data):
    # each entry point returns a finite value or a documented sentinel, or
    # raises GuardError or ValueError
    table = canonical_table(*box, beta)
    volume = table.n_sites
    target = data.draw(st.floats() | st.floats(-1.0, volume + 1.0), label="target")

    def outcome(call):
        try:
            return call()
        except ValueError:  # GuardError included
            return None

    n_star = outcome(lambda: find_n_star(grand_canonical_eval(table, mu)))
    assert n_star is None or 0 <= n_star <= volume
    mean = outcome(lambda: grand_canonical_eval(table, mu).mean_particles())
    assert mean is None or 0 <= mean <= volume
    mu_tilde = outcome(lambda: tilted_potential(table, target))
    assert mu_tilde is None or (math.isfinite(mu_tilde) and 0 < target < volume) or (
        mu_tilde == (-math.inf if target <= 0 else math.inf if target >= volume else math.nan))
    rate = outcome(lambda: rate_function(grand_canonical_eval(table, mu), target))
    assert rate is None or math.isfinite(rate)

    alpha = data.draw(st.sampled_from([0.5, 0.75, 1.0]) | st.floats(0.5, 1.0) | st.floats(),
                      label="alpha")
    m = outcome(lambda: m_of_alpha(alpha))
    if m is not None:  # the least m >= 1 with m (1 - alpha) > 1
        gap = 1 - Fraction(alpha)
        assert m >= 1 and m * gap > 1 and (m == 1 or (m - 1) * gap <= 1)
    fe = outcome(lambda: extract_b_lambda(table, 4))
    if fe is None:
        fe = CanonicalFreeEnergy(np.zeros(1), volume)
    u = data.draw(st.floats(0.0, 1.0) | st.floats(-1.0, 1.0) | st.floats(), label="u")
    # mu, or a dilute one, beta mu0 in [-8, -1], where the formulas apply
    mu0 = data.draw(st.just(mu) | st.floats(-8.0, -1.0).map(lambda bm: bm / max(beta, 1e-300)),
                    label="mu0")
    report = outcome(lambda: formula_probability(grand_canonical_eval(table, mu0), alpha, u, fe))
    assert report is None or all(map(math.isfinite, (
        report.u_prime, report.mu_tilde, report.rate, report.d_plain, report.d_alpha,
        report.d_alpha_plus, report.p_exact, report.p_formula)))
    # E is nan at alpha = 1, where no envelope applies, and +inf where it diverges
    assert report is None or report.error_term >= 0 or (
        math.isnan(report.error_term) and report.alpha == 1)
    rho_star = data.draw(st.floats(0.0, 1.0, exclude_min=True) | st.floats(), label="rho_star")
    u_prime = data.draw(st.floats(-1.0, 1.0) | st.floats(), label="u_prime")
    terms = outcome(lambda: variance_terms(fe, rho_star, alpha, u_prime,
                                           data.draw(st.integers(-1, volume), label="volume"),
                                           beta, mu))
    assert terms is None or (all(map(math.isfinite, (terms.d_plain, terms.d_alpha,
                                                     terms.d_alpha_plus)))
                             and 1 <= terms.m_alpha <= 6 and terms.error_term >= 0)


def test_clt_gap_shrinks_along_short_ladder():
    mu0 = lattice_gas_threshold(1, POT, 0.0258) - 1.0
    gaps = []
    for side in (64, 256):
        table, fe = ladder_table(side)
        gc0 = grand_canonical_eval(table, mu0)
        gaps.append(max(formula_probability(gc0, 0.5, u, fe).relative_gap
                        for u in (0.0, 0.5, 1.0)))
    assert gaps[1] < gaps[0]


def test_formula_probability_moderate_branch():
    # alpha = 3/4 activates the curvature corrections (m(alpha) = 5)
    table, fe = ladder_table(256)
    mu0 = lattice_gas_threshold(1, POT, 0.0258) - 1.0
    rep = formula_probability(grand_canonical_eval(table, mu0), 0.75, 0.2, fe)
    assert rep.m_alpha == 5
    assert rep.d_alpha != rep.d_alpha_plus
    assert 0 < rep.error_term < 1
    assert rep.relative_gap < 0.35


def test_chemical_potential_identity_ladder_trend():
    # mu0 - F'(rho*) is O(1/|Lambda|) plus the Stirling-derivative term
    mu0 = lattice_gas_threshold(1, POT, 0.0258) - 1.0
    mismatches = []
    for side in (64, 128, 256, 512):
        table, fe = ladder_table(side)
        n_star = _n_star(table, mu0)
        gap = abs(0.0258 * mu0 - fe.derivative(n_star / side, 1)) / 0.0258
        mismatches.append((side, gap))
        assert gap * side < 20.0
    gaps = [g for _s, g in mismatches]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
