import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgas.deviations import (appendix_normalization, appendix_ratio,
                               find_n_star, formula_probability,
                               m_of_alpha, mean_occupation, rate_function,
                               tilted_potential, variance_terms)
from latgas.model import GuardError, LatticeSpec, PotentialSpec
from latgas.oracle import (CanonicalTable, canonical_table, exact_canonical_table,
                           grand_canonical_eval, transfer_matrix_table)
from latgas.radii import lattice_gas_threshold
from latgas.series import (CanonicalFreeEnergy, extract_b_lambda,
                           free_energy_from_extraction)

POT = PotentialSpec("standard", 1.0)
BETA = 0.3


def two_site_table():
    return exact_canonical_table(LatticeSpec(1, 2, "zero"), POT, BETA)


def ladder_table(side, beta=0.0258):
    table = transfer_matrix_table(side, POT, beta, "zero")
    fe = free_energy_from_extraction(extract_b_lambda(table, 4))
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
    n_star = find_n_star(table, mu0)
    assert n_star == _find_n_star_loop(table, mu0)
    return n_star


def test_mean_occupation_hand_value():
    t = two_site_table()
    mu0 = -1.0
    z = math.exp(BETA * mu0)
    k = math.exp(4 * BETA)
    hand = (2 * z + 2 * z * z * k) / (2 * (1 + 2 * z + z * z * k))
    rho, n_bar = mean_occupation(t, mu0)
    assert rho == pytest.approx(hand, abs=1e-14)
    assert n_bar == math.floor(rho * 2)


def test_mean_occupation_empty_limit():
    t = two_site_table()
    rho, n_bar = mean_occupation(t, -200.0)
    assert rho == pytest.approx(0.0, abs=1e-12)
    assert n_bar == 0


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
       steps=st.lists(st.tuples(st.sampled_from(["last", "max", "max", "-inf", "nan"]),
                                st.sampled_from(_STEP_FACTORS)), max_size=40),
       mu0=st.sampled_from([0.0, -0.0]) | st.floats(-5.0, 5.0),
       beta=st.floats(0.01, 2.0))
def test_find_n_star_equals_the_loop_on_planted_steps(start, steps, mu0, beta):
    # mu0 = 0 keeps the planted steps exact; other mu0 tilt them
    log_z = [start]
    running_max = start
    for anchor, factor in steps:
        if anchor in ("-inf", "nan"):
            log_z.append(float(anchor))
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
    rho, _ = mean_occupation(t, mu0)
    assert tilted_potential(t, rho * 2) == pytest.approx(mu0, abs=1e-9)


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


def test_tilted_measure_consistency():
    table, _fe = ladder_table(64)
    mu_t = tilted_potential(table, 20.0)
    back = grand_canonical_eval(table, mu_t).mean_particles()
    assert back == pytest.approx(20.0, abs=1e-9)


def test_rate_function_zero_at_mean_and_nonnegative():
    table, _fe = ladder_table(64)
    mu0 = lattice_gas_threshold(1, POT, 0.0258) - 1.0
    rho_bar, _ = mean_occupation(table, mu0)
    assert rate_function(table, mu0, rho_bar * 64) == pytest.approx(0.0, abs=1e-12)
    for n_t in (5.0, 9.0, 13.5, 20.0, 30.0):
        assert rate_function(table, mu0, n_t) >= -1e-13


def test_rate_function_curvature_matches_variance():
    # I''(rho_bar) = 1/sigma^2 with the exact grand-canonical variance
    table, _fe = ladder_table(64)
    mu0 = lattice_gas_threshold(1, POT, 0.0258) - 1.0
    gc = grand_canonical_eval(table, mu0)
    rho_bar = gc.mean_particles() / 64
    sigma2 = gc.variance_particles() / 64
    h = 1e-3
    second = (rate_function(table, mu0, (rho_bar + h) * 64)
              - 2 * rate_function(table, mu0, rho_bar * 64)
              + rate_function(table, mu0, (rho_bar - h) * 64)) / h ** 2
    assert second * sigma2 == pytest.approx(1.0, abs=1e-3)


def test_m_of_alpha_values():
    assert m_of_alpha(0.5) == 3
    assert m_of_alpha(0.75) == 5
    from fractions import Fraction
    assert m_of_alpha(Fraction(2, 3)) == 4
    with pytest.raises(ValueError):
        m_of_alpha(1.0)


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
    rep = formula_probability(table, mu0, 0.5, 0.0, fe)
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
        rep = formula_probability(table, mu0, 0.5, u, fe)
        envelope = (2 * rep.error_term
                    * math.exp(-rep.u_prime ** 2 / (2 * rep.d_alpha))
                    / math.sqrt(2 * math.pi * rep.d_alpha_plus * 128))
        assert rep.gap <= 3 * envelope


def test_formula_probability_ld_branch():
    table, fe = ladder_table(128)
    mu0 = lattice_gas_threshold(1, POT, 0.0258) - 1.0
    rep = formula_probability(table, mu0, 1.0, 0.05, fe)
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
        rep = formula_probability(table, mu0, alpha, u, fe)
    except ValueError:  # GuardError included: a target past the density cap
        return
    assert rep.mu_tilde == tilted_potential(table, rep.n_tilde)
    assert rep.rate == rate_function(table, mu0, rep.n_tilde)
    assert rep.p_exact == float(grand_canonical_eval(table, mu0).probs[rep.n_tilde])
    assert rep.n_bar == mean_occupation(table, mu0)[1]


def test_formula_probability_guards():
    table, fe = ladder_table(64)
    with pytest.raises(ValueError):
        formula_probability(table, -50.0, 0.3, 0.0, fe)  # alpha below range
    with pytest.raises(ValueError):
        formula_probability(table, 20.0, 1.0, 1.0, fe)  # target beyond box


def test_mean_vs_argmax_stay_close():
    mu0 = lattice_gas_threshold(1, POT, 0.0258) - 1.0
    for side in (16, 32, 64, 128, 256):
        table = transfer_matrix_table(side, POT, 0.0258, "zero")
        _rho, n_bar = mean_occupation(table, mu0)
        assert abs(n_bar - _n_star(table, mu0)) <= 3


def test_appendix_identities():
    t = two_site_table()
    mu0 = -1.0
    gc = grand_canonical_eval(t, mu0)
    for anchor in (0, 1, 2):
        assert appendix_ratio(t, mu0, anchor, anchor) == 1.0
        k_norm = appendix_normalization(t, mu0, anchor)
        total = sum(appendix_ratio(t, mu0, n, anchor) for n in range(3))
        assert k_norm * total == pytest.approx(1.0, abs=1e-13)
        for n in range(3):
            lhs = appendix_ratio(t, mu0, n, anchor) * k_norm
            assert lhs == pytest.approx(float(gc.probs[n]), rel=1e-12)


def test_appendix_zero_denominator_sentinel():
    # a 2-site box cannot hold 3 particles: Z(3) = 0
    t = two_site_table()
    assert appendix_ratio(t, -1.0, 1, 3) == math.inf
    assert appendix_normalization(t, -1.0, 3) == 0.0


@pytest.mark.parametrize("beta, call", [
    (0.5, lambda t: grand_canonical_eval(t, 1e308)),
    (1e300, lambda t: mean_occupation(t, -1e300)),
    (1e300, lambda t: appendix_ratio(t, 1e300, 3, 6)),
    (1e300, lambda t: find_n_star(t, 1e10)),
    (1e-5, lambda t: appendix_ratio(t, 1e7, 12, 0)),
    (1e-300, lambda t: rate_function(t, 1.7976931108833632e308, 1.0))],
    ids=["grand_canonical_eval", "mean_occupation", "appendix_ratio", "find_n_star",
         "appendix_ratio_quotient", "rate_function"])
def test_grand_canonical_layer_raises_guard_error_past_the_float_range(beta, call):
    # beta mu |Lambda|, the quotient J = e^1200 or mu_tilde - mu0 overflows:
    # unguarded, these give nan, -inf, an untyped ValueError or
    # OverflowError or, from find_n_star, N = 1 for a maximum at N = 12
    t = exact_canonical_table(LatticeSpec(1, 12, "periodic"), POT, beta)
    with pytest.raises(GuardError):
        call(t)
    assert math.isfinite(appendix_ratio(t, 1.0, 3, 6))


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
        rate_function(t, -10.0, math.nan)
    assert tilted_potential(t, -math.inf) == -math.inf
    assert tilted_potential(t, math.inf) == math.inf


def test_mean_occupation_is_normalised_on_a_dense_chain():
    # exp(terms - log Xi) sums to 1 + 2.2e-13 here: the undivided mean read
    # rho = 1.000000000000115 and N_bar = 100; against the same table's
    # moments in 50 digits the divided mean is 1 ulp off
    table = canonical_table(LatticeSpec(1, 100, "zero"), PotentialSpec("kac", 1.0, 3), 2.0)
    rho, n_bar = mean_occupation(table, 1.0)
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
                      st.floats(-300.0, 300.0).map(lambda u: 10.0 ** u)),
       mu=st.floats() | st.floats(-20.0, 20.0), data=st.data())
def test_deviation_layer_over_the_guarded_space(box, beta, mu, data):
    # each entry point returns a finite value or a documented sentinel, or
    # raises GuardError or ValueError
    table = canonical_table(*box, beta)
    volume = table.n_sites
    target = data.draw(st.floats() | st.floats(-1.0, volume + 1.0), label="target")
    n, n_ref = (data.draw(st.integers(-1, volume + 2), label=k) for k in ("n", "n_ref"))

    def outcome(call):
        try:
            return call()
        except ValueError:  # GuardError included
            return None

    n_star = outcome(lambda: find_n_star(table, mu))
    assert n_star is None or 0 <= n_star <= volume
    occupation = outcome(lambda: mean_occupation(table, mu))
    assert occupation is None or (0 <= occupation[0] <= 1 and 0 <= occupation[1] <= volume)
    mu_tilde = outcome(lambda: tilted_potential(table, target))
    assert mu_tilde is None or (math.isfinite(mu_tilde) and 0 < target < volume) or (
        mu_tilde == (-math.inf if target <= 0 else math.inf if target >= volume else math.nan))
    rate = outcome(lambda: rate_function(table, mu, target))
    assert rate is None or math.isfinite(rate)
    ratio = outcome(lambda: appendix_ratio(table, mu, n, n_ref))
    assert ratio is None or 0 <= ratio < math.inf or table.log_z_of(n_ref) == -math.inf
    weight = outcome(lambda: appendix_normalization(table, mu, n_ref))
    assert weight is None or 0 <= weight <= 1


def test_clt_gap_shrinks_along_short_ladder():
    mu0 = lattice_gas_threshold(1, POT, 0.0258) - 1.0
    gaps = []
    for side in (64, 256):
        table, fe = ladder_table(side)
        gaps.append(max(formula_probability(table, mu0, 0.5, u, fe).relative_gap
                        for u in (0.0, 0.5, 1.0)))
    assert gaps[1] < gaps[0]


def test_formula_probability_moderate_branch():
    # alpha = 3/4 activates the curvature corrections (m(alpha) = 5)
    table, fe = ladder_table(256)
    mu0 = lattice_gas_threshold(1, POT, 0.0258) - 1.0
    rep = formula_probability(table, mu0, 0.75, 0.2, fe)
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
