import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgas import cli
from latgas.correlations import (bound_rhs, calibrate_constants, decay_fit,
                                 pair_rows, torus_distance)
from latgas.model import GuardError, LatticeSpec, PotentialSpec
from latgas.oracle import exact_correlations

POT = PotentialSpec("standard", 1.0)


def test_bound_rhs_structure():
    beta, n, vol = 0.3, 4, 20
    rho = n / vol
    same = bound_rhs(0.0, n, vol, beta, 1.0, 2.0, 3.0)
    assert same == pytest.approx(rho ** 2 * (1 + 1 / n + 2.0) + 3.0 / vol)
    near = bound_rhs(1.0, n, vol, beta, 1.0, 2.0, 3.0)
    e4b = math.expm1(4 * beta)
    assert near == pytest.approx(
        rho ** 2 * (e4b * (1 + 1 / n) + 2.0 * math.exp(-1)) + 3.0 / vol)
    far = bound_rhs(5.0, n, vol, beta, 1.0, 0.0, 0.0)
    assert far == 0.0


def test_bound_rhs_past_the_float_range_raises_guard_error():
    # e^{4 beta J} - 1 overflows past beta J ~ 177: no bare OverflowError escapes
    with pytest.raises(GuardError):
        bound_rhs(1.0, 6, 12, 1e300, 1.0, 0.0, 0.0)
    with pytest.raises(GuardError):
        bound_rhs(1.0, 6, 12, 177.5, 1.0, 0.0, 0.0)
    assert math.isfinite(bound_rhs(2.0, 6, 12, 1e300, 1.0, 0.0, 0.0))


@pytest.mark.parametrize("args", [(1.0, 2, 10, 0.3, 1.0, math.nan, 0.0),
                                  (1.0, 2, 10, math.nan, 1.0, 0.0, 0.0),
                                  (1.0, 2, 10, 0.3, 1.0, -math.inf, math.inf),
                                  (1.0, 0, 10, 0.3, 1.0, 0.0, 0.0),
                                  (1.0, 2, 0, 0.3, 1.0, 0.0, 0.0),
                                  (1.0, 2, 10, -1.0, 1.0, 0.0, 0.0),
                                  (1.0, 2, 10, math.inf, 1.0, 0.0, 0.0),
                                  (math.nan, 2, 10, 0.3, 1.0, 0.0, 0.0),
                                  (-1.0, 2, 10, 0.3, 1.0, 0.0, 0.0)])
def test_bound_rhs_outside_its_domain_raises_value_error(args):
    # each gave nan, -0.0589 (beta = -1) or a bare ZeroDivisionError (N = 0);
    # a domain error, not the float-range GuardError
    with pytest.raises(ValueError) as error:
        bound_rhs(*args)
    assert type(error.value) is ValueError


def test_bound_rhs_below_the_float_range_raises_guard_error():
    # finite constants whose bound passes -inf
    with pytest.raises(GuardError):
        bound_rhs(0.0, 2, 2, 0.3, 1.0, -1.7e308, -1.7e308)


def test_bound_monotone_in_constants():
    base = bound_rhs(2.0, 3, 12, 0.2, 1.0, 0.5, 0.5)
    assert bound_rhs(2.0, 3, 12, 0.2, 1.0, 1.0, 0.5) >= base
    assert bound_rhs(2.0, 3, 12, 0.2, 1.0, 0.5, 1.0) >= base


def test_free_case_feasible_with_zero_c():
    table = exact_correlations(LatticeSpec(1, 12, "periodic"), POT, 0.0, 3)
    cal = calibrate_constants([table])
    assert cal.feasible and cal.c_min == 0.0
    assert all(r.feasible for r in pair_rows(table, cal.c_min, cal.c1_min))


def test_family_calibration_feasible():
    tables = [exact_correlations(LatticeSpec(1, 12, "periodic"), POT, b, n)
              for b in (0.1, 0.2) for n in (2, 3)]
    cal = calibrate_constants(tables)
    assert cal.feasible and math.isfinite(cal.c1_min)
    for t in tables:
        assert all(r.feasible for r in pair_rows(t, cal.c_min, cal.c1_min))
    # enlarging the constants keeps feasibility
    for t in tables:
        assert all(r.feasible for r in pair_rows(t, cal.c_min + 1.0, cal.c1_min + 1.0))


def test_calibration_reports_binding_case():
    tables = [exact_correlations(LatticeSpec(1, 10, "periodic"), POT, 0.2, 3)]
    cal = calibrate_constants(tables)
    assert cal.binding_case


def test_torus_distance():
    lat = LatticeSpec(1, 10, "periodic")
    assert torus_distance(lat, (0,), (9,)) == 1.0
    assert torus_distance(lat, (0,), (5,)) == 5.0
    lat2 = LatticeSpec(2, 4, "periodic")
    assert torus_distance(lat2, (0, 0), (3, 3)) == pytest.approx(math.sqrt(2))


def test_decay_fit_positive_rate():
    fit = decay_fit(LatticeSpec(1, 14, "periodic"), POT, 0.2, 5)
    assert fit.rate > 0 and not fit.flagged_flat
    assert fit.n_points >= 2


def test_decay_fit_flags_flat_cases():
    # beta = 0: no distance dependence beyond exchangeability
    fit0 = decay_fit(LatticeSpec(1, 12, "periodic"), POT, 0.0, 5)
    assert fit0.flagged_flat
    # N = 2: no third particle to mediate correlations past contact
    fit2 = decay_fit(LatticeSpec(1, 12, "periodic"), POT, 0.2, 2)
    assert fit2.flagged_flat
    # a float N raised a bare TypeError
    with pytest.raises(ValueError, match="n_particles must be an integer"):
        decay_fit(LatticeSpec(1, 12, "periodic"), POT, 0.2, 5.0)


def test_decay_length_grows_with_beta():
    # stronger coupling decays more slowly: the fitted rate decreases
    rates = [decay_fit(LatticeSpec(1, 14, "periodic"), POT, b, 5).rate
             for b in (0.1, 0.2, 0.4)]
    assert rates[0] > rates[1] > rates[2] > 0


def test_csv_rows_schema():
    # the rows cmd_correlate hands to the CSV writer
    rows = cli.cmd_correlate({"dimension": 1, "side": 10, "beta": 0.1, "boundary": "periodic",
                              "particles": 2, "c_const": 0.5, "c1_const": 0.5})
    rows = rows["correlation_bound.csv"]
    assert rows[0] == ("q1", "q2", "dist", "u2_exact", "rhs", "feasible")
    assert len(rows) == 1 + 100


@settings(max_examples=40, deadline=None)
@given(box=st.one_of(st.integers(3, 24).map(lambda side: LatticeSpec(1, side, "periodic")),
                     st.integers(2, 4).map(lambda side: LatticeSpec(2, side, "periodic"))),
       pot=st.sampled_from([POT, PotentialSpec("standard", 0.7), PotentialSpec("kac", 1.0, 2)]),
       beta=st.one_of(st.just(0.0), st.floats(0.0, 1e300),
                      st.floats(-300.0, 300.0).map(lambda u: 10.0 ** u)),
       c_const=st.floats(), c1_const=st.floats(), data=st.data())
def test_correlation_layer_over_the_guarded_space(box, pot, beta, c_const, c1_const, data):
    # each entry point returns finite values or a documented sentinel (an
    # infeasible calibration's C1 = inf, a flat decay fit's rate 0), or
    # raises GuardError or ValueError
    volume = box.n_sites
    n = data.draw(st.integers(-1, volume + 1), label="n")
    distances = sorted({torus_distance(box, box.sites()[0], q) for q in box.sites()})
    dist = data.draw(st.sampled_from(distances) | st.floats(), label="dist")

    def outcome(call):
        try:
            return call()
        except ValueError:  # GuardError included
            return None

    rhs = outcome(lambda: bound_rhs(dist, n, volume, beta, pot.coupling, c_const, c1_const))
    assert rhs is None or math.isfinite(rhs)
    table = outcome(lambda: exact_correlations(box, pot, beta, n))
    if table is not None:
        rows = outcome(lambda: pair_rows(table, c_const, c1_const))
        assert rows is None or all(math.isfinite(r.u2_exact) and math.isfinite(r.rhs)
                                   for r in rows)
        cal = outcome(lambda: calibrate_constants([table]))
        assert cal is None or (math.isfinite(cal.c_min) and (
            math.isfinite(cal.c1_min) if cal.feasible else cal.c1_min == math.inf))
    fit = outcome(lambda: decay_fit(box, pot, beta, n))
    assert fit is None or (math.isfinite(fit.rate) and fit.n_points >= 0
                           and (fit.n_points >= 2 or (fit.flagged_flat and fit.rate == 0.0)))
