import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgas.model import PotentialSpec, tree_constants
from latgas.radii import (contour_threshold, lattice_gas_threshold, maximize_big_f,
                          radius_canonical, radius_canonical_penrose,
                          radius_report, radius_virial, sign_change_count,
                          sweep_radii)
from references import cluster_sum_margin

POT = PotentialSpec("standard", 1.0)


def grid_oracle(u: float) -> float:
    """Dense geometric scan; the argmax collapses like (e-1)/u at large u,
    so the oracle grid must be log-spaced."""
    a = np.geomspace(1e-60, 20.0, 2_000_001)
    t = u * (-np.expm1(-a))
    return float(np.max(np.log1p(t) / (np.exp(a) * (1.0 + t))))


@pytest.mark.parametrize("u", [math.exp(-8), 1.0, math.exp(16), math.exp(96)])
def test_maximizer_against_grid(u):
    a_star, val = maximize_big_f(u)
    assert a_star > 0
    assert abs(val - grid_oracle(u)) <= 1e-9


def reference_argmax(u: float) -> tuple[mp.mpf, mp.mpf]:
    """(a*, F(u)) by mpmath bisection of h(a) = 1 in log a, with
    h = (u e^{-a}/s)(1/ln s - 1), on the bracket [min(ln 2, 1/u)/4, 1].
    At large u, 1/ln s - 1 ~ e a cancels log10(u) digits, so the working
    precision is 50 digits past that."""
    with mp.workdps(50 + int(abs(math.log10(u)))):
        uu = mp.mpf(u)

        def s_of(a):
            return 1 + uu * -mp.expm1(-a)

        def h(a):
            return uu * mp.exp(-a) / s_of(a) * (1 / mp.log(s_of(a)) - 1)

        lo, hi = min(mp.log(2), 1 / uu) / 4, mp.mpf(1)
        for _ in range(240):
            mid = mp.sqrt(lo * hi)
            lo, hi = (mid, hi) if h(mid) > 1 else (lo, mid)
        return +lo, mp.log(s_of(lo)) / (mp.exp(lo) * s_of(lo))


@pytest.mark.parametrize("log_u", np.linspace(-20.0, 96.0, 30))
def test_maximizer_against_mpmath_root(log_u):
    u = math.exp(log_u)
    a_star, val = maximize_big_f(u)
    ref_a, ref_f = reference_argmax(u)
    assert abs(a_star - ref_a) <= 1e-13 * ref_a
    assert abs(val - ref_f) <= 1e-15 * ref_f


def test_maximizer_one_sided_limits():
    assert maximize_big_f(0.0) == (math.log(2.0), 0.0)
    assert maximize_big_f(math.inf) == (0.0, 1.0 / math.e)
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError):
            maximize_big_f(bad)


def _g(a: float, u: float) -> float:
    t = u * -math.expm1(-a)
    return math.log1p(t) / (math.exp(a) * (1.0 + t))


@settings(max_examples=200, deadline=None)
@given(log_u=st.floats(-700.0, 700.0))
def test_maximizer_is_an_interior_maximum(log_u):
    u = math.exp(log_u)
    a_star, val = maximize_big_f(u)
    assert 0.0 < a_star < 1.0
    peak = _g(a_star, u)
    assert val == pytest.approx(peak, rel=1e-14)
    assert peak >= _g(a_star * (1.0 - 1e-6), u)
    assert peak >= _g(a_star * (1.0 + 1e-6), u)


def test_maximizer_monotone_in_u():
    us = np.exp(np.linspace(-8, 16, 25))
    vals = [maximize_big_f(float(u))[1] for u in us]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_maximizer_interior():
    # g -> 0 at both ends of the domain, so the maximum is interior
    a_star, val = maximize_big_f(1.0)
    for a in (1e-12, 20.0):
        t = 1.0 * (-math.expm1(-a))
        g = math.log1p(t) / (math.exp(a) * (1 + t))
        assert g < val
    assert 0 < a_star < 20


def test_radius_canonical_zero_beta():
    r, a_star = radius_canonical(1, POT, 0.0)
    assert r == pytest.approx(grid_oracle(1.0), abs=1e-9)
    r_bar, _ = radius_canonical_penrose(1, POT, 0.0)
    assert r_bar == pytest.approx(r, rel=1e-10)


def test_radius_canonical_decreasing_in_beta():
    betas = np.linspace(0.0, 1.0, 101)
    vals = [radius_canonical(1, POT, float(b))[0] for b in betas]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_crossover_exists():
    betas = np.linspace(0.0, 1.0, 101)
    for d in (1, 2, 3):
        diffs = [radius_canonical(d, POT, float(b))[0]
                 - radius_canonical_penrose(d, POT, float(b))[0] for b in betas]
        assert sign_change_count(diffs) == 1


def test_contour_threshold_closed_form():
    h, m = contour_threshold(1, POT, 1.0)
    assert h == pytest.approx(-(3 + 3 * math.log(2)) / 2)
    assert m == pytest.approx(2 * h - 4)
    h2, _ = contour_threshold(1, POT, 2.0)
    assert h2 == pytest.approx(h / 2)  # h_IS proportional to 1/beta
    h0, m0 = contour_threshold(1, POT, 0.0)
    assert h0 == -math.inf and m0 == -math.inf


def test_lattice_gas_threshold_closed_form():
    val = lattice_gas_threshold(1, POT, 1.0)
    assert val == pytest.approx(-(9 + math.log(1 + 2 * (1 - math.exp(-4)))))
    assert lattice_gas_threshold(1, POT, 0.0) == -math.inf
    # M_LG = -B - (1 + log C-bar)/beta climbs from -inf as beta grows
    betas = np.linspace(0.05, 1.0, 40)
    vals = [lattice_gas_threshold(1, POT, float(b)) for b in betas]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v < -8.0 for v in vals)  # stays below -B


def test_virial_radius():
    assert radius_virial(1, POT, 0.0) == pytest.approx(1 / (2 * math.e))
    beta = 0.3
    c_bar = 1 + 2 * (1 - math.exp(-4 * beta))
    assert radius_virial(1, POT, beta) == pytest.approx(
        1 / (2 * math.exp(1 + beta * 12) * c_bar))


def test_virial_dominates_canonical():
    betas = np.linspace(0.0, 1.0, 101)
    for d in (1, 2, 3):
        for b in betas:
            rep = radius_report(d, POT, float(b))
            assert rep.r_v > rep.r_c


def test_threshold_crossovers():
    betas = np.linspace(0.0, 1.0, 101)
    for d, J in ((1, 1.0), (1, 2.0), (2, 1.0)):
        reps = sweep_radii(d, PotentialSpec("standard", J), betas)
        diffs = [r.m_is - r.m_lg for r in reps]
        assert sign_change_count(diffs) == 1


def test_report_fields_positive():
    rep = radius_report(2, POT, 0.5)
    assert rep.r_c > 0 and rep.r_c_bar > 0 and rep.r_v > 0
    assert rep.a_star_rc > 0 and rep.a_star_rcbar > 0
    assert math.isfinite(rep.m_is) and math.isfinite(rep.m_lg)


def test_cluster_sum_margin_below_budget():
    for beta in (0.1, 0.5, 1.0):
        for d in (1, 2, 3):
            r_c, _ = radius_canonical(d, POT, beta)
            volume = max(10 ** 6, int(3.0 / r_c))
            n = max(2, int(r_c * volume * 0.9))
            partial, budget, a_star = cluster_sum_margin(n, volume, d, POT, beta)
            assert partial <= budget, (beta, d, partial, budget)
            assert a_star > 0


def test_kac_radii_finite_and_positive():
    kac = PotentialSpec("kac", 1.0, 2)
    for beta in (0.0, 0.1, 0.5):
        rep = radius_report(1, kac, beta)
        assert rep.r_c > 0 and rep.r_c_bar > 0 and rep.r_v > 0
        assert math.isfinite(rep.r_c)
    assert lattice_gas_threshold(1, kac, 0.1) < -8.0


@pytest.mark.parametrize("beta", [50.0, 59.5, 90.0, 100.0, 140.0, 200.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_radii_past_the_float_range(d, beta):
    rep = radius_report(d, POT, beta)
    B, _ = tree_constants(d, POT, beta)
    # R_C <= e^{-2 beta B}/4 and R-bar_C <= e^{-2 beta B}/e: both underflow here
    assert 2.0 * beta * B >= 800.0
    assert rep.r_c == 0.0 and rep.r_c_bar == 0.0
    # u = e^{-beta B} <= e^{-400} (subnormal at d = 1, beta = 90), so a* is
    # ln 2 to the last bit, and the Penrose a* ~ (e - 1) e^{-2 beta B} underflows
    assert rep.a_star_rc == math.log(2.0) and rep.a_star_rcbar == 0.0
    with mp.workdps(30):
        b = mp.mpf(beta)
        c_bar = 1 + 2 * d * -mp.expm1(-4 * b)
        ref_rv = 1 / (2 * mp.exp(1 + b * (B + 4)) * c_bar)
    assert rep.r_v == pytest.approx(float(ref_rv), rel=1e-12, abs=5e-323)
    assert all(math.isfinite(v) for v in (rep.m_is, rep.m_lg, rep.r_v))
