"""Two more extreme-value families, defined only in this file.

The Galambos (1975, JASA 70) family has the dependence function
``a(x, y) = x + y - (x**-theta + y**-theta)**(-1/theta)``. The library has
no notion of it, so its copula, tail traits, case and expansion candidates
must all follow from the :class:`PickandsEV` alone. With ``theta = 1`` the
tail order is 1.5 and the corner slope ``a2(1, 0)`` vanishes.

Tawn's (1988, Biometrika 75) symmetric mixed model,
``a(x, y) = x + y - theta*x*y/(x + y)``, has the fractional corner slope
``a2(1, 0) = 1 - theta``, which no named family has.
"""

import math

import pytest

import oracles
from tailsum import (
    ParetoMarginal,
    PickandsEV,
    check_assumptions,
    classify_case,
    estimate_corner_slope,
    ev_chat,
    ev_chat_v,
    tail_order_traits,
    tailprob_expansion_ev,
)
from tailsum import copulas

THETA = 1.0


def galambos_pickands(theta: float) -> PickandsEV:
    def a_fn(x, y):
        return x + y - (x**-theta + y**-theta) ** (-1.0 / theta)

    def a1_fn(x, y):
        return 1.0 - (x**-theta + y**-theta) ** (-1.0 / theta - 1.0) * x ** (-theta - 1.0)

    def a2_fn(x, y):
        # the corner-slope limit at y == 0, where a1_fn would divide by zero
        return 0.0 if y == 0 else a1_fn(y, x)

    return PickandsEV(a_fn=a_fn, a1_fn=a1_fn, a2_fn=a2_fn, family="galambos", param=theta)


def mixed_pickands(theta: float) -> PickandsEV:
    def a_fn(x, y):
        return x + y - theta * x * y / (x + y)

    def a1_fn(x, y):
        return 1.0 - theta * y * y / ((x + y) * (x + y))

    def a2_fn(x, y):
        return a1_fn(y, x)

    return PickandsEV(a_fn=a_fn, a1_fn=a1_fn, a2_fn=a2_fn, family="mixed", param=theta)


def _a4(p: PickandsEV):
    """The checker's A4 result on the survival copula of ``p``."""
    return check_assumptions(copulas._ev_copula(p)).checks["A4"]


@pytest.fixture(scope="module")
def galambos():
    return galambos_pickands(THETA)


def test_copula_matches_the_independent_oracle(galambos):
    for u in (1e-6, 0.3, 0.9):
        for v in (1e-6, 0.3, 0.9):
            want = oracles.galambos_chat(THETA, u, v)
            assert math.isclose(ev_chat(galambos, u, v), want, rel_tol=1e-13)
            want_v = oracles.galambos_chat_v(THETA, u, v)
            assert math.isclose(ev_chat_v(galambos, u, v), want_v, rel_tol=1e-13)
            h = 1e-6 * v
            fd = (oracles.galambos_chat(THETA, u, v + h) - oracles.galambos_chat(THETA, u, v - h)) / (
                2.0 * h
            )
            assert math.isclose(want_v, fd, rel_tol=1e-5)
    # the margins chat(1, v) = v and chat(u, 1) = u, where a_fn would meet a
    # zero argument and its negative power
    assert math.isclose(ev_chat(galambos, 1.0, 0.3), 0.3, rel_tol=1e-15)
    assert math.isclose(ev_chat(galambos, 0.3, 1.0), 0.3, rel_tol=1e-15)


def test_traits_follow_from_the_dependence_function(galambos):
    tr = tail_order_traits(galambos)
    assert abs(tr.kappa - (2.0 - 2.0 ** (-1.0 / THETA))) < 1e-14
    assert abs(tr.power_m - (1.0 - 2.0 ** (-1.0 / THETA - 1.0))) < 1e-14
    # a vanishing corner slope: the checker's corner target is zero
    assert {row[4] for row in _a4(galambos).rows} == {0.0}


@pytest.mark.parametrize("theta", [0.2, 0.5])
def test_slowly_vanishing_corner_slope_is_exactly_zero(theta):
    # a2(1, v) ~ v**theta is still far from 0 at any small v, but the
    # contract value a2_fn(1, -0.0) is its limit 0
    p = galambos_pickands(theta)
    assert estimate_corner_slope(p) == 0.0
    assert {row[4] for row in _a4(p).rows} == {0.0}
    assert tailprob_expansion_ev(ParetoMarginal(0.8, 1.0), p, 1e4).candidates is not None


def test_case_is_the_middle_one(galambos):
    case = classify_case(0.8, galambos)
    assert case.label == "C1\\(C2∩C3)"
    assert case.a20 == 0.0
    assert not case.boundary_indicator


@pytest.mark.parametrize("sf", [1e-3, 1e-5, 1e-7])
def test_power_term_with_eta_beats_the_first_order(galambos, sf):
    # the stated second order vanishes (a2(1, 0) = 0 off the C3 boundary);
    # the eta-corrected power term must still be closer to the exact tail
    # than the first order
    m = ParetoMarginal(0.8, 1.0)
    t = m.quantile(1.0 - sf)
    result = tailprob_expansion_ev(m, galambos, t)
    exact = oracles.exact_sum_tail(0.8, 1.0, "galambos", THETA, t)
    candidate = result.candidates["power_term_with_eta"]
    assert abs(candidate / exact - 1.0) < abs(result.first_order / exact - 1.0)


def test_fractional_corner_slope_sets_the_corner_target():
    # a2(1, 0) = 1 - theta = 0.5, so A4's target is the power profile
    # 0.5 * u * v**-0.5; the verdicts are not pinned here
    p = mixed_pickands(0.5)
    assert estimate_corner_slope(p) == 0.5
    rows = _a4(p).rows
    assert rows
    for _, u, v, _, target in rows:
        assert target == 0.5 * u * v**-0.5, (u, v, target)
    assert {(u, v): target for _, u, v, _, target in rows}[0.5, 0.5] == 0.3535533905932738
