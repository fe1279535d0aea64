"""Unit tests for the tail-probability and quantile expansions.

Constants marked "frozen" were produced by the reference routines in
``tests/oracles.py`` (high-panel midpoint quadrature, series summation, or
exact bivariate integration) and recorded on 2026-08-18.  Tests compare the
fast library paths against those constants or against the live oracle at
reduced panel counts; the acceptance suite repeats the headline comparisons
at full oracle resolution.
"""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import optimize

import oracles
from test_galambos import galambos_pickands
from tailsum import (
    BoundaryCaseError,
    DivergentIntegralError,
    DomainError,
    ExpansionTerm,
    ParetoMarginal,
    PickandsEV,
    check_assumptions,
    classify_case,
    comonotone_pickands,
    delta_correction,
    eta_limit,
    gumbel_log_refined_traits,
    gumbel_pickands,
    independence_pickands,
    integral_I,
    partial_limit_traits,
    power_term_coefficient,
    tail_order_traits,
    tailprob_expansion_ev,
    trial_tail_order_traits,
    var_expansion_ev,
    var_from_tailprob_inversion,
)
from tailsum import copulas
from tailsum.asymptotics import _model_plan
from tailsum.copulas import _partial_traits

# frozen oracle constants (midpoint_integral_I at 1e7 panels agrees to <1e-8)
I_08_08 = 3.075834977047161
I_2_05 = 2.029167161715862


# ---------------------------------------------------------------------------
# corner integral


def test_integral_matches_frozen_oracle_values():
    assert abs(integral_I(0.8, 0.8) - I_08_08) < 1e-12
    assert abs(integral_I(2.0, 0.5) - I_2_05) < 1e-12


def test_integral_matches_series_oracle():
    # independent derivation route: binomial series summation
    assert abs(integral_I(2.0, 0.5) - oracles.series_integral_I_2_half(200)) < 1e-10


def test_integral_matches_midpoint_oracle_small_panels():
    for alpha, beta in ((0.8, 0.8), (2.0, 0.5), (1.5, 0.3)):
        want = oracles.midpoint_integral_I(alpha, beta, panels=200_000)
        assert abs(integral_I(alpha, beta) - want) < 1e-6


def test_integral_near_the_divergence_matches_midpoint_oracle():
    # beta near 1: the k = 1 term alpha / (2 * (1 - beta)) dominates the series
    for alpha, beta in ((0.9921875, 0.9921875), (0.5, 0.995)):
        want = oracles.midpoint_integral_I(alpha, beta, panels=200_000)
        assert abs(integral_I(alpha, beta) / want - 1.0) < 1e-9


def test_integral_zero_exponent_is_zero():
    assert integral_I(0.8, 0.0) == 0.0
    assert integral_I(3.0, 0.0) == 0.0


def _mp_integral_I(mp, alpha, beta):
    # 40-digit tanh-sinh quadrature after y = z**(1/(1-beta)), which makes the
    # integrand smooth at the origin: an evaluation route independent of the
    # library's binomial series
    alpha, beta = mp.mpf(alpha), mp.mpf(beta)
    p = 1 / (1 - beta)

    def g(z):
        y = z**p
        return beta * p * mp.expm1(-alpha * mp.log1p(-y)) / y

    return mp.quad(g, [0, mp.mpf(0.5) ** (1 - beta)])


def test_integral_certified_against_mpmath():
    # includes the beta -> 1 cases QUADPACK missed: 4.0e-4 relative at
    # (0.3, 0.999) and 7.6e-8 at (1, 0.9990066882943144)
    mp = pytest.importorskip("mpmath")
    cases = [
        (alpha, beta)
        for alpha in (0.3, 0.5, 0.8, 1.0, 1.5, 2.0, 3.0)
        for beta in (0.1, 0.5, 0.8, 0.99, 0.999, 0.9999)
    ]
    cases.append((1.0, 0.9990066882943144))
    with mp.workdps(40):
        for alpha, beta in cases:
            want = _mp_integral_I(mp, alpha, beta)
            got = integral_I(alpha, beta)
            assert abs(got / want - 1) < 1e-14, (alpha, beta, got, want)


def test_integral_overflow_is_a_domain_error():
    # the value exceeds the float range above alpha = 1031 at beta = 0.5
    assert math.isfinite(integral_I(1000.0, 0.5))
    for alpha, beta in ((2000.0, 0.5), (2000.0, 0.0), (math.inf, 0.5)):
        with pytest.raises(DomainError, match="overflows"):
            integral_I(alpha, beta)


def test_integral_domain():
    with pytest.raises(DivergentIntegralError):
        integral_I(2.0, 1.0)
    with pytest.raises(DivergentIntegralError):
        integral_I(2.0, 1.5)
    with pytest.raises(DomainError):
        integral_I(2.0, -0.1)
    with pytest.raises(DomainError):
        integral_I(0.0, 0.5)


@given(
    alpha=st.floats(0.2, 5.0),
    bump=st.floats(0.05, 2.0),
    beta=st.floats(0.05, 0.95),
)
def test_integral_positive_and_increasing_in_alpha(alpha, bump, beta):
    lo = integral_I(alpha, beta)
    hi = integral_I(alpha + bump, beta)
    assert lo > 0.0
    assert hi > lo


# ---------------------------------------------------------------------------
# corner functionals


def test_eta_limit_product_power_families():
    tri = tail_order_traits(independence_pickands())
    assert eta_limit(tri, 0.8) == pytest.approx(I_08_08, abs=1e-12)
    assert math.isinf(eta_limit(tri, 2.0))
    assert math.isinf(eta_limit(tri, 1.0))
    tr10 = tail_order_traits(gumbel_pickands(10.0))
    am = 0.8 * tr10.power_m
    assert am < 1.0
    assert eta_limit(tr10, 0.8) == pytest.approx(integral_I(am, am), abs=1e-14)
    assert math.isinf(eta_limit(tr10, 2.0))


def test_eta_limit_comonotone_is_zero():
    assert eta_limit(tail_order_traits(comonotone_pickands()), 0.8) == 0.0


def test_equal_profiles_give_equal_eta_limits():
    # trial traits carry the independence profile (u*v)**1, whatever their
    # tail order
    ind = tail_order_traits(independence_pickands())
    for kappa in (1.2, 1.5, 2.0):
        tr = trial_tail_order_traits(kappa)
        for alpha in (0.5, 0.8, 2.0):
            assert eta_limit(tr, alpha) == eta_limit(ind, alpha)
    assert eta_limit(trial_tail_order_traits(1.5), 0.8) == pytest.approx(I_08_08, abs=1e-12)


def test_delta_correction_approaches_scaled_truncated_mean(m2):
    pl = partial_limit_traits(independence_pickands())
    ratios = []
    for t in (1e3, 1e5, 1e7):
        ratios.append(delta_correction(pl, m2, t) / (2.0 * m2.truncated_mean(t) / t))
    assert abs(ratios[-1] - 1.0) < 1e-4
    assert abs(ratios[0] - 1.0) > abs(ratios[-1] - 1.0)


def _mp_delta(mp, alpha, t, profile, scale=1.0):
    # delta_correction of a Lomax in w = log1p(t*y/scale), where
    # sf = exp(-alpha*w) and profile(-log sf) = varphi(sf, sf); the
    # integrand grows like exp(w - W) up to W = log1p(t/(2*scale)), so
    # panels end at W - 36, W - 12, W - 4 and W - 1
    a, tt, s = mp.mpf(alpha), mp.mpf(t), mp.mpf(scale)
    top = mp.log1p(tt / (2 * s))

    def g(w):
        return mp.expm1(-a * mp.log1p(-s * mp.expm1(w) / tt)) * profile(a * w)

    return a * mp.quad(g, [0, *(top - d for d in (36, 12, 4, 1) if top > d), top])


def _mp_delta_y(mp, alpha, t):
    # the independence profile varphi(1, v) = 1 in the original variable y,
    # with panels at the decades of 1/t, where the density's mass sits: a
    # route that shares no substitution with the library
    a, tt = mp.mpf(alpha), mp.mpf(t)

    def g(y):
        return mp.expm1(-a * mp.log1p(-y)) * a * (1 + tt * y) ** (-a - 1) * tt

    edges = [1 / tt * 10**k for k in range(int(mp.log10(tt / 2)) + 1)]
    return mp.quad(g, [0, *edges, mp.mpf(0.5)])


@pytest.mark.parametrize(
    "kind, k", [("log-refined", 1.05), ("log-refined", 2.0), ("log-refined", 10.0),
                ("power", 1.0), ("power", 0.5)]
)
def test_delta_correction_certified_against_mpmath(kind, k):
    # log-refined Gumbel with phi = k, varphi(sf, sf) = x**(phi - 1), and
    # the plain power corner slope a20 = k, varphi(sf, sf) = a20 *
    # exp(-a20*x), with x = -log sf
    mp = pytest.importorskip("mpmath")
    if kind == "log-refined":
        traits, profile = gumbel_log_refined_traits(k), lambda x: x ** (k - 1.0)
    else:
        traits, profile = _partial_traits(k), lambda x: k * mp.exp(-k * x)
    cells = [(alpha, 1.0, sf ** (-1.0 / alpha) - 1.0)
             for alpha in (0.3, 0.8, 2.0, 3.0) for sf in (1e-2, 1e-7, 1e-12)]
    if kind == "log-refined":
        # far thresholds where t/(2*scale) overflows a float
        cells += [(0.3, 1e-5, 1e300), (0.3, 1e-5, 1e305)]
    for alpha, scale, t in cells:
        with mp.workdps(40):
            want = _mp_delta(mp, alpha, t, profile, scale)
        got = delta_correction(traits, ParetoMarginal(alpha, scale), t)
        assert abs(got / want - 1) < 1e-13, (alpha, scale, t, got, want)


def test_independence_partial_branch_certified_where_quadpack_missed():
    # QUADPACK's delta_correction, with no warning, was +3.3% off at
    # alpha 0.8, sf 1e-10, +1.0% at alpha 0.8, sf 1e-12 and -2.0e-3 at
    # alpha 0.3, sf 1e-12
    mp = pytest.importorskip("mpmath")
    pl = partial_limit_traits(independence_pickands())
    for alpha, sf in ((0.8, 1e-10), (0.8, 1e-12), (0.3, 1e-12)):
        m = ParetoMarginal(alpha, 1.0)
        t = sf ** (-1.0 / alpha) - 1.0
        with mp.workdps(40):
            want = _mp_delta_y(mp, alpha, t)
        got = delta_correction(pl, m, t)
        assert abs(got / want - 1) < 1e-13, (alpha, sf, got, want)


def test_far_tail_values_are_finite():
    # varphi(1, sf) overflows once sf is near 1e-300; the quadrature on it
    # returned NaN or inf in 104 of these 528 cells (e.g. the log_refined
    # candidate at phi 10, alpha 2, t = 1e148)
    pl = partial_limit_traits(independence_pickands())
    for alpha in (0.3, 0.8, 2.0, 3.0):
        m = ParetoMarginal(alpha, 1.0)
        for t in 10.0 ** np.arange(1, 303, 7):
            for phi in (10.0, 2.0):
                p = gumbel_pickands(phi)
                assert math.isfinite(delta_correction(p.log_refined, m, t)), (alpha, phi, t)
                assert math.isfinite(tailprob_expansion_ev(m, p, t).candidates["log_refined"])
            assert math.isfinite(delta_correction(pl, m, t)), (alpha, t)


def test_a_second_order_above_the_first_names_the_c1_boundary():
    # independence at alpha 0.959, just below the C1 boundary alpha*a20 = 1:
    # 2 I(alpha, alpha) is 45.3, and at sf 0.30 the stated value is 4.62
    # against a first order of 0.60. It is noted, not clipped; deeper in the
    # tail the term is small again and no note is made
    m, p = ParetoMarginal(0.959, 0.030), independence_pickands()
    e = tailprob_expansion_ev(m, p, m.quantile(0.70))
    assert math.isclose(e.first_order, 0.6, rel_tol=1e-12)
    assert e.value == e.first_order + sum(term.value for term in e.terms)
    assert math.isclose(e.value, 4.619740809890764, rel_tol=1e-12)
    assert e.diagnostics == (
        "second-order terms outweigh the first order: the expansion is not uniform "
        "across the C1 boundary alpha*a20 = 1 (here 0.959)",
    )
    assert tailprob_expansion_ev(m, p, m.quantile(1.0 - 1e-6)).diagnostics == ()


def _top(scale, t):
    # delta_correction's W = log1p(t/(2*scale)), the same float expression
    return math.log(t / 2.0) - math.log(scale) + math.log1p(2.0 * scale / t)


def _masked_delta_correction(rule, partial_traits, marginal, t):
    # delta_correction with its panel edges masked and concatenated on each
    # call, and every node's survival tested for underflow
    x, wx = rule
    alpha, scale = marginal.alpha, marginal.scale
    top = _top(scale, t)
    half = 0.5 * top
    grade = 2.0 ** np.arange(-20, 10)
    grade = grade[grade < half]
    edges = np.concatenate(([0.0], grade, [half], top - grade[grade >= 0.125][::-1], [top]))
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    radius = 0.5 * (edges[1:] - edges[:-1])[:, None]
    w = (mid + radius * x).ravel()
    weights = (radius * wx).ravel()
    sf = np.exp(-alpha * w)
    live = sf > 0.0
    w, weights, sf = w[live], weights[live], sf[live]
    y = (np.exp(w - top) - math.exp(-top)) * (0.5 / -math.expm1(-top))
    f = np.expm1(-alpha * np.log1p(-y)) * partial_traits.varphi(sf, sf)
    return alpha * float(np.sum(weights * f))


def _thresholds_at_top(m, target):
    """Thresholds above the median of ``m`` whose ``W`` is ``target`` or one
    ulp to either side of it, from a bisection for ``W = target`` and a scan
    of the floats around its end."""
    t0 = 2.0 * m.scale * math.expm1(min(target, 700.0))
    lo, hi = max(m._median, t0 / 4.0), min(4.0 * t0, 1.7976931348623157e308)
    if not _top(m.scale, lo) < target < _top(m.scale, hi):
        return []
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if _top(m.scale, mid) < target else (lo, mid)
    wanted = {math.nextafter(target, -math.inf), target, math.nextafter(target, math.inf)}
    found, t = {}, lo
    for _ in range(64):
        t = math.nextafter(t, -math.inf)
    for _ in range(128):
        if t > m._median and _top(m.scale, t) in wanted:
            found.setdefault(_top(m.scale, t), t)
        t = math.nextafter(t, math.inf)
    return list(found.values())


def test_delta_correction_edge_table_equals_the_masked_edges():
    # the edge table of _delta_rule and the underflow test only where
    # alpha * W >= 700 give the masked concatenation's value bit for bit:
    # from sf 10**-0.5 down past underflow, at W/2 on a grade and one ulp
    # to either side of it, and where survival(t) itself underflows
    rule = np.polynomial.legendre.leggauss(24)
    cells = far = on_grade = 0
    for alpha in (0.3, 0.8, 2.0, 3.0):
        for scale in (1e-5, 1.0, 3.0):
            m = ParetoMarginal(alpha, scale)
            # sf = 10**-(k/4), the Lomax threshold while it is a float
            logs = (k / 4.0 * math.log(10.0) / alpha for k in range(2, 1400, 3))
            ts = [scale * math.expm1(x) for x in logs if x < 709.0]
            for j in range(-6, 10):
                near = _thresholds_at_top(m, 2.0 ** (j + 1))
                on_grade += sum(0.5 * _top(scale, t) == 2.0**j for t in near)
                ts += near
            ts = [t for t in ts if m._median < t < math.inf]
            for phi in (1.05, 2.0, 10.0):
                traits = gumbel_log_refined_traits(phi)
                for t in ts:
                    got = delta_correction(traits, m, t)
                    want = _masked_delta_correction(rule, traits, m, t)
                    assert repr(got) == repr(want), (alpha, scale, phi, t, got, want)
                    cells += 1
                    far += alpha * _top(scale, t) >= 700.0
    assert cells > 10000 and far > 1000 and on_grade > 100, (cells, far, on_grade)


def test_power_term_coefficient_profiles():
    tri = tail_order_traits(independence_pickands())
    got = power_term_coefficient(tri, 0.8)
    assert math.isclose(got, 2.0**1.6 - 2.0**1.8, rel_tol=1e-12)
    tr10 = tail_order_traits(gumbel_pickands(10.0))
    am = 0.8 * tr10.power_m
    assert math.isclose(
        power_term_coefficient(tr10, 0.8), 2.0 ** (2 * am) - 2.0 ** (am + 1), rel_tol=1e-12
    )
    co = tail_order_traits(comonotone_pickands())
    assert math.isclose(power_term_coefficient(co, 2.0), 2.0, rel_tol=1e-14)
    assert math.isclose(power_term_coefficient(co, 0.8), 2.0**0.8 - 2.0, rel_tol=1e-13)


# ---------------------------------------------------------------------------
# case classification


def test_classify_case_pins(p1, p10):
    c = classify_case(0.8, p1)
    assert c.label == "C1\\(C2∩C3)"
    assert c.a20 == 1.0
    assert c.boundary_indicator is True
    # exactly on the C3 boundary, which boundary_indicator records: no note
    assert c.warnings == ()

    c = classify_case(2.0, p1)
    assert c.label == "C1ᶜ"
    assert c.c1 is False
    assert c.boundary_indicator is True

    c = classify_case(0.8, p10)
    assert c.label == "C1\\(C2∩C3)"
    assert c.a20 == 0.0
    assert c.boundary_indicator is False
    assert c.warnings == ()

    c = classify_case(2.0, p10)
    assert c.label == "C1\\(C2∩C3)"
    assert c.a20 == 0.0


def test_c3_note_only_near_but_off_the_boundary():
    # a(1,1) == a2(1,0) + 1 holds exactly in floats for these models
    for p in (independence_pickands(), gumbel_pickands(1.0), comonotone_pickands()):
        for alpha in (0.8, 2.0):
            c = classify_case(alpha, p)
            assert c.boundary_indicator is True
            assert not any("C3" in w for w in c.warnings), (p, alpha)
    # independence mixed with a little Gumbel 2, a convex dependence
    # function whose C3 margin a(1,1) - a2(1,0) - 1 is (sqrt(2) - 1) * eps
    eps, g2 = 1e-9, gumbel_pickands(2.0)
    near = PickandsEV(
        a_fn=lambda x, y: (1.0 - eps) * (x + y) + eps * g2.a_fn(x, y),
        a1_fn=lambda x, y: (1.0 - eps) + eps * g2.a1_fn(x, y),
        a2_fn=lambda x, y: (1.0 - eps) + eps * g2.a2_fn(x, y),
        family="independence-gumbel-mixture",
    )
    for alpha in (0.8, 2.0):
        c = classify_case(alpha, near)
        assert c.boundary_indicator is True
        assert any("C3 boundary" in w for w in c.warnings)


@given(
    alpha=st.floats(0.3, 3.0),
    phi=st.sampled_from([1.0, 1.5, 2.0, 5.0, 10.0]),
)
def test_classify_case_flags_consistent_with_label(alpha, phi):
    c = classify_case(alpha, gumbel_pickands(phi))
    if c.label == "C1\\(C2∩C3)":
        assert c.c1
    else:
        assert c.label == "C1ᶜ"
        assert not c.c1


def test_expansion_term_rejects_nonvanishing_remainder():
    with pytest.raises(DomainError):
        ExpansionTerm(coefficient=1.0, exponent=0.9)
    ExpansionTerm(coefficient=1.0, exponent=1.5)  # fine: higher order
    ExpansionTerm(coefficient=1.0, exponent=1.0, t_factor=lambda t: 1.0 / t)


# ---------------------------------------------------------------------------
# tail probability expansions


def test_independence_tailprob_light_tail_pin(m2, p_ind):
    # alpha=2, t=99: first order 2e-4, second order 4*mu_trunc(t)/t * 1e-4
    e = tailprob_expansion_ev(m2, p_ind, 99.0)
    assert abs(e.value - 2.0396e-4) < 1e-12
    assert e.first_order == pytest.approx(2e-4, rel=1e-14)


def test_independence_tailprob_heavy_tail_coefficient(m08, p_ind):
    # the middle case carries zeta2 and the boundary-indicator term
    # separately, both on the squared survival
    e = tailprob_expansion_ev(m08, p_ind, 1e3)
    assert [term.exponent for term in e.terms] == [2.0, 2.0]
    coeff = sum(term.coefficient for term in e.terms)
    assert math.isclose(coeff, 5.700901, rel_tol=1e-6)
    assert math.isclose(coeff, 2.0 * I_08_08 + 2.0**1.6 - 2.0**1.8, rel_tol=1e-9)


def test_independence_tailprob_matches_exact_truth(m08, m2, p_ind):
    # the alpha=2 remainder decays like 1/t, so it needs one more decade of
    # depth than alpha=0.8 to clear the same relative tolerance
    for m, alpha in ((m08, 0.8), (m2, 2.0)):
        devs = []
        for sf in (1e-2, 1e-3, 1e-5):
            t = m.quantile(1.0 - sf)
            e = tailprob_expansion_ev(m, p_ind, t)
            p_exact = oracles.exact_sum_tail(alpha, 1.0, "gumbel", 1.0, t)
            devs.append(abs(e.value - p_exact) / p_exact)
        assert devs[0] > devs[1] > devs[2]
        assert devs[-1] < 1e-3


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 17: the corner slope of Gumbel 1.0001 is 0, so the "
    "stated second-order term vanishes and the smaller risk's mean shift is "
    "missing; at alpha 2, sf 1e-6 the stated value is -2.0e-3 off the exact tail",
)
def test_stated_value_just_above_phi_1_matches_exact_truth(m2):
    t = m2.quantile(1.0 - 1e-6)
    e = tailprob_expansion_ev(m2, gumbel_pickands(1.0001), t)
    p_exact = oracles.exact_sum_tail(2.0, 1.0, "gumbel", 1.0001, t)
    assert abs(e.value - p_exact) / p_exact < 1e-4


@pytest.mark.parametrize("phi", [1.0000001, 1.0001])
def test_eta_candidate_just_above_phi_1_matches_exact_truth(m08, phi):
    # the heavy tail keeps the eta-corrected power term (measured -6.9e-11
    # and +1.5e-10 off), where the stated value, without a second-order
    # term, is -2.9e-6 off
    t = m08.quantile(1.0 - 1e-6)
    e = tailprob_expansion_ev(m08, gumbel_pickands(phi), t)
    p_exact = oracles.exact_sum_tail(0.8, 1.0, "gumbel", phi, t)
    assert e.case.a20 == 0.0
    assert abs(e.candidates["power_term_with_eta"] - p_exact) / p_exact < 1e-8


def test_ev_tailprob_reduces_to_independence(m08, m2, p1, p_ind):
    for m in (m08, m2):
        for sf in np.geomspace(1e-2, 1e-5, 8):
            t = m.quantile(1.0 - sf)
            ev = tailprob_expansion_ev(m, p1, t)
            ind = tailprob_expansion_ev(m, p_ind, t)
            assert abs(ev.value - ind.value) / ind.value <= 1e-12


def test_ev_tailprob_degenerate_second_order_is_flagged(m08, m2, p10):
    t = m08.quantile(1.0 - 1e-3)
    e = tailprob_expansion_ev(m08, p10, t)
    assert e.value == e.first_order
    assert e.candidates is not None
    assert any("second-order term vanishes" in d for d in e.diagnostics)
    assert set(e.candidates) == {"leading", "power_term", "power_term_with_eta", "log_refined"}
    # the eta-refined candidate needs a convergent corner integral, absent here
    t2 = m2.quantile(1.0 - 1e-3)
    e2 = tailprob_expansion_ev(m2, p10, t2)
    assert "power_term_with_eta" not in e2.candidates
    assert set(e2.candidates) >= {"leading", "power_term", "log_refined"}


def test_ev_tailprob_candidate_values_frozen(m08, p10):
    # frozen 2026-08-18; exact sum tail at this point is 1.824660e-3
    t = m08.quantile(1.0 - 1e-3)
    e = tailprob_expansion_ev(m08, p10, t)
    want = {
        "leading": 0.002000000000000001,
        "power_term": 0.001463842292226203,
        "power_term_with_eta": 0.001774399581518936,
        "log_refined": 0.0016682620561273614,
    }
    for key, val in want.items():
        assert math.isclose(e.candidates[key], val, rel_tol=1e-10)


def test_ev_tailprob_case_labels(m08, m2, p1, p10):
    assert tailprob_expansion_ev(m08, p1, 1e3).case.label == "C1\\(C2∩C3)"
    assert tailprob_expansion_ev(m2, p1, 1e3).case.label == "C1ᶜ"
    assert tailprob_expansion_ev(m08, p10, 1e3).case.label == "C1\\(C2∩C3)"


def test_tailprob_first_order_dominates_in_depth(m08, m2, p1, p10):
    # (value - 2*sf)/sf -> 0 along the tail for every expansion route
    for m in (m08, m2):
        for p in (p1, p10):
            rels = []
            for t in (1e2, 1e3, 1e4, 1e5):
                e = tailprob_expansion_ev(m, p, t)
                sf = m.survival(t)
                rels.append(abs(e.value - 2.0 * sf) / sf)
            assert rels[-1] < rels[0] or rels[0] == 0.0
            assert rels[-1] < 1e-2


def test_general_tailprob_eta_branch_equals_closed_form(m08, p_ind):
    # for independence the stated terms are the trait theorem's eta branch:
    # zeta2 = 2*integral_I(alpha, alpha) is twice the eta limit, and the
    # boundary term is the power term
    tri = tail_order_traits(p_ind)
    want = 2.0 * eta_limit(tri, 0.8) + power_term_coefficient(tri, 0.8)
    for t in (1e2, 1e3, *(sf**-1.25 - 1.0 for sf in (1e-15, 1e-16, 1e-150))):
        e = tailprob_expansion_ev(m08, p_ind, t)
        assert math.isclose(sum(term.coefficient for term in e.terms), want, rel_tol=1e-15)
        s = m08.survival(t)
        assert abs(e.value - (2.0 * s + want * s**2.0)) / e.value <= 1e-12


def _partial_branch(m, traits, partial, t):
    """The trait theorem's partial branch ``2*sf + power_term_coefficient *
    sf**kappa + 2*delta_correction(t) * sf * h(sf)``, assembled from the
    public functionals."""
    s = m.survival(t)
    c = power_term_coefficient(traits, m.alpha)
    return 2.0 * s + c * s**traits.kappa + 2.0 * delta_correction(partial, m, t) * s * partial.h(s)


def test_general_tailprob_partial_branch_tracks_exact_truth(m2, p_ind):
    # ROADMAP item 5's evidence that, for independence, the partial branch
    # tracks the exact tail (closer than the stated value, per its table)
    tri, pl = tail_order_traits(p_ind), partial_limit_traits(p_ind)
    devs = []
    for t in (1e2, 1e3, 1e4):
        value = _partial_branch(m2, tri, pl, t)
        p_exact = oracles.exact_sum_tail(2.0, 1.0, "gumbel", 1.0, t)
        devs.append(abs(value - p_exact) / p_exact)
    assert devs[0] > devs[1] > devs[2]
    assert devs[1] < 1e-3


@pytest.mark.parametrize("phi", [2.0, 10.0])
@pytest.mark.parametrize("alpha", [0.8, 2.0])
def test_candidates_are_the_trait_theorems_branches(phi, alpha):
    # the degenerate case's candidates are the trait theorem's eta branch and
    # its partial branch on the log-refined traits; the eta candidate is
    # offered exactly when the eta limit is finite
    m, p = ParetoMarginal(alpha, 1.0), gumbel_pickands(phi)
    traits = tail_order_traits(p)
    c, eta = power_term_coefficient(traits, alpha), eta_limit(traits, alpha)
    for sf in np.geomspace(1e-2, 1e-6, 5):
        t = m.quantile(1.0 - sf)
        s = m.survival(t)
        candidates = tailprob_expansion_ev(m, p, t).candidates
        partial = _partial_branch(m, traits, p.log_refined, t)
        assert math.isclose(candidates["log_refined"], partial, rel_tol=1e-15)
        assert ("power_term_with_eta" in candidates) == math.isfinite(eta)
        if math.isfinite(eta):
            want = 2.0 * s + (2.0 * eta + c) * s**traits.kappa
            assert math.isclose(candidates["power_term_with_eta"], want, rel_tol=1e-15)


def _quadratic_interaction(k: float, family: str) -> PickandsEV:
    """The symmetric, homogeneous ``a = x + y + k*x**2*y**2/(x + y)**3``,
    with ``a(1,1) = 2 + k/8`` and ``a2(1,0) = 1``: above ``x + y`` for
    ``k > 0`` and not convex for ``k < 0``."""

    def a_fn(x, y):
        return x + y + k * x**2 * y**2 / (x + y) ** 3

    def a2_fn(x, y):
        s = x + y
        return 1 + k * (2 * x**2 * y / s**3 - 3 * x**2 * y**2 / s**4)

    return PickandsEV(a_fn, lambda x, y: a2_fn(y, x), a2_fn, family=family)


def _asymmetric_logistic(theta1: float, theta2: float, r: float) -> PickandsEV:
    """Tawn's (1988) asymmetric logistic ``a = (1 - theta1)*x + (1 - theta2)*y
    + ((theta1*x)**r + (theta2*y)**r)**(1/r)``: convex, within the bounds and
    Euler's, but not symmetric unless ``theta1 == theta2``."""

    def s(x, y):
        return (theta1 * x) ** r + (theta2 * y) ** r

    def a_fn(x, y):
        return (1 - theta1) * x + (1 - theta2) * y + s(x, y) ** (1 / r)

    def a1_fn(x, y):
        return (1 - theta1) + theta1 * (theta1 * x) ** (r - 1) * s(x, y) ** (1 / r - 1)

    def a2_fn(x, y):
        return (1 - theta2) + theta2 * (theta2 * y) ** (r - 1) * s(x, y) ** (1 / r - 1)

    return PickandsEV(a_fn, a1_fn, a2_fn, family="asymmetric-logistic")


def _euler_breaking() -> PickandsEV:
    # Gumbel's derivatives scaled by 0.9: still symmetric, with a corner
    # slope of 0, but x*a1 + y*a2 = 0.9*a
    g = gumbel_pickands(2.0)
    return dataclasses.replace(
        g, a1_fn=lambda x, y: 0.9 * g.a1_fn(x, y), a2_fn=lambda x, y: 0.9 * g.a2_fn(x, y),
        family="euler-breaking",
    )


@pytest.mark.parametrize(
    "make,match",
    [
        # swapping its arguments gives the same law of X + Y, yet the case and
        # the tail at alpha 2, t 100 moved from C1ᶜ 2.037e-4 to C1\(C2∩C3)
        # 2.319e-4 while symmetry went unchecked
        (lambda: _asymmetric_logistic(0.9, 0.3, 3.0), "not symmetric"),
        (lambda: _quadratic_interaction(4.8, "above-the-sum"), "bounds"),
        (_euler_breaking, "Euler identity"),
        (lambda: dataclasses.replace(independence_pickands(), a2_fn=lambda x, y: 1.5), "corner slope"),
        # a convex dependence function has a(1,1) - 1 = int_0^1 a2(1,y) dy >=
        # a2(1,0), so the paper's third case (C3: a(1,1) < a2(1,0) + 1) needs
        # a non-convex one, such as this one with a(1,1) = 1.4 and a2(1,0) = 1
        (lambda: _quadratic_interaction(-4.8, "non-convex"), "not convex"),
    ],
    ids=["asymmetric", "above-the-sum", "euler", "corner-slope", "non-convex"],
)
def test_broken_dependence_function_is_rejected(make, match):
    # every public entry that reads the corner slope raises, naming the
    # broken property; no expansion may turn such a function into a number
    p = make()
    m = ParetoMarginal(0.8, 1.0)
    for run in (
        lambda: classify_case(0.8, p),
        lambda: tailprob_expansion_ev(m, p, m.quantile(0.999)),
        lambda: var_expansion_ev(m, p, 0.999),
        lambda: var_from_tailprob_inversion(m, p, 0.999),
        lambda: partial_limit_traits(p),
        lambda: check_assumptions(copulas._ev_copula(p)),
    ):
        with pytest.raises(DomainError, match=match):
            run()


@given(
    p=st.one_of(
        st.floats(1.0, 50.0).map(gumbel_pickands),
        st.floats(0.05, 3.0).map(galambos_pickands),
        st.sampled_from([independence_pickands(), comonotone_pickands()]),
    ),
    alpha=st.floats(0.3, 3.0),
    w=st.floats(0.01, 0.99),
    w2=st.floats(0.01, 0.99),
)
def test_valid_dependence_functions_keep_the_contract(p, alpha, w, w2):
    # the shipped families and Galambos pass the contract check, and keep the
    # contract between its probe points to rounding (measured: at most
    # 5.4e-16 relative), far inside the check's 1e-8 and the C3 margin's
    c = classify_case(alpha, p)
    assert float(p.a_fn(1.0, 1.0)) - c.a20 - 1.0 >= -1e-10
    x, y = 1.0 - w, w
    a = p.a_fn(x, y)
    assert abs(p.a_fn(y, x) - a) <= 1e-14 * a
    assert abs(p.a1_fn(x, y) - p.a2_fn(y, x)) <= 1e-14
    assert max(x, y) * (1.0 - 1e-14) <= a <= (x + y) * (1.0 + 1e-14)
    assert abs(x * p.a1_fn(x, y) + y * p.a2_fn(x, y) - a) <= 1e-14 * a
    # convexity: a lies above its supporting line at (x, y)
    assert p.a_fn(1.0 - w2, w2) >= (1.0 - w2) * p.a1_fn(x, y) + w2 * p.a2_fn(x, y) - 1e-14


def test_log_refined_candidate_quadrature_converges_at_phi2_alpha03():
    # QUADPACK raised IntegrationWarning (roundoff in the extrapolation
    # table) at these two thresholds, t = 8.7e13 and 2.3e16, and its value
    # was -3.8e-10 relative off at the first
    mp = pytest.importorskip("mpmath")
    m, p = ParetoMarginal(0.3, 1.0), gumbel_pickands(2.0)
    for sf in np.geomspace(1e-2, 1e-10, 12)[3:5]:
        t = m.quantile(1.0 - sf)
        e = tailprob_expansion_ev(m, p, t)
        assert all(math.isfinite(v) for v in e.candidates.values())
        with mp.workdps(40):
            want = _mp_delta(mp, 0.3, t, lambda x: x)
        got = delta_correction(p.log_refined, m, t)
        assert abs(got / want - 1) < 1e-13, (t, got, want)


def test_threshold_must_be_finite_and_above_the_median(m08, m2, p1, p10):
    # an infinite threshold once gave NaN (inf / inf in the complement term)
    pl = partial_limit_traits(independence_pickands())
    calls = [
        lambda t: tailprob_expansion_ev(m2, p1, t),  # complement case
        lambda t: tailprob_expansion_ev(m08, p10, t),  # degenerate case, candidates
        lambda t: delta_correction(pl, m08, t),
    ]
    for call in calls:
        for t in (math.inf, math.nan, 0.1):
            with pytest.raises(DomainError, match="finite t above the marginal median"):
                call(t)


@pytest.mark.filterwarnings("error")
def test_inversion_with_an_infinite_bracket_raises_domain_error():
    # at alpha 0.003 the level's quantiles overflow to inf, so the doubling
    # bracket starts and stays at an infinite threshold
    m = ParetoMarginal(0.003, 1.0)
    assert math.isinf(m.quantile(0.99))
    for p in (gumbel_pickands(1.0), gumbel_pickands(10.0)):
        with pytest.raises(DomainError, match="could not bracket"):
            var_from_tailprob_inversion(m, p, 0.99)


@pytest.mark.filterwarnings("error")
def test_an_overflowing_bracket_raises_without_a_warning():
    # the closed-form root quantile(0.995) is 0.005**(-1/0.003) = inf
    for phi in (1.0005, 2.0, 10.0):
        with pytest.raises(DomainError, match="could not bracket.*root overflows a float"):
            var_from_tailprob_inversion(ParetoMarginal(0.003, 1.0), gumbel_pickands(phi), 0.99)


@pytest.mark.filterwarnings("error")
def test_a_bracket_doubled_past_the_largest_float_raises(monkeypatch):
    # a stated value that never crosses 1 - q makes the bracket double from
    # about 4e291 at alpha 0.0055, past the largest float within 60 steps
    import tailsum.asymptotics as asymptotics

    monkeypatch.setattr(asymptotics, "_tail_value", lambda specs, m, t, sf: 1.0)
    m = ParetoMarginal(0.0055, 1.0)
    assert math.isfinite(4.0 * m.quantile(0.975))
    with pytest.raises(DomainError, match="could not bracket.*overflows a float"):
        var_from_tailprob_inversion(m, gumbel_pickands(2.0), 0.9)


@pytest.mark.filterwarnings("error")
def test_a_stated_value_below_the_level_down_to_its_quantile_raises(monkeypatch):
    # the bracket's low end stops at quantile(q); a stated value below 1 - q
    # there has no root above it
    import tailsum.asymptotics as asymptotics

    monkeypatch.setattr(asymptotics, "_tail_value", lambda specs, m, t, sf: 0.0)
    with pytest.raises(DomainError, match="could not bracket.*may not cross"):
        var_from_tailprob_inversion(ParetoMarginal(0.8, 1.0), gumbel_pickands(2.0), 0.9)


@pytest.mark.filterwarnings("error")
def test_tiny_tail_index_raises_domain_error():
    # 2**(1/alpha) overflows at alpha 1e-4 (it raised OverflowError). At
    # alpha 0.01 a bracket from quantile(q) to 1e261 defeated the root finder
    # (it raised scipy's RuntimeError, then "did not converge"), and at alpha
    # 0.005 its top 4 * quantile(0.975) was inf; the bracket grown from the
    # closed-form root finds both roots, where the stated value is 1 - q
    for alpha in (1e-4, 0.003):
        with pytest.raises(DomainError, match="overflows"):
            var_expansion_ev(ParetoMarginal(alpha, 1.0), gumbel_pickands(1.0), 0.99)
    for alpha, phi, q in ((0.01, 1.0, 0.99), (0.01, 10.0, 0.99), (0.005, 1.5, 0.9),
                          (0.005, 10.0, 0.9)):
        m, p = ParetoMarginal(alpha, 1.0), gumbel_pickands(phi)
        root = var_from_tailprob_inversion(m, p, q).inverted
        assert 0.0 < root < math.inf
        assert tailprob_expansion_ev(m, p, root).value == 1.0 - q, (alpha, phi, q)
    # at a moderate level the case correction c * 2**-(a20+1) / alpha *
    # (1-q)**a20 falls below -1; these once returned -9.45e13 and -1.36e62
    for alpha, q in ((0.05, 0.6), (0.01, 0.51)):
        m = ParetoMarginal(alpha, 1.0)
        with pytest.raises(DomainError, match=f"q={q}, alpha={alpha} is not positive") as exc:
            var_expansion_ev(m, gumbel_pickands(1.0), q)
        assert f"first order {2.0 ** (1.0 / alpha) * m.quantile(q):.6g}" in str(exc.value)


# ---------------------------------------------------------------------------
# quantile expansions


def test_var_independence_pins(m08, m2, p_ind):
    assert math.isclose(
        var_expansion_ev(m08, p_ind, 0.99).value, 763.0990980067236, rel_tol=1e-12
    )
    assert math.isclose(
        var_expansion_ev(m08, p_ind, 0.999).value, 13396.251086593044, rel_tol=1e-12
    )
    # alpha >= 1 closes into the regular-variation strip; symbolic value
    for q in (0.99, 0.999):
        xq = m2.quantile(q)
        want = math.sqrt(2.0) * xq * (1.0 - (math.sqrt(2.0) - 1.0) / xq)
        assert math.isclose(var_expansion_ev(m2, p_ind, q).value, want, rel_tol=1e-12)
    assert math.isclose(
        var_expansion_ev(m2, p_ind, 0.999).value, 42.721359549995775, rel_tol=1e-12
    )


def test_alpha_half_closed_form_matches_the_exact_oracle():
    q = 0.99  # deeper levels make the oracle's quadrature detect roundoff
    exact = oracles.exact_sum_var(0.5, 1.0, "gumbel", 1.0, q)
    assert math.isclose(oracles.independent_half_sum_var(1.0, q), exact, rel_tol=1e-11)


@pytest.mark.parametrize("q, measured", [(0.99, 2.5e-5), (0.999, 2.5e-7), (0.9999, 2.5e-9)])
def test_var_at_alpha_half_matches_the_exact_reference(q, measured, p1, p_ind):
    # At alpha 0.5 the case coefficient 2*I(1/2, 1/2) + 2 - 2*sqrt(2) is 0,
    # but the middle case states its terms, so the case formula is taken and
    # gives the first order; the strip would be off by -3.3e-4, -3.3e-6 and
    # -3.3e-8. The gate is twice the formula's measured error against the
    # exact VaR.
    m = ParetoMarginal(0.5, 1.0)
    exact = oracles.independent_half_sum_var(1.0, q)
    for p in (p_ind, p1):
        v = var_expansion_ev(m, p, q)
        assert v.rho_regime == "below"
        assert abs(v.value - exact) / exact < 2.0 * measured


@pytest.mark.parametrize("pickands", [independence_pickands(), gumbel_pickands(1.0)],
                         ids=["independence", "gumbel1"])
def test_alpha_half_takes_the_case_formula_with_a_zero_coefficient(pickands):
    # the boundary term 2 - 2*sqrt(2) cancels 2*I(1/2, 1/2) exactly in
    # floats; the stated terms, not the sign of that sum, pick the formula
    m = ParetoMarginal(0.5, 1.0)
    plan = _model_plan(m, pickands)
    assert plan.coefficient == 0.0
    assert plan.rho_regime == "below"
    v = var_expansion_ev(m, pickands, 0.6)
    assert v.rho_regime == "below"
    assert v.value == v.first_order


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 0.95])
@pytest.mark.parametrize("pickands", [independence_pickands(), gumbel_pickands(1.0)],
                         ids=["independence", "gumbel1"])
def test_boundary_term_is_the_power_term_spec(alpha, pickands):
    # the stated boundary-indicator term is the power_term candidate's spec,
    # bit for bit (alpha 0.8: -0.4507691201637001)
    m = ParetoMarginal(alpha, 1.0)
    traits = tail_order_traits(pickands)
    coefficient = power_term_coefficient(traits, alpha)
    assert _model_plan(m, pickands).terms[-1] == ("power", coefficient, traits.kappa, None)
    e = tailprob_expansion_ev(m, pickands, m.quantile(0.999))
    assert e.terms[-1].coefficient == coefficient


def test_var_ev_reduces_to_independence(m08, m2, p1, p_ind):
    for m in (m08, m2):
        for q in (0.99, 0.995, 0.999, 0.9995, 0.9999):
            ev = var_expansion_ev(m, p1, q).value
            ind = var_expansion_ev(m, p_ind, q).value
            assert abs(ev - ind) / ind <= 1e-12


def test_var_ev_pins(m08, m2, p10):
    assert math.isclose(
        var_expansion_ev(m08, p10, 0.99).value, 746.4637643677854, rel_tol=1e-12
    )
    assert math.isclose(
        var_expansion_ev(m08, p10, 0.999).value, 13369.149245278933, rel_tol=1e-12
    )
    # a middle case that states no term falls back to the strip closure
    e = var_expansion_ev(m08, p10, 0.99)
    assert e.case.label == "C1\\(C2∩C3)"
    assert e.rho_regime == "above"
    e2 = var_expansion_ev(m2, p10, 0.999)
    assert math.isclose(e2.value, 42.721359549995775, rel_tol=1e-12)


def test_var_tracks_exact_truth_in_depth(m08, p_ind):
    # relative error of the expanded quantile shrinks as q -> 1
    devs = []
    for q in (0.99, 0.999, 0.9999):
        v = var_expansion_ev(m08, p_ind, q).value
        truth = oracles.exact_sum_var(0.8, 1.0, "gumbel", 1.0, q)
        devs.append(abs(v - truth) / truth)
    assert devs[0] > devs[-1]
    assert devs[-1] < 1e-3


def test_var_domain_and_boundary(m08, p10, p_ind):
    m1 = ParetoMarginal(1.0, 1.0)
    with pytest.raises(BoundaryCaseError):
        var_expansion_ev(m1, p_ind, 0.99)
    with pytest.raises(BoundaryCaseError):
        var_expansion_ev(m1, p10, 0.99)
    with pytest.raises(DomainError):
        var_expansion_ev(m08, p_ind, 0.5)
    with pytest.raises(DomainError):
        var_expansion_ev(m08, p_ind, 1.0)
    with pytest.raises(DomainError):
        var_expansion_ev(m08, p10, 0.3)


@pytest.mark.parametrize("alpha", [0.3, 0.8, 1.0, 1.5, 2.0, 3.0])
def test_comonotone_raises_on_every_path(alpha, p_co):
    # the boundary term sf**a(1,1) has exponent 1, the leading order itself;
    # no expansion may turn it into a number
    m = ParetoMarginal(alpha, 1.0)
    message = "exponent above 1"
    with pytest.raises(DomainError, match=message):
        tailprob_expansion_ev(m, p_co, m.quantile(0.999))
    with pytest.raises(DomainError, match=message):
        var_from_tailprob_inversion(m, p_co, 0.99)
    if alpha == 1.0:
        with pytest.raises(BoundaryCaseError):
            var_expansion_ev(m, p_co, 0.99)
    else:
        with pytest.raises(DomainError, match=message):
            var_expansion_ev(m, p_co, 0.99)


def test_comonotone_plan_raises_before_building_a_term(p_co, monkeypatch):
    # the tail order a(1,1) = 1 alone decides it: no corner integral is
    # evaluated, and the message says why
    from tailsum import asymptotics

    def no_terms(*args):
        raise AssertionError("integral_I evaluated for a tail order of 1")

    monkeypatch.setattr(asymptotics, "integral_I", no_terms)
    m = ParetoMarginal(0.8, 1.0)
    with pytest.raises(DomainError, match=r"a\(1,1\) = 1 puts the boundary term at the leading"):
        _model_plan(m, p_co)
    with pytest.raises(DomainError, match="sum is 2X"):
        tailprob_expansion_ev(m, p_co, m.quantile(0.999))


@given(
    p=st.one_of(
        st.floats(1.0, 20.0).map(gumbel_pickands),
        st.floats(0.2, 3.0).map(galambos_pickands),
    ),
    alpha=st.floats(0.3, 3.0).filter(lambda a: a != 1.0),
)
@example(p=gumbel_pickands(1.0), alpha=0.5)
def test_var_formula_applies_exactly_when_the_middle_case_states_a_term(p, alpha):
    # the quantile expansion has one formula and no test on rho: the case
    # predicates already put the Lomax rho = -1 below the case threshold.
    # The regime follows the stated terms, as the tail side does, not the
    # last bit of their coefficient (0 at alpha 0.5 for Gumbel 1)
    m = ParetoMarginal(alpha, 1.0)
    case = classify_case(alpha, p)
    if case.label == "C1\\(C2∩C3)":
        assert -1.0 < -alpha * case.a20
    plan = _model_plan(m, p)
    regime = var_expansion_ev(m, p, 0.99).rho_regime
    assert (regime == "below") == (plan.coefficient is not None and bool(plan.terms))


def test_var_inversion_consistency(m08, p10, p_ind):
    d = var_from_tailprob_inversion(m08, p_ind, 0.999)
    assert d.discrepancy < 1e-3
    assert math.isclose(d.formula, 13396.251086593044, rel_tol=1e-12)
    assert math.isclose(d.inverted, d.formula, rel_tol=2e-3)
    d10 = var_from_tailprob_inversion(m08, p10, 0.999)
    assert d10.discrepancy < 1e-3
    assert math.isclose(d10.formula, 13369.149245278933, rel_tol=1e-12)


def test_var_inversion_brackets_extreme_quantiles(m08, p_ind):
    d = var_from_tailprob_inversion(m08, p_ind, 0.9999999)
    assert math.isfinite(d.inverted)
    assert d.discrepancy < 1e-2


def _plan_models(alphas=(0.8, 2.0)):
    pickands = {
        "gumbel10": gumbel_pickands(10.0), "gumbel5": gumbel_pickands(5.0),
        "gumbel1": gumbel_pickands(1.0), "independence": independence_pickands(),
        "comonotone": comonotone_pickands(),
    }
    return [
        (name, ParetoMarginal(alpha, scale), p)
        for name, p in pickands.items() for alpha in alphas for scale in (1.0, 2.5)
    ]


def _outcome(fn, *args):
    """The result, or the type and message of the error raised (the
    comonotone tail has a first-order "second-order" term and raises)."""
    try:
        return fn(*args)
    except DomainError as exc:
        return type(exc), str(exc)


def test_model_plans_do_not_leak_between_models():
    # interleave every model's queries in shuffled order with the plan cache
    # warm, then compare each answer with one computed from an empty cache
    queries = []
    for name, m, p in _plan_models():
        for sf in (1e-2, 1e-5, 1e-9):
            queries.append((name, m, p, tailprob_expansion_ev, m.quantile(1.0 - sf)))
        for q in (0.99, 0.9999):
            queries.append((name, m, p, var_expansion_ev, q))
    random.Random(20261018).shuffle(queries)
    warm = [_outcome(fn, m, p, level) for _, m, p, fn, level in queries]
    for (name, m, p, fn, level), got in zip(queries, warm):
        _model_plan.cache_clear()
        assert got == _outcome(fn, m, p, level), (name, m, fn.__name__, level)


def test_a_warm_var_query_builds_no_array_and_no_label(monkeypatch):
    # once the plan is built, a quantile query does only the work that
    # depends on q: no numpy array dispatch and no relabelled case
    models = [(name, m, p) for name, m, p in _plan_models() if name != "comonotone"]
    levels = (0.9, 0.99, np.float64(0.999), np.float64(0.9999))
    want = {}
    for name, m, p in models:
        for q in levels:
            want[name, m, q] = var_expansion_ev(m, p, q)

    def forbidden(*args, **kwargs):
        raise AssertionError("called on a warm quantile query")

    monkeypatch.setattr(np, "asarray", forbidden)
    monkeypatch.setattr(dataclasses, "replace", forbidden)
    for name, m, p in models:
        for q in levels:
            assert var_expansion_ev(m, p, q) == want[name, m, q], (name, m, q)


@pytest.mark.parametrize(
    "alpha, pickands",
    [(0.8, independence_pickands()), (2.0, independence_pickands()), (0.8, gumbel_pickands(2.0))],
    ids=["independence-case-formula", "independence-complement", "gumbel2-candidates"],
)
def test_numpy_scalar_levels_give_python_floats(alpha, pickands):
    # a numpy.float64 level once gave a numpy.float64 VaR on the case formula
    # (independence, alpha 0.8) and a numpy.float64 tail in the complement
    # case (independence, alpha 2); the values themselves never differed
    m = ParetoMarginal(alpha, 1.0)

    def numbers(result):
        out = [result.value, result.first_order]
        out += [term.value for term in getattr(result, "terms", ())]
        out += list((getattr(result, "candidates", None) or {}).values())
        return out

    for expand, level in ((tailprob_expansion_ev, 50.0), (var_expansion_ev, 0.99)):
        want = numbers(expand(m, pickands, level))
        got = numbers(expand(m, pickands, np.float64(level)))
        assert [type(x) for x in got] == [float] * len(got), (expand.__name__, got)
        assert got == want, expand.__name__


def test_inversion_equals_brentq_on_the_stated_tail_value():
    def brentq(m, p, q, lo, hi):
        def f(t):
            return tailprob_expansion_ev(m, p, t).value - (1.0 - q)

        return optimize.brentq(f, lo, hi, xtol=1e-12 * max(1.0, m.quantile(q)), rtol=1e-14)

    def reference(m, p, q):
        # the closed-form root of 2 * sf = 1 - q, one log-Newton step on the
        # leading log-slope alpha * t / (t + scale), then a bracket grown from
        # the step toward the root, fourfold, not below quantile(q)
        target = 1.0 - q

        def f(t):
            return tailprob_expansion_ev(m, p, t).value - target

        floor, t0 = m.quantile(q), m.quantile(1.0 - target / 2.0)
        try:
            value = tailprob_expansion_ev(m, p, t0).value
            step = t0 * math.exp(math.log(value / target) * (t0 + m.scale) / (m.alpha * t0))
        except (ValueError, OverflowError):
            step = t0
        c = max(step if step < math.inf else t0, floor)
        width = max(abs(c - t0), 1e-12 * max(1.0, floor) + 1e-14 * c)
        lo = hi = c
        while f(hi) > 0:
            lo, hi, width = hi, c + width, 4.0 * width
        while f(lo) < 0:
            lo, hi, width = max(c - width, floor), lo, 4.0 * width
        return brentq(m, p, q, lo, hi)

    def fixed_bracket_root(m, p, q):
        # the bracket [Q(q), 4 Q(1 - (1-q)/4) + 4 scale], its top doubled
        target = 1.0 - q
        lo = m.quantile(q)
        hi = 4.0 * m.quantile(1.0 - target / 4.0) + 4.0 * m.scale
        while (tailprob_expansion_ev(m, p, lo).value - target) * (
            tailprob_expansion_ev(m, p, hi).value - target
        ) > 0:
            hi *= 2.0
        return brentq(m, p, q, lo, hi)

    for name, m, p in _plan_models(alphas=(0.3, 0.8, 2.0, 3.0)):
        for q in (0.9, 0.99, 0.9999, 0.999999):
            d = _outcome(var_from_tailprob_inversion, m, p, q)
            want = _outcome(reference, m, p, q)
            if isinstance(d, tuple):
                assert d == want, (name, m, q)
                continue
            assert d.inverted == want, (name, m, q)
            assert d.formula == var_expansion_ev(m, p, q).value
            # the root the fixed bracket gave, within Brent's tolerance
            old = fixed_bracket_root(m, p, q)
            assert abs(d.inverted - old) <= 1e-12 * max(1.0, m.quantile(q)) + 1e-14 * abs(old)


@pytest.mark.parametrize("phi", [1.0, 10.0])
@pytest.mark.parametrize("alpha", [0.8, 2.0])
def test_inversion_evaluates_the_stated_tail_a_few_times_per_root(monkeypatch, phi, alpha):
    # the benchmark's analytic models and levels 1 - q in [1e-4, 1e-2]: the
    # closed-form start and the memo leave at most 12 evaluations per root,
    # each at its own threshold (measured: 1 to 7; the fixed bracket
    # [Q(q), 4 Q(1 - (1-q)/4) + 4 scale] took 13 or 14 here)
    import tailsum.asymptotics as asymptotics

    calls = []
    tail_value = asymptotics._tail_value

    def counted(specs, m, t, sf):
        calls.append(t)
        return tail_value(specs, m, t, sf)

    monkeypatch.setattr(asymptotics, "_tail_value", counted)
    m, p = ParetoMarginal(alpha, 1.0), gumbel_pickands(phi)
    for q in 1.0 - np.geomspace(1e-2, 1e-4, 9):
        calls.clear()
        var_from_tailprob_inversion(m, p, float(q))
        assert 1 <= len(calls) <= 12, (q, len(calls))
        assert len(set(calls)) == len(calls), q


@pytest.mark.parametrize(
    "phi, alpha, err99, err999",
    [
        (1.0, 2.0, -1.004872e-02, -2.872918e-03),
        (1.0001, 2.0, -7.049259e-02, -2.403849e-02),
        (1.5, 0.8, -2.295106e-02, -7.248163e-03),
        (2.0, 0.8, -1.913745e-02, -9.617638e-03),
        (2.0, 1.5, -1.399496e-01, -8.503050e-02),
        (10.0, 0.8, 1.386528e-01, 1.164209e-01),
        (10.0, 2.0, -2.662859e-01, -2.729960e-01),
        (5.0, 3.0, -3.134658e-01, -3.108316e-01),
        (1.0, 0.8, 6.464116e-03, 3.725755e-04),
    ],
)
def test_inverted_root_error_against_the_exact_var(phi, alpha, err99, err999):
    # the root of the stated tail against the quadrature oracle's VaR at
    # q 0.99 and 0.999, pinned where measured (alpha 0.5 is left out: the
    # oracle is off there). Where the stated second order vanishes (phi >
    # 1) the root is the closed form and its miss is the missing term's
    m, p = ParetoMarginal(alpha, 1.0), gumbel_pickands(phi)
    for q, pinned in ((0.99, err99), (0.999, err999)):
        inverted = var_from_tailprob_inversion(m, p, q).inverted
        err = inverted / oracles.exact_sum_var(alpha, 1.0, "gumbel", phi, q) - 1.0
        assert abs(err - pinned) <= 1e-6 * abs(pinned) + 1e-8, (q, err)


# ---------------------------------------------------------------------------
# worked example kept as a non-strict expectation: the refined candidate at
# this depth sits ~2.8% below the exact probability while three Monte Carlo
# standard errors at n=1e7 span ~2.2%, so agreement holds for roughly a
# quarter of seeds


@pytest.mark.xfail(
    strict=False,
    reason="refined candidate sits ~3.7 standard errors from the exact value at n=1e7",
)
def test_refined_candidate_within_three_sigma_at_ten_million(m08, p10):
    from tailsum import empirical_tailprob, sample_pairs

    t = m08.quantile(1.0 - 1e-3)
    e = tailprob_expansion_ev(m08, p10, t)
    sample = sample_pairs(m08, "gumbel", 10_000_000, 42, phi=10.0)
    est = empirical_tailprob(sample, t)
    assert abs(e.candidates["power_term_with_eta"] - est.point) <= 3.0 * est.stderr
