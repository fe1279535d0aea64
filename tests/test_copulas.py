"""Unit tests for extreme-value dependence functions and survival copulas."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from test_asymptotics import power_corner_traits
from test_galambos import galambos_pickands
from tailsum import (
    DomainError,
    PartialLimitTraits,
    PickandsEV,
    TailOrderTraits,
    UnsupportedFamilyError,
    check_assumptions,
    classify_case,
    comonotone_pickands,
    estimate_corner_slope,
    ev_survival_copula,
    gumbel_log_refined_traits,
    gumbel_pickands,
    independence_pickands,
    make_survival_copula,
    tail_order_traits,
    trial_tail_order_traits,
)

pos = st.floats(0.05, 20.0)


# ---------------------------------------------------------------------------
# dependence (Pickands-type) functions


@given(u=pos, v=pos)
def test_dependence_function_bounds(u, v):
    # any valid stable tail dependence function sits between the comonotone
    # and independence envelopes
    for p in (independence_pickands(), gumbel_pickands(1.0), gumbel_pickands(3.0)):
        a = p.a_fn(u, v)
        assert max(u, v) - 1e-12 <= a <= u + v + 1e-12


@given(u=pos, v=pos, s=st.floats(0.01, 50.0))
def test_dependence_function_homogeneous_order_one(u, v, s):
    for p in (gumbel_pickands(2.0), gumbel_pickands(10.0), comonotone_pickands()):
        assert math.isclose(p.a_fn(s * u, s * v), s * p.a_fn(u, v), rel_tol=1e-12)


@given(u=pos, v=pos)
def test_euler_identity_smooth_families(u, v):
    # order-one homogeneity forces a = u*a1 + v*a2 wherever a is smooth
    for p in (independence_pickands(), gumbel_pickands(2.0), gumbel_pickands(10.0)):
        a = p.a_fn(u, v)
        recon = u * p.a1_fn(u, v) + v * p.a2_fn(u, v)
        assert math.isclose(a, recon, rel_tol=1e-10)


def test_comonotone_partials_off_diagonal_and_subgradient():
    p = comonotone_pickands()
    assert p.a_fn(3.0, 1.0) == 3.0
    assert p.a1_fn(3.0, 1.0) == 1.0
    assert p.a2_fn(3.0, 1.0) == 0.0
    assert p.a1_fn(1.0, 3.0) == 0.0
    assert p.a2_fn(1.0, 3.0) == 1.0
    # on the diagonal the max function is not differentiable; the shipped
    # convention is the symmetric subgradient
    assert p.a1_fn(2.0, 2.0) == 0.5
    assert p.a2_fn(2.0, 2.0) == 0.5


def test_gumbel_diagonal_values():
    for phi in (1.0, 2.0, 10.0):
        p = gumbel_pickands(phi)
        assert math.isclose(p.a_fn(1.0, 1.0), 2.0 ** (1.0 / phi), rel_tol=1e-14)
        assert math.isclose(p.a1_fn(1.0, 1.0), 2.0 ** (1.0 / phi - 1.0), rel_tol=1e-14)
        assert math.isclose(p.a2_fn(1.0, 1.0), 2.0 ** (1.0 / phi - 1.0), rel_tol=1e-14)


@given(u=pos, v=pos)
def test_gumbel_phi_one_is_independence(u, v):
    g = gumbel_pickands(1.0)
    i = independence_pickands()
    assert math.isclose(g.a_fn(u, v), i.a_fn(u, v), rel_tol=1e-14)
    assert math.isclose(g.a1_fn(u, v), i.a1_fn(u, v), rel_tol=1e-14)


def test_gumbel_rejects_bad_parameter():
    with pytest.raises(DomainError):
        gumbel_pickands(0.5)
    with pytest.raises(DomainError):
        gumbel_pickands(float("nan"))


def test_gumbel_limits_toward_comonotone():
    p = gumbel_pickands(200.0)
    co = comonotone_pickands()
    for u, v in ((1.0, 1.0), (0.3, 2.0)):
        assert math.isclose(p.a_fn(u, v), co.a_fn(u, v), rel_tol=1e-2)


# ---------------------------------------------------------------------------
# survival copula evaluators


def chat(p: PickandsEV, u: float, v: float) -> float:
    """``chat(u, v)`` of the survival copula of ``p``, for ``u, v`` in ``(0, 1]``."""
    return math.exp(ev_survival_copula(p).log_chat(math.log(u), math.log(v)))


def chat_v(p: PickandsEV, u: float, v: float) -> float:
    """``chat_v(u, v)`` of the survival copula of ``p``, for ``u, v`` in ``(0, 1]``."""
    return math.exp(ev_survival_copula(p).log_chat_v(math.log(u), math.log(v)))


@given(u=st.floats(1e-6, 1.0), v=st.floats(1e-6, 1.0))
def test_ev_chat_matches_oracle(u, v):
    for phi in (1.0, 10.0):
        p = gumbel_pickands(phi)
        want = oracles.gumbel_chat(phi, u, v)
        assert math.isclose(chat(p, u, v), want, rel_tol=1e-12)


def test_ev_chat_margins():
    p = gumbel_pickands(10.0)
    for u in (0.1, 0.5, 0.9):
        assert math.isclose(chat(p, u, 1.0), u, rel_tol=1e-14)
        assert math.isclose(chat(p, 1.0, u), u, rel_tol=1e-14)


def test_ev_chat_v_matches_finite_difference():
    # abs_tol floor: near-comonotone corners have derivatives below the
    # cancellation noise of the finite difference itself
    for phi in (1.0, 2.0, 10.0):
        p = gumbel_pickands(phi)
        for u, v in ((0.3, 0.4), (0.05, 0.8), (0.9, 0.02)):
            h = 1e-6 * v
            fd = (chat(p, u, v + h) - chat(p, u, v - h)) / (2.0 * h)
            assert math.isclose(chat_v(p, u, v), fd, rel_tol=1e-5, abs_tol=1e-8)


def test_ev_chat_v_matches_oracle():
    for phi in (1.0, 10.0):
        p = gumbel_pickands(phi)
        for u, v in ((0.3, 0.4), (0.01, 0.02)):
            want = oracles.gumbel_chat_v(phi, u, v)
            assert math.isclose(chat_v(p, u, v), want, rel_tol=1e-11)


@pytest.mark.parametrize(
    "phi, u, v, known",
    [(1.0, 7.322538337604196e-255, 3.792690190732145e-69, 7.322538337604196e-255),
     (1.0, 8.70662068058444e-25, 1e-300, 8.70662068058444e-25),
     (10.0, 1e-300, 1e-300, 1.5741069739015414e-22)],
)
def test_ev_chat_v_stays_accurate_where_chat_underflows(phi, u, v, known):
    # chat(u, v) is subnormal or zero at these points while chat_v is not;
    # the reference is the closed form in 50-digit arithmetic
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        wu, wv = -mp.log(mp.mpf(u)), -mp.log(mp.mpf(v))
        inv = 1 / mp.mpf(phi)
        s = wu**phi + wv**phi
        want = float(mp.exp(-(s**inv)) * wv ** (phi - 1) * s ** (inv - 1) / mp.mpf(v))
    assert math.isclose(want, known, rel_tol=1e-15)
    ps = [gumbel_pickands(phi)] + ([independence_pickands()] if phi == 1.0 else [])
    for p in ps:
        assert math.isclose(chat_v(p, u, v), want, rel_tol=1e-12), p.family


def test_chat_v_is_one_on_the_margin_u_equals_one():
    # chat(1, v) = v, so its derivative is exactly 1 there, also at v = 1
    # where a2(0, 0) is 0/0 for Gumbel with exponent above 1
    vs = (1e-6, 0.3, 1.0)
    for p in (gumbel_pickands(1.0), gumbel_pickands(2.0), gumbel_pickands(10.0),
              independence_pickands(), comonotone_pickands()):
        for v in vs:
            assert chat_v(p, 1.0, v) == 1.0, (p.family, v)
    for family, kwargs in (("gumbel", {"phi": 2.0}), ("comonotone", {})):
        sc = make_survival_copula(family, **kwargs)
        assert sc.log_chat_v(0.0, 0.0) == 0.0
        assert sc.log_chat_v(0.0, math.log(0.3)) == 0.0


def test_log_evaluators_match_plain_and_stay_finite_deep():
    sc = make_survival_copula("gumbel", phi=10.0)
    for u, v in ((0.3, 0.4), (1e-4, 2e-4)):
        lu, lv = math.log(u), math.log(v)
        want = math.log(oracles.gumbel_chat(10.0, u, v))
        assert math.isclose(sc.log_chat(lu, lv), want, rel_tol=1e-12)
        want_v = math.log(oracles.gumbel_chat_v(10.0, u, v))
        assert math.isclose(sc.log_chat_v(lu, lv), want_v, rel_tol=1e-10)
    deep = -9000.0 * math.log(10.0)
    assert math.isfinite(sc.log_chat(deep, deep))
    assert math.isfinite(sc.log_chat_v(deep, deep))


def test_make_survival_copula_families():
    for family, kwargs in (
        ("independence", {}),
        ("gumbel", {"phi": 2.0}),
        ("comonotone", {}),
        ("log-interaction", {"sigma": 0.5}),
    ):
        sc = make_survival_copula(family, **kwargs)
        assert sc.family == family
        val = math.exp(sc.log_chat(math.log(0.3), math.log(0.4)))
        assert 0.0 < val <= min(0.3, 0.4) + 1e-15
    with pytest.raises(UnsupportedFamilyError):
        make_survival_copula("clayton")
    with pytest.raises(DomainError):
        make_survival_copula("gumbel", phi=0.2)
    with pytest.raises(DomainError):
        make_survival_copula("log-interaction", sigma=-1.0)


@pytest.mark.parametrize(
    "family, kwargs",
    [
        ("independence", {"phi": 3.0, "sigma": 0.2}),
        ("independence", {"phi": 3.0}),
        ("comonotone", {"sigma": 0.2}),
        ("gumbel", {"phi": 2.0, "sigma": 0.2}),
        ("log-interaction", {"phi": 2.0}),
    ],
)
def test_make_survival_copula_rejects_parameters_the_family_does_not_take(family, kwargs):
    # these were once dropped silently, so independence came back for phi=3
    with pytest.raises(DomainError, match="takes no parameter"):
        make_survival_copula(family, **kwargs)


def test_comonotone_chat_is_min():
    sc = make_survival_copula("comonotone")
    assert math.exp(sc.log_chat(math.log(0.3), math.log(0.7))) == 0.3
    assert math.exp(sc.log_chat(math.log(0.9), math.log(0.2))) == 0.2


@pytest.mark.parametrize(
    "family, kwargs",
    [("independence", {}), ("gumbel", {"phi": 2.0}), ("comonotone", {}),
     ("log-interaction", {"sigma": 0.5})],
)
def test_log_domain_evaluators_match_the_direct_ones(family, kwargs):
    # against the oracle's closed forms, on a grid with the diagonal u == v
    # (where the comonotone derivative is the symmetric subgradient 1/2) and
    # the margins; on u == 1 chat_v is exactly 1, as chat(1, v) = v, while
    # the oracle's Gumbel form is 0/0 at u == v == 1
    sc = make_survival_copula(family, **kwargs)
    chat, chat_v = oracles.chat_funcs(family, *kwargs.values())
    grid = (1e-6, 0.01, 0.1, 0.3, 0.5, 0.9, 1.0)
    for u in grid:
        for v in grid:
            lu, lv = math.log(u), math.log(v)
            if u == 1.0:
                want_v = 1.0
            elif family == "comonotone" and u == v:
                want_v = 0.5
            else:
                want_v = float(chat_v(u, v))
            assert math.isclose(math.exp(sc.log_chat(lu, lv)), float(chat(u, v)), rel_tol=1e-12)
            assert math.isclose(math.exp(sc.log_chat_v(lu, lv)), want_v, rel_tol=1e-12), (u, v)


# ---------------------------------------------------------------------------
# tail-order and partial-limit traits


def test_tail_order_traits_values():
    ind = tail_order_traits(independence_pickands())
    assert ind.kappa == 2.0
    assert ind.power_m == 1.0
    assert math.isclose(ind.tau(0.3, 0.4), 0.12, rel_tol=1e-14)
    for phi in (2.0, 10.0):
        tr = tail_order_traits(gumbel_pickands(phi))
        assert math.isclose(tr.kappa, 2.0 ** (1.0 / phi), rel_tol=1e-13)
        assert math.isclose(tr.power_m, 2.0 ** (1.0 / phi - 1.0), rel_tol=1e-13)
        assert math.isclose(tr.tau(1.0, 1.0), 1.0, rel_tol=1e-13)
    co = tail_order_traits(comonotone_pickands())
    assert co.kappa == 1.0
    assert co.power_m is None
    assert co.tau(0.3, 0.7) == 0.3


def test_tail_order_traits_diagonal_consistency():
    # kappa reproduces the decay of chat(s, s)
    for p in (independence_pickands(), gumbel_pickands(10.0)):
        tr = tail_order_traits(p)
        s = 1e-6
        assert math.isclose(chat(p, s, s), s**tr.kappa, rel_tol=1e-10)


def test_trial_tail_order_traits():
    tr = trial_tail_order_traits(1.5)
    assert tr == TailOrderTraits(1.5, 1.0)
    with pytest.raises(DomainError):
        trial_tail_order_traits(0.9)


def test_plain_corner_traits_fields():
    # the plain power corner is the slope alone, the target of the
    # checker's A4: independence has slope 1 and profile u, Gumbel 10 slope
    # 0 and the zero profile
    def a4_targets(copula):
        rows = check_assumptions(copula, grid=(0.25, 0.5, 1.0, 2.0)).checks["A4"].rows
        return {(u, v): target for _, u, v, _, target in rows}

    ind = a4_targets(make_survival_copula("independence"))
    assert ind[0.5, 0.25] == 0.5
    assert all(target == u for (u, _), target in ind.items())
    g10 = a4_targets(make_survival_copula("gumbel", phi=10.0))
    assert g10[0.5, 0.25] == 0.0
    assert set(g10.values()) == {0.0}
    assert set(PartialLimitTraits.__dataclass_fields__) == {"h", "diagonal"}


def _power_profile(a20):
    return lambda u, v: a20 * u * v ** (a20 - 1.0) if a20 > 0.0 else 0.0


def _log_refined_profile(phi):
    return lambda u, v: u * (-np.log(v)) ** (phi - 1.0) / v


@pytest.mark.parametrize(
    "traits",
    # pairs of traits and their profile varphi(u, v), written here
    [(power_corner_traits(a20), _power_profile(a20)) for a20 in (1.0, 0.5, 0.0)]
    + [(gumbel_log_refined_traits(phi), _log_refined_profile(phi)) for phi in (1.05, 10.0)],
)
def test_corner_diagonal_is_the_profile_in_log_survival(traits):
    # diagonal(x) is varphi(exp(-x), exp(-x)) wherever that survival is a
    # normal float (3.3e-16 apart at most, measured), and stays finite and
    # not negative past it
    traits, varphi = traits
    x = np.linspace(0.0, 700.0, 1401)[1:]
    v = np.exp(-x)
    want = np.array([varphi(float(s), float(s)) for s in v])
    np.testing.assert_allclose(traits.diagonal(x), want, rtol=1e-15, atol=0.0)
    far = traits.diagonal(np.array([800.0, 5000.0, 1e5]))
    assert np.all(np.isfinite(far)) and np.all(far >= 0.0)


def test_gumbel_log_refined_traits_domain():
    gumbel_log_refined_traits(10.0)
    with pytest.raises(DomainError):
        gumbel_log_refined_traits(1.0)


def test_log_refined_traits_equal_their_array_spelling():
    # at a float h must give the floats of the 0-d array evaluation,
    # including numpy's own logarithm (the profile on the array of
    # quadrature nodes is certified through delta_correction)
    vs = np.geomspace(1e-200, 1.0, 3001)[:-1].tolist() + np.linspace(0.5, 1.0, 1001)[:-1].tolist()
    for phi in (1.5, 5.0, 10.0):
        tr = gumbel_log_refined_traits(phi)
        for v in vs:
            va = np.asarray(v, float)
            assert tr.h(v) == float((-np.log(va)) ** (1.0 - phi))
        assert tr.h(0.0) == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("phi", [2.0, 2.5, 10.0, 11.0])
def test_log_refined_h_is_plus_infinity_at_one(phi):
    # -log(1) is -0.0, and its power took the sign of zero where 1 - phi is
    # an odd integer: h(1) was -inf at phi 2 and 10, +inf at 2.5 and 11
    tr = gumbel_log_refined_traits(phi)
    assert tr.h(1.0) == math.inf
    assert tr.h(0.0) == 0.0


@pytest.mark.parametrize(
    "pickands, slope",
    [
        (independence_pickands(), 1.0),
        (gumbel_pickands(1.0), 1.0),
        # a2(1, y) ~ y**(phi - 1) vanishes in the limit however close phi is
        # to 1: the slope is the contract value, not a probe at a small y
        *(
            (gumbel_pickands(phi), 0.0)
            for phi in (1.0000001, 1.0001, 1.0004, 1.001, 1.05, 1.2, 1.5, 2.0, 10.0)
        ),
        (comonotone_pickands(), 0.0),
        *((galambos_pickands(theta), 0.0) for theta in (0.2, 0.5, 1.0)),
    ],
    ids=lambda x: f"{x.family}-{x.param}" if isinstance(x, PickandsEV) else None,
)
def test_corner_slope_is_the_contract_value(pickands, slope):
    a20 = estimate_corner_slope(pickands)
    assert type(a20) is float
    assert a20 == slope
    # Gumbel phi >= 2 gives a2_fn(1, -0.0) == -0.0; the slope is folded to +0.0
    assert math.copysign(1.0, a20) == 1.0


@pytest.mark.parametrize("bad", [math.nan, 1.5, -0.25])
def test_corner_slope_outside_the_unit_interval_breaks_the_contract(bad):
    p = dataclasses.replace(independence_pickands(), a2_fn=lambda x, y: bad)
    with pytest.raises(DomainError, match="corner slope"):
        estimate_corner_slope(p)
    with pytest.raises(DomainError, match="corner slope"):
        classify_case(0.8, p)
