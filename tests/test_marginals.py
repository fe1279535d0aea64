"""Unit tests for the shifted-Pareto marginal primitives."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from tailsum import DomainError, ParetoMarginal

ALPHAS = (0.8, 1.0, 2.0, 3.5)


def test_survival_at_zero_is_one():
    for alpha in ALPHAS:
        assert ParetoMarginal(alpha, 1.0).survival(0.0) == 1.0
        assert ParetoMarginal(alpha, 2.5).survival(0.0) == 1.0


def test_survival_matches_oracle():
    xs = np.geomspace(1e-3, 1e6, 40)
    for alpha in ALPHAS:
        for scale in (1.0, 2.5):
            m = ParetoMarginal(alpha, scale)
            got = m.survival(xs)
            want = oracles.pareto_sf(alpha, scale, xs)
            np.testing.assert_allclose(got, want, rtol=1e-14)


def test_quantile_matches_oracle():
    qs = np.linspace(0.0, 0.999999, 25)
    for alpha in ALPHAS:
        m = ParetoMarginal(alpha, 1.5)
        np.testing.assert_allclose(
            m.quantile(qs), oracles.pareto_quantile(alpha, 1.5, qs), rtol=1e-13
        )
        assert m._median == m.quantile(0.5)


def test_density_matches_oracle():
    xs = np.geomspace(1e-2, 1e4, 20)
    for alpha in ALPHAS:
        m = ParetoMarginal(alpha, 1.0)
        np.testing.assert_allclose(
            m.density(xs), oracles.pareto_density(alpha, 1.0, xs), rtol=1e-13
        )


def _quantile_0d(m, q):
    """``quantile`` through a 0-d array: the arithmetic of an array level."""
    return float(m.scale * ((1.0 - np.asarray(q, dtype=float)) ** (-1.0 / m.alpha) - 1.0))


def test_scalar_quantile_is_the_0d_array_arithmetic():
    # a float level skips the array machinery but not a bit of the value
    rng = np.random.default_rng(20261019)
    qs = np.concatenate((
        np.linspace(0.5, 1.0 - 1e-12, 101),
        1.0 - np.geomspace(0.5, 1e-12, 101),
        rng.uniform(0.5, 1.0, 300),
    ))
    for alpha in (0.3, 0.5, 0.8, 1.0, 2.0, 3.0):
        for scale in (1.0, 2.5):
            m = ParetoMarginal(alpha, scale)
            for q in qs:
                for level in (float(q), np.float64(q)):
                    got = m.quantile(level)
                    assert type(got) is float
                    assert got == _quantile_0d(m, level), (alpha, scale, level)
            assert m.quantile(0.0) == 0.0
            assert math.isnan(m.quantile(math.nan))
            assert math.isnan(m.quantile(np.float64(math.nan)))
            for bad in (-1e-300, -0.5, 1.0, 1.5, math.inf, -math.inf):
                for level in (bad, np.float64(bad)):
                    with pytest.raises(DomainError, match="0 <= q < 1"):
                        m.quantile(level)


def test_scalar_quantile_overflow_warns_as_before():
    m = ParetoMarginal(0.005, 1.0)
    for level in (0.99, np.float64(0.99)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                assert m.quantile(level) == math.inf
        with pytest.warns(RuntimeWarning, match="overflow encountered in scalar power"):
            assert m.quantile(level) == math.inf


@given(
    alpha=st.floats(0.2, 6.0),
    scale=st.floats(0.1, 10.0),
    q=st.floats(0.0, 0.999999),
)
def test_survival_quantile_round_trip(alpha, scale, q):
    m = ParetoMarginal(alpha, scale)
    x = m.quantile(q)
    assert math.isclose(m.survival(x), 1.0 - q, rel_tol=1e-9, abs_tol=1e-12)


@given(alpha=st.floats(0.2, 6.0), x=st.floats(0.0, 1e8))
def test_quantile_survival_round_trip(alpha, x):
    # keep 1 - sf representable: the round trip loses digits to cancellation
    # once sf drops toward the double-precision epsilon
    m = ParetoMarginal(alpha, 1.0)
    sf = m.survival(x)
    assume(sf > 1e-8)
    assert math.isclose(m.quantile(1.0 - sf), x, rel_tol=1e-6, abs_tol=1e-9)


def test_density_is_negative_survival_slope():
    m = ParetoMarginal(1.7, 1.3)
    for x in (0.5, 3.0, 40.0):
        h = 1e-6 * max(1.0, x)
        slope = (m.survival(x + h) - m.survival(x - h)) / (2.0 * h)
        assert math.isclose(m.density(x), -slope, rel_tol=1e-7)


def test_vectorized_matches_scalar():
    m = ParetoMarginal(0.8, 1.0)
    xs = np.array([0.0, 1.0, 10.0, 1e5])
    vec = m.survival(xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        scalar = m.survival(float(x))
        assert isinstance(scalar, float)
        assert scalar == v


def test_domain_errors():
    with pytest.raises(DomainError):
        ParetoMarginal(0.0, 1.0)
    with pytest.raises(DomainError):
        ParetoMarginal(-1.0, 1.0)
    with pytest.raises(DomainError):
        ParetoMarginal(1.0, 0.0)
    m = ParetoMarginal(1.0, 1.0)
    with pytest.raises(DomainError):
        m.survival(-0.5)
    with pytest.raises(DomainError):
        m.quantile(1.0)
    with pytest.raises(DomainError):
        m.quantile(-0.1)
    with pytest.raises(DomainError):
        m.density(-1.0)


def test_truncated_mean_matches_quadrature_oracle():
    for alpha in (0.8, 2.0, 3.5):
        for scale in (1.0, 2.0):
            m = ParetoMarginal(alpha, scale)
            for t in (5.0, 100.0, 1e4):
                want = oracles.pareto_trunc_mean_quad(alpha, scale, t)
                assert math.isclose(m.truncated_mean(t), want, rel_tol=1e-9)


def test_truncated_mean_alpha_one():
    m = ParetoMarginal(1.0, 1.0)
    for t in (10.0, 1e3):
        want = oracles.pareto_trunc_mean_quad(1.0, 1.0, t)
        assert math.isclose(m.truncated_mean(t), want, rel_tol=1e-8)


def test_truncated_mean_monotone_in_threshold():
    m = ParetoMarginal(0.8, 1.0)
    ts_grid = [m.truncated_mean(t) for t in (2.0, 10.0, 100.0, 1e4)]
    assert all(a < b for a, b in zip(ts_grid, ts_grid[1:]))


def test_truncated_mean_approaches_mean():
    m = ParetoMarginal(2.0, 1.0)
    assert math.isclose(m.truncated_mean(1e9), m.scale / (m.alpha - 1.0), rel_tol=1e-8)


def test_powered_truncated_mean_power_one_is_truncated_mean():
    for alpha in (0.8, 2.0):
        m = ParetoMarginal(alpha, 1.0)
        for t in (10.0, 1e3):
            assert m.powered_tail_truncated_mean(t, 1.0) == m.truncated_mean(t)


def test_powered_truncated_mean_matches_closed_oracle():
    for alpha in (0.8, 2.0):
        for a in (0.3, 0.7):
            m = ParetoMarginal(alpha, 1.0)
            for t in (10.0, 1e3):
                want = oracles.pareto_powered_trunc_closed(alpha, 1.0, a, t)
                assert math.isclose(
                    m.powered_tail_truncated_mean(t, a), want, rel_tol=1e-10
                )


def _mp_truncated_mean(mp, alpha, scale, t):
    # 40-digit int_0^t survival - t * survival(t), integrated in the log
    # coordinate u = log1p(x / scale), where the integrand is scale*e**((1-alpha)u)
    alpha, scale, t = mp.mpf(alpha), mp.mpf(scale), mp.mpf(t)
    top = mp.log1p(t / scale)
    body = mp.quad(lambda u: scale * mp.exp((1 - alpha) * u), [0, top])
    return body - t * (scale / (t + scale)) ** alpha


TRUNCATION_POINTS = (0.5, 2.0, 10.0, 1e3, 1e5, 1e8)


def test_truncated_mean_certified_against_mpmath():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for alpha in (0.09, 0.3, 0.8, 0.999, 1.0, 1.001, 1.5, 2.0, 3.0):
            for scale in (1.0, 2.5):
                m = ParetoMarginal(alpha, scale)
                for t in TRUNCATION_POINTS:
                    want = _mp_truncated_mean(mp, alpha, scale, t)
                    got = m.truncated_mean(t)
                    assert abs(got / want - 1) < 1e-14, (alpha, scale, t, got)


def test_powered_truncated_mean_certified_against_mpmath():
    # survival**a is the survival function of a Pareto(a*alpha, scale); the
    # case (alpha 3, a 0.3, t 1e8) is where QUADPACK missed by 21%
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for alpha in (0.8, 1.0, 2.0, 3.0):
            for a in (0.3, 0.999 / alpha, 1.0 / alpha, 1.001 / alpha, 0.7):
                if not a <= 1.0:
                    continue
                m = ParetoMarginal(alpha, 1.0)
                for t in TRUNCATION_POINTS:
                    want = _mp_truncated_mean(mp, mp.mpf(a) * alpha, 1.0, t)
                    got = m.powered_tail_truncated_mean(t, a)
                    assert abs(got / want - 1) < 1e-14, (alpha, a, t, got)


def test_powered_truncated_mean_domain():
    m = ParetoMarginal(2.0, 1.0)
    with pytest.raises(DomainError):
        m.powered_tail_truncated_mean(10.0, 0.0)
    with pytest.raises(DomainError):
        m.powered_tail_truncated_mean(10.0, 1.5)


def test_second_order_params_fields():
    m = ParetoMarginal(0.8, 2.0)
    so = m.second_order_params()
    assert so.alpha == 0.8
    assert so.rho == -1.0
    assert so.c_scale == 2.0**0.8
    assert so.b_coeff == -0.8 * 2.0


