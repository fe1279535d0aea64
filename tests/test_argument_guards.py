"""Argument guards of the public constructors and operations.

A numpy scalar is taken as the equal Python float. Each rejection below is
the guard's own: with the guard removed, the call returns a value or fails
elsewhere with another error or message.
"""

import math
import warnings

import numpy as np
import pytest

from tailsum import (
    ConfigError,
    DomainError,
    ParetoMarginal,
    TailOrderTraits,
    check_assumptions,
    classify_case,
    eta_limit,
    gumbel_pickands,
    make_survival_copula,
    sample_pairs,
    tail_order_traits,
    tailprob_expansion_ev,
    var_expansion_ev,
)

# (kind, alpha, phi): the integer-valued model in every kind, and fractional
# ones in the float kinds; float32(0.8) is the float 0.800000011920929
_SCALAR_MODELS = [
    (kind, alpha, phi)
    for kind in (int, np.int64, np.float32, np.float64)
    for alpha, phi in ((2, 1), (2, 2), (3, 10))
] + [(kind, 0.8, 1.5) for kind in (np.float32, np.float64)]


@pytest.mark.parametrize(
    "kind, alpha, phi", _SCALAR_MODELS, ids=lambda x: getattr(x, "__name__", None)
)
def test_numpy_and_integer_scalars_give_the_equal_float_model(kind, alpha, phi):
    a, f = kind(alpha), kind(phi)
    m, p = ParetoMarginal(a, kind(1)), gumbel_pickands(f)
    m_float, p_float = ParetoMarginal(float(a), 1.0), gumbel_pickands(float(f))
    assert type(m.alpha) is float and type(m.scale) is float
    assert m == m_float and repr(m) == repr(m_float)
    assert p.param == p_float.param and type(p.param) is float
    t = m_float.quantile(0.999)
    for expand, x in ((tailprob_expansion_ev, t), (var_expansion_ev, 0.999)):
        assert repr(expand(m, p, x)) == repr(expand(m_float, p_float, x)), expand.__name__


def test_numpy_scalars_keep_every_other_rejection():
    for bad, match in (
        (np.float32(math.nan), "alpha must be a finite number"),
        (np.int64(0), "alpha must be positive, got 0"),
        (np.float64(-1.5), "alpha must be positive, got -1.5"),
        ("2", "alpha must be a finite number, got '2'"),
    ):
        with pytest.raises(DomainError, match=match):
            ParetoMarginal(bad)
    for bad in (np.float32(0.5), np.int64(0), np.float64(math.inf), "2"):
        with pytest.raises(DomainError, match="gumbel interaction exponent must be >= 1"):
            gumbel_pickands(bad)


_M = ParetoMarginal(1.0)

_GUARDS = {
    "infinite alpha": (
        lambda: ParetoMarginal(math.inf), DomainError, "alpha must be a finite number, got inf"),
    "nan scale": (
        lambda: ParetoMarginal(1.0, math.nan), DomainError, "scale must be a finite number"),
    "quantile level 1 in an array": (
        lambda: _M.quantile(np.array([0.5, 1.0])), DomainError, r"quantile requires 0 <= q < 1"),
    "truncated_mean at 0": (
        lambda: _M.truncated_mean(0.0), DomainError, "truncated_mean requires t > 0"),
    "powered_tail_truncated_mean at 0": (
        lambda: _M.powered_tail_truncated_mean(0.0, 0.5), DomainError,
        "powered_tail_truncated_mean requires t > 0"),
    # integral_I would reject alpha 0 too, under its own message
    "eta_limit at alpha 0": (
        lambda: eta_limit(tail_order_traits(gumbel_pickands(2.0)), 0.0), DomainError,
        "eta_limit requires alpha > 0"),
    "classify_case at alpha 0": (
        lambda: classify_case(0.0, gumbel_pickands(2.0)), DomainError,
        "classify_case requires alpha > 0"),
    # a thread pool of no workers would raise ValueError instead
    "sample_pairs on 0 threads": (
        lambda: sample_pairs(_M, "independence", 1000, 1, threads=0), ConfigError,
        "thread count must be positive, got 0"),
}


@pytest.mark.parametrize("name", list(_GUARDS))
def test_guard_rejects_with_its_own_message(name):
    call, error, match = _GUARDS[name]
    with pytest.raises(error, match=match):
        call()


def test_product_profile_is_inf_where_its_power_overflows():
    # 100**400 overflows math.pow, which raises; tau gives the IEEE value
    assert TailOrderTraits(2.0, 400.0).tau(10.0, 10.0) == math.inf


def test_evcond_skips_a_point_whose_shift_is_not_positive():
    # at log10 t = -1 .. -1.2, 1 + log1p(u)/log t is below 0 for u = 20, so
    # only the u = 0.5 rows remain, and no warning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_assumptions(
            make_survival_copula("gumbel", phi=2.0), grid=(0.5, 20.0),
            log10_t_sequence=(-1, -1.1, -1.2),
        )
    rows = report.checks["evcond"].rows
    assert len(rows) == 3 * 2 and {u for _, u, _, _, _ in rows} == {0.5}
