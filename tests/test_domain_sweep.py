"""One property over the public API's whole domain: a number or a library error.

Each public entry point either returns a finite float (a positive one for a
VaR) or raises a :class:`~tailsum.TailsumError`, and never warns, over tail
indices ``alpha`` in ``[1e-3, 50]``, scales in ``[1e-6, 1e6]``, thresholds
up to ``1e300``, levels ``q`` in ``(0.5, 1 - 1e-15]`` and the Gumbel family
with ``phi`` in ``[1, 50]`` plus the Galambos family (which has no sampler,
so only Gumbel reaches the estimators). The one exception is the Monte
Carlo VaR, the sample's own order statistic: it, its interval and its
stderr are inf where the sampled risks overflow to inf, and never NaN.
``alpha``, the scale, ``t`` and ``1 - q`` are drawn as powers of ten, so
every order of magnitude, the overflowing ones among them, is in reach. The seed is fixed, so every run and every thread count
draws the same cases.
"""

import math

import pytest
from hypothesis import example, given, seed
from hypothesis import strategies as st

from test_galambos import galambos_pickands
from tailsum import (
    ParetoMarginal,
    TailsumError,
    check_assumptions,
    empirical_tailprob,
    empirical_var,
    ev_survival_copula,
    gumbel_pickands,
    sample_pairs,
    tailprob_expansion_ev,
    var_expansion_ev,
    var_from_tailprob_inversion,
)


def _log_uniform(lo: float, hi: float, **kwargs):
    return st.floats(math.log10(lo), math.log10(hi), **kwargs).map(lambda e: 10.0**e)


def _finite_or_error(call, positive: bool = False, infinite: bool = False) -> None:
    try:
        values = call()
    except TailsumError:
        return
    for value in values:
        assert type(value) is float and not math.isnan(value), values
        assert math.isfinite(value) or infinite, values
        assert value > 0.0 or not positive, values


@seed(20261020)
@given(
    p=st.one_of(
        st.floats(1.0, 50.0).map(gumbel_pickands),
        st.floats(0.05, 3.0).map(galambos_pickands),
    ),
    alpha=_log_uniform(1e-3, 50.0),
    scale=_log_uniform(1e-6, 1e6),
    t=_log_uniform(1e-6, 1e300),
    # 1 - q in [1e-15, 0.5), so q in (0.5, 1 - 1e-15]
    q=_log_uniform(1e-15, 0.5, exclude_max=True).map(lambda s: 1.0 - s),
    sample_seed=st.integers(0, 2**32),
)
# a Gumbel sample at a tiny alpha whose two finite risks sum past the
# largest float: numpy warned of the overflow
@example(
    p=gumbel_pickands(17.965405697856784), alpha=0.0036047060715560537,
    scale=111.8406106087093, t=888136544975097.5, q=0.9977906847249969, sample_seed=2314,
)
# alpha exactly 1, the C1 edge of independence (Gumbel phi = 1): every entry
# point takes the general path there
@example(
    p=gumbel_pickands(1.0), alpha=1.0, scale=1.0, t=100.0, q=0.99, sample_seed=1,
)
@pytest.mark.filterwarnings("error")
def test_public_api_gives_a_finite_value_or_a_tailsum_error(p, alpha, scale, t, q, sample_seed):
    m = ParetoMarginal(alpha, scale)

    def tail():
        e = tailprob_expansion_ev(m, p, t)
        return (e.value, *(e.candidates or {}).values())

    def inversion():
        d = var_from_tailprob_inversion(m, p, q)
        return d.formula, d.inverted

    _finite_or_error(tail)
    _finite_or_error(lambda: (var_expansion_ev(m, p, q).value,), positive=True)
    _finite_or_error(inversion, positive=True)
    if p.family == "gumbel":
        pairs = sample_pairs(m, "gumbel", 1000, sample_seed, phi=p.param, threads=1)
        _finite_or_error(lambda: (empirical_tailprob(pairs, t).point,))
        # order statistics of the sample itself, which are inf where a tiny
        # alpha maps the far tail past the largest float (the sampler's
        # documented overflow), and so is the stderr then, never NaN;
        # test_montecarlo pins inf order statistics
        def var_estimate():
            est = empirical_var(pairs, q)
            return est.point, est.stderr, est.ci_low, est.ci_high

        _finite_or_error(var_estimate, positive=True, infinite=True)
    try:
        check_assumptions(ev_survival_copula(p))
    except TailsumError:
        pass
