"""Unit tests for the seedable Monte Carlo oracle."""

import math
import os
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import oracles
from tailsum import (
    ConfigError,
    DomainError,
    MCEstimate,
    ParetoMarginal,
    SamplePairs,
    empirical_grid,
    empirical_tailprob,
    empirical_var,
    sample_pairs,
)
from tailsum.montecarlo import _CHUNK, _pairs_from_rows, _resolve_threads, _var_ranks

# crosses two 65536-draw chunk boundaries, with a ragged final chunk
N_CHUNKY = 200_001


def test_streams_are_identical_across_thread_counts(m08):
    # 3 workers split the 4 chunks unevenly, and 8 are capped at one per chunk
    for family, phi in (("independence", None), ("gumbel", 10.0), ("comonotone", None)):
        one = sample_pairs(m08, family, N_CHUNKY, 7, phi=phi, threads=1)
        for threads in (2, 3, 8):
            other = sample_pairs(m08, family, N_CHUNKY, 7, phi=phi, threads=threads)
            assert np.array_equal(one.x, other.x), (family, threads)
            assert np.array_equal(one.y, other.y), (family, threads)


def test_same_seed_reproduces_and_seeds_differ(m08):
    a = sample_pairs(m08, "gumbel", 10_000, 3, phi=2.0)
    b = sample_pairs(m08, "gumbel", 10_000, 3, phi=2.0)
    c = sample_pairs(m08, "gumbel", 10_000, 4, phi=2.0)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert not np.array_equal(a.x, c.x)


def test_gumbel_phi_one_stream_equals_independence(m08):
    g = sample_pairs(m08, "gumbel", N_CHUNKY, 11, phi=1.0)
    i = sample_pairs(m08, "independence", N_CHUNKY, 11)
    assert np.array_equal(g.x, i.x)
    assert np.array_equal(g.y, i.y)


def test_comonotone_components_coincide(m2):
    s = sample_pairs(m2, "comonotone", 50_000, 5)
    assert np.array_equal(s.x, s.y)


def _map_rows(rows, phi, marginal):
    """The risk pairs the sampler writes for hand-made uniform ``rows``."""
    rows = np.array(rows, dtype=float)
    x = np.empty(rows.shape[1])
    y = np.empty(rows.shape[1])
    gamma = None if phi is None else 1.0 / phi
    _pairs_from_rows(rows, gamma, marginal.alpha, marginal.scale, x, y)
    return x, y


def _log_survival(marginal, x):
    """``L = -log su`` recovered from a risk ``x = scale * expm1(L / alpha)``."""
    return marginal.alpha * np.log1p(x / marginal.scale)


def test_far_tail_rows_map_to_finite_risks():
    # each of these rows once raised DomainError from quantile(1 - su) with
    # 1 - su rounded to 1; now x keeps the relative precision of L
    m = ParetoMarginal(2.0, 3.0)
    # Gumbel phi = 2 at u = 1/2: W = sqrt(2 * E0), so -log su = sqrt(2 * E0 * E1),
    # and r = 1 - 2**-51 gives E = 51 log 2, hence -log su = 49.99
    r = 1.0 - 2.0**-51
    x, y = _map_rows([[0.5], [r], [r], [0.5]], 2.0, m)
    e = -math.log1p(-r)
    want = np.array([math.sqrt(2.0 * e * e), math.sqrt(2.0 * e * math.log(2.0))])
    assert want[0] == pytest.approx(50.0, abs=0.01)
    got = np.array([_log_survival(m, x[0]), _log_survival(m, y[0])])
    assert np.all(np.isfinite([x[0], y[0]]))
    assert np.allclose(got, want, rtol=1e-15, atol=0.0), got / want - 1.0
    # independence at u = 1e-300, and u = 0, which is clamped at tiny
    x, y = _map_rows([[1e-300, 0.0], [0.5, 0.5]], None, m)
    want = np.array([-math.log(1e-300), -math.log(np.finfo(float).tiny)])
    assert np.all(np.isfinite(x))
    assert np.allclose(_log_survival(m, x), want, rtol=1e-15, atol=0.0)
    assert np.allclose(y, m.scale * math.expm1(math.log(2.0) / m.alpha), rtol=1e-15, atol=0.0)


def _exact_risk_pair(mp, row, phi, alpha, scale):
    """40-digit risks of one column of uniform draws, by Kanter's textbook
    stable variate ``S = (a(u) / E0)**((1 - g) / g)`` and the Marshall--Olkin
    ``-log su = (E1 / S)**g``, with the sampler's tiny clamps."""
    tiny = mp.mpf(np.finfo(float).tiny)
    u = max(mp.mpf(row[0]), tiny)
    if phi == 1.0:
        logs = [-mp.log(max(mp.mpf(v), tiny)) for v in row]
    else:
        g = 1 / mp.mpf(phi)
        e0, e1, e2 = (max(-mp.log1p(-mp.mpf(v)), tiny) for v in row[1:])
        a = (mp.sin((1 - g) * mp.pi * u) * mp.sin(g * mp.pi * u) ** (g / (1 - g))
             / mp.sin(mp.pi * u) ** (1 / (1 - g)))
        stable = (a / e0) ** ((1 - g) / g)
        logs = [min((e / stable) ** g, -mp.log(tiny)) for e in (e1, e2)]
    return [float(scale * mp.expm1(lv / mp.mpf(alpha))) for lv in logs]


@pytest.mark.parametrize("alpha,phi", [(0.8, 10.0), (2.0, 2.0), (0.8, 1.0)])
def test_sampler_arithmetic_matches_a_40_digit_reference(alpha, phi):
    # chunk 0 of two seeds, redrawn from the same Philox rows. The reference
    # is evaluated at the draws where the float error peaks: the 128 largest
    # x and y (the error of expm1(L / alpha) grows with L) and the 128
    # smallest (u near 1, where sin(pi u) cancels), plus every 512th draw.
    # Measured worst on the whole chunks: 6.9e-15 (1.2e-9 through quantile(1 - su)).
    mp = pytest.importorskip("mpmath")
    m = ParetoMarginal(alpha, 1.0)
    n_rows = 2 if phi == 1.0 else 4
    worst = 0.0
    with mp.workdps(40):
        for seed in (7, 42):
            s = sample_pairs(m, "gumbel", _CHUNK, seed, phi=phi, threads=1)
            rows = np.random.Generator(np.random.Philox(key=[seed, 0])).random((n_rows, _CHUNK))
            order_x, order_y = np.argsort(s.x), np.argsort(s.y)
            picks = np.unique(np.concatenate([
                order_x[:128], order_x[-128:], order_y[:128], order_y[-128:],
                np.arange(0, _CHUNK, 512),
            ]))
            for j in picks:
                want = _exact_risk_pair(mp, rows[:, j], phi, alpha, m.scale)
                worst = max(worst, abs(s.x[j] / want[0] - 1.0), abs(s.y[j] / want[1] - 1.0))
    assert worst < 2e-14, worst


def test_sampling_reuses_one_scratch_block_per_worker(m08):
    # at most one block of four uniform rows beyond x and y, plus slack; a
    # chunk of temporaries (about 6.7 MiB here) does not fit
    n = 4 * _CHUNK + 1
    block = 4 * _CHUNK * 8
    tracemalloc.start()
    try:
        s = sample_pairs(m08, "gumbel", n, 5, phi=10.0, threads=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - s.x.nbytes - s.y.nbytes <= block + 2**20, peak


def test_marginals_are_uniform_after_probability_transform(m08, m2):
    # survival(x) must be uniform; mean test at fixed seed, |z| < 4. Near
    # phi = 1, sin(pi u)**(1 / (1 - 1/phi)) underflows, which made the
    # textbook stable variate 0 / 0
    for m in (m08, m2):
        for family, phi in (("independence", None), ("gumbel", 10.0), ("gumbel", 1.01)):
            s = sample_pairs(m, family, 100_000, 13, phi=phi)
            for arr in (s.x, s.y):
                u = m.survival(arr)
                z = (u.mean() - 0.5) / math.sqrt(1.0 / (12.0 * u.size))
                assert abs(z) < 4.0


def test_joint_survival_matches_copula(m08):
    # empirical joint exceedance frequencies against the analytic copula
    s = sample_pairs(m08, "gumbel", 200_000, 17, phi=10.0)
    su = m08.survival(s.x)
    sv = m08.survival(s.y)
    for u, v in ((0.1, 0.1), (0.05, 0.2), (0.3, 0.02)):
        want = oracles.gumbel_chat(10.0, u, v)
        got = np.mean((su < u) & (sv < v))
        z = (got - want) / math.sqrt(want * (1.0 - want) / su.size)
        assert abs(z) < 4.0


def test_dependence_strength_matches_kendall_tau(m08):
    # gumbel dependence has Kendall tau = 1 - 1/phi
    s = sample_pairs(m08, "gumbel", 2_000, 19, phi=10.0)
    tau, _ = stats.kendalltau(s.x, s.y)
    assert abs(tau - 0.9) < 0.02


def test_independence_has_no_rank_correlation(m08):
    s = sample_pairs(m08, "independence", 100_000, 23)
    rho, _ = stats.spearmanr(s.x, s.y)
    assert abs(rho) < 0.02


def test_tail_estimate_agrees_with_exact_probability(m08):
    s = sample_pairs(m08, "gumbel", 500_000, 42, phi=10.0)
    t = m08.quantile(1.0 - 2e-3)
    p_exact = oracles.exact_sum_tail(0.8, 1.0, "gumbel", 10.0, t)
    est = empirical_tailprob(s, t)
    assert abs(est.point - p_exact) / est.stderr < 3.5
    assert est.n == 500_000
    assert est.seed == 42


def test_empirical_tailprob_stderr_is_binomial(m08):
    s = sample_pairs(m08, "independence", 10_000, 29)
    est = empirical_tailprob(s, 10.0)
    want = math.sqrt(est.point * (1.0 - est.point) / 10_000)
    assert math.isclose(est.stderr, want, rel_tol=1e-12)


def test_empirical_var_mechanics():
    # handmade totals: x + y = 1..100, so the q-quantile rank is transparent
    m = ParetoMarginal(2.0, 1.0)
    x = np.arange(1.0, 101.0)
    y = np.zeros(100)
    s = sample_pairs(m, "independence", 100, 1)
    s = type(s)(x=x, y=y, config=s.config)
    est = empirical_var(s, 0.9)
    assert est.point == 90.0
    assert est.ci_low <= est.point <= est.ci_high
    assert est.stderr == (est.ci_high - est.ci_low) / 6.0


def _reference_tailprob(pairs, t):
    # the estimator before the sums were cached: a fresh x + y per call
    n = pairs.x.size
    p = int(np.count_nonzero(pairs.x + pairs.y > t)) / n
    return MCEstimate(point=p, stderr=math.sqrt(p * (1.0 - p) / n), n=n,
                      seed=pairs.config.seed)


def _reference_var(pairs, q):
    # the estimator before the sums were cached: a partition of a fresh x + y
    n = pairs.x.size
    k = int(math.floor(n * q))
    d = int(math.ceil(3.0 * math.sqrt(n * q * (1.0 - q))))
    lo, hi = max(k - d, 1), min(k + d, n)
    total = np.partition(pairs.x + pairs.y, sorted({k - 1, lo - 1, hi - 1}))
    low, high = float(total[lo - 1]), float(total[hi - 1])
    return MCEstimate(point=float(total[k - 1]), stderr=(high - low) / 6.0, n=n,
                      seed=pairs.config.seed, ci_low=low, ci_high=high)


def _queries(pairs, qs):
    """Tail queries at sums of the sample, its extremes, +-inf and NaN, and
    VaR queries at ``qs``, as ``(kind, argument)`` pairs."""
    sums = pairs.x + pairs.y
    picks = np.linspace(0, sums.size - 1, 7).astype(int)
    ts = [float(sums[i]) for i in picks]
    ts += [float(sums.min()), float(sums.max()), -math.inf, math.inf, math.nan, 3.0]
    return [("tail", t) for t in ts] + [("var", q) for q in qs]


def _answer(pairs, kind, arg, reference=False):
    if kind == "tail":
        return (_reference_tailprob if reference else empirical_tailprob)(pairs, arg)
    return (_reference_var if reference else empirical_var)(pairs, arg)


def _orders(queries):
    """Tail-first, VaR-first and interleaved orders of the same queries."""
    tails = [qu for qu in queries if qu[0] == "tail"]
    vars_ = [qu for qu in queries if qu[0] == "var"]
    mixed = list(queries)
    random.Random(5).shuffle(mixed)
    return {"tail-first": tails + vars_, "var-first": vars_ + tails, "interleaved": mixed}


def _assert_same(got, want):
    # repr pins every bit, including the sign of zero and NaN
    assert repr(got) == repr(want)


def test_cached_estimators_equal_the_uncached_reference(m08, m2):
    qs = (0.6, 0.9, 0.99, 0.999)
    for m in (m08, m2):
        for family, phi in (("independence", None), ("gumbel", 10.0),
                            ("gumbel", 2.0), ("comonotone", None)):
            for n in (5, 100, 65537, N_CHUNKY):
                base = sample_pairs(m, family, n, 31, phi=phi)
                queries = [qu for qu in _queries(base, qs)
                           if qu[0] == "tail" or math.floor(n * qu[1]) >= 1]
                want = {qu: _answer(base, *qu, reference=True) for qu in queries}
                for order, seq in _orders(queries).items():
                    pairs = sample_pairs(m, family, n, 31, phi=phi)
                    for qu in seq:
                        got = _answer(pairs, *qu)
                        assert got == want[qu], (family, phi, n, order, qu)
                        _assert_same(got, want[qu])


def test_cached_estimators_on_caller_arrays():
    # caller-built samples with ties, infinities and NaN sums
    config = sample_pairs(ParetoMarginal(2.0, 1.0), "independence", 1, 1).config
    x = np.array([3.0, 1.0, 2.0, 2.0, np.inf, 0.0, 5.0, 2.0, 7.0, 1.0, 0.5, 4.0])
    y = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0, -5.0, 0.0, 0.0, 1.0, 0.5, 0.0])
    with_nan = x.copy()
    with_nan[[2, 8]] = np.nan
    for xs in (x, with_nan):
        ref = SamplePairs(x=xs, y=y, config=config)
        queries = _queries(ref, (0.5, 0.75, 0.9))
        for order, seq in _orders(queries).items():
            pairs = SamplePairs(x=xs, y=y, config=config)
            for qu in seq:
                _assert_same(_answer(pairs, *qu), _answer(ref, *qu, reference=True))


def _store(pairs):
    """The sample's tail store ``(cover, top)``, or None before the first build."""
    return pairs.__dict__.get("_tail_store")


def _assert_store_holds_the_top_sums(pairs):
    cover, top = _store(pairs)
    assert not top.flags.writeable
    ordered = np.sort(pairs.x + pairs.y)
    below = ordered.size - top.size
    assert np.array_equal(top, ordered[below:], equal_nan=True)
    assert np.all(ordered[:below] <= cover)


def test_total_is_fresh_and_the_cached_sums_are_read_only(m08):
    s = sample_pairs(m08, "gumbel", 1000, 3, phi=2.0)
    empirical_tailprob(s, 10.0)
    cover, top = _store(s)
    sums = s.x + s.y
    assert cover == 10.0 and np.array_equal(top, np.sort(sums[sums > 10.0]))
    with pytest.raises(ValueError):
        top[0] = 0.0
    # the median's ranks lie below the store, so a larger one replaces it
    empirical_var(s, 0.5)
    cover, top = _store(s)
    assert top.size > 500 and cover == top[0]
    _assert_store_holds_the_top_sums(s)
    with pytest.raises(ValueError):
        top[0] = 0.0
    assert repr(s) == repr(SamplePairs(x=s.x, y=s.y, config=s.config))


def _lowest_var_rank(pairs, q):
    """0-based lowest rank an ``empirical_var(pairs, q)`` call reads."""
    n = pairs.x.size
    k = int(math.floor(n * q))
    return max(k - int(math.ceil(3.0 * math.sqrt(n * q * (1.0 - q)))), 1) - 1


def test_a_tail_call_racing_a_var_call_keeps_the_sorted_sums(m08):
    # replay each race deterministically: the outer call's first sum fires
    # the hook, which runs the inner call on the same instance to the end
    # before the outer call builds and publishes its own store
    base = sample_pairs(m08, "gumbel", 1000, 3, phi=2.0)
    t, q = 100.0, 0.9
    tail_size = int(np.count_nonzero(base.x + base.y > t))
    var_size = 1000 - _lowest_var_rank(base, q)
    assert tail_size < var_size  # the VaR store covers more
    calls = {"tail": lambda p: empirical_tailprob(p, t), "var": lambda p: empirical_var(p, q)}
    want = {"tail": _reference_tailprob(base, t), "var": _reference_var(base, q)}
    for outer, inner in (("tail", "var"), ("var", "tail")):
        raced = []

        class RacingArray(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if not raced:
                    raced.append(None)
                    raced[0] = calls[inner](pairs)
                plain = [np.asarray(a) for a in inputs]
                return getattr(ufunc, method)(*plain, **kwargs)

        pairs = SamplePairs(x=base.x.view(RacingArray), y=base.y, config=base.config)
        _assert_same(calls[outer](pairs), want[outer])
        _assert_same(raced[0], want[inner])
        assert _store(pairs)[1].size == var_size, (outer, inner)
        _assert_store_holds_the_top_sums(pairs)


def _run_transitions(pairs, steps, label=""):
    """Run ``(kind, argument, expect)`` steps on ``pairs``, comparing each
    answer with the reference by ``repr``. ``expect`` is ``"kept"`` (the
    store is not replaced), ``"grown"`` (a larger store replaces it),
    ``"none"`` (still no store) or None (not pinned)."""
    for kind, arg, expect in steps:
        step = (label, kind, arg)
        before = _store(pairs)
        _assert_same(_answer(pairs, kind, arg), _answer(pairs, kind, arg, reference=True))
        after = _store(pairs)
        if expect == "none":
            assert after is None, step
            continue
        if expect == "kept":
            assert before is not None and after is before, step
        elif expect == "grown":
            assert after is not before, step
            assert before is None or after[1].size > before[1].size, step
        _assert_store_holds_the_top_sums(pairs)


def test_the_tail_store_transitions_on_a_ragged_sample(m08):
    base = sample_pairs(m08, "gumbel", N_CHUNKY, 43, phi=2.0)
    ordered = np.sort(base.x + base.y)
    t1, t2, t3 = (float(ordered[int(N_CHUNKY * (1.0 - sf))]) for sf in (1e-1, 1e-2, 1e-3))
    sequences = {
        "deeper after shallower": [
            ("tail", t2, "grown"), ("tail", t3, "kept"), ("var", 0.999, "kept"),
            ("tail", math.inf, "kept"),
        ],
        "shallower after deeper": [
            ("tail", t3, "grown"), ("tail", t2, "grown"), ("tail", t3, "kept"),
            ("tail", t1, "grown"),
        ],
        "VaR ranks below the store": [
            ("tail", t3, "grown"), ("var", 0.99, "grown"), ("var", 0.9, "grown"),
            ("tail", t1, "kept"), ("var", 0.999, "kept"),
        ],
        "VaR first, then tail queries": [
            ("var", 0.99, "grown"), ("tail", t2, "kept"), ("tail", t3, "kept"),
            ("tail", t1, "grown"), ("var", 0.999, "kept"),
        ],
        "NaN threshold first": [
            ("tail", math.nan, "none"), ("tail", math.nan, "none"), ("tail", t2, "grown"),
            ("tail", math.nan, "kept"),
        ],
        "minus infinity": [
            ("tail", -math.inf, "grown"), ("var", 0.6, "kept"), ("tail", t1, "kept"),
            ("tail", -math.inf, "kept"),
        ],
    }
    for name, steps in sequences.items():
        pairs = SamplePairs(x=base.x, y=base.y, config=base.config)
        _run_transitions(pairs, steps, name)
    # no sum is -inf, so the last sequence's store holds every sum
    assert _store(pairs)[1].size == N_CHUNKY


def test_the_tail_store_transitions_on_caller_arrays():
    # ties, infinities and NaN sums; which steps rebuild is not pinned here
    config = sample_pairs(ParetoMarginal(2.0, 1.0), "independence", 1, 1).config
    x = np.array([3.0, 1.0, 2.0, 2.0, np.inf, 0.0, 5.0, 2.0, 7.0, 1.0, 0.5, 4.0])
    y = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0, -5.0, 0.0, 0.0, 1.0, 0.5, 0.0])
    with_nan = x.copy()
    with_nan[[2, 8]] = np.nan
    neg_inf = x.copy()
    neg_inf[5] = -np.inf
    for xs in (x, with_nan, neg_inf):
        for steps in (
            [("tail", 2.0, None), ("tail", 4.0, None), ("var", 0.9, None), ("tail", 0.0, None)],
            [("tail", 4.0, None), ("tail", 2.0, None), ("var", 0.5, None), ("tail", 1.0, None)],
            [("var", 0.75, None), ("tail", 3.0, None), ("tail", 1.0, None), ("var", 0.5, None)],
            [("tail", math.nan, "none"), ("tail", math.inf, None), ("tail", math.nan, None)],
            [("tail", -math.inf, None), ("var", 0.5, None), ("tail", 2.0, None)],
        ):
            _run_transitions(SamplePairs(x=xs, y=y, config=config), steps)


def test_the_first_tail_call_makes_no_array_of_all_sums(m2, monkeypatch):
    # each scan worker holds one chunk of sums, so the thread counts are
    # pinned rather than taken from the machine's CPUs; a VaR query first
    # keeps the sums from its lowest rank up (0.11% of the sample here)
    s = sample_pairs(m2, "independence", 1_000_000, 41)
    t = float(np.sort(s.x + s.y)[int(0.99 * s.x.size)])
    for threads in ("1", "2"):
        monkeypatch.setenv("TAILSUM_THREADS", threads)
        for first in (lambda p: empirical_tailprob(p, t), lambda p: empirical_var(p, 0.999)):
            pairs = SamplePairs(x=s.x, y=s.y, config=s.config)
            tracemalloc.start()
            try:
                first(pairs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < s.x.nbytes / 4, (threads, peak)


def _store_and_answers(pairs, queries):
    """The tail store's ``top`` bytes after a first tail query, then the
    ``repr`` of every answer."""
    empirical_tailprob(pairs, queries[0][1])
    top = _store(pairs)[1].tobytes()
    return top, [repr(_answer(pairs, *qu)) for qu in queries]


def test_the_store_scan_is_identical_at_every_thread_count(m08, monkeypatch):
    # a ragged final chunk, an exact multiple of the chunk and a single
    # short chunk; 3 workers split the chunks unevenly and 8 are capped,
    # switching often so that the workers interleave
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n in (N_CHUNKY, 2 * _CHUNK, 1000):
            base = sample_pairs(m08, "gumbel", n, 13, phi=2.0)
            ordered = np.sort(base.x + base.y)
            queries = [("tail", float(ordered[int(n * (1.0 - sf))])) for sf in (1e-2, 1e-1)]
            queries += [("tail", math.inf), ("var", 0.99), ("var", 0.9), ("tail", 0.0)]
            monkeypatch.setenv("TAILSUM_THREADS", "1")
            want = _store_and_answers(SamplePairs(x=base.x, y=base.y, config=base.config),
                                      queries)
            assert [repr(_answer(base, *qu, reference=True)) for qu in queries] == want[1]
            for threads in ("2", "3", "8"):
                monkeypatch.setenv("TAILSUM_THREADS", threads)
                pairs = SamplePairs(x=base.x, y=base.y, config=base.config)
                assert _store_and_answers(pairs, queries) == want, (n, threads)
    finally:
        sys.setswitchinterval(old_interval)


def test_the_store_scan_keeps_nan_and_infinite_sums_at_every_thread_count(monkeypatch):
    # NaN sums from NaN risks and from inf + -inf, in every chunk
    config = sample_pairs(ParetoMarginal(2.0, 1.0), "independence", 1, 1).config
    rng = np.random.default_rng(3)
    n = 3 * _CHUNK + 77
    x = rng.pareto(2.0, n)
    y = rng.pareto(2.0, n)
    x[rng.integers(0, n, 40)] = np.nan
    x[rng.integers(0, n, 40)] = np.inf
    y[rng.integers(0, n, 40)] = -np.inf
    s = x + y
    assert np.isnan(s).any() and np.isinf(s).any()
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("TAILSUM_THREADS", threads)
        for t in (-math.inf, 0.5, 20.0, math.inf):
            pairs = SamplePairs(x=x, y=y, config=config)
            empirical_tailprob(pairs, t)
            top = _store(pairs)[1]
            assert top.tobytes() == np.sort(s[~(s <= t)]).tobytes(), (threads, t)


def test_no_worker_thread_outlives_an_estimator_call(m08, monkeypatch):
    monkeypatch.setenv("TAILSUM_THREADS", "3")
    s = sample_pairs(m08, "gumbel", N_CHUNKY, 17, phi=10.0)
    baseline = threading.active_count()
    empirical_tailprob(s, 10.0)
    assert threading.active_count() == baseline
    empirical_var(SamplePairs(x=s.x, y=s.y, config=s.config), 0.99)
    assert threading.active_count() == baseline


def test_threads_sharing_a_sample_get_the_sequential_answers(m08):
    base = sample_pairs(m08, "gumbel", 65537, 37, phi=10.0)
    queries = _queries(base, (0.6, 0.9, 0.99, 0.999))
    want = {qu: _answer(base, *qu) for qu in queries}
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_no in range(5):
            # a fresh instance per round, so the threads race to build the cache
            pairs = SamplePairs(x=base.x, y=base.y, config=base.config)
            start = threading.Barrier(4)
            results = [None] * 4

            def work(i, seq):
                start.wait(timeout=30)
                results[i] = [(qu, _answer(pairs, *qu)) for qu in seq]

            threads = []
            for i in range(4):
                seq = list(queries)
                random.Random(round_no * 4 + i).shuffle(seq)
                threads.append(threading.Thread(target=work, args=(i, seq)))
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
                assert not th.is_alive()
            for got in results:
                assert got is not None and len(got) == len(queries)
                for qu, est in got:
                    _assert_same(est, want[qu])
    finally:
        sys.setswitchinterval(old_interval)


GRID_FAMILIES = (("independence", None), ("comonotone", None), ("gumbel", 1.0),
                 ("gumbel", 2.0), ("gumbel", 10.0))


def _grids(sums):
    """``(name, thresholds, levels)`` grids for a sample with these sums:
    unsorted, with duplicates, NaN and infinite thresholds, and a level whose
    lowest rank lies more than a chunk below the top."""
    ordered = np.sort(sums)
    at = {p: float(ordered[int(p * (ordered.size - 1))]) for p in (0.5, 0.95, 0.99, 0.999)}
    return (
        ("mixed", (at[0.999], at[0.95], at[0.999], math.nan, math.inf, 3.0),
         (0.999, 0.99, 0.999)),
        ("tails only", (at[0.99], at[0.5]), ()),
        ("levels only", (), (0.9999, 0.99)),
        ("deep level", (math.inf, at[0.999]), (0.6, 0.99)),
        ("minus infinity", (-math.inf, at[0.99]), (0.9,)),
        ("empty", (), ()),
    )


def test_empirical_grid_equals_the_in_memory_estimates(monkeypatch):
    # 3 workers split the chunks unevenly and 8 are capped at one per chunk
    for alpha in (0.8, 2.0):
        m = ParetoMarginal(alpha, 1.0)
        for family, phi in GRID_FAMILIES:
            for n in (1000, 2 * _CHUNK, 3 * _CHUNK + 77):
                monkeypatch.setenv("TAILSUM_THREADS", "1")
                base = sample_pairs(m, family, n, 19, phi=phi)
                cases = []
                for name, ts, qs in _grids(base.x + base.y):
                    pairs = SamplePairs(x=base.x, y=base.y, config=base.config)
                    want = ([empirical_tailprob(pairs, t) for t in ts],
                            [empirical_var(pairs, q) for q in qs])
                    cases.append((name, ts, qs, want))
                for threads in ("1", "2", "3", "8"):
                    monkeypatch.setenv("TAILSUM_THREADS", threads)
                    for name, ts, qs, want in cases:
                        got = empirical_grid(m, family, n, 19, phi=phi, thresholds=ts, levels=qs)
                        where = (alpha, family, phi, n, threads, name)
                        assert got == want, where
                        assert repr(got) == repr(want), where


def test_empirical_grid_rejects_what_the_in_memory_path_rejects(m08):
    s = sample_pairs(m08, "gumbel", 1000, 3, phi=2.0)
    for q in (0.0, 1.0, 1.5, -0.1, math.nan, 0.0005):
        with pytest.raises(DomainError) as in_memory:
            empirical_var(s, q)
        with pytest.raises(DomainError) as streamed:
            empirical_grid(m08, "gumbel", 1000, 3, phi=2.0, thresholds=(10.0,),
                           levels=(0.99, q))
        assert str(streamed.value) == str(in_memory.value), q
    for family, n, seed, phi in (("clayton", 100, 1, None), ("gumbel", 100, 1, None),
                                 ("gumbel", 100, 1, 0.5), ("independence", 100, 1, 2.0),
                                 ("independence", 0, 1, None), ("independence", 100, -1, None)):
        with pytest.raises(ConfigError) as in_memory:
            sample_pairs(m08, family, n, seed, phi=phi)
        with pytest.raises(ConfigError) as streamed:
            empirical_grid(m08, family, n, seed, phi=phi, levels=(0.5,))
        assert str(streamed.value) == str(in_memory.value), family


def test_empirical_grid_holds_one_scratch_block_and_the_kept_sums(m08, monkeypatch):
    # the sample itself (4 MiB of x and y) does not fit
    monkeypatch.setenv("TAILSUM_THREADS", "1")
    n = 4 * _CHUNK + 1
    block = (4 + 2) * _CHUNK * 8  # four uniform rows, x and y
    base = sample_pairs(m08, "gumbel", n, 5, phi=10.0)
    sums = base.x + base.y
    t = float(np.sort(sums)[int(0.99 * n)])
    q = 0.99
    # each chunk keeps at most its sums above t and its sums down to q's lowest rank
    depth = n - _var_ranks(n, q)[1] + 1
    n_chunks = -(-n // _CHUNK)
    kept = 8 * (int(np.count_nonzero(sums > t)) + n_chunks * depth)
    del base, sums
    tracemalloc.start()
    try:
        empirical_grid(m08, "gumbel", n, 5, phi=10.0, thresholds=(t,), levels=(q,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= block + kept + 2**20, (peak, kept)


def test_empirical_var_order_statistic_ci_contains_exact_quantile(m08):
    s = sample_pairs(m08, "gumbel", 1_000_000, 42, phi=10.0)
    truth = oracles.exact_sum_var(0.8, 1.0, "gumbel", 10.0, 0.99)
    est = empirical_var(s, 0.99)
    assert est.ci_low < truth < est.ci_high


def test_empirical_var_domain(m08):
    s = sample_pairs(m08, "independence", 5, 1)
    with pytest.raises(DomainError):
        empirical_var(s, 0.1)  # rank floor(0.5) = 0
    with pytest.raises(DomainError):
        empirical_var(s, 0.0)
    with pytest.raises(DomainError):
        empirical_var(s, 1.0)


def test_estimators_reject_an_empty_sample(m08):
    config = sample_pairs(m08, "independence", 1, 1).config
    empty = SamplePairs(x=np.empty(0), y=np.empty(0), config=config)
    for call, arg in ((empirical_tailprob, 1.0), (empirical_tailprob, math.nan),
                      (empirical_var, 0.5)):
        with pytest.raises(DomainError, match="nonempty sample"):
            call(empty, arg)


def test_sample_pairs_config_errors(m08):
    with pytest.raises(ConfigError):
        sample_pairs(m08, "clayton", 100, 1)
    with pytest.raises(ConfigError):
        sample_pairs(m08, "gumbel", 100, 1)  # phi required
    with pytest.raises(ConfigError):
        sample_pairs(m08, "gumbel", 100, 1, phi=0.5)
    with pytest.raises(ConfigError):
        sample_pairs(m08, "independence", 100, 1, phi=2.0)
    with pytest.raises(ConfigError):
        sample_pairs(m08, "independence", 0, 1)
    with pytest.raises(ConfigError):
        sample_pairs(m08, "independence", 100, -1)


def test_thread_env_override(m08, monkeypatch):
    monkeypatch.setenv("TAILSUM_THREADS", "2")
    s = sample_pairs(m08, "independence", N_CHUNKY, 7)
    ref = sample_pairs(m08, "independence", N_CHUNKY, 7, threads=1)
    assert np.array_equal(s.x, ref.x)
    monkeypatch.setenv("TAILSUM_THREADS", "zero")
    with pytest.raises(ConfigError):
        sample_pairs(m08, "independence", 1000, 7)
    monkeypatch.setenv("TAILSUM_THREADS", "0")
    with pytest.raises(ConfigError):
        sample_pairs(m08, "independence", 1000, 7)


def test_default_threads_count_the_cpus_this_process_may_use(monkeypatch):
    # a process pinned to one CPU (as by taskset) gets one worker
    monkeypatch.delenv("TAILSUM_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _resolve_threads(None) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert _resolve_threads(None) == 8
    assert _resolve_threads(3) == 3


def test_sample_metadata(m08):
    s = sample_pairs(m08, "gumbel", 1234, 9, phi=2.0)
    assert s.config.n == 1234
    assert s.config.seed == 9
    assert s.config.family == "gumbel"
    assert s.config.phi == 2.0
    assert s.config.alpha == 0.8
    assert s.x.size == 1234
