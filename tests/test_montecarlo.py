"""Unit tests for the seedable Monte Carlo oracle."""

import math
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
    dump_pairs,
    empirical_tailprob,
    empirical_var,
    sample_pairs,
)

# crosses two 65536-draw chunk boundaries, with a ragged final chunk
N_CHUNKY = 200_001


def test_streams_are_identical_across_thread_counts(m08):
    for family, phi in (("independence", None), ("gumbel", 10.0), ("comonotone", None)):
        one = sample_pairs(m08, family, N_CHUNKY, 7, phi=phi, threads=1)
        four = sample_pairs(m08, family, N_CHUNKY, 7, phi=phi, threads=4)
        assert np.array_equal(one.x, four.x)
        assert np.array_equal(one.y, four.y)


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


def test_marginals_are_uniform_after_probability_transform(m08, m2):
    # survival(x) must be uniform; mean test at fixed seed, |z| < 4
    for m in (m08, m2):
        for family, phi in (("independence", None), ("gumbel", 10.0)):
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
    total = s.total
    assert total.flags.writeable
    assert total is not s.total
    assert not np.shares_memory(total, top)
    assert np.array_equal(total, s.x + s.y)
    total[0] = -1.0
    assert np.array_equal(s.total, s.x + s.y)
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


def test_the_first_tail_call_makes_no_array_of_all_sums(m2):
    s = sample_pairs(m2, "independence", 1_000_000, 41)
    t = float(np.sort(s.x + s.y)[int(0.99 * s.x.size)])
    tracemalloc.start()
    try:
        empirical_tailprob(s, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < s.x.nbytes / 4, peak


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


def test_dump_pairs_round_trip(tmp_path, m08):
    s = sample_pairs(m08, "gumbel", 100, 3, phi=2.0)
    path = tmp_path / "pairs.csv"
    dump_pairs(s, path)
    text = path.read_text().splitlines()
    assert text[0] == "x,y"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    # 17 significant digits round-trip doubles exactly
    assert np.array_equal(data[:, 0], s.x)
    assert np.array_equal(data[:, 1], s.y)


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


def test_sample_metadata(m08):
    s = sample_pairs(m08, "gumbel", 1234, 9, phi=2.0)
    assert s.config.n == 1234
    assert s.config.seed == 9
    assert s.config.family == "gumbel"
    assert s.config.phi == 2.0
    assert s.config.alpha == 0.8
    assert np.array_equal(s.total, s.x + s.y)
    assert s.x.size == 1234
