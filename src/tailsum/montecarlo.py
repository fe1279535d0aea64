"""Seedable Monte Carlo reference for sums of two dependent Pareto risks.

Sampling is chunked: chunk ``i`` of a run draws from an independent
counter-based stream keyed by ``(seed, i)``, and chunks are written into
disjoint slices of preallocated arrays. The result is bit-identical for a
given ``(n, seed)`` regardless of how many worker threads execute the
chunks, so estimates are reproducible across machines and thread counts.

The Gumbel family is sampled exactly through its positive-stable frailty
representation (Marshall and Olkin, with Kanter's method for the stable
variate), the comonotone family through a single shared uniform, and
independence through two. Every family yields the log survival-side
uniforms ``L = -log su`` of the pair directly, and each risk is
``scale * expm1(L / alpha)``, the Pareto quantile at ``1 - su``, so the
joint survival function of the pair is exactly the survival copula applied
to the marginal survivals. ``su`` itself is never formed, so a far-tail
draw keeps its relative precision. One chunk driver splits the chunks over
the worker threads; each worker draws its chunks' uniform rows into one
scratch block and writes the pairs straight into the output arrays.

The estimators read a sample through a tail store of its sums ``x + y``:
a cover value and a sorted array ``top`` of the largest sums, such that
every sum left out is at most the cover (NaN sums are kept and sort last,
as in a full sort). One builder makes every store, and is the one place
that forms ``x + y``: it sums the pairs in blocks of ``_CHUNK`` on the same
chunk driver and worker threads as the sampler (``TAILSUM_THREADS`` or the
default). Each block keeps its sums above a threshold and its ``depth``
largest sums; the kept sums are joined in chunk order and cut by the same
rule as they arrive, then sorted, so the store is the same at every thread
count and the scan holds about twice the store's sums, never all ``n``
(unless the store holds most of them). Every
estimator query on a :class:`SamplePairs` asks for the sums above a
threshold ``t`` and the ``depth`` largest: a tail query at ``t`` with depth
0, a VaR query at ``t = inf`` with the depth of the lowest rank it reads.
The held store covers the query when ``t`` is at or above its cover and
``depth`` at most the size of ``top``; a covered query reads only ``top``,
and any other builds a store that covers it. The store holds about
``n * p`` sums for the largest survival level ``p`` queried so far. ``x``
and ``y`` must not be mutated after the first estimator call.

:func:`empirical_grid` gives the same estimates over a whole grid of
thresholds and levels without holding the sample: the builder draws each
chunk's pairs into its worker's scratch block, as :func:`sample_pairs`
draws them, and keeps only the sums the grid reads.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError
from .marginals import ParetoMarginal

__all__ = [
    "SimulationConfig",
    "SamplePairs",
    "MCEstimate",
    "sample_pairs",
    "empirical_tailprob",
    "empirical_var",
    "empirical_grid",
]

_CHUNK = 65536
_FAMILIES = ("independence", "gumbel", "comonotone")
_TINY = np.finfo(float).tiny
# -log(tiny): the survival-side uniforms are clamped at tiny
_MAX_LOG_SURVIVAL = -math.log(_TINY)


@dataclass(frozen=True)
class SimulationConfig:
    """Immutable record of how a sample was generated."""

    n: int
    seed: int
    family: str
    alpha: float
    scale: float
    phi: Optional[float] = None


@dataclass(frozen=True)
class SamplePairs:
    """A simulated sample of risk pairs plus its generating configuration.

    The estimators keep a tail store of the sums ``x + y`` on the instance
    (see the module docstring): a cover and the sorted largest sums ``top``,
    every sum left out being at most the cover. A query for the sums above
    ``t`` and the ``depth`` largest reads the held store when
    ``t >= cover`` and ``depth <= top.size``; any other query builds a store
    by scanning the sums on ``TAILSUM_THREADS`` worker threads (or the
    default count), and the store does not depend on that count. The stored
    array is read-only and never written after it is published, so threads
    may share an instance without a lock. A store is published only if it
    holds more sums than the one already there; racing calls may each build
    and publish a store, and every store gives identical answers. The store
    is not a field and takes no part in ``repr`` or ``==``. Do not mutate
    ``x`` or ``y`` after the first estimator call: the store would not see
    it.
    """

    x: np.ndarray
    y: np.ndarray
    config: SimulationConfig

    def _store(self, t, depth: int = 0) -> np.ndarray:
        """The ``top`` of a tail store holding the sums above ``t`` (not NaN)
        and the ``depth`` largest: the held one if it covers them, else a new
        one from ``_tail_sums``, published if it holds more sums."""
        held = self.__dict__.get("_tail_store")
        if held is not None and t >= held[0] and depth <= held[1].size:
            return held[1]
        x, y = self.x, self.y
        top = _tail_sums(
            x.size, lambda lo, hi, block: (x[lo:hi], y[lo:hi]), t, depth,
            dtype=np.result_type(x, y),
        )
        top.flags.writeable = False
        cover = t
        if depth:
            # the sums left out are at most the least kept one; NaN sums sort
            # last, so a top of NaN sums bounds them only by inf
            cover = math.inf if math.isnan(top[0]) else top[0]
        # check-then-set without a lock: a racing call may still replace a
        # larger store with a smaller one, which costs later queries a
        # rebuild but changes no answer
        held = self.__dict__.get("_tail_store")
        if held is None or held[1].size < top.size:
            object.__setattr__(self, "_tail_store", (cover, top))
        return top


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo point estimate with its uncertainty.

    ``stderr`` is a standard-error scale: the binomial standard error for
    tail probabilities, and one sixth of a plus/minus three standard error
    order-statistic interval for quantiles (inf where the interval's low end
    is infinite, as where a tiny ``alpha`` makes the sampled risks overflow).
    ``ci_low``/``ci_high`` carry the explicit interval when one was formed.
    """

    point: float
    stderr: float
    n: int
    seed: int
    ci_low: Optional[float] = None
    ci_high: Optional[float] = None


def _resolve_threads(threads: Optional[int]) -> int:
    if threads is not None:
        if threads < 1:
            raise ConfigError(f"thread count must be positive, got {threads}")
        return threads
    env = os.environ.get("TAILSUM_THREADS")
    if env:
        try:
            val = int(env)
        except ValueError as exc:
            raise ConfigError(f"TAILSUM_THREADS must be an integer, got {env!r}") from exc
        if val < 1:
            raise ConfigError(f"TAILSUM_THREADS must be positive, got {val}")
        return val
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))  # the CPUs this process may run on
    else:
        cpus = os.cpu_count() or 1
    return min(8, cpus)


def _over_chunks(
    size: int, threads: Optional[int], work, rows: int = 1, dtype=np.float64
) -> None:
    """Run ``work(lo, hi, block)`` on every ``_CHUNK`` slice ``[lo, hi)`` of
    ``range(size)``.

    The chunks are split over ``min(_resolve_threads(threads), n_chunks)``
    worker threads, worker ``w`` taking chunks ``w``, ``w + workers``, ...
    Each worker hands every one of its chunks the same scratch block of
    ``rows * min(size, _CHUNK)`` values of ``dtype``, so ``work`` must leave
    nothing in it that outlives the call.
    """
    n_chunks = (size + _CHUNK - 1) // _CHUNK
    workers = min(_resolve_threads(threads), n_chunks)

    def run(first: int) -> None:
        block = np.empty(rows * min(size, _CHUNK), dtype=dtype)
        for index in range(first, n_chunks, workers):
            lo = index * _CHUNK
            work(lo, min(lo + _CHUNK, size), block)

    if workers == 1:
        run(0)
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, range(workers)))


def _tail_sums(
    size: int, pairs_of, t, depth: int = 0, rows: int = 1, dtype=np.float64
) -> np.ndarray:
    """The sorted sums ``x + y`` of ``size`` pairs that lie above ``t`` (NaN
    sums included) or among the ``depth`` largest (NaN sorting last).

    ``pairs_of(lo, hi, block)`` returns the risks ``(x, y)`` of the chunk
    ``[lo, hi)``; ``block`` is the worker's scratch block of ``rows`` chunks
    (see ``_over_chunks``). The sums go to the first ``hi - lo`` values of
    the block: ``pairs_of`` may use the rest, and may return that head as
    ``x``, which the sum then overwrites in place.

    Each chunk keeps its sums above ``t`` and its own ``depth`` largest,
    which hold every sum of the result. The kept parts are joined in chunk
    order as they arrive, whichever worker made them, and cut by the same
    rule whenever they hold twice what the last cut kept. So the cuts depend
    on the chunks alone and the result is the same at every thread count;
    the held parts stay within about twice the result plus a chunk per
    worker, and the cuts cost O(``size``) in all.
    """

    def kept(sums):
        # the sums above t and the depth largest, for depth < sums.size;
        # partitions sums in place
        cut = sums.size - depth
        if depth:
            sums.partition(cut)
            if sums[cut] <= t:  # so is every sum below the cut
                return sums[cut:].copy()
        low = sums[:cut]
        return np.concatenate((sums[cut:], low[~(low <= t)]))  # ~(<=) keeps NaN

    # kept parts by chunk index, until every earlier one is held. The reorder
    # is load-bearing: the cuts partition whatever they are given, so joining
    # in arrival order would let the worker timing pick which of equal sums
    # (+0.0 and -0.0 on caller-built samples) the store keeps
    arrived = {}
    held, held_size, next_chunk = [], 0, 0
    cut_above = 2 * depth if depth else math.inf  # without a depth nothing is cut
    lock = threading.Lock()

    def keep(lo, hi, block):
        nonlocal held_size, next_chunk, cut_above
        x, y = pairs_of(lo, hi, block)
        with np.errstate(over="ignore"):  # two finite risks may sum past the largest float
            sums = np.add(x, y, out=block[: hi - lo])
        part = sums.copy() if depth >= sums.size else kept(sums)
        with lock:
            arrived[lo // _CHUNK] = part
            while next_chunk in arrived:
                part = arrived.pop(next_chunk)
                held.append(part)
                held_size += part.size
                next_chunk += 1
                if held_size > cut_above:
                    both = np.concatenate(held)
                    held.clear()  # free the parts before the cut copies
                    held.append(kept(both))
                    held_size = held[0].size
                    cut_above = 2 * held_size

    _over_chunks(size, None, keep, rows, dtype)
    top = np.concatenate(held)
    if 0 < depth < top.size:
        top = kept(top)
    top.sort()
    return top


def _pairs_from_rows(rows, gamma, alpha, scale, x, y) -> None:
    """Write the risk pairs of one chunk's uniform rows into ``x`` and ``y``.

    ``rows`` holds one row of uniforms per variate, in draw order:
    ``(u, r0, r1, r2)`` for the Gumbel frailty with ``gamma = 1 / phi < 1``,
    and, with ``gamma`` None, ``(u, v)`` for independence or ``(u,)`` for
    the comonotone family. The rows are overwritten as workspace.

    ``x`` and ``y`` first receive ``L = -log su`` and ``-log sv``, where the
    survival-side uniforms are clamped at ``tiny``, then the risks
    ``scale * expm1(L / alpha)``. For the Gumbel family, with exponentials
    ``Ek = -log1p(-rk)``, the Marshall--Olkin pair ``su = exp(-(E1 / S)**gamma)``
    over Kanter's stable variate ``S = (a(u) / E0)**((1 - gamma) / gamma)``
    gives ``-log su = E1**gamma * W``, and ``-log sv = E2**gamma * W``, with
    ``W = (E0 / a(u))**(1 - gamma)
    = (E0 / sin((1-gamma) pi u))**(1 - gamma) * sin(pi u) / sin(gamma pi u)**gamma``.
    """
    if gamma is None:
        np.maximum(rows, _TINY, out=rows)
        for row, out in zip(rows, (x, y)):
            np.log(row, out=out)
            np.negative(out, out=out)
    else:
        u, e = rows[0], rows[1:]
        np.maximum(u, _TINY, out=u)
        np.negative(e, out=e)
        np.log1p(e, out=e)
        np.negative(e, out=e)
        np.maximum(e, _TINY, out=e)
        e0, e1, e2 = e
        # W into e0, with x as workspace
        np.multiply(u, (1.0 - gamma) * math.pi, out=x)
        np.sin(x, out=x)
        np.divide(e0, x, out=e0)
        np.power(e0, 1.0 - gamma, out=e0)
        # sin(pi u) at min(u, 1 - u): near u = 1, 1 - u is exact while sin(pi * u)
        # loses the rounding of pi * u to cancellation
        np.subtract(1.0, u, out=x)
        np.minimum(x, u, out=x)
        np.multiply(x, math.pi, out=x)
        np.sin(x, out=x)
        np.multiply(e0, x, out=e0)
        np.multiply(u, gamma * math.pi, out=x)
        np.sin(x, out=x)
        np.power(x, gamma, out=x)
        np.divide(e0, x, out=e0)
        for row, out in ((e1, x), (e2, y)):
            np.power(row, gamma, out=out)
            np.multiply(out, e0, out=out)
            np.minimum(out, _MAX_LOG_SURVIVAL, out=out)
    outs = (x,) if len(rows) == 1 else (x, y)
    with np.errstate(over="ignore"):  # a tiny alpha maps the far tail to inf
        for out in outs:
            np.divide(out, alpha, out=out)
            np.expm1(out, out=out)
            np.multiply(out, scale, out=out)
    if len(rows) == 1:
        np.copyto(y, x)


def _chunk_drawer(
    marginal: ParetoMarginal, family: str, n: int, seed: int, phi: Optional[float]
) -> tuple:
    """Check a sampler configuration and return ``(draw_chunk, n_rows)``.

    ``draw_chunk(lo, hi, block, x, y)`` writes the pairs of chunk
    ``[lo, hi)`` of the run into ``x`` and ``y``, drawing its ``n_rows``
    uniform rows into the head of ``block``. Chunk ``lo // _CHUNK`` reads
    only its own stream, keyed ``(seed, lo // _CHUNK)``, so every caller
    draws the same pairs.

    Raises
    ------
    ConfigError
        As :func:`sample_pairs`.
    """
    if family not in _FAMILIES:
        raise ConfigError(f"unknown family {family!r}; expected one of {_FAMILIES}")
    if family == "gumbel":
        if phi is None:
            raise ConfigError("the gumbel family requires phi")
        if not (phi >= 1.0) or not math.isfinite(phi):
            raise ConfigError(f"gumbel phi must be finite and at least 1, got {phi}")
    elif phi is not None:
        raise ConfigError(f"phi is only meaningful for the gumbel family, got family={family!r}")
    if n < 1:
        raise ConfigError(f"sample size must be positive, got {n}")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")

    gamma = 1.0 / phi if family == "gumbel" and phi > 1.0 else None
    n_rows = 4 if gamma is not None else 1 if family == "comonotone" else 2

    def draw_chunk(lo: int, hi: int, block: np.ndarray, x, y) -> None:
        rows = block[: n_rows * (hi - lo)].reshape(n_rows, hi - lo)
        np.random.Generator(np.random.Philox(key=[seed, lo // _CHUNK])).random(out=rows)
        _pairs_from_rows(rows, gamma, marginal.alpha, marginal.scale, x, y)

    return draw_chunk, n_rows


def sample_pairs(
    marginal: ParetoMarginal,
    family: str,
    n: int,
    seed: int,
    *,
    phi: Optional[float] = None,
    threads: Optional[int] = None,
) -> SamplePairs:
    """Draw ``n`` dependent risk pairs with the given marginal and copula.

    Each pair is ``scale * expm1(-log(su) / alpha)`` applied to survival-side
    uniforms ``(su, sv)`` drawn from the survival copula, with ``-log su``
    computed directly rather than through ``su``.

    Parameters
    ----------
    marginal : ParetoMarginal
        Common marginal distribution of both risks.
    family : str
        One of ``"independence"``, ``"gumbel"``, ``"comonotone"``.
    n : int
        Sample size (positive).
    seed : int
        Nonnegative stream key; together with ``n`` it fully determines
        the sample.
    phi : float, optional
        Gumbel dependence parameter, at least 1; required for the Gumbel
        family and rejected otherwise. The value 1 coincides with
        independence.
    threads : int, optional
        Worker threads filling chunks; defaults to ``TAILSUM_THREADS`` or
        the number of CPUs the process may run on, at most 8. Has no effect
        on the values. The estimators' store scans and
        :func:`empirical_grid` take the same default but not this argument.

    Returns
    -------
    SamplePairs

    Raises
    ------
    ConfigError
        On an unknown family, missing or invalid ``phi``, nonpositive
        ``n``, or negative ``seed``.
    """
    draw_chunk, n_rows = _chunk_drawer(marginal, family, n, seed, phi)
    x = np.empty(n, dtype=np.float64)
    y = np.empty(n, dtype=np.float64)
    _over_chunks(
        n, threads, lambda lo, hi, block: draw_chunk(lo, hi, block, x[lo:hi], y[lo:hi]),
        rows=n_rows,
    )

    config = SimulationConfig(
        n=n, seed=seed, family=family, alpha=marginal.alpha, scale=marginal.scale,
        phi=phi,
    )
    return SamplePairs(x=x, y=y, config=config)


def _require_pairs(pairs: SamplePairs, op: str) -> int:
    """The sample size ``n``; raises :class:`DomainError` when it is 0."""
    n = pairs.x.size
    if n == 0:
        raise DomainError(f"{op} requires a nonempty sample, got n = 0")
    return n


def _var_ranks(n: int, q: float) -> tuple:
    """The 1-based ranks ``(k, lo, hi)`` of the point and interval ends an
    ``empirical_var`` estimate at ``q`` reads on a sample of size ``n``.

    Raises
    ------
    DomainError
        If ``q`` lies outside ``(0, 1)`` or the rank ``floor(n*q)`` does not
        exist.
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"empirical_var requires 0 < q < 1, got {q}")
    k = int(math.floor(n * q))
    if k < 1:
        raise DomainError(f"sample of size {n} has no rank floor(n*q)={k} statistic")
    d = int(math.ceil(3.0 * math.sqrt(n * q * (1.0 - q))))
    return k, max(k - d, 1), min(k + d, n)


def _tail_estimate(top, t, n: int, seed: int) -> MCEstimate:
    """The tail estimate at ``t`` from the sorted sums ``top`` of a store
    covering ``t``; ``top`` is not read when ``t`` is NaN."""
    hits = 0  # no sum exceeds NaN
    if not math.isnan(t):
        # NaN sums sort last and exceed no threshold
        below, finite = np.searchsorted(top, (t, math.inf), side="right")
        hits = int(finite - below)
    p = hits / n
    return MCEstimate(point=p, stderr=math.sqrt(p * (1.0 - p) / n), n=n, seed=seed)


def _var_estimate(top, ranks: tuple, n: int, seed: int) -> MCEstimate:
    """The VaR estimate at the ``_var_ranks`` ``ranks`` from the sorted sums
    ``top`` whose largest hold the order statistics from rank ``ranks[1]`` up."""
    k, lo, hi = ranks
    offset = n + 1 - top.size  # rank r is top[r - offset]
    ci_low, ci_high = float(top[lo - offset]), float(top[hi - offset])
    # unbounded where the low end is infinite (overflowing risks), where
    # both ends are inf and their difference NaN
    stderr = math.inf if math.isinf(ci_low) else (ci_high - ci_low) / 6.0
    return MCEstimate(
        point=float(top[k - offset]), stderr=stderr, n=n, seed=seed,
        ci_low=ci_low, ci_high=ci_high,
    )


def empirical_tailprob(pairs: SamplePairs, t: float) -> MCEstimate:
    """Empirical exceedance probability of the sum with binomial error.

    Returns the fraction of pairs with ``x + y > t`` and the standard error
    ``sqrt(p*(1-p)/n)``.

    Raises
    ------
    DomainError
        If the sample is empty.
    """
    n = _require_pairs(pairs, "empirical_tailprob")
    # a NaN cover would cover nothing, so a NaN threshold builds no store
    top = None if math.isnan(t) else pairs._store(t)
    return _tail_estimate(top, t, n, pairs.config.seed)


def empirical_var(pairs: SamplePairs, q: float) -> MCEstimate:
    """Empirical ``q``-quantile of the sum with an order-statistic interval.

    The point estimate is the ``floor(n*q)``-th order statistic. The
    interval takes the order statistics ``ceil(3*sqrt(n*q*(1-q)))`` ranks
    to either side (clamped to the sample), covering the true quantile with
    roughly plus/minus three standard errors; ``stderr`` is one sixth of
    its width, and inf where its low end is infinite.

    Raises
    ------
    DomainError
        If the sample is empty, ``q`` lies outside ``(0, 1)`` or the sample
        is too small for the rank ``floor(n*q)`` to exist.
    """
    n = _require_pairs(pairs, "empirical_var")
    ranks = _var_ranks(n, q)
    # a threshold of inf adds no sum to the depth largest but NaN ones
    top = pairs._store(math.inf, n - ranks[1] + 1)
    return _var_estimate(top, ranks, n, pairs.config.seed)


def empirical_grid(
    marginal: ParetoMarginal,
    family: str,
    n: int,
    seed: int,
    *,
    phi: Optional[float] = None,
    thresholds=(),
    levels=(),
) -> tuple:
    """The estimates of :func:`empirical_tailprob` at every threshold and of
    :func:`empirical_var` at every level on
    ``sample_pairs(marginal, family, n, seed, phi=phi)``, equal in every
    field, from one streamed pass that never holds the sample.

    Each chunk is drawn from the same stream as in :func:`sample_pairs`, into
    its worker's scratch block, and keeps only its sums above the lowest
    threshold and its ``depth`` largest, ``n - lo + 1`` for the lowest rank
    ``lo`` a level reads (about ``n * (1 - q)`` for the lowest level ``q``).
    Memory is one scratch block per worker thread (``TAILSUM_THREADS`` or
    the default) plus about twice the kept sums: those above the lowest
    threshold and the ``depth`` largest.

    Returns
    -------
    tuple
        ``(tail_estimates, var_estimates)``: lists of :class:`MCEstimate`,
        one per threshold and one per level, in grid order.

    Raises
    ------
    ConfigError
        As :func:`sample_pairs`.
    DomainError
        As :func:`empirical_var`, for a level it rejects at sample size ``n``.
    """
    draw_chunk, n_rows = _chunk_drawer(marginal, family, n, seed, phi)
    ranks = [_var_ranks(n, q) for q in levels]
    # NaN thresholds read no sums
    lowest = min((t for t in thresholds if not math.isnan(t)), default=math.inf)
    depth = max((n - lo + 1 for _, lo, _ in ranks), default=0)

    def pairs_of(lo: int, hi: int, block: np.ndarray) -> tuple:
        # the block holds x (where the sums go), y and the uniform rows
        m = hi - lo
        x, y = block[:m], block[m : 2 * m]
        draw_chunk(lo, hi, block[2 * m :], x, y)
        return x, y

    top = _tail_sums(n, pairs_of, lowest, depth, rows=n_rows + 2)
    return (
        [_tail_estimate(top, t, n, seed) for t in thresholds],
        [_var_estimate(top, r, n, seed) for r in ranks],
    )
