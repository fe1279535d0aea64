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
as in a full sort). The first estimator call on a :class:`SamplePairs`
builds the store. A tail query at ``t`` builds it in one pass over ``x``
and ``y`` in blocks of ``_CHUNK`` pairs, keeping the sums above ``t``, so no
array of all ``n`` sums is made. The pass runs on the same chunk driver and
worker threads as the sampler (``TAILSUM_THREADS`` or the default), and the
kept sums are joined in chunk order before the sort, so the store is the
same at every thread count. A VaR query sums all pairs into a
temporary array, partitions it at the lowest rank it reads and keeps the
sorted part from that rank up. A later query the store covers (a threshold
at or above the cover, ranks inside ``top``) reads only ``top``; any other
query builds a store that covers it. The store holds about ``n * p`` sums
for the largest survival level ``p`` queried so far. ``x`` and ``y`` must
not be mutated after the first estimator call.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
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
    (see the module docstring): a cover and the sorted largest sums, every
    sum left out being at most the cover. A tail query that builds the
    store scans the sums on ``TAILSUM_THREADS`` worker threads (or the
    default count), and the store does not depend on that count. The stored
    array is read-only and never written after it is published, so threads
    may share an instance without a lock. A store is published only if it
    holds more sums than the one already there; racing calls may each build
    and publish a store, and every store gives identical answers. The store is not a field and
    takes no part in ``repr`` or ``==``. Do not mutate ``x`` or ``y`` after
    the first estimator call: the store would not see it.
    """

    x: np.ndarray
    y: np.ndarray
    config: SimulationConfig

    def _publish(self, cover, top: np.ndarray) -> np.ndarray:
        """Make ``top`` read-only and store ``(cover, top)`` unless the sample
        already holds a larger store; return ``top`` either way."""
        top.flags.writeable = False
        # check-then-set without a lock: a racing call may still replace a
        # larger store with a smaller one, which costs later queries a
        # rebuild but changes no answer
        held = self.__dict__.get("_tail_store")
        if held is None or held[1].size < top.size:
            object.__setattr__(self, "_tail_store", (cover, top))
        return top

    def _store_above(self, t) -> np.ndarray:
        """The ``top`` of a tail store whose cover is at most ``t`` (not NaN)."""
        held = self.__dict__.get("_tail_store")
        if held is not None and t >= held[0]:
            return held[1]
        x, y = self.x, self.y

        def above(sums):
            return sums[~(sums <= t)]  # keeps NaN sums, unlike sums > t

        # the sum is formed in this body, not in a nested def, so that the
        # source scan of tests/test_sum_paths.py credits it to this builder
        parts = _over_chunks(
            x.size, None,
            lambda lo, hi, block: above(np.add(x[lo:hi], y[lo:hi], out=block[: hi - lo])),
            dtype=np.result_type(x, y),
        )
        top = np.concatenate(parts)
        top.sort()
        return self._publish(t, top)

    def _store_from_rank(self, rank: int) -> np.ndarray:
        """The ``top`` of a tail store holding the order statistics from the
        0-based ``rank`` up."""
        held = self.__dict__.get("_tail_store")
        if held is not None and rank >= self.x.size - held[1].size:
            return held[1]
        sums = self.x + self.y
        sums.partition(rank)
        top = np.sort(sums[rank:])
        return self._publish(top[0], top)


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo point estimate with its uncertainty.

    ``stderr`` is a standard-error scale: the binomial standard error for
    tail probabilities, and one sixth of a plus/minus three standard error
    order-statistic interval for quantiles. ``ci_low``/``ci_high`` carry the
    explicit interval when one was formed.
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
) -> list:
    """Run ``work(lo, hi, block)`` on every ``_CHUNK`` slice ``[lo, hi)`` of
    ``range(size)`` and return the results in chunk order.

    The chunks are split over ``min(_resolve_threads(threads), n_chunks)``
    worker threads, worker ``w`` taking chunks ``w``, ``w + workers``, ...
    Each worker hands every one of its chunks the same scratch block of
    ``rows * min(size, _CHUNK)`` values of ``dtype``, so ``work`` must leave
    nothing in it that outlives the call.
    """
    n_chunks = (size + _CHUNK - 1) // _CHUNK
    workers = min(_resolve_threads(threads), n_chunks)
    results = [None] * n_chunks

    def run(first: int) -> None:
        block = np.empty(rows * min(size, _CHUNK), dtype=dtype)
        for index in range(first, n_chunks, workers):
            lo = index * _CHUNK
            results[index] = work(lo, min(lo + _CHUNK, size), block)

    if workers == 1:
        run(0)
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, range(workers)))
    return results


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
        on the values. The estimators' first tail scan takes the same
        default but not this argument.

    Returns
    -------
    SamplePairs

    Raises
    ------
    ConfigError
        On an unknown family, missing or invalid ``phi``, nonpositive
        ``n``, or negative ``seed``.
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
    x = np.empty(n, dtype=np.float64)
    y = np.empty(n, dtype=np.float64)

    def fill(lo: int, hi: int, block: np.ndarray) -> None:
        # chunk lo // _CHUNK reads only its own stream, keyed (seed, chunk)
        rows = block[: n_rows * (hi - lo)].reshape(n_rows, hi - lo)
        np.random.Generator(np.random.Philox(key=[seed, lo // _CHUNK])).random(out=rows)
        _pairs_from_rows(rows, gamma, marginal.alpha, marginal.scale, x[lo:hi], y[lo:hi])

    _over_chunks(n, threads, fill, rows=n_rows)

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
    if math.isnan(t):
        hits = 0  # no sum exceeds NaN; a NaN cover would cover nothing
    else:
        top = pairs._store_above(t)
        # NaN sums sort last and exceed no threshold
        below, finite = np.searchsorted(top, (t, math.inf), side="right")
        hits = int(finite - below)
    p = hits / n
    stderr = math.sqrt(p * (1.0 - p) / n)
    return MCEstimate(point=p, stderr=stderr, n=n, seed=pairs.config.seed)


def empirical_var(pairs: SamplePairs, q: float) -> MCEstimate:
    """Empirical ``q``-quantile of the sum with an order-statistic interval.

    The point estimate is the ``floor(n*q)``-th order statistic. The
    interval takes the order statistics ``ceil(3*sqrt(n*q*(1-q)))`` ranks
    to either side (clamped to the sample), covering the true quantile with
    roughly plus/minus three standard errors; ``stderr`` is one sixth of
    its width.

    Raises
    ------
    DomainError
        If the sample is empty, ``q`` lies outside ``(0, 1)`` or the sample
        is too small for the rank ``floor(n*q)`` to exist.
    """
    n = _require_pairs(pairs, "empirical_var")
    if not (0.0 < q < 1.0):
        raise DomainError(f"empirical_var requires 0 < q < 1, got {q}")
    k = int(math.floor(n * q))
    if k < 1:
        raise DomainError(f"sample of size {n} has no rank floor(n*q)={k} statistic")
    d = int(math.ceil(3.0 * math.sqrt(n * q * (1.0 - q))))
    lo = max(k - d, 1)
    hi = min(k + d, n)
    top = pairs._store_from_rank(lo - 1)
    offset = n - top.size
    point = float(top[k - 1 - offset])
    ci_low = float(top[lo - 1 - offset])
    ci_high = float(top[hi - 1 - offset])
    stderr = (ci_high - ci_low) / 6.0
    return MCEstimate(
        point=point, stderr=stderr, n=n, seed=pairs.config.seed,
        ci_low=ci_low, ci_high=ci_high,
    )
