"""Seedable Monte Carlo reference for sums of two dependent Pareto risks.

Sampling is chunked: chunk ``i`` of a run draws from an independent
counter-based stream keyed by ``(seed, i)``, and chunks are written into
disjoint slices of preallocated arrays. The result is bit-identical for a
given ``(n, seed)`` regardless of how many worker threads execute the
chunks, so estimates are reproducible across machines and thread counts.

The Gumbel family is sampled exactly through its positive-stable frailty
representation (Kanter's method for the stable variate), the comonotone
family through a single shared uniform, and independence through two. All
families map survival-side uniforms through the marginal quantile so the
joint survival function of the pair is exactly the survival copula applied
to the marginal survivals.

The estimators read a sample through its sums ``x + y``. Each
:class:`SamplePairs` computes them once, on its first estimator call, and
sorts them once, on its first :func:`empirical_var` call; every later
estimate on that sample counts or indexes the cached array. (Calls from
several threads that race on a sample's first use may each build or sort
the array.) ``x`` and ``y`` must therefore not be mutated after the first
estimator call.
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
    "dump_pairs",
]

_CHUNK = 65536
_FAMILIES = ("independence", "gumbel", "comonotone")


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

    The estimators cache the sums ``x + y`` on the instance: the first
    estimator call computes them, the first :func:`empirical_var` call sorts
    them, and the unsorted array is dropped once the sorted one exists. The
    cached array is read-only and never written after it is stored, so
    threads may share an instance without a lock; racing first calls may
    each build or sort the array, with identical values, and a sorted array
    once stored is not replaced by an unsorted one. The cache is not a field
    and takes no part in ``repr`` or ``==``. Do not mutate ``x`` or ``y``
    after the first estimator call: the cache would not see it.
    """

    x: np.ndarray
    y: np.ndarray
    config: SimulationConfig

    @property
    def total(self) -> np.ndarray:
        """Elementwise sums ``x + y``, a fresh writable array."""
        return self.x + self.y

    def _sums(self, ordered: bool) -> np.ndarray:
        """The cached sums, sorted when ``ordered``.

        An unordered request is answered by whichever array is cached.
        """
        cache = self.__dict__.get("_sums_cache")
        if cache is not None and (cache[1] or not ordered):
            return cache[0]
        if cache is None:
            sums = self.x + self.y
            if ordered:
                sums.sort()
        else:
            sums = np.sort(cache[0])
        sums.flags.writeable = False
        # a racing call may have stored the sorted array meanwhile; keep it
        cache = self.__dict__.get("_sums_cache")
        if cache is not None and cache[1]:
            return cache[0]
        object.__setattr__(self, "_sums_cache", (sums, ordered))
        return sums


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
    return min(8, os.cpu_count() or 1)


def _stable_from_uniform_exponential(u0: np.ndarray, e0: np.ndarray, gamma: float) -> np.ndarray:
    """Kanter's sampler for a positive stable variate of exponent ``gamma``.

    Uses ``S = (a(u0) / e0) ** ((1 - gamma) / gamma)`` with
    ``a(u) = sin((1-gamma) pi u) * sin(gamma pi u)**(gamma/(1-gamma))
    / sin(pi u)**(1/(1-gamma))``, valid for ``0 < gamma < 1``.
    """
    pu = np.pi * u0
    a = (
        np.sin((1.0 - gamma) * pu)
        * np.sin(gamma * pu) ** (gamma / (1.0 - gamma))
        / np.sin(pu) ** (1.0 / (1.0 - gamma))
    )
    return (a / e0) ** ((1.0 - gamma) / gamma)


def _chunk_survival_uniforms(
    family: str, phi: Optional[float], seed: int, index: int, size: int
) -> tuple:
    """Survival-side uniforms ``(su, sv)`` for one chunk.

    The pair satisfies ``P(su < a, sv < b) = chat(a, b)`` for the requested
    survival copula. Each chunk consumes exactly one block of uniform rows
    from its own counter-keyed stream, so the output depends only on
    ``(seed, index, size)``.
    """
    rng = np.random.Generator(np.random.Philox(key=[seed, index]))
    tiny = np.finfo(float).tiny
    if family == "gumbel" and phi is not None and phi > 1.0:
        rows = rng.random((4, size))
        u0 = np.maximum(rows[0], tiny)
        e = -np.log1p(-rows[1:4])
        e = np.maximum(e, tiny)
        gamma = 1.0 / phi
        with np.errstate(over="ignore", divide="ignore"):
            s = _stable_from_uniform_exponential(u0, e[0], gamma)
            su = np.exp(-((e[1] / s) ** gamma))
            sv = np.exp(-((e[2] / s) ** gamma))
    elif family == "comonotone":
        rows = rng.random((1, size))
        su = rows[0]
        sv = su
    else:  # independence, and gumbel with phi == 1 which coincides with it
        rows = rng.random((2, size))
        su = rows[0]
        sv = rows[1]
    su = np.maximum(su, tiny)
    sv = np.maximum(sv, tiny)
    return su, sv


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
        a small multiple of the CPU count. Has no effect on the values.

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

    x = np.empty(n, dtype=np.float64)
    y = np.empty(n, dtype=np.float64)
    n_chunks = (n + _CHUNK - 1) // _CHUNK

    def fill(index: int) -> None:
        lo = index * _CHUNK
        hi = min(lo + _CHUNK, n)
        su, sv = _chunk_survival_uniforms(family, phi, seed, index, hi - lo)
        x[lo:hi] = marginal.quantile(1.0 - su)
        y[lo:hi] = marginal.quantile(1.0 - sv)

    workers = min(_resolve_threads(threads), n_chunks)
    if workers <= 1:
        for i in range(n_chunks):
            fill(i)
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, range(n_chunks)))

    config = SimulationConfig(
        n=n, seed=seed, family=family, alpha=marginal.alpha, scale=marginal.scale,
        phi=phi,
    )
    return SamplePairs(x=x, y=y, config=config)


def empirical_tailprob(pairs: SamplePairs, t: float) -> MCEstimate:
    """Empirical exceedance probability of the sum with binomial error.

    Returns the fraction of pairs with ``x + y > t`` and the standard error
    ``sqrt(p*(1-p)/n)``.
    """
    n = pairs.x.size
    hits = int(np.count_nonzero(pairs._sums(ordered=False) > t))
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
        If ``q`` lies outside ``(0, 1)`` or the sample is too small for the
        rank ``floor(n*q)`` to exist.
    """
    n = pairs.x.size
    if not (0.0 < q < 1.0):
        raise DomainError(f"empirical_var requires 0 < q < 1, got {q}")
    k = int(math.floor(n * q))
    if k < 1:
        raise DomainError(f"sample of size {n} has no rank floor(n*q)={k} statistic")
    d = int(math.ceil(3.0 * math.sqrt(n * q * (1.0 - q))))
    lo = max(k - d, 1)
    hi = min(k + d, n)
    ordered = pairs._sums(ordered=True)
    point = float(ordered[k - 1])
    ci_low = float(ordered[lo - 1])
    ci_high = float(ordered[hi - 1])
    stderr = (ci_high - ci_low) / 6.0
    return MCEstimate(
        point=point, stderr=stderr, n=n, seed=pairs.config.seed,
        ci_low=ci_low, ci_high=ci_high,
    )


def dump_pairs(pairs: SamplePairs, path: str) -> None:
    """Write the sample to ``path`` as CSV with header ``x,y``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for xv, yv in zip(pairs.x, pairs.y):
            fh.write(f"{format(xv, '.17g')},{format(yv, '.17g')}\n")
