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

The estimators read a sample through a tail store of its sums ``x + y``:
a cover value and a sorted array ``top`` of the largest sums, such that
every sum left out is at most the cover (NaN sums are kept and sort last,
as in a full sort). The first estimator call on a :class:`SamplePairs`
builds the store. A tail query at ``t`` builds it in one pass over ``x``
and ``y`` in blocks of ``_CHUNK`` pairs, keeping the sums above ``t``, so no
array of all ``n`` sums is made; a VaR query sums all pairs into a
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

    The estimators keep a tail store of the sums ``x + y`` on the instance
    (see the module docstring): a cover and the sorted largest sums, every
    sum left out being at most the cover. The stored array is read-only and
    never written after it is published, so threads may share an instance
    without a lock. A store is published only if it holds more sums than
    the one already there; racing calls may each build and publish a store,
    and every store gives identical answers. The store is not a field and
    takes no part in ``repr`` or ``==``. Do not mutate ``x`` or ``y`` after
    the first estimator call: the store would not see it.
    """

    x: np.ndarray
    y: np.ndarray
    config: SimulationConfig

    @property
    def total(self) -> np.ndarray:
        """Elementwise sums ``x + y``, a fresh writable array."""
        return self.x + self.y

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
        block = np.empty(min(x.size, _CHUNK), dtype=np.result_type(x, y))
        parts = []
        for lo in range(0, x.size, _CHUNK):
            hi = min(lo + _CHUNK, x.size)
            sums = np.add(x[lo:hi], y[lo:hi], out=block[: hi - lo])
            parts.append(sums[~(sums <= t)])  # keeps NaN sums, unlike sums > t
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
        the CPU count, at most 8. Has no effect on the values.

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


def dump_pairs(pairs: SamplePairs, path: str) -> None:
    """Write the sample to ``path`` as CSV with header ``x,y``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for xv, yv in zip(pairs.x, pairs.y):
            fh.write(f"{format(xv, '.17g')},{format(yv, '.17g')}\n")
