"""Pareto (Lomax) marginal distributions.

The package models each risk as a shifted Pareto variable with survival
function ``(scale/(x+scale))**alpha`` on ``x >= 0``. Besides the usual
distribution operations, the marginal exposes closed-form truncated first
moments, which the asymptotic tail formulas consume.

All operations are pure functions of immutable values and are safe to share
across threads.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["ParetoMarginal"]


def _truncated_mean(alpha: float, scale: float, t: float) -> float:
    """``E[X; X <= t]`` for survival ``(scale/(x+scale))**alpha``, any ``alpha``.

    With ``L = log1p(t/scale)`` it is ``scale * (alpha*L*exprel((1-alpha)*L)
    + expm1(-alpha*L))``, where ``exprel(x) = expm1(x)/x`` and ``exprel(0) = 1``.
    """
    log_top = math.log1p(t / scale)
    x = (1.0 - alpha) * log_top
    exprel = math.expm1(x) / x if x != 0.0 else 1.0
    return scale * (alpha * log_top * exprel + math.expm1(-alpha * log_top))


@dataclass(frozen=True)
class ParetoMarginal:
    """Shifted Pareto marginal with survival ``(scale/(x+scale))**alpha``.

    Parameters
    ----------
    alpha : real number
        Tail index, must be positive. Values below 1 give an infinite mean.
    scale : real number
        Scale parameter, must be positive.

    Both are stored as Python floats, so a numpy ``float32`` computes in double.

    Raises
    ------
    DomainError
        If ``alpha`` or ``scale`` is not a positive finite real number.
    """

    alpha: float
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (isinstance(self.alpha, numbers.Real) and math.isfinite(self.alpha)):
            raise DomainError(f"alpha must be a finite number, got {self.alpha!r}")
        if not (isinstance(self.scale, numbers.Real) and math.isfinite(self.scale)):
            raise DomainError(f"scale must be a finite number, got {self.scale!r}")
        if self.alpha <= 0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if self.scale <= 0:
            raise DomainError(f"scale must be positive, got {self.scale}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "scale", float(self.scale))

    # -- distribution operations -------------------------------------------

    def survival(self, x):
        """Survival function ``P(X > x)``.

        Parameters
        ----------
        x : float or array_like
            Nonnegative evaluation points.

        Returns
        -------
        float or numpy.ndarray
            ``(scale/(x+scale))**alpha``, in ``(0, 1]``.

        A scalar is computed with numpy scalar arithmetic, whose power is
        libm's ``pow``; an array with the vectorised (SIMD) power ufunc.
        The two can differ in the last bit (for about 0.1% of points at
        ``alpha = 2``).

        Raises
        ------
        DomainError
            If any evaluation point is negative.
        """
        arr = np.asarray(x, dtype=float)
        if np.any(arr < 0):
            raise DomainError(f"survival requires x >= 0, got minimum {arr.min()}")
        out = (self.scale / (arr + self.scale)) ** self.alpha
        return float(out) if np.isscalar(x) or arr.ndim == 0 else out

    def quantile(self, q):
        """Quantile function, the inverse of ``1 - survival``.

        Parameters
        ----------
        q : float or array_like
            Probability levels in ``[0, 1)``.

        Returns
        -------
        float or numpy.ndarray
            ``scale * ((1-q)**(-1/alpha) - 1)``; NaN at a NaN level.

        A ``float`` level (``numpy.float64`` included) is computed with
        ``math.pow``, which is libm's ``pow``, without building an array; an
        array with the vectorised (SIMD) power ufunc. The two can differ in
        the last bit (for about 5% of random levels). A level whose quantile
        overflows a float gives ``inf``, without a warning.

        Raises
        ------
        DomainError
            If any level lies outside ``[0, 1)``.
        """
        if isinstance(q, float):
            if q < 0.0 or q >= 1.0:
                raise DomainError(f"quantile requires 0 <= q < 1, got {q!r}")
            try:
                return float(self.scale) * (math.pow(1.0 - q, -1.0 / self.alpha) - 1.0)
            except OverflowError:
                return math.inf
        arr = np.asarray(q, dtype=float)
        if np.any(arr < 0) or np.any(arr >= 1):
            raise DomainError(f"quantile requires 0 <= q < 1, got {q!r}")
        out = self.scale * ((1.0 - arr) ** (-1.0 / self.alpha) - 1.0)
        return float(out) if np.isscalar(q) or arr.ndim == 0 else out

    @functools.cached_property
    def _median(self) -> float:
        """``quantile(0.5)``, computed once per instance."""
        return self.quantile(0.5)

    def density(self, x):
        """Probability density ``alpha*scale**alpha*(x+scale)**(-alpha-1)``.

        Parameters
        ----------
        x : float or array_like
            Nonnegative evaluation points.

        Returns
        -------
        float or numpy.ndarray

        Raises
        ------
        DomainError
            If any evaluation point is negative.
        """
        arr = np.asarray(x, dtype=float)
        if np.any(arr < 0):
            raise DomainError(f"density requires x >= 0, got minimum {arr.min()}")
        out = self.alpha * self.scale**self.alpha * (arr + self.scale) ** (-self.alpha - 1.0)
        return float(out) if np.isscalar(x) or arr.ndim == 0 else out

    # -- truncated moments --------------------------------------------------

    def truncated_mean(self, t: float) -> float:
        """Truncated first moment ``E[X; X <= t]``.

        One closed form through ``log1p``/``expm1`` for every ``alpha``
        (``alpha == 1`` included): about 1e-15 relative for ``t >= scale/5``;
        below, cancellation costs about a factor ``scale/t``.

        Parameters
        ----------
        t : float
            Positive truncation point.

        Returns
        -------
        float
            ``integral of x dF(x) over [0, t]``; nondecreasing in ``t``.

        Raises
        ------
        DomainError
            If ``t`` is not strictly positive.
        """
        if not (t > 0):
            raise DomainError(f"truncated_mean requires t > 0, got {t}")
        return _truncated_mean(self.alpha, self.scale, t)

    def powered_tail_truncated_mean(self, t: float, a: float) -> float:
        """Truncated mean under the distribution with survival ``survival**a``.

        For ``0 < a <= 1`` the function ``1 - survival(x)**a`` is again a
        distribution function, that of a Pareto with tail index ``a*alpha``.
        This returns its truncated first moment on ``[0, t]`` by the closed
        form of :meth:`truncated_mean` (identical to it at ``a == 1``).

        Parameters
        ----------
        t : float
            Positive truncation point.
        a : float
            Tail-power exponent in ``(0, 1]``.

        Returns
        -------
        float

        Raises
        ------
        DomainError
            If ``t <= 0`` or ``a`` lies outside ``(0, 1]``.
        """
        if not (t > 0):
            raise DomainError(f"powered_tail_truncated_mean requires t > 0, got {t}")
        if not (0.0 < a <= 1.0):
            raise DomainError(f"powered_tail_truncated_mean requires 0 < a <= 1, got {a}")
        return _truncated_mean(a * self.alpha, self.scale, t)
