"""Pareto (Lomax) marginal distributions with second-order tail metadata.

The package models each risk as a shifted Pareto variable with survival
function ``(scale/(x+scale))**alpha`` on ``x >= 0``. Besides the usual
distribution operations, the marginal exposes truncated first moments and
the constants of its second-order regular-variation expansion, which the
asymptotic tail formulas consume.

All operations are pure functions of immutable values and are safe to share
across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import DomainError

__all__ = ["ParetoMarginal", "SecondOrderTail"]

_QUAD_KW = {"epsabs": 1e-14, "epsrel": 1e-12, "limit": 200}


@dataclass(frozen=True)
class SecondOrderTail:
    """Constants of the second-order expansion of a regularly varying tail.

    The survival function satisfies
    ``survival(x) = c_scale * x**(-alpha) * (1 + b_coeff * x**rho + o(x**rho))``
    as ``x`` grows.

    Attributes
    ----------
    alpha : float
        First-order tail index (rate of power decay).
    rho : float
        Second-order index, a negative number.
    c_scale : float
        Multiplicative constant of the leading power term.
    b_coeff : float
        Coefficient of the second-order correction.
    """

    alpha: float
    rho: float
    c_scale: float
    b_coeff: float


@dataclass(frozen=True)
class ParetoMarginal:
    """Shifted Pareto marginal with survival ``(scale/(x+scale))**alpha``.

    Parameters
    ----------
    alpha : float
        Tail index, must be positive. Values below 1 give an infinite mean.
    scale : float
        Scale parameter, must be positive.

    Raises
    ------
    DomainError
        If ``alpha`` or ``scale`` is not strictly positive.
    """

    alpha: float
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (isinstance(self.alpha, (int, float)) and math.isfinite(self.alpha)):
            raise DomainError(f"alpha must be a finite number, got {self.alpha!r}")
        if not (isinstance(self.scale, (int, float)) and math.isfinite(self.scale)):
            raise DomainError(f"scale must be a finite number, got {self.scale!r}")
        if self.alpha <= 0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if self.scale <= 0:
            raise DomainError(f"scale must be positive, got {self.scale}")

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
            ``scale * ((1-q)**(-1/alpha) - 1)``.

        Raises
        ------
        DomainError
            If any level lies outside ``[0, 1)``.
        """
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

    def _sf_pdf(self, x: float) -> tuple:
        """``(survival(x), density(x))`` at one float ``x >= 0``, unchecked.

        The quadrature integrands call this at every node. It spells out the
        expressions of :meth:`survival` and :meth:`density` in float
        arithmetic, whose ``pow`` is the one numpy's scalar power calls, so
        both spellings return the identical finite floats.
        """
        a, s = self.alpha, self.scale
        return (s / (x + s)) ** a, a * s**a * (x + s) ** (-a - 1.0)

    # -- truncated moments --------------------------------------------------

    def truncated_mean(self, t: float) -> float:
        """Truncated first moment ``E[X; X <= t]``.

        Uses the closed-form antiderivative when ``alpha != 1`` and adaptive
        quadrature at the removable singularity ``alpha == 1``; the two paths
        agree to 1e-10 relative error where both apply.

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
        a, s = self.alpha, self.scale
        if a == 1.0:
            value, _ = integrate.quad(lambda x: x * self._sf_pdf(x)[1], 0.0, t, **_QUAD_KW)
            return value
        top = t + s
        part_power = (top ** (1.0 - a) - s ** (1.0 - a)) / (1.0 - a)
        part_tail = s * (top**-a - s**-a) / a
        return a * s**a * (part_power + part_tail)

    def powered_tail_truncated_mean(self, t: float, a: float) -> float:
        """Truncated mean under the distribution with survival ``survival**a``.

        For ``0 < a <= 1`` the function ``1 - survival(x)**a`` is again a
        distribution function; this returns its truncated first moment on
        ``[0, t]`` by adaptive quadrature against the density
        ``a * survival**(a-1) * density``. At ``a == 1`` it short-circuits to
        :meth:`truncated_mean` so both spellings return the identical float.

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
        if a == 1.0:
            return self.truncated_mean(t)

        def integrand(x: float) -> float:
            sf, pdf = self._sf_pdf(x)
            return x * a * sf ** (a - 1.0) * pdf

        value, _ = integrate.quad(integrand, 0.0, t, **_QUAD_KW)
        return value

    # -- tail metadata -------------------------------------------------------

    def second_order_params(self) -> SecondOrderTail:
        """Constants of the second-order regular-variation expansion.

        Returns
        -------
        SecondOrderTail
            ``(alpha, rho=-1, c_scale=scale**alpha, b_coeff=-alpha*scale)``,
            from ``(scale/(x+scale))**alpha = scale**alpha * x**(-alpha) *
            (1 - alpha*scale/x + o(1/x))``.
        """
        return SecondOrderTail(
            alpha=self.alpha,
            rho=-1.0,
            c_scale=self.scale**self.alpha,
            b_coeff=-self.alpha * self.scale,
        )

    def mean(self) -> float:
        """Full first moment; ``scale/(alpha-1)`` for ``alpha > 1``, else inf."""
        if self.alpha > 1.0:
            return self.scale / (self.alpha - 1.0)
        return math.inf
