"""Survival copulas, extreme-value dependence, tail traits, and hypothesis checks.

This module houses the dependence layer of the package:

* :class:`SurvivalCopula` carries a copula's log-domain evaluators: the
  logarithm of the joint survival transform ``chat(u, v)`` and of its
  partial derivative in the second argument, both taking ``(log u, log v)``
  so they stay accurate far below double-precision range.
* :class:`PickandsEV` represents an extreme-value dependence function together
  with its partial derivatives; :func:`gumbel_pickands` builds the Gumbel
  family (logistic dependence) with overflow-safe closed forms.
* :class:`TailOrderTraits` captures how the survival copula scales along
  the diagonal near the joint-loss corner, and :class:`PartialLimitTraits`
  the log-refined corner of its partial derivative where the plain power
  corner is degenerate (Gumbel with exponent above 1); the asymptotic tail
  expansions consume exactly these traits. The plain power corner is the
  corner slope ``a2(1, 0)`` alone (:func:`estimate_corner_slope`).
* :func:`check_assumptions` measures, on a grid of scales, how fast a shipped
  copula converges to the scaling behaviour its traits assert, and returns a
  verdict per hypothesis with the full numeric evidence.

An extreme-value family is defined once, by its :class:`PickandsEV`: its
log-domain evaluators, the plain evaluators :func:`ev_chat` and
:func:`ev_chat_v`, and its tail traits are derived from it.

The dependence layer is scalar: dependence functions, log-domain evaluators,
:func:`ev_chat`, :func:`ev_chat_v` and :meth:`TailOrderTraits.tau` take and
return Python floats through :mod:`math` (with IEEE nan and inf where it
raises), so a user family needs only float arithmetic. Only
:attr:`PartialLimitTraits.diagonal` runs on arrays: the quadrature nodes of
:func:`~tailsum.asymptotics.delta_correction`.

All values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from .errors import ConfigError, DomainError, UnsupportedFamilyError

__all__ = [
    "PickandsEV",
    "SurvivalCopula",
    "TailOrderTraits",
    "PartialLimitTraits",
    "CheckResult",
    "AssumptionReport",
    "independence_pickands",
    "comonotone_pickands",
    "gumbel_pickands",
    "ev_chat",
    "ev_chat_v",
    "make_survival_copula",
    "tail_order_traits",
    "trial_tail_order_traits",
    "gumbel_log_refined_traits",
    "estimate_corner_slope",
    "check_assumptions",
]


def _pow(x: float, y: float) -> float:
    """``x ** y``, with IEEE values where ``math.pow`` raises: nan for a negative
    base to a fractional power, inf for 0 to a negative one or on overflow."""
    try:
        return math.pow(x, y)
    except OverflowError:
        return math.inf
    except ValueError:
        return math.inf if x == 0.0 else math.nan


def _log(x: float) -> float:
    """``log(x)``, with IEEE values where ``math.log`` raises: ``-inf`` at 0 and
    nan below."""
    return math.log(x) if x > 0.0 else -math.inf if x == 0.0 else math.nan


def _safe_exp(expo: float) -> float:
    """``exp(expo)``, inf above 700 instead of ``math.exp``'s overflow error."""
    if expo > 700.0:
        return math.inf
    return math.exp(expo)


# ---------------------------------------------------------------------------
# Pickands dependence functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PickandsEV:
    """An extreme-value dependence function with its partial derivatives.

    Attributes
    ----------
    a_fn : callable
        Dependence function on ``[0, inf)^2``, positively homogeneous of
        order 1, convex, symmetric, with ``max(x, y) <= a_fn(x, y) <= x + y``.
    a1_fn, a2_fn : callable
        Partial derivatives in the first and second argument. Undefined at
        the origin; on the diagonal of a non-smooth function the symmetric
        subgradient is used so the Euler identity
        ``x*a1 + y*a2 = a_fn`` still holds.

        All three take two floats and return a float; the library never
        passes them arrays, so a user family needs only float arithmetic.
        ``a2_fn(x, -0.0)`` must return the corner-slope limit of
        ``a2_fn(x, y)`` as ``y -> 0``: :func:`ev_chat_v` calls it at
        ``v == 1``, and :func:`estimate_corner_slope` reads ``a2(1, 0)`` from
        it for :func:`~tailsum.asymptotics.classify_case` and the
        hypothesis checker, after testing every property above but
        homogeneity at five points: each of its readers raises
        :class:`~tailsum.errors.DomainError` naming the first one broken.
    family : str
        Family tag (``"independence"``, ``"gumbel"``, ``"comonotone"``).
    param : float or None
        Family parameter (the Gumbel interaction exponent), if any.
    log_refined : PartialLimitTraits or None
        Logarithmically refined corner traits where the plain power corner
        of the partial derivative is degenerate (Gumbel with exponent above
        1, from :func:`gumbel_log_refined_traits`); None otherwise.
    """

    a_fn: Callable
    a1_fn: Callable
    a2_fn: Callable
    family: str
    param: Optional[float] = None
    log_refined: Optional[PartialLimitTraits] = None


def independence_pickands() -> PickandsEV:
    """Dependence function of the independence copula: ``a(x, y) = x + y``."""

    def a_fn(x, y):
        return x + y

    def a1_fn(x, y):
        return 1.0

    return PickandsEV(a_fn=a_fn, a1_fn=a1_fn, a2_fn=a1_fn, family="independence", param=None)


def comonotone_pickands() -> PickandsEV:
    """Dependence function of the comonotone copula: ``a(x, y) = max(x, y)``.

    The derivative on the diagonal is the symmetric subgradient ``1/2``.
    """

    def a_fn(x, y):
        return max(x, y)

    def a1_fn(x, y):
        return 1.0 if x > y else 0.0 if x < y else 0.5

    def a2_fn(x, y):
        return a1_fn(y, x)

    return PickandsEV(a_fn=a_fn, a1_fn=a1_fn, a2_fn=a2_fn, family="comonotone", param=None)


def gumbel_pickands(phi_g: float) -> PickandsEV:
    """Gumbel (logistic) dependence function ``(x**phi + y**phi)**(1/phi)``.

    Evaluation rescales by ``max(x, y)`` so that no intermediate power
    overflows even for very large interaction exponents.

    Parameters
    ----------
    phi_g : float
        Interaction exponent, must satisfy ``phi_g >= 1``. The value 1 gives
        independence exactly; the limit of large ``phi_g`` approaches the
        comonotone function.

    Raises
    ------
    DomainError
        If ``phi_g < 1`` or is not finite.
    """
    if not (isinstance(phi_g, (int, float)) and math.isfinite(phi_g) and phi_g >= 1.0):
        raise DomainError(f"gumbel interaction exponent must be >= 1, got {phi_g!r}")
    phi = float(phi_g)

    def _terms(x, y):
        m = max(x, y)
        rx, ry = (x / m, y / m) if m > 0 else (math.nan, math.nan)
        return m, rx, _pow(rx, phi) + _pow(ry, phi)

    def a_fn(x, y):
        m, _, s = _terms(x, y)
        return m * _pow(s, 1.0 / phi) if m > 0 else 0.0

    def a1_fn(x, y):
        _, rx, s = _terms(x, y)
        return _pow(rx, phi - 1.0) * _pow(s, 1.0 / phi - 1.0)

    def a2_fn(x, y):
        return a1_fn(y, x)

    return PickandsEV(
        a_fn=a_fn, a1_fn=a1_fn, a2_fn=a2_fn, family="gumbel", param=phi,
        log_refined=gumbel_log_refined_traits(phi) if phi > 1.0 else None,
    )


# family name -> its dependence function, given the gumbel exponent
_EV_FAMILIES = {
    "independence": lambda phi: independence_pickands(),
    "gumbel": gumbel_pickands,
    "comonotone": lambda phi: comonotone_pickands(),
}
# family name -> the one parameter it takes, if any
_FAMILY_PARAMS = {**dict.fromkeys(_EV_FAMILIES), "gumbel": "phi", "log-interaction": "sigma"}


def _ev_log_chat(p: PickandsEV, lu: float, lv: float) -> float:
    """``log chat = -a_fn(-log u, -log v)``, from ``(log u, log v)``.

    Exactly ``log v`` at ``log u == 0`` and ``log u`` at ``log v == 0``, the
    margins ``chat(1, v) = v`` and ``chat(u, 1) = u``, without calling
    ``a_fn`` at a zero argument.
    """
    if lu == 0:
        return lv
    if lv == 0:
        return lu
    return -p.a_fn(-lu, -lv)


def _ev_log_chat_v(p: PickandsEV, lu: float, lv: float) -> float:
    """``log chat_v = log chat + log a2_fn(-log u, -log v) - log v``.

    Exactly 0 at ``log u == 0``, the margin ``chat(1, v) = v``; a vanishing
    ``a2_fn`` gives ``-inf``.
    """
    if lu == 0:
        return 0.0
    wu, wv = -lu, -lv
    return -p.a_fn(wu, wv) + _log(p.a2_fn(wu, wv)) + wv


def ev_chat(p: PickandsEV, u: float, v: float) -> float:
    """Extreme-value survival copula ``exp(-a_fn(-log u, -log v))``.

    Parameters
    ----------
    p : PickandsEV
    u, v : float
        Arguments in ``[0, 1]``; the value at ``u == 0`` or ``v == 0`` is the
        continuity limit 0.

    Raises
    ------
    DomainError
        If an argument lies outside ``[0, 1]``.
    """
    if u < 0 or u > 1 or v < 0 or v > 1:
        raise DomainError(f"copula arguments must lie in [0, 1], got u={u!r}, v={v!r}")
    if u == 0 or v == 0:
        return 0.0
    return _safe_exp(_ev_log_chat(p, math.log(u), math.log(v)))


def ev_chat_v(p: PickandsEV, u: float, v: float) -> float:
    """Partial derivative of :func:`ev_chat` in the second argument.

    Equals ``ev_chat(u, v) * a2_fn(-log u, -log v) / v``, formed in the log
    domain so that no intermediate underflows before the division by ``v``.
    The value at ``u == 0`` is the continuity limit 0, and at ``u == 1``
    exactly 1, the derivative of the margin ``ev_chat(1, v) = v``; ``v == 0``
    is outside the domain.

    Raises
    ------
    DomainError
        If an argument lies outside ``[0, 1]`` or ``v == 0``.
    """
    if u < 0 or u > 1 or v <= 0 or v > 1:
        raise DomainError(
            f"partial derivative requires u in [0, 1] and v in (0, 1], got u={u!r}, v={v!r}"
        )
    if u == 0:
        return 0.0
    return _safe_exp(_ev_log_chat_v(p, math.log(u), math.log(v)))


# ---------------------------------------------------------------------------
# Survival copulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurvivalCopula:
    """Joint survival transform of a bivariate copula, in the log domain.

    The survival copula ``chat(u, v)`` gives ``P(U' <= u, V' <= v)`` for the
    survival-side pair, so that the joint tail of two risks is
    ``chat(sf_x(x), sf_y(y))``; ``chat_v`` is its partial derivative in the
    second argument.

    Attributes
    ----------
    log_chat, log_chat_v : callable
        Log-domain evaluators of ``chat`` and ``chat_v``, taking
        ``(log u, log v)`` and returning the logarithm of the corresponding
        value, so that the hypothesis checker can probe scales far below
        double-precision underflow.
    family : str
        Family tag, as accepted by :func:`make_survival_copula`.
    param : float or None
        Family parameter, if any.
    pickands : PickandsEV or None
        The dependence function when the family is extreme-value.
    """

    log_chat: Callable
    log_chat_v: Callable
    family: str
    param: Optional[float] = None
    pickands: Optional[PickandsEV] = None


def _ev_copula(p: PickandsEV) -> SurvivalCopula:
    """The survival copula of a dependence function."""

    def log_chat(lu, lv):
        return _ev_log_chat(p, lu, lv)

    def log_chat_v(lu, lv):
        return _ev_log_chat_v(p, lu, lv)

    return SurvivalCopula(log_chat, log_chat_v, family=p.family, param=p.param, pickands=p)


def make_survival_copula(
    family: str, *, phi: Optional[float] = None, sigma: Optional[float] = None
) -> SurvivalCopula:
    """Build a shipped survival copula by family name.

    The extreme-value families are built from their dependence function;
    their log-domain evaluators are those of :func:`ev_chat` and
    :func:`ev_chat_v`.

    Parameters
    ----------
    family : str
        One of ``"independence"``, ``"gumbel"``, ``"comonotone"``,
        ``"log-interaction"``. The last is a diagnostic family whose tail
        interaction decays faster than any power; it is accepted by the
        hypothesis checker but has no valid tail-order traits.
    phi : float, optional
        Gumbel interaction exponent (required for ``"gumbel"``).
    sigma : float, optional
        Interaction strength of the log-interaction family in ``(0, 1]``
        (default 0.5).

    Raises
    ------
    UnsupportedFamilyError
        If the family name is not recognised.
    DomainError
        If a family parameter is invalid or not taken by the family.
    """
    if family not in _FAMILY_PARAMS:
        supported = ", ".join(_FAMILY_PARAMS)
        raise UnsupportedFamilyError(f"unknown copula family {family!r}; supported: {supported}")
    for name, value in (("phi", phi), ("sigma", sigma)):
        if value is not None and _FAMILY_PARAMS[family] != name:
            raise DomainError(f"family {family!r} takes no parameter {name} (got {value!r})")
    if family in _EV_FAMILIES:
        if family == "gumbel" and phi is None:
            raise DomainError("gumbel family requires the interaction exponent phi")
        return _ev_copula(_EV_FAMILIES[family](phi))

    sig = 0.5 if sigma is None else float(sigma)
    if not (0.0 < sig <= 1.0):
        raise DomainError(f"log-interaction strength must lie in (0, 1], got {sigma!r}")

    # log-interaction: chat(u, v) = u * v * exp(-sig * log u * log v)
    def log_chat(lu, lv):
        return lu + lv - sig * lu * lv

    def log_chat_v(lu, lv):
        # log1p(z) below its pole at z = -1 (the scales above 1) is nan
        z = -sig * lu
        return lu - sig * lu * lv + (math.log1p(z) if z > -1.0 else _log(1.0 + z))

    return SurvivalCopula(log_chat, log_chat_v, family="log-interaction", param=sig)


# ---------------------------------------------------------------------------
# Tail traits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailOrderTraits:
    """How the survival copula scales along the diagonal near the corner.

    ``chat(u*t, v*t) ~ t**kappa * tau(u, v)`` as ``t`` shrinks. An
    extreme-value copula has no slowly varying factor here, and its limit
    profile is either the product power ``tau(u, v) = (u*v)**m`` or, under
    full tail dependence, ``min(u, v)``; the two numbers below fix it.

    Attributes
    ----------
    kappa : float
        Tail order in ``[1, 2]``; 2 for independence, 1 under full tail
        dependence.
    power_m : float or None
        The exponent ``m`` of the product-power profile; None for the
        profile ``min(u, v)``.
    """

    kappa: float
    power_m: Optional[float]

    def tau(self, u: float, v: float) -> float:
        """The limit profile ``(u*v)**power_m``, or ``min(u, v)``, on floats."""
        return min(u, v) if self.power_m is None else _pow(u * v, self.power_m)


@dataclass(frozen=True)
class PartialLimitTraits:
    """Corner scaling ``(h, diagonal)`` of the partial derivative of the survival copula.

    ``chat_v(u*t, v) ~ t * h(t) * varphi(u, v)`` as ``t`` shrinks, with
    ``varphi(u, v) = u * varphi(1, v)``: the scaling exponent is 1 for every
    extreme-value copula. The profile is kept only where the partial
    branch's :func:`~tailsum.asymptotics.delta_correction` integrates it:
    on the diagonal, in log-survival, so the quadrature never forms a
    survival that underflows.

    Attributes
    ----------
    h : callable
        Slowly varying factor of ``t``, float to float.
    diagonal : callable
        ``varphi(exp(-x), exp(-x))`` from ``x >= 0``, elementwise on the
        array of quadrature nodes' ``x = -log sf``.
    """

    h: Callable
    diagonal: Callable


def estimate_corner_slope(p: PickandsEV) -> float:
    """The corner slope ``a2(1, 0)`` of a dependence function, read exactly.

    Returns ``a2_fn(1, -0.0)``, which the :class:`PickandsEV` contract makes
    the limit of ``a2_fn(1, y)`` as ``y -> 0``, as a float with a negative
    zero folded to ``+0.0``. It tests the whole contract first, here and
    nowhere else, so every reader of the slope
    (:func:`~tailsum.asymptotics.classify_case` and
    :func:`check_assumptions`) rejects a broken dependence function: the
    expansions and their case read one corner of the copula and double it,
    so they hold only for a function that keeps it. The tests, at the points
    ``(1, 0.1)``, ``(1, 0.5)``, ``(1, 1)``, ``(0.5, 1)`` and ``(0.1, 1)``:

    * the corner slope ``a2_fn(1, -0.0)`` lies in ``[0, 1]`` (exactly);
    * symmetry: ``a(x, y) = a(y, x)`` and ``a1(x, y) = a2(y, x)``;
    * the bounds ``max(x, y) <= a(x, y) <= x + y``;
    * the Euler identity ``x*a1 + y*a2 = a``;
    * convexity: ``a(x', y') >= x'*a1(x, y) + y'*a2(x, y)``, the supporting
      line at each point ``(x, y)`` and at the corner ``(1, 0)``, whose
      gradient is ``(1, a20)``. At the corner and ``(x', y') = (1, 1)`` this
      is the C3 margin ``a(1, 1) - a2(1, 0) - 1 >= 0``.

    The middle three are tested point by point, convexity after them. All
    but the first allow the C3 margin's ``1e-8``; NaN fails every test.

    Raises
    ------
    DomainError
        Naming the first broken property, the family and the point.
    """

    def require(ok: bool, broken: str, z: tuple, detail: str) -> None:
        if not ok:
            raise DomainError(
                f"the dependence function of family {p.family!r} {broken} at "
                f"(x, y) = {z}: {detail}"
            )

    a20 = float(p.a2_fn(1.0, -0.0)) + 0.0
    require(
        0.0 <= a20 <= 1.0, "has a corner slope a2_fn(1, -0.0) outside [0, 1]", (1.0, 0.0),
        f"a2(x, y) = {a20!r}",
    )
    points = ((1.0, 0.1), (1.0, 0.5), (1.0, 1.0), (0.5, 1.0), (0.1, 1.0))
    tol = 1e-8
    a, a1, a2 = ({z: float(f(*z)) for z in points} for f in (p.a_fn, p.a1_fn, p.a2_fn))
    for z in points:
        x, y = z
        require(
            abs(a[z] - a[y, x]) <= tol and abs(a1[z] - a2[y, x]) <= tol,
            "is not symmetric", z,
            f"a(x, y) = {a[z]!r}, a(y, x) = {a[y, x]!r}, "
            f"a1(x, y) = {a1[z]!r}, a2(y, x) = {a2[y, x]!r}",
        )
        require(
            max(x, y) - tol <= a[z] <= x + y + tol,
            "breaks the bounds max(x, y) <= a <= x + y", z, f"a(x, y) = {a[z]!r}",
        )
        euler = x * a1[z] + y * a2[z]
        require(
            abs(euler - a[z]) <= tol,
            "breaks the Euler identity x*a1 + y*a2 = a", z,
            f"x*a1 + y*a2 = {euler!r}, a = {a[z]!r}",
        )
    gradients = [((1.0, 0.0), (1.0, a20))] + [(z, (a1[z], a2[z])) for z in points]
    for z, (g1, g2) in gradients:
        for x, y in points:
            margin = a[x, y] - (x * g1 + y * g2)
            require(
                margin >= -tol, "is not convex", z,
                f"a({x}, {y}) lies {-margin!r} below the supporting line at (x, y)",
            )
    return a20


def tail_order_traits(p: PickandsEV) -> TailOrderTraits:
    """Tail-order traits of an extreme-value copula, from its dependence function.

    The tail order is ``kappa = a(1, 1)`` and the limit profile the product
    power ``tau(u, v) = (u*v)**m`` with ``m = a1(1, 1)``, except that
    ``kappa == 1`` forces ``a = max`` (by convexity and the bounds
    ``max(x, y) <= a <= x + y``), whose profile is ``min(u, v)``.

    A copula without a dependence function (``"log-interaction"``) has no
    such traits; probe it with :func:`trial_tail_order_traits` instead.
    """
    kappa = float(p.a_fn(1.0, 1.0))
    return TailOrderTraits(kappa, None if kappa == 1.0 else float(p.a1_fn(1.0, 1.0)))


def trial_tail_order_traits(kappa: float) -> TailOrderTraits:
    """Product-profile traits with a caller-chosen tail order.

    Useful for probing a copula with the hypothesis checker when no valid
    tail order is known: feed trial orders and watch the scaling check fail.

    Raises
    ------
    DomainError
        If ``kappa`` lies outside ``[1, 2]``.
    """
    if not (1.0 <= kappa <= 2.0):
        raise DomainError(f"tail order must lie in [1, 2], got {kappa}")
    return TailOrderTraits(float(kappa), 1.0)


def gumbel_log_refined_traits(phi_g: float) -> PartialLimitTraits:
    """Logarithmically refined corner traits for Gumbel with exponent above 1.

    The plain power scaling of the partial derivative is degenerate for
    these copulas; keeping the slowly varying factor
    ``h(t) = (-log t)**(1 - phi)`` yields the non-degenerate profile
    ``varphi(u, v) = u * (-log v)**(phi - 1) / v``, whose diagonal is
    ``x**(phi - 1)`` at ``x = -log v``. These traits feed the
    ``log_refined`` candidate of
    :func:`~tailsum.asymptotics.tailprob_expansion_ev`; they are the only
    :class:`PartialLimitTraits` the library builds.

    Raises
    ------
    DomainError
        If ``phi_g <= 1``.
    """
    if not (phi_g > 1.0):
        raise DomainError(
            f"log-refined traits require an interaction exponent above 1, got {phi_g}"
        )
    phi = float(phi_g)

    # ``h`` keeps numpy's logarithm: its SIMD log differs from math.log in
    # the last bit for some arguments in (0, 1), and keeping it keeps every
    # refined value bit-identical. ``h`` is scalar arithmetic on
    # numpy.float64, which calls the same pow as float and keeps IEEE
    # results (inf, nan) where float arithmetic would raise. Numpy warns of
    # a division by zero only at 0 (the log) and 1 (the power of zero), so
    # only arguments outside (0, 1) pay for silencing it. There ``+ 0.0``
    # turns the -0.0 of ``-log(1)`` into +0.0: a power of -0.0 takes its
    # sign where ``1 - phi`` is an odd integer, and ``h(1)`` is +inf for
    # every phi. It imports numpy when it runs, so building these traits
    # (every Gumbel dependence function does) loads no numpy. ``diagonal``
    # runs on the array of quadrature nodes, and its power needs no numpy
    # call.
    def h(t):
        import numpy as np

        if 0.0 < t < 1.0:
            return float((-np.log(t)) ** (1.0 - phi))
        with np.errstate(divide="ignore"):
            return float((-np.log(t) + 0.0) ** (1.0 - phi))

    def diagonal(x):
        return x ** (phi - 1.0)

    return PartialLimitTraits(h=h, diagonal=diagonal)


# ---------------------------------------------------------------------------
# Hypothesis checker
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one scaling hypothesis measured over a sequence of scales.

    Attributes
    ----------
    name : str
        Check key: ``"A2"`` (diagonal tail-order scaling), ``"A3"``
        (stability of the partial derivative under relative shifts),
        ``"A4"`` (corner limit of the scaled partial derivative),
        ``"evcond"`` (stability of the dependence-function derivative under
        log-relative perturbations).
    passed : bool or None
        True / False verdict, or None when the evidence is numerically
        inconclusive (never silently counted as a pass).
    deviations : tuple of float
        Worst grid deviation from the target at each scale, shallow to deep.
    rows : tuple
        The numeric evidence: per scale and grid point,
        ``(log10_t, first_arg, second_arg, statistic, target)``.
    fitted_c : float or None
        Fitted stability constant, where the check fits one.
    note : str
        Human-readable remark (reason for an inconclusive verdict, masked
        grid points, trend description).
    """

    name: str
    passed: Optional[bool]
    deviations: tuple
    rows: tuple
    fitted_c: Optional[float] = None
    note: str = ""

    @property
    def last_deviation(self) -> float:
        return self.deviations[-1] if self.deviations else math.nan


@dataclass(frozen=True)
class AssumptionReport:
    """Verdicts of all applicable scaling checks with their evidence.

    Attributes
    ----------
    checks : mapping
        Check key to :class:`CheckResult`.
    skipped : tuple of str
        Checks not applicable to the supplied copula (for example the
        dependence-function check when no Pickands function exists).
    grid : tuple
        Relative grid used for the statistics.
    log10_t_sequence : tuple
        Scales probed, as ``log10 t``, shallow to deep.
    tolerance : float
        Final-scale deviation threshold used for the verdicts.
    """

    checks: Mapping[str, CheckResult]
    skipped: tuple
    grid: tuple
    log10_t_sequence: tuple
    tolerance: float

    @property
    def all_pass(self) -> bool:
        return bool(self.checks) and all(c.passed is True for c in self.checks.values())

    @property
    def any_fail(self) -> bool:
        return any(c.passed is False for c in self.checks.values())


_DEFAULT_LOG10_T = (-1.0, -2.0, -3.0, -4.0, -5.0, -6.0, -7.0)
# for the logarithmic convergence of a vanishing corner slope (exact in logs)
_DEEP_LOG10_T = (-8200.0, -8400.0, -8600.0, -8800.0, -9000.0)
_DEFAULT_GRID = (0.5, 1.0, 2.0, 4.0)


def _verdict(deviations: Sequence[float], tolerance: float, lts: Sequence[float]):
    """``(passed, note)`` for the deviations at the scales ``log t = lts``."""
    devs = list(deviations)
    if any(not math.isfinite(d) for d in devs):
        return None, "non-finite statistics (underflow or undefined derivative); verdict withheld"
    tail = devs[-3:]
    # jitter at the double-precision noise floor is convergence, not a trend;
    # a statistic formed as lchat(...) - kappa*log t rounds to about
    # eps*|log t|, which exceeds 1e-12 at the deep scales
    floor = max(1e-12, 4.0 * math.ulp(1.0) * max(abs(lt) for lt in lts[-3:]))
    shrinking = all(b <= max(a * (1.0 + 1e-12), floor) for a, b in zip(tail, tail[1:]))
    small = devs[-1] < tolerance
    if small and shrinking:
        return True, ""
    reasons = []
    if not small:
        reasons.append(f"final deviation {devs[-1]:.3e} >= tolerance {tolerance:.1e}")
    if not shrinking:
        reasons.append("deviations not shrinking over the final scales")
    return False, "; ".join(reasons)


def _relabs(stat: float, target: float) -> float:
    if abs(target) > 1e-6:
        return abs(stat - target) / abs(target)
    return abs(stat - target)


def _acc(worst: float, stat: float, target: float) -> float:
    """Fold one (statistic, target) pair into a running worst deviation.

    A non-finite statistic poisons the scale's deviation to NaN so the
    verdict becomes inconclusive rather than a silent pass or fail.
    """
    if math.isnan(worst) or not math.isfinite(stat):
        return math.nan
    return max(worst, _relabs(stat, target))


def check_assumptions(
    copula: SurvivalCopula,
    tail_traits: Optional[TailOrderTraits] = None,
    *,
    grid: Sequence[float] = _DEFAULT_GRID,
    log10_t_sequence: Optional[Sequence[float]] = None,
    tolerance: float = 1e-3,
) -> AssumptionReport:
    """Measure how fast a copula converges to its asserted tail scaling.

    Four checks run where applicable, each over a shrinking sequence of
    scales ``t`` and a relative grid, with the corner slope ``a20`` read
    once by :func:`estimate_corner_slope` (0 without a dependence function):

    * ``A2``: ``chat(u*t, v*t) / t**kappa`` against ``tau(u, v)``.
    * ``A3``: the relative increment of ``chat_v`` when the first argument
      grows by the factor ``1 + u``, against ``(1 + u) - 1``; the stability
      constant is fitted by least squares on log-ratios.
    * ``A4``: ``chat_v(u*t, v) / t`` against the plain power corner profile
      ``a20 * u * v**(a20 - 1)``, computed here from the slope (0 when
      ``a20`` is 0).
    * ``evcond``: the dependence-derivative ratio
      ``a2(1, x / (1 + log(1+u)/log t)) / a2(1, x)`` against a fitted power
      ``(1 + u)**c``.

    A check passes when its final-scale worst deviation is below the
    tolerance and the deviations are non-increasing over the final three
    scales. Deviations are relative when the target exceeds 1e-6 in
    magnitude and absolute otherwise. Non-finite statistics make a check
    inconclusive, never a silent pass.

    The copula is probed only through its log-domain evaluators
    ``log_chat`` and ``log_chat_v``, so the scales may lie far below
    double-precision range.

    Parameters
    ----------
    copula : SurvivalCopula
        A shipped survival copula, from :func:`make_survival_copula`.
    tail_traits : TailOrderTraits, optional
        Defaults to the traits of the copula's dependence function; required
        for a copula without one (pass :func:`trial_tail_order_traits`),
        which skips ``A3`` and ``evcond``.
    grid : sequence of float
        Relative grid of positive finite values (default ``(0.5, 1, 2, 4)``);
        values below 1 double as the probability grid of the derivative
        checks.
    log10_t_sequence : sequence of float, optional
        Scales as ``log10 t``, finite and strictly decreasing. Default
        ``-8200 .. -9000`` (step 200) when ``a20`` is 0 and ``a(1, 1) > 1``
        (Gumbel with exponent above 1), else ``-1 .. -7``.
    tolerance : float
        Verdict threshold on the final-scale deviation (default 1e-3).

    Raises
    ------
    ConfigError
        If the scale sequence has fewer than 3 scales, a non-finite one or
        is not strictly decreasing, if the grid is empty or has a value that
        is not positive and finite, or if the tolerance is not positive and
        finite.
    UnsupportedFamilyError
        If no tail traits are supplied for a copula without a dependence
        function.
    """
    p = copula.pickands
    # one corner-slope read sets the default depth and the corner target;
    # a copula without a dependence function has slope 0
    a20 = 0.0 if p is None else estimate_corner_slope(p)
    if log10_t_sequence is None:
        deep = p is not None and a20 == 0.0 and float(p.a_fn(1.0, 1.0)) > 1.0
        log10_t_sequence = _DEEP_LOG10_T if deep else _DEFAULT_LOG10_T
    l10 = tuple(float(x) for x in log10_t_sequence)
    if len(l10) < 3:
        raise ConfigError(f"need at least 3 scales, got {len(l10)}")
    if not all(map(math.isfinite, l10)) or any(b >= a for a, b in zip(l10, l10[1:])):
        raise ConfigError(
            f"scale sequence must be finite and strictly decreasing in t, got log10 t = {l10}"
        )
    gvals = tuple(float(g) for g in grid)
    if not gvals or not all(0.0 < g < math.inf for g in gvals):
        raise ConfigError(f"grid values must be positive and finite, got {grid!r}")
    if not (tolerance > 0.0) or not math.isfinite(tolerance):
        raise ConfigError(f"tolerance must be a positive finite number, got {tolerance!r}")
    vprob = tuple(g for g in gvals if g < 1.0) or (0.5,)

    if tail_traits is None:
        if p is None:
            raise UnsupportedFamilyError(
                f"family {copula.family!r} has no extreme-value dependence function, hence "
                "no power tail traits; use trial_tail_order_traits to probe it"
            )
        tail_traits = tail_order_traits(p)

    ln10 = math.log(10.0)
    lts = [x * ln10 for x in l10]
    lchat, lchat_v = copula.log_chat, copula.log_chat_v

    checks: dict[str, CheckResult] = {}

    def finish(name, rows, fitted_c=None):
        worst = dict.fromkeys(l10, 0.0)
        for x10, _, _, stat, target in rows:
            worst[x10] = _acc(worst[x10], stat, target)
        devs = tuple(worst.values())
        passed, note = _verdict(devs, tolerance, lts)
        checks[name] = CheckResult(
            name=name, passed=passed, deviations=devs, rows=tuple(rows),
            fitted_c=fitted_c, note=note,
        )

    def scan(us, vs, stat_target):
        """Rows ``(log10_t, u, v, statistic, target)``, scale by scale."""
        return [
            (x10, u, v, *stat_target(lt, u, v))
            for x10, lt in zip(l10, lts) for u in us for v in vs
        ]

    # A2: diagonal tail-order scaling.
    kappa = tail_traits.kappa

    def diagonal(lt, u, v):
        expo = lchat(math.log(u) + lt, math.log(v) + lt) - kappa * lt
        return _safe_exp(expo), tail_traits.tau(u, v)

    finish("A2", scan(gvals, gvals, diagonal))

    # A3 and evcond read the dependence function
    if p is not None:
        # A3: relative-shift stability of the partial derivative.
        def relative_shift(lt, u, v):
            lr = lchat_v(lt + math.log1p(u), math.log(v)) - lchat_v(lt, math.log(v))
            stat = math.expm1(lr) if math.isfinite(lr) else math.nan
            return stat, (1.0 + u) - 1.0

        rows = scan(gvals, vprob, relative_shift)
        # least squares on log-ratios, over the deepest scale with usable points
        fitted_c = None
        for x10 in l10:
            num = den = 0.0
            for x, u, _, stat, _ in rows:
                if x == x10 and math.isfinite(stat) and stat > -1.0:
                    num += math.log1p(stat) * math.log1p(u)
                    den += math.log1p(u) ** 2
            if den > 0:
                fitted_c = num / den
        finish("A3", rows, fitted_c=fitted_c)

    # A4: corner limit of the scaled partial derivative against the corner
    # profile; a vanishing corner slope has the zero profile (its power
    # v ** -1 would overflow at a subnormal grid value)
    def corner_limit(lt, u, v):
        target = a20 * u * v ** (a20 - 1.0) if a20 > 0.0 else 0.0
        return _safe_exp(lchat_v(math.log(u) + lt, math.log(v)) - lt), target

    finish("A4", scan(gvals, vprob, corner_limit))

    # evcond: stability of the dependence derivative under log perturbations;
    # its power is fitted per grid point, so it keeps its own loop.
    if p is not None:
        rows = []
        fitted_c = None
        for x10, lt in zip(l10, lts):
            for x in gvals:
                base = float(p.a2_fn(1.0, x))
                triples = []
                for u in gvals:
                    shift = 1.0 + math.log1p(u) / lt
                    if shift <= 0:
                        continue
                    mov = float(p.a2_fn(1.0, x / shift))
                    if base == 0.0:
                        q = 1.0 if mov == 0.0 else math.inf
                    else:
                        q = mov / base
                    triples.append((u, q))
                usable = [(u, q) for u, q in triples if math.isfinite(q) and q > 0]
                den = sum(math.log1p(u) ** 2 for u, _ in usable)
                c_x = (
                    sum(math.log(q) * math.log1p(u) for u, q in usable) / den
                    if den > 0
                    else 0.0
                )
                if fitted_c is None or abs(c_x) > abs(fitted_c):
                    fitted_c = c_x
                rows += [(x10, u, x, q, (1.0 + u) ** c_x) for u, q in triples]
        finish("evcond", rows, fitted_c=fitted_c)

    return AssumptionReport(
        checks=checks,
        skipped=("A3", "evcond") if p is None else (),
        grid=gvals,
        log10_t_sequence=l10,
        tolerance=float(tolerance),
    )
