"""Asymptotic expansions for the tail and quantile of a sum of two risks.

Given a Pareto marginal and an extreme-value copula, this module evaluates:

* the singular integrals feeding the second-order constants (the series
  :func:`integral_I`, the corner functional :func:`eta_limit` in closed
  form, and :func:`delta_correction` by a fixed quadrature rule);
* the case classification of the extreme-value regime
  (:func:`classify_case`), which rejects a dependence function that breaks
  the :class:`~tailsum.copulas.PickandsEV` contract;
* first- plus second-order expansions of ``P(X + Y > t)``
  (:func:`tailprob_expansion_ev`);
* first- plus second-order expansions of the ``q``-quantile of ``X + Y``
  (:func:`var_expansion_ev`) and a numerical inversion diagnostic
  (:func:`var_from_tailprob_inversion`), the root of the stated tail
  value found from the leading order's closed-form root.

Independence is the extreme-value copula with dependence function
``a(x, y) = x + y`` (:func:`~tailsum.copulas.independence_pickands`, tail
order 2); it runs through the same extreme-value expansions.

Every second-order term is a threshold-free spec ``(kind, coefficient,
exponent, arg)``, and one function, :func:`_spec_value`, turns a spec into
its number at a threshold. :func:`_evaluate` wraps those numbers into
:class:`ExpansionTerm` records, for the stated terms only; the candidates
and the VaR inversion sum the plain numbers (:func:`_tail_value`) in the
same order, so they give the same values without the records. One
builder, :func:`_model_plan`, writes every spec, the trait theorem's eta
and partial branches among them.

Everything is a pure function of immutable inputs. The extreme-value
expansions cache, per ``(marginal, dependence function)`` model, only what
does not depend on the threshold or the level: the case label, the case
coefficient (its corner integrals), the stated term specs, when the stated
second order vanishes the candidates' specs, and what a quantile query
reuses (its ``rho_regime`` and diagnostics). The cache is a bounded
``functools.lru_cache``, which is thread-safe, and holds frozen values, so
concurrent use is safe; the quadrature rule's node table is read-only
arrays, each entry built on first use and kept by a ``functools.cache``,
and its scratch state is local to each call.

The module needs numpy only. The one quadrature, :func:`delta_correction`,
is a fixed Gauss-Legendre rule, and the one root finding, in
:func:`var_from_tailprob_inversion`, is Brent's method (:func:`_brent`) on
a bracket grown from one log-Newton step off the closed-form root of
``2 * survival(t) = 1 - q``, with each threshold's tail value evaluated
once.
"""

from __future__ import annotations

import bisect
import functools
import math
import types
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .copulas import (
    PartialLimitTraits,
    PickandsEV,
    TailOrderTraits,
    estimate_corner_slope,
    tail_order_traits,
)
from .errors import DivergentIntegralError, DomainError
from .marginals import ParetoMarginal

__all__ = [
    "CaseLabel",
    "ExpansionTerm",
    "Expansion",
    "VarExpansion",
    "InversionDiagnostic",
    "integral_I",
    "eta_limit",
    "delta_correction",
    "power_term_coefficient",
    "classify_case",
    "tailprob_expansion_ev",
    "var_expansion_ev",
    "var_from_tailprob_inversion",
]

LABEL_PARTIAL = "C1\\(C2∩C3)"
LABEL_COMPLEMENT = "C1ᶜ"


# ---------------------------------------------------------------------------
# Singular integrals
# ---------------------------------------------------------------------------


def integral_I(alpha: float, beta: float) -> float:
    """The corner integral ``beta * int_0^{1/2} ((1-y)**-alpha - 1) * y**(-beta-1) dy``.

    The integrand behaves like ``alpha * beta * y**-beta`` near the origin,
    so the integral converges exactly when ``beta < 1``. Integrating the
    binomial series of ``(1-y)**-alpha`` term by term gives
    ``beta * 2**beta * sum_{k>=1} c_k / (k - beta)`` with
    ``c_k = (alpha)_k / (k! * 2**k)``: positive terms, so no cancellation,
    summed until they stop changing the sum (40-60 terms for ``alpha <= 3``).

    Parameters
    ----------
    alpha : float
        Positive exponent of the ``(1-y)**-alpha`` factor.
    beta : float
        Exponent in ``[0, 1)``; the value 0 gives exactly 0.

    Raises
    ------
    DomainError
        If ``alpha <= 0``, ``beta < 0`` or the value overflows a float.
    DivergentIntegralError
        If ``beta >= 1``.
    """
    if not (alpha > 0):
        raise DomainError(f"integral_I requires alpha > 0, got {alpha}")
    if not (beta >= 0):
        raise DomainError(f"integral_I requires beta >= 0, got {beta}")
    if beta >= 1:
        raise DivergentIntegralError(
            f"integral_I diverges for beta >= 1, got beta={beta}"
        )
    total, c, k = 0.0, 1.0, 0
    while math.isfinite(total):
        k += 1
        c *= (alpha + k - 1.0) / (2.0 * k)
        grown = total + c / (k - beta)
        if grown == total and k > alpha:  # terms grow while k < alpha - 1
            break
        total = grown
    value = beta * 2.0**beta * total
    if not math.isfinite(value):
        raise DomainError(f"integral_I overflows a float at alpha={alpha}, beta={beta}")
    return value


def eta_limit(traits: TailOrderTraits, alpha: float) -> float:
    """The corner functional of the tail profile, in closed form.

    ``eta = alpha * int_0^{1/2} (d2tau((1-y)**-alpha, y**-alpha)
    - d2tau(1, y**-alpha)) * y**(-alpha-1) dy``, with ``d2tau`` the partial
    derivative of the profile in its second argument. For the product power
    ``tau(u, v) = (u*v)**m`` the integrand is ``am * ((1-y)**-am - 1) *
    y**(-am-1)`` with ``am = alpha*m``, so the limit is finite exactly when
    ``am < 1``, where it equals ``integral_I(am, am)`` (independence is the
    case ``m = 1``). For the profile ``min(u, v)`` the increment vanishes on
    ``(0, 1/2)`` and the limit is 0.

    Returns
    -------
    float
        The limit value, or ``math.inf`` when divergent (never an exception).
    """
    if not (alpha > 0):
        raise DomainError(f"eta_limit requires alpha > 0, got {alpha}")
    if traits.power_m is None:
        return 0.0
    am = alpha * traits.power_m
    if am >= 1.0:
        return math.inf
    return integral_I(am, am)


def delta_correction(
    partial_traits: PartialLimitTraits, marginal: ParetoMarginal, t: float
) -> float:
    """Finite-level second-order weight of the trait theorem's partial branch.

    Returns ``int_0^{1/2} ((1-y)**(-alpha) - 1)
    * varphi(1, survival(t*y)) * density(t*y) * t dy``, for the corner
    profile ``varphi`` of the traits. The library calls it only on the
    log-refined Gumbel traits
    (:func:`~tailsum.copulas.gumbel_log_refined_traits`), where it does not
    decay as ``t`` grows: ``delta * (-log sf)**(1-phi)`` grows from 0.85 to
    1.51 over ``sf = 1e-2 .. 1e-8`` at phi 2, alpha 1.5 (0.054 to 0.24 at
    phi 10, alpha 0.8), so that candidate term is not of higher order. A
    plain power profile ``a20 * u * v**(a20 - 1)``, whose diagonal is
    ``a20 * exp(-a20*x)``, gives a weight that decays to zero.

    The integral is taken in the log-survival variable
    ``w = log1p(t*y/scale)``: the Lomax survival is ``sf = exp(-alpha*w)``
    and ``density(t*y) * t * dy = alpha * sf * dw`` exactly, so with the
    linearity ``varphi(u, v) = u * varphi(1, v)`` it is
    ``alpha * int_0^W expm1(-alpha*log1p(-y)) * varphi(sf, sf) dw`` with
    ``W = log1p(t/(2*scale))``. The profile on the diagonal is read in
    log-survival, as ``partial_traits.diagonal(alpha*w)``, so no survival
    is formed: the integrand stays finite where ``varphi(1, sf)`` alone
    overflows and where ``sf`` itself underflows. ``W`` is taken as
    ``log(t/2) - log(scale) + log1p(2*scale/t)`` and ``y`` as
    ``(exp(w-W) - exp(-W)) / (2*(1-exp(-W)))``, so neither overflows where
    ``t/(2*scale)`` does (``scale < 1``). The rule is 24-node
    Gauss-Legendre on panels graded geometrically away from both ends:
    edges ``2**-20, 2**-19, ...`` from ``w = 0`` and ``W - 1/8, W - 1/4,
    ...`` from ``w = W``, meeting at ``W/2``. Its nodes and weights are
    affine in ``W``: :func:`_delta_rule` gives them, by the count of grades
    below ``W/2``, as ``a + b*W`` and ``c + d*W``, and the sum is one dot
    product. Against 40-digit mpmath it is within 1e-13 relative (3.1e-15
    measured) for log-refined phi in {1.05, 2, 10} and plain power corner
    slopes {1, 0.5}, alpha in {0.3, 0.8, 2, 3} and ``sf = 1e-2 ..
    1e-12``, for log-refined phi at alpha 0.3, ``scale = 1e-5``, ``t =
    1e300`` and ``1e305``, and at alpha 2 and 3, ``scale = 1e-5``, ``t =
    1e300``, where ``survival(t)`` underflows to 0.

    Raises
    ------
    DomainError
        If ``t`` is not finite and above the marginal median.
    """
    _require_above_median(marginal, t, "delta_correction")
    alpha, scale = marginal.alpha, marginal.scale
    top = math.log(t / 2.0) - math.log(scale) + math.log1p(2.0 * scale / t)
    a, b, c, d = _delta_rule(bisect.bisect_left(_GRADES, 0.5 * top))
    w = a + b * top
    y = (np.exp(w - top) - math.exp(-top)) * (0.5 / -math.expm1(-top))
    f = np.expm1(-alpha * np.log1p(-y)) * partial_traits.diagonal(alpha * w)
    return alpha * float((c + d * top) @ f)


# the panel grades of delta_correction; W/2 stays below 2**9 for every
# float t while scale > 1e-136
_GRADES = tuple(2.0**j for j in range(-20, 10))


@functools.cache
def _delta_rule(k: int) -> tuple:
    """The nodes and weights of :func:`delta_correction` for every ``W``
    with ``k`` grades below ``W/2``, as four read-only arrays ``(a, b, c,
    d)``: the nodes are ``a + b*W`` and the weights ``c + d*W``.

    The panel edges are ``base + coef*W``: ``coef`` is 0 for the edge 0
    and the ``k`` grades, ½ for ``W/2``, and 1 for ``W`` less each of
    those grades from ``1/8`` up (``base`` is minus the grade) and for
    ``W`` itself. Each panel's midpoint and radius are then affine in
    ``W`` too, and so are its 24 Gauss-Legendre nodes ``mid + radius*x``
    and weights ``radius*wx``. An entry is built the first time its count
    is asked for: the counts a workload meets are few, and all 31 entries
    would hold about 0.8 MiB."""
    x, wx = np.polynomial.legendre.leggauss(24)
    low = np.array(_GRADES[:k])
    high = low[low >= 0.125][::-1]
    base = np.concatenate(([0.0], low, [0.0], -high, [0.0]))
    coef = np.concatenate(([0.0], np.zeros(k), [0.5], np.ones(high.size), [1.0]))

    def nodes_and_weights(e):
        mid = 0.5 * (e[1:] + e[:-1])[:, None]
        radius = 0.5 * (e[1:] - e[:-1])[:, None]
        return (mid + radius * x).ravel(), (radius * wx).ravel()

    (a, c), (b, d) = nodes_and_weights(base), nodes_and_weights(coef)
    for arr in (a, b, c, d):
        arr.flags.writeable = False
    return a, b, c, d


def power_term_coefficient(traits: TailOrderTraits, alpha: float) -> float:
    """Second-order power-term coefficient ``tau(2**a, 2**a) - 2*tau(1, 2**a)``.

    For the product-power profile this equals
    ``2**(2*alpha*m) - 2**(alpha*m + 1)``; for the comonotone profile
    ``min`` it equals ``2**alpha - 2``.
    """
    two_a = 2.0**alpha
    return traits.tau(two_a, two_a) - 2.0 * traits.tau(1.0, two_a)


# ---------------------------------------------------------------------------
# Case classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseLabel:
    """Which of the two cases of the extreme-value expansion applies.

    Attributes
    ----------
    label : str
        ``"C1\\(C2∩C3)"`` when ``C1: alpha*a2(1,0) < 1``, else ``"C1ᶜ"``
        (the paper's third case, with ``C3: a(1,1) < a2(1,0) + 1``, needs a
        non-convex dependence function, which breaks the contract that
        :func:`classify_case` tests).
    c1, c2 : bool
        C1 and ``C2: alpha*a1(1,1) < 1``. C2 leaves the label alone: it is
        the one test of whether the eta branch's corner integral
        (:func:`eta_limit`) converges, so of whether a vanishing middle case
        offers the ``power_term_with_eta`` candidate.
    a20 : float
        The corner slope ``a2(1, 0)`` used by the predicates: the
        contract value ``a2_fn(1, -0.0)``, read by
        :func:`~tailsum.copulas.estimate_corner_slope` (``+0.0`` when it
        vanishes).
    boundary_indicator : bool
        Whether ``a(1,1) == a2(1,0) + 1`` within 1e-9; only meaningful for
        extreme-value families.
    warnings : tuple of str
        Notes attached when a predicate sits within 1e-8 of its boundary; a
        model exactly on the C3 boundary (``boundary_indicator``, e.g.
        independence) gets no C3 note.
    """

    label: str
    c1: bool
    c2: bool
    a20: float
    boundary_indicator: bool
    warnings: tuple = ()


def classify_case(alpha: float, p: PickandsEV) -> CaseLabel:
    """Classify the model into one of the two cases of :class:`CaseLabel`.

    The corner slope ``a2(1, 0)`` is the contract value ``a2_fn(1, -0.0)``,
    read by :func:`~tailsum.copulas.estimate_corner_slope`, which first
    tests the :class:`~tailsum.copulas.PickandsEV` contract. A dependence
    function is convex with ``a(1, 0) = 1``, so ``a(1,1) - 1 = int_0^1
    a2(1,y) dy >= a2(1,0)`` and C3 never holds. Predicates within 1e-8 of
    their boundary (C3: but not exactly on it) attach a warning but still
    classify.

    Raises
    ------
    DomainError
        If ``alpha`` is not positive, or if the dependence function breaks
        its contract (a corner slope outside ``[0, 1]``, asymmetry, a value
        outside the bounds, a broken Euler identity, or non-convexity, such
        as ``a(1,1) < a2(1,0) + 1 - 1e-8``); the message names the property.
    """
    if not (alpha > 0):
        raise DomainError(f"classify_case requires alpha > 0, got {alpha}")
    a20 = estimate_corner_slope(p)
    a11 = float(p.a1_fn(1.0, 1.0))
    c3_margin = float(p.a_fn(1.0, 1.0)) - (a20 + 1.0)

    c1 = alpha * a20 < 1.0
    c2 = alpha * a11 < 1.0

    warnings = []
    if abs(alpha * a20 - 1.0) < 1e-8:
        warnings.append("within 1e-8 of the C1 boundary alpha*a2(1,0) = 1")
    if abs(alpha * a11 - 1.0) < 1e-8:
        warnings.append("within 1e-8 of the C2 boundary alpha*a1(1,1) = 1")
    if 0.0 < abs(c3_margin) < 1e-8:
        warnings.append("within 1e-8 of the C3 boundary a(1,1) = a2(1,0) + 1")

    return CaseLabel(
        label=LABEL_PARTIAL if c1 else LABEL_COMPLEMENT,
        c1=c1,
        c2=c2,
        a20=a20,
        boundary_indicator=abs(c3_margin) <= 1e-9,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Expansion value objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionTerm:
    """One second-order term: ``coefficient * sf**exponent * extra factors``.

    ``t_factor`` carries an evaluated t-dependent decaying factor (such as a
    truncated mean divided by t). Every term either has exponent strictly
    above 1 or a t-decaying factor, so the term vanishes relative to the
    leading order. The expansions make records for the stated terms only,
    and those carry no slowly varying factor: one enters only the number
    of the ``log_refined`` candidate.

    ``value`` is the term's numeric contribution at the evaluation point.
    """

    coefficient: float
    exponent: float
    factor_tag: str = ""
    t_factor: Optional[float] = None
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.exponent <= 1.0 and self.t_factor is None:
            raise DomainError(
                "second-order term must have exponent above 1 or a t-decaying factor"
            )


@dataclass(frozen=True)
class Expansion:
    """Evaluated tail-probability expansion at one threshold.

    Attributes
    ----------
    t : float
        Threshold the expansion was evaluated at.
    value : float
        Leading order plus all second-order terms.
    first_order : float
        The leading order ``2 * survival(t)``.
    terms : tuple of ExpansionTerm
        The second-order terms (empty when they vanish).
    case : CaseLabel
        Regime label.
    diagnostics : tuple of str
        Notes (degenerate second order, boundary warnings). Where the
        second-order terms outweigh the first order (``|value -
        first_order| > first_order``) a note names the C1 boundary
        ``alpha*a20 = 1``, across which the expansion is not uniform (its
        middle-case coefficient ``2*integral_I(alpha, alpha*a20)``
        diverges there); the value is not clipped.
    candidates : mapping or None
        When the stated second-order term vanishes, alternative refinements
        keyed by name (``"leading"``, ``"power_term"``,
        ``"power_term_with_eta"``, ``"log_refined"``); the primary ``value``
        stays the stated one.
    """

    t: float
    value: float
    first_order: float
    terms: tuple
    case: CaseLabel
    diagnostics: tuple = ()
    candidates: Optional[Mapping[str, float]] = None


@dataclass(frozen=True)
class VarExpansion:
    """Evaluated quantile expansion at one probability level.

    Attributes
    ----------
    q : float
        Probability level.
    value : float
        First- plus second-order quantile of the sum.
    first_order : float
        The leading order ``2**(1/alpha) * quantile(q)``.
    case : CaseLabel
        Regime label.
    rho_regime : str
        ``"below"`` when the case formula gave the value (the middle case
        states a second-order term, and the Pareto ``rho = -1`` lies below
        its threshold exponent), ``"above"`` when the second-order
        regular-variation strip did (a vanishing stated term, or the
        complement case's boundary closure; the diagnostics say which).
    diagnostics : tuple of str
        Notes (degenerate coefficients, boundary closures, and the C1 note
        of :class:`Expansion` where the second order outweighs the first).
    """

    q: float
    value: float
    first_order: float
    case: CaseLabel
    rho_regime: str
    diagnostics: tuple = ()


@dataclass(frozen=True)
class InversionDiagnostic:
    """Consistency check between the quantile formula and tail inversion.

    ``inverted`` is the threshold where the tail-probability expansion
    crosses ``1 - q``; ``formula`` is the direct quantile expansion;
    ``discrepancy`` is their relative difference. ``diagnostics`` holds
    the C1 note of :func:`tailprob_expansion_ev` where ``inverted`` is
    more than twice ``t0 = quantile(1 - (1-q)/2)``, the leading order's
    root (``|inverted - t0| > t0``, the rule of the tail and the VaR), and
    is empty otherwise.
    """

    q: float
    formula: float
    inverted: float
    discrepancy: float
    diagnostics: tuple = ()


# ---------------------------------------------------------------------------
# Tail-probability expansions
# ---------------------------------------------------------------------------


def _require_above_median(m: ParetoMarginal, t: float, op: str) -> None:
    median = m._median
    if not (median < t < math.inf):
        raise DomainError(f"{op} requires a finite t above the marginal median {median}, got {t}")


_FACTOR_TAGS = {
    "power": "",
    "truncated_mean": "powered_truncated_mean_over_t",
    "delta_correction": "delta_correction",
}


def _spec_value(spec: tuple, m: ParetoMarginal, t: float, sf: float) -> tuple:
    """``(value, t_factor)`` of one term spec at ``t``, where the
    survival is ``sf``. A ``"power"`` spec is ``c * sf**e`` (``arg`` None),
    ``"truncated_mean"`` is ``c * sf**e *
    powered_tail_truncated_mean(t, arg) / t`` and ``"delta_correction"`` is
    ``c * delta_correction(arg, t) * sf**e * arg.h(sf)``."""
    kind, c, e, arg = spec
    if kind == "power":
        return c * sf**e, None
    if kind == "truncated_mean":
        tf = m.powered_tail_truncated_mean(t, arg) / t
        return c * tf * sf**e, tf
    dt = delta_correction(arg, m, t)
    return c * dt * sf**e * float(arg.h(sf)), dt


def _c1_note(value: float, first: float, alpha: float, case: CaseLabel) -> tuple:
    """The note, as a 1-tuple, that a tail or quantile ``value`` whose second
    order outweighs its ``first`` order (``|value - first| > first``) is
    not uniform across the C1 boundary ``alpha*a20 = 1``, where the middle
    case's coefficient ``2*integral_I(alpha, alpha*a20)`` diverges; else
    empty. The value is not clipped."""
    if abs(value - first) > first:
        return (
            "second-order terms outweigh the first order: the expansion is not uniform "
            f"across the C1 boundary alpha*a20 = 1 (here {alpha * case.a20:.6g})",
        )
    return ()


def _tail_value(specs: tuple, m: ParetoMarginal, t: float, sf: float) -> float:
    """``2*sf`` plus the values of the term specs at ``t``: the number of
    :func:`_evaluate`, without its records."""
    return 2.0 * sf + sum(_spec_value(spec, m, t, sf)[0] for spec in specs)


def _evaluate(specs: tuple, m: ParetoMarginal, t: float, sf: float) -> tuple:
    """``(terms, 2*sf + their sum)``: the :class:`ExpansionTerm` records of
    the term specs at ``t``, where the survival is ``sf``, and the tail
    value they give (:func:`_spec_value` evaluates each)."""
    terms = []
    for spec in specs:
        kind, c, e, _ = spec
        value, t_factor = _spec_value(spec, m, t, sf)
        terms.append(ExpansionTerm(
            coefficient=c, exponent=e, factor_tag=_FACTOR_TAGS[kind],
            t_factor=t_factor, value=value,
        ))
    return tuple(terms), 2.0 * sf + sum(term.value for term in terms)


@dataclass(frozen=True)
class _ModelPlan:
    """The part of the extreme-value expansions of one model that depends
    on neither the threshold nor the level.

    ``terms`` holds the stated term specs: the case's power terms in the
    middle case, the truncated-mean term in the complement case.
    ``coefficient`` is the middle case's coefficient of the quantile
    expansion, on the power ``case.a20`` of ``1 - q`` (the sum of the
    stated power terms' coefficients, zero when none is stated), and None
    in the complement case. ``candidates`` maps each candidate's name to
    its specs, only in the middle case whose stated second order vanishes
    (see :func:`tailprob_expansion_ev`).

    The rest serves :func:`var_expansion_ev`: ``rho_regime`` is
    ``"below"`` exactly when the middle case states a term, and
    ``var_diagnostics`` holds the quantile's notes.
    """

    case: CaseLabel
    coefficient: Optional[float]
    terms: tuple
    candidates: Optional[Mapping[str, tuple]]
    rho_regime: str
    var_diagnostics: tuple


def _plan(
    case: CaseLabel, c: Optional[float], terms: tuple,
    candidates: Optional[Mapping[str, tuple]] = None,
) -> _ModelPlan:
    """The :class:`_ModelPlan` of the classified model with case coefficient
    ``c``, its quantile fields filled."""
    if c is not None and terms:
        return _ModelPlan(case, c, terms, candidates, "below", case.warnings)
    why = (
        "rho equals the complement-case threshold -1; closed into the "
        "regular-variation strip"
        if c is None
        else "stated second-order coefficient vanishes; regular-variation value returned"
    )
    diagnostics = case.warnings + ("second-order regular-variation strip", why)
    return _ModelPlan(case, c, terms, candidates, "above", diagnostics)


@functools.lru_cache(maxsize=64)
def _model_plan(m: ParetoMarginal, p: PickandsEV) -> _ModelPlan:
    """Classify the model and evaluate its threshold- and level-free
    constants once."""
    alpha = m.alpha
    case = classify_case(alpha, p)
    traits = tail_order_traits(p)
    if traits.kappa <= 1.0:
        raise DomainError(
            "second-order term must have exponent above 1 or a t-decaying factor: a(1,1) = 1 "
            "puts the boundary term at the leading order (the comonotone sum is 2X)"
        )
    a20 = case.a20
    if case.label == LABEL_COMPLEMENT:  # alpha * a20 >= 1
        return _plan(case, None, (("truncated_mean", 2.0 * alpha, 1.0, a20),))

    c = power_term_coefficient(traits, alpha)
    power_term = (("power", c, traits.kappa, None),)
    zeta2 = 2.0 * integral_I(alpha, alpha * a20)
    terms = (("power", zeta2, a20 + 1.0, None),) if zeta2 != 0.0 else ()
    if case.boundary_indicator:
        terms += power_term
    if terms:
        return _plan(case, sum((coef for _, coef, _, _ in terms), 0.0), terms)

    # the stated second order vanishes: the candidates are the trait theorem's
    # branches, eta (its corner integral converges under C2) and partial
    candidates = {"leading": (), "power_term": power_term}
    if case.c2:
        eta_c = 2.0 * eta_limit(traits, alpha) + c
        candidates["power_term_with_eta"] = (("power", eta_c, traits.kappa, None),)
    if p.log_refined is not None:
        candidates["log_refined"] = power_term + (("delta_correction", 2.0, 1.0, p.log_refined),)
    return _plan(case, 0.0, (), types.MappingProxyType(candidates))


def tailprob_expansion_ev(m: ParetoMarginal, p: PickandsEV, t: float) -> Expansion:
    """Second-order tail of the sum of two Pareto risks under an
    extreme-value copula.

    Dispatches on the two cases of :func:`classify_case`:

    * ``alpha*a20 < 1``: coefficient ``2*integral_I(alpha, alpha*a20)`` on
      the power ``a20 + 1`` of the survival, plus, when
      ``a(1,1) == a20 + 1``, the boundary-indicator term: the
      ``power_term`` candidate's ``power_term_coefficient * sf**a(1,1)``;
    * ``alpha*a20 >= 1``: the truncated-mean form with the tail-power
      distribution of exponent ``a20``.

    When the middle case yields a zero coefficient and a false indicator the
    stated second order vanishes; the expansion then carries an explicit
    diagnostic and a ``candidates`` mapping of alternative refinements, with
    the primary value staying the stated one. The candidates are the trait
    theorem's branches on the model's own traits: no term (``leading``), the
    shared term ``power_term_coefficient * sf**kappa`` (``power_term``), plus
    ``2*eta_limit * sf**kappa`` when C2 makes it finite (``power_term_with_eta``)
    or plus ``2*delta_correction(t) * sf * h(sf)`` on the log-refined traits,
    if any (``log_refined``).

    The classification and the term specs are built once per model and
    cached; only the survival, the complement case's truncated mean and
    the ``log_refined`` candidate's :func:`delta_correction` are evaluated
    per threshold, and only the stated terms become records. A numpy
    scalar ``t`` is taken as its ``float``, so every value of the result
    is a Python ``float`` whatever the threshold's type.

    Raises
    ------
    DomainError
        If ``t`` is not finite and above the marginal median, or the
        dependence function breaks its contract (see :func:`classify_case`).
    """
    _require_above_median(m, t, "tailprob_expansion_ev")
    t = float(t)
    plan = _model_plan(m, p)
    s = m.survival(t)
    terms, value = _evaluate(plan.terms, m, t, s)
    first = 2.0 * s
    diagnostics = plan.case.warnings + _c1_note(value, first, m.alpha, plan.case)
    candidates = None
    if plan.candidates is not None:
        diagnostics += (
            "second-order term vanishes under the stated case conditions; "
            "candidate refinements attached",
        )
        candidates = {
            name: _tail_value(specs, m, t, s) for name, specs in plan.candidates.items()
        }
    return Expansion(
        t=t, value=value, first_order=first, terms=terms, case=plan.case,
        diagnostics=diagnostics, candidates=candidates,
    )


# ---------------------------------------------------------------------------
# Quantile expansions
# ---------------------------------------------------------------------------


def _check_q(q: float, op: str) -> None:
    if not (0.5 < q < 1.0):
        raise DomainError(f"{op} requires 0.5 < q < 1, got {q}")


def var_expansion_ev(m: ParetoMarginal, p: PickandsEV, q: float) -> VarExpansion:
    """Second-order quantile of the sum under an extreme-value copula.

    In the middle case of :func:`classify_case` (``alpha*a20 < 1``), with
    the tail-probability coefficient ``c`` (boundary-indicator term
    included), the quantile is
    ``2**(1/alpha) * Q(q) * (1 + c * 2**-(a20+1) / alpha * (1-q)**a20)``.
    The Pareto second-order index ``rho = -1`` lies below the case
    threshold ``-alpha*a20`` there (``rho_regime`` is ``"below"``). When
    the middle case states no term (then ``c`` is 0), and in the complement
    case, whose threshold ``-1`` is exactly the Pareto ``rho``, the value
    is the second-order regular-variation strip of the Lomax marginal,
    ``2**(1/alpha) * Q(q) * (1 + (b/alpha) * (2**(1/alpha) - 1) / Q(q))``
    with ``rho = -1`` and ``b = -alpha*scale`` (from ``survival(x) =
    scale**alpha * x**-alpha * (1 + b/x + o(1/x))``; ``rho_regime`` is
    ``"above"``), with a diagnostic saying which. A numpy scalar ``q`` is
    taken as its ``float``, so every value of the result is a Python
    ``float``.

    ``alpha = 1`` takes the general path: it is no boundary where ``a20 =
    0`` (Gumbel ``phi > 1``) and the C1 edge for independence, which
    :func:`classify_case` puts in the complement case. Just below C1 the
    middle case's coefficient diverges (independence at ``alpha =
    0.999999``, ``q = 0.99``: 5001 times the first order); the diagnostics
    then carry the C1 note of :func:`tailprob_expansion_ev`.

    Raises
    ------
    DomainError
        If ``q`` lies outside ``(0.5, 1)``, the first order
        ``2**(1/alpha) * Q(q)`` overflows a float (a tiny ``alpha``), the
        dependence function breaks its contract, the stated second-order term
        is of the leading order (exponent ``a(1,1) = 1``, the comonotone
        model), as in :func:`tailprob_expansion_ev`, or the second-order
        value is not positive (the relative correction falls below ``-1``,
        as at ``alpha = 0.05``, ``q = 0.6``).
    """
    _check_q(q, "var_expansion_ev")
    q = float(q)
    alpha = m.alpha
    plan = _model_plan(m, p)
    x_q = m.quantile(q)
    # 2**(1/alpha) <= Q(q)/scale + 1 for q > 1/2, so it overflows only with Q(q)
    first = 2.0 ** (1.0 / alpha) * x_q if x_q < math.inf else math.inf
    if first == math.inf:
        raise DomainError(f"var_expansion_ev: 2**(1/alpha) * Q(q) overflows at alpha={alpha}")
    if plan.rho_regime == "below":
        c, a20 = plan.coefficient, plan.case.a20
        value = first * (1.0 + c * 2.0 ** -(a20 + 1.0) / alpha * (1.0 - q) ** a20)
    else:  # the strip, rho = -1
        b = -alpha * m.scale
        value = first * (1.0 + b / alpha * (2.0 ** (1.0 / alpha) - 1.0) * x_q**-1.0)
    if not value > 0.0:
        raise DomainError(
            f"var_expansion_ev: the second-order VaR {value:.6g} at q={q}, alpha={alpha} is "
            f"not positive (first order {first:.6g}); the correction outweighs the leading "
            "term at this level"
        )
    return VarExpansion(
        q=q, value=value, first_order=first, case=plan.case, rho_regime=plan.rho_regime,
        diagnostics=plan.var_diagnostics + _c1_note(value, first, alpha, plan.case),
    )


def _brent(f, a: float, b: float, xtol: float, rtol: float) -> Optional[float]:
    """A root of ``f`` in the bracket ``[a, b]`` by Brent's method (Brent
    1973, *Algorithms for Minimization without Derivatives*, ch. 4), or
    None if 100 iterations do not converge or ``f`` returns NaN.

    A line-for-line port of the C routine ``brentq.c`` behind the usual
    Python ``brentq``: evaluated in the same order, it takes the same
    iterates bit for bit. Where C divides by zero it gets inf or NaN, the
    step test fails and the step bisects; a ``ZeroDivisionError`` is mapped
    to that bisection."""
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if math.isnan(fpre) or math.isnan(fcur):
        return None
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        return None
    for _ in range(100):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless interpolation gives a good short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if math.isnan(fcur):
            return None
    return None


def var_from_tailprob_inversion(
    m: ParetoMarginal, p: PickandsEV, q: float
) -> InversionDiagnostic:
    """Invert the tail-probability expansion and compare with the quantile
    formula.

    Finds the threshold where the stated tail expansion (its ``value``,
    without the candidates) equals ``1 - q``, evaluates the direct quantile
    expansion at the same level, and reports their relative discrepancy. A
    small discrepancy says the two deliverables are mutually consistent; it
    does not by itself certify either against the true quantile.

    The search starts at the closed-form root of the leading order,
    ``t0 = quantile(1 - (1-q)/2)``, where ``2 * survival(t0) = 1 - q``: the
    exact root wherever the stated second order vanishes. One log-Newton
    step on the leading log-slope ``alpha * t / (t + scale)`` moves it to
    ``c`` (``t0`` again where the step is not finite); ``c`` never lies
    below ``Q(q) = quantile(q)``. The bracket grows from ``c`` toward the
    root, its width starting at the step's length (at least Brent's
    tolerance) and growing fourfold, until the stated value crosses
    ``1 - q`` at its ends; its low end stops at ``Q(q)``. Brent's method
    (:func:`_brent`) then finds the root on that bracket, to within
    ``1e-12 * max(1, Q(q)) + 1e-14 * |root|``. A per-call memo evaluates
    the stated value once per threshold, as :func:`_brent` evaluates the
    bracket's ends again: about 3 evaluations per root where the stated
    second order vanishes, and at most 9 on the Gumbel grids measured
    (phi 1 .. 10, alpha 0.3 .. 3, q 0.6 .. 1 - 1e-6). A root more than
    twice ``t0`` carries the C1 note of :func:`tailprob_expansion_ev` in
    its ``diagnostics`` (independence at alpha 0.999999, ``q = 0.99``: 71.6
    times ``t0``).

    Parameters
    ----------
    m : ParetoMarginal
    p : PickandsEV
        Dependence function; independence is
        :func:`~tailsum.copulas.independence_pickands`.
    q : float
        Probability level in ``(0.5, 1)``.

    Raises
    ------
    DomainError
        If the closed-form root ``t0`` or the bracket's top overflows a
        float (a tiny ``alpha``, such as 0.003 at ``q = 0.99``), the stated
        value stays below ``1 - q`` down to ``Q(q)``, or the root finder
        does not converge (the stated value is NaN); otherwise as
        :func:`var_expansion_ev`.
    """
    _check_q(q, "var_from_tailprob_inversion")

    # the stated value only: the candidates never enter it
    plan = _model_plan(m, p)
    terms = plan.terms
    target = 1.0 - q
    tails = {}

    def tail_value(t: float) -> float:
        if t not in tails:
            tails[t] = _tail_value(terms, m, t, m.survival(t))
        return tails[t]

    def f(t: float) -> float:
        return tail_value(t) - target

    def require_finite(t: float, what: str) -> None:
        if not math.isfinite(t):
            raise DomainError(
                f"could not bracket the tail-expansion root for q={q}: "
                f"{what} overflows a float (alpha={m.alpha})"
            )

    floor = m.quantile(q)
    t0 = m.quantile(1.0 - target / 2.0)  # 2 * survival(t0) = 1 - q
    require_finite(t0, "the closed-form root")
    # one log-Newton step on the leading log-slope alpha * t / (t + scale)
    try:
        step = t0 * math.exp(math.log(tail_value(t0) / target) * (t0 + m.scale) / (m.alpha * t0))
    except (ValueError, OverflowError):  # a value <= 0, or a step past the largest float
        step = t0
    c = max(step if step < math.inf else t0, floor)  # a NaN step is not below inf

    # the stated value decreases in t: grow the bracket from c toward the root
    xtol = 1e-12 * max(1.0, floor)
    width = max(abs(c - t0), xtol + 1e-14 * c)
    lo = hi = c
    while f(hi) > 0:
        lo, hi = hi, c + width
        require_finite(hi, "the bracket's top")
        width *= 4.0
    while f(lo) < 0:
        if lo == floor:
            raise DomainError(
                f"could not bracket the tail-expansion root for q={q}; "
                f"expansion may not cross {target}"
            )
        lo, hi = max(c - width, floor), lo
        width *= 4.0
    inverted = _brent(f, lo, hi, xtol, 1e-14)
    if inverted is None:
        raise DomainError(f"the tail-expansion root for q={q} did not converge in [{lo}, {hi}]")
    formula = var_expansion_ev(m, p, q).value
    discrepancy = abs(inverted - formula) / formula
    return InversionDiagnostic(
        q=q, formula=formula, inverted=inverted, discrepancy=discrepancy,
        diagnostics=_c1_note(inverted, t0, m.alpha, plan.case),
    )
