"""Independent numerical oracles used by the test suite.

Everything in this module is implemented from first principles (closed
forms, brute-force midpoint sums, adaptive quadrature on exact integral
representations) and deliberately does NOT import from the ``tailsum``
package, so that agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize


# ---------------------------------------------------------------------------
# Pareto marginal, independent copy
# ---------------------------------------------------------------------------

def pareto_sf(alpha: float, scale: float, x):
    return (scale / (np.asarray(x, dtype=float) + scale)) ** alpha


def pareto_quantile(alpha: float, scale: float, q):
    return scale * ((1.0 - np.asarray(q, dtype=float)) ** (-1.0 / alpha) - 1.0)


def pareto_density(alpha: float, scale: float, x):
    return alpha * scale**alpha * (np.asarray(x, dtype=float) + scale) ** (-alpha - 1.0)


def pareto_trunc_mean_quad(alpha: float, scale: float, t: float) -> float:
    """Truncated mean by raw adaptive quadrature (no closed form used)."""
    val, _ = integrate.quad(
        lambda x: x * alpha * scale**alpha * (x + scale) ** (-alpha - 1.0),
        0.0,
        t,
        epsabs=1e-13,
        epsrel=1e-12,
        limit=400,
    )
    return val


def pareto_powered_trunc_closed(alpha: float, scale: float, a: float, t: float) -> float:
    """Truncated mean of 1-(sf**a): equals a Pareto(a*alpha, scale) truncated mean."""
    aa = a * alpha
    if abs(aa - 1.0) < 1e-14:
        return scale * (math.log((t + scale) / scale) + scale / (t + scale) - 1.0)
    return aa * scale**aa * (
        ((t + scale) ** (1.0 - aa) - scale ** (1.0 - aa)) / (1.0 - aa)
        + scale * ((t + scale) ** (-aa) - scale ** (-aa)) / aa
    )


# ---------------------------------------------------------------------------
# Survival-copula closed forms, independent copy
# ---------------------------------------------------------------------------

def gumbel_chat(phi: float, u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    wu, wv = -np.log(u), -np.log(v)
    return np.exp(-((wu**phi + wv**phi) ** (1.0 / phi)))


def gumbel_chat_v(phi: float, u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    wu, wv = -np.log(u), -np.log(v)
    s = wu**phi + wv**phi
    a2 = wv ** (phi - 1.0) * s ** (1.0 / phi - 1.0)
    return np.exp(-(s ** (1.0 / phi))) * a2 / v


def galambos_chat(theta: float, u, v):
    """Galambos (1975) survival copula ``u * v * exp((wu**-theta + wv**-theta)**(-1/theta))``."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    wu, wv = -np.log(u), -np.log(v)
    return u * v * np.exp((wu**-theta + wv**-theta) ** (-1.0 / theta))


def galambos_chat_v(theta: float, u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    wu, wv = -np.log(u), -np.log(v)
    s = wu**-theta + wv**-theta
    a2 = 1.0 - s ** (-1.0 / theta - 1.0) * wv ** (-theta - 1.0)
    return galambos_chat(theta, u, v) * a2 / v


def log_interaction_chat(sigma: float, u, v):
    """Log-interaction survival copula ``u * v * exp(-sigma * log u * log v)``."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return u * v * np.exp(-sigma * np.log(u) * np.log(v))


def log_interaction_chat_v(sigma: float, u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    lu = np.log(u)
    return u * np.exp(-sigma * lu * np.log(v)) * (1.0 - sigma * lu)


def chat_funcs(family: str, phi: float = 1.0):
    """Return (chat, chat_v) callables for a named survival copula.

    ``phi`` is the family parameter: the Gumbel exponent, the Galambos
    ``theta``, or the log-interaction strength.
    """
    if family == "independence" or (family == "gumbel" and phi == 1.0):
        return (lambda u, v: u * v, lambda u, v: u * np.ones_like(np.asarray(v, dtype=float)))
    if family == "gumbel":
        return (lambda u, v: gumbel_chat(phi, u, v), lambda u, v: gumbel_chat_v(phi, u, v))
    if family == "galambos":
        return (lambda u, v: galambos_chat(phi, u, v), lambda u, v: galambos_chat_v(phi, u, v))
    if family == "log-interaction":
        return (
            lambda u, v: log_interaction_chat(phi, u, v),
            lambda u, v: log_interaction_chat_v(phi, u, v),
        )
    if family == "comonotone":
        return (
            lambda u, v: np.minimum(u, v),
            lambda u, v: (np.asarray(v, dtype=float) < np.asarray(u, dtype=float)).astype(float),
        )
    raise ValueError(family)


# ---------------------------------------------------------------------------
# Exact Pr(X+Y>t) via a one-dimensional integral identity
# ---------------------------------------------------------------------------
#
# For exchangeable (X, Y) with common marginal F and symmetric survival
# copula Chat (Pr(X>x, Y>y) = Chat(sf(x), sf(y)), Pr(X>x | Y=y) =
# Chat_v(sf(x), sf(y))):
#
#   Pr(X+Y>t) = 2 sf(t) - 2 Chat(sf(t), sf(t/2)) + Chat(sf(t/2), sf(t/2))
#               + 2 M(t),
#   M(t) = int_0^{t/2} [Chat_v(sf(t-y), sf(y)) - Chat_v(sf(t), sf(y))] dF(y).
#
# Derivation: partition {X+Y>t} into {Y<=t/2}, {X<=t/2} and {X>t/2, Y>t/2};
# the first two have equal probability int_0^{t/2} Chat_v(sf(t-y), sf(y)) dF(y)
# and the frozen-u part integrates in closed form to sf(t) - Chat(sf(t), sf(t/2)).
# Sanity anchors: comonotone -> sf(t/2) exactly (M=0); independence -> classical
# convolution split.


def exact_sum_tail(alpha: float, scale: float, family: str, phi: float, t: float) -> float:
    chat, chat_v = chat_funcs(family, phi)
    sf_t = float(pareto_sf(alpha, scale, t))
    sf_h = float(pareto_sf(alpha, scale, t / 2.0))

    def integrand(y):
        sy = pareto_sf(alpha, scale, y)
        inner = chat_v(pareto_sf(alpha, scale, t - y), sy) - chat_v(sf_t, sy)
        return inner * pareto_density(alpha, scale, y)

    m_val = 0.0
    # split keeps the adaptive rule honest near both endpoints
    for lo, hi in ((0.0, t / 4.0), (t / 4.0, t / 2.0)):
        part, _ = integrate.quad(integrand, lo, hi, epsabs=1e-16, epsrel=1e-11, limit=500)
        m_val += part
    return 2.0 * sf_t - 2.0 * float(chat(sf_t, sf_h)) + float(chat(sf_h, sf_h)) + 2.0 * m_val


def exact_sum_var(alpha: float, scale: float, family: str, phi: float, q: float) -> float:
    target = 1.0 - q
    lo = float(pareto_quantile(alpha, scale, q))
    hi = 4.0 * float(pareto_quantile(alpha, scale, 1.0 - target / 4.0)) + 4.0 * scale
    return optimize.brentq(
        lambda t: exact_sum_tail(alpha, scale, family, phi, t) - target,
        lo,
        hi,
        xtol=1e-9 * max(1.0, lo),
        rtol=1e-12,
    )


def independent_half_sum_var(scale: float, q: float) -> float:
    """VaR_q(X + Y) for independent Pareto risks with alpha = 1/2, in closed form.

    With ``u = 1 + y/scale``, ``s = 2 + t/scale`` the convolution is
    ``int (s-u)**-0.5 * u**-1.5 du / 2 = -sqrt(s-u) / (s*sqrt(u))``, so
    ``P(X + Y > t) = 2*sqrt(1 + t/scale) / (2 + t/scale)``. Solving for
    ``w = sqrt(1 + t/scale)`` at level ``p = 1 - q`` gives
    ``w = (1 + sqrt(1 - p**2)) / p``.
    """
    p = 1.0 - q
    w = (1.0 + math.sqrt((1.0 - p) * (1.0 + p))) / p
    return scale * (w * w - 1.0)


# ---------------------------------------------------------------------------
# Brute-force midpoint oracles
# ---------------------------------------------------------------------------

def midpoint_integral_I(alpha: float, beta: float, panels: int = 10_000_000) -> float:
    """beta * int_0^{1/2} ((1-y)^-alpha - 1) y^(-beta-1) dy by midpoint rule.

    Uses the substitution y = z**(1/(1-beta)) that removes the endpoint
    singularity; the transformed integrand is beta*p*((1-y)^-alpha - 1)/y
    with p = 1/(1-beta), bounded near 0 (limit alpha*beta*p).
    """
    if beta == 0.0:
        return 0.0
    p = 1.0 / (1.0 - beta)
    zmax = 0.5 ** (1.0 - beta)
    width = zmax / panels
    total = 0.0
    chunk = 1_000_000
    for start in range(0, panels, chunk):
        stop = min(start + chunk, panels)
        z = (np.arange(start, stop, dtype=float) + 0.5) * width
        y = z**p
        g_over_y = np.where(
            y < 1e-12, alpha, np.expm1(-alpha * np.log1p(-y)) / np.where(y < 1e-12, 1.0, y)
        )
        total += float(np.sum(g_over_y))
    return beta * p * total * width


def series_integral_I_2_half(terms: int = 200) -> float:
    """I(2, 0.5) via termwise integration of (1-y)^-2 - 1 = sum (k+1) y^k."""
    beta = 0.5
    acc = 0.0
    for k in range(1, terms + 1):
        acc += (k + 1) * 0.5 ** (k - beta) / (k - beta)
    return beta * acc
