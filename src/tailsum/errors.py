"""Exception hierarchy for the tailsum package.

Every error raised by the library derives from :class:`TailsumError`, so
callers can catch one base type. The command-line interface exits with
code 3 on a :class:`BoundaryCaseError` and with code 2 on the others:
:class:`ConfigError`, :class:`DomainError`, :class:`UnsupportedFamilyError`
and :class:`DivergentIntegralError`, a :class:`DomainError` that only
:func:`~tailsum.asymptotics.integral_I` raises.
"""

from __future__ import annotations

__all__ = [
    "TailsumError",
    "DomainError",
    "ConfigError",
    "BoundaryCaseError",
    "DivergentIntegralError",
    "UnsupportedFamilyError",
]


class TailsumError(Exception):
    """Base class for all errors raised by tailsum."""


class DomainError(TailsumError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(TailsumError):
    """A configuration file or command-line option is invalid."""


class BoundaryCaseError(TailsumError):
    """Parameters sit exactly on a case boundary where no expansion applies.

    The dispatch between asymptotic regimes uses strict inequalities; on the
    knife edge (for example a tail index of exactly 1 for a Pareto marginal,
    where the second-order index coincides with the case threshold) the
    second-order constant is not defined and the caller must perturb the
    parameters or fall back to Monte Carlo.
    """


class DivergentIntegralError(DomainError):
    """A requested integral diverges for the given exponents."""


class UnsupportedFamilyError(TailsumError):
    """A copula family name is not recognised by the requested operation."""
