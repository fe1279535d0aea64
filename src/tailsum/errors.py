"""Exception hierarchy for the tailsum package.

Every error raised by the library derives from :class:`TailsumError`, so
callers can catch one base type. The command-line interface exits with
code 2 on each of them: :class:`ConfigError`, :class:`DomainError`,
:class:`UnsupportedFamilyError` and :class:`DivergentIntegralError`, a
:class:`DomainError` that only :func:`~tailsum.asymptotics.integral_I`
raises. A model on a case boundary is no error: the expansions classify it
and attach a warning.
"""

from __future__ import annotations

__all__ = [
    "TailsumError",
    "DomainError",
    "ConfigError",
    "DivergentIntegralError",
    "UnsupportedFamilyError",
]


class TailsumError(Exception):
    """Base class for all errors raised by tailsum."""


class DomainError(TailsumError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(TailsumError):
    """A configuration file or command-line option is invalid."""


class DivergentIntegralError(DomainError):
    """A requested integral diverges for the given exponents."""


class UnsupportedFamilyError(TailsumError):
    """A copula family name is not recognised by the requested operation."""
