"""Exception hierarchy for the tailsum package.

Every error raised by the library derives from :class:`TailsumError`, so
callers can catch one base type. Subclasses distinguish bad numeric inputs,
bad configuration, analytic boundary cases, and divergent integrals, because
the command-line interface maps them to distinct exit codes.
"""

from __future__ import annotations

__all__ = [
    "TailsumError",
    "DomainError",
    "ConfigError",
    "BoundaryCaseError",
    "DivergentIntegralError",
    "UnsupportedFamilyError",
    "AmbiguousBranchError",
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


class AmbiguousBranchError(TailsumError):
    """Automatic branch selection between the two general tail expansions
    found contradictory evidence; the caller must name a branch explicitly."""
