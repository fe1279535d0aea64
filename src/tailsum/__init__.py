"""Asymptotic tail and quantile expansions for sums of dependent heavy-tailed risks.

The package computes first- plus second-order expansions of the exceedance
probability and the quantile of ``X + Y`` when both risks are Pareto with a
common tail index and their dependence is an extreme-value copula
(independence and Gumbel among them) or user-supplied tail traits. A
seedable, chunked Monte Carlo sampler provides the reference every expansion
can be compared against, and a hypothesis checker measures how fast a copula
approaches the scaling behaviour the expansions assume.

Each module's ``__all__`` is the one list of its public names; the package
exports exactly those names.
"""

from . import asymptotics, copulas, errors, marginals, montecarlo
from .asymptotics import *
from .copulas import *
from .errors import *
from .marginals import *
from .montecarlo import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *marginals.__all__,
    *copulas.__all__,
    *asymptotics.__all__,
    *montecarlo.__all__,
]
