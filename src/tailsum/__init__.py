"""Asymptotic tail and quantile expansions for sums of dependent heavy-tailed risks.

The package computes first- plus second-order expansions of the exceedance
probability and the quantile of ``X + Y`` when both risks are Pareto with a
common tail index and their dependence is an extreme-value copula
(independence and Gumbel among them) or user-supplied tail traits. A
seedable, chunked Monte Carlo sampler provides the reference every expansion
can be compared against, and a hypothesis checker measures how fast a copula
approaches the scaling behaviour the expansions assume.
"""

from .asymptotics import (
    CaseLabel,
    Expansion,
    ExpansionTerm,
    InversionDiagnostic,
    VarExpansion,
    classify_case,
    delta_correction,
    eta_limit,
    integral_I,
    power_term_coefficient,
    tailprob_expansion_ev,
    tailprob_expansion_general,
    var_expansion_ev,
    var_from_tailprob_inversion,
)
from .copulas import (
    AssumptionReport,
    CheckResult,
    PartialLimitTraits,
    PickandsEV,
    SurvivalCopula,
    TailOrderTraits,
    check_assumptions,
    comonotone_pickands,
    estimate_corner_slope,
    ev_chat,
    ev_chat_v,
    gumbel_log_refined_traits,
    gumbel_pickands,
    independence_pickands,
    make_survival_copula,
    partial_limit_traits,
    tail_order_traits,
    trial_tail_order_traits,
)
from .errors import (
    AmbiguousBranchError,
    BoundaryCaseError,
    ConfigError,
    DivergentIntegralError,
    DomainError,
    TailsumError,
    UnsupportedFamilyError,
)
from .marginals import ParetoMarginal, SecondOrderTail
from .montecarlo import (
    MCEstimate,
    SamplePairs,
    SimulationConfig,
    empirical_tailprob,
    empirical_var,
    sample_pairs,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "TailsumError",
    "DomainError",
    "ConfigError",
    "BoundaryCaseError",
    "DivergentIntegralError",
    "UnsupportedFamilyError",
    "AmbiguousBranchError",
    # marginals
    "ParetoMarginal",
    "SecondOrderTail",
    # copulas
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
    "partial_limit_traits",
    "trial_tail_order_traits",
    "gumbel_log_refined_traits",
    "estimate_corner_slope",
    "check_assumptions",
    # asymptotics
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
    "tailprob_expansion_general",
    "var_expansion_ev",
    "var_from_tailprob_inversion",
    # monte carlo
    "SimulationConfig",
    "SamplePairs",
    "MCEstimate",
    "sample_pairs",
    "empirical_tailprob",
    "empirical_var",
]
