"""Evidential value of three-cell ANOVA-regression summaries.

Screens published studies (per-cell n, three cell means, three cell
standard deviations) for results that are too regular to be credible: the
evidential value V is the likelihood ratio of the observed mean contrast
under a correlated-errors fabrication model versus the independence model,
and multiplies prior odds into posterior odds.
"""

from .engine import (
    Case,
    CombinedEvidence,
    EvidentialValue,
    Mode,
    combine,
    empirical_tail_fraction,
    evidential_value,
    null_tail_probability,
    plugin_density,
    threshold_ratio,
    z_c_statistic,
    z_v_statistic,
)
from .geometry import (
    CorrelationTriple,
    GeometryError,
    VarianceProfile,
    combined_sd,
    contrast,
    elliptope_det,
    exact_infimum_sq,
    is_interior,
    paper_lower_bound_sq,
    variance_profile,
)
from .ledger import (
    LedgerError,
    StudyLedger,
    StudySummary,
    load_ledger,
    parse_ledger,
    parse_ledger_lenient,
    serialize_ledger,
    study_warnings,
    validate,
)
from .simulate import (
    ModelParams,
    ParameterError,
    SimulationReport,
    copy_probabilities,
    generate_errors,
    null_exceedance,
    simulate_study,
)

__version__ = "0.1.0"

__all__ = [
    "Case",
    "CombinedEvidence",
    "CorrelationTriple",
    "EvidentialValue",
    "GeometryError",
    "LedgerError",
    "Mode",
    "ModelParams",
    "ParameterError",
    "SimulationReport",
    "StudyLedger",
    "StudySummary",
    "VarianceProfile",
    "combine",
    "combined_sd",
    "contrast",
    "copy_probabilities",
    "elliptope_det",
    "empirical_tail_fraction",
    "evidential_value",
    "exact_infimum_sq",
    "generate_errors",
    "is_interior",
    "load_ledger",
    "null_exceedance",
    "null_tail_probability",
    "parse_ledger",
    "parse_ledger_lenient",
    "paper_lower_bound_sq",
    "plugin_density",
    "serialize_ledger",
    "simulate_study",
    "study_warnings",
    "threshold_ratio",
    "validate",
    "variance_profile",
    "z_c_statistic",
    "z_v_statistic",
]
