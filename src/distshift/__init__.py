"""Distributional shift and comparison measures for discrete frequency
distributions, with feasible-set enumeration, sampling, and Monte Carlo
correlation experiments."""

from .distributions import (
    DistributionError,
    FrequencyDistribution,
    ParseError,
    ValidationError,
    parse_distributions,
)
from .experiments import (
    CorrelationTable,
    ExperimentConfig,
    RegressionSummary,
    UndefinedMeasureError,
    export_fork_data,
    fit_through_origin,
    run_experiment,
    sample_poisson_distribution,
)
from .feasible import (
    CapExceededError,
    CollisionRecord,
    UniquenessReport,
    audit_uniqueness,
    audit_uniqueness_default,
    cardinality,
    enumerate_members,
    sample_uniform,
)
from .measures import (
    MEASURE_NAMES,
    MeasureReport,
    chi_square_distance,
    compare_all,
    emd,
    histogram_non_intersection,
    kl_divergence,
    ks_distance,
    rps,
)
from .shift import (
    ShiftValue,
    ds,
    ds_linear,
    ds_with_exponent,
    rds,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "CollisionRecord",
    "CorrelationTable",
    "DistributionError",
    "ExperimentConfig",
    "FrequencyDistribution",
    "MEASURE_NAMES",
    "MeasureReport",
    "ParseError",
    "RegressionSummary",
    "ShiftValue",
    "UndefinedMeasureError",
    "UniquenessReport",
    "ValidationError",
    "audit_uniqueness",
    "audit_uniqueness_default",
    "cardinality",
    "chi_square_distance",
    "compare_all",
    "ds",
    "ds_linear",
    "ds_with_exponent",
    "emd",
    "enumerate_members",
    "export_fork_data",
    "fit_through_origin",
    "histogram_non_intersection",
    "kl_divergence",
    "ks_distance",
    "parse_distributions",
    "rds",
    "rps",
    "run_experiment",
    "sample_poisson_distribution",
    "sample_uniform",
]
