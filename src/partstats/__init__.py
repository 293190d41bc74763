"""Exact arithmetic for set-partition statistics.

The package covers the full pipeline: canonical set-partition coding and
enumeration, pattern-defined statistics with exact rational weights,
polynomial-time distribution/moment recursions for the two tensor-algebra
exponents, exact fitting of aggregates as shifted Bell polynomials, and
saddle-point asymptotics for very large n.
"""

from .asymptotics import (
    alpha,
    bell_ratio,
    dim_moment_asym,
    int_moment_asym,
    log_bell_asym,
    log_bell_exact,
)
from .exactnum import bell, bell_mod, bell_mod_table, stirling2
from .partitions import (
    MarkedSetPartition,
    PartitionError,
    SetPartition,
    enumerate_partitions,
    from_blocks,
    iter_rgs,
    marked_enumerate,
    parse_partition,
)
from .recursions import (
    dim_distribution,
    dim_moments,
    dim_moments_range,
    dim_table,
    int_distribution,
    int_moments,
    int_moments_range,
    int_table,
)
from .shifted_bell import (
    DomainError,
    FitError,
    FitProfile,
    ShiftedBellPolynomial,
    default_sample_points,
    fit,
    profile_dim,
    profile_generic,
    profile_int,
)
from .statistics import (
    Pattern,
    Statistic,
    StatisticError,
    WeightPolynomial,
    aggregate,
    aggregate_range,
    builtin,
    merge_product,
    occurrences,
    parse_pattern,
    pattern_from_dict,
)

__version__ = "1.0.0"

__all__ = [
    "DomainError",
    "FitError",
    "FitProfile",
    "MarkedSetPartition",
    "Pattern",
    "PartitionError",
    "SetPartition",
    "ShiftedBellPolynomial",
    "Statistic",
    "StatisticError",
    "WeightPolynomial",
    "aggregate",
    "aggregate_range",
    "alpha",
    "bell",
    "bell_mod",
    "bell_mod_table",
    "bell_ratio",
    "builtin",
    "default_sample_points",
    "dim_distribution",
    "dim_moment_asym",
    "dim_moments",
    "dim_moments_range",
    "dim_table",
    "enumerate_partitions",
    "fit",
    "from_blocks",
    "int_distribution",
    "int_moment_asym",
    "int_moments",
    "int_moments_range",
    "int_table",
    "iter_rgs",
    "log_bell_asym",
    "log_bell_exact",
    "marked_enumerate",
    "merge_product",
    "occurrences",
    "parse_partition",
    "parse_pattern",
    "pattern_from_dict",
    "profile_dim",
    "profile_generic",
    "profile_int",
    "stirling2",
]
