"""divisorlab: exact, desk-scale verification of averaged divisor-sum behavior.

Squarefree-restricted divisor sums of multiplicative prime weights, their
small-divisor ratios and prime-split decompositions, Euler-product
constants and main-term predictors, an ordered k-fold factorization
census, and trend-style experiments over doubling ranges -- all grounded
in exact integer class counts from a shared sieve.
"""

from .census import (
    CensusRecord,
    CensusSummary,
    census_sample,
    census_sample_synthetic,
)
from .divisor_sums import (
    AbcdDecomposition,
    ClassCounts,
    RatioReport,
    abcd,
    abcd_from_counts,
    counts_for_split,
    full_class_counts,
    h_series,
    h_series_cumulative,
    integer_kth_root,
    ratio,
    ratio_from_counts,
    s_full,
    s_small,
    small_class_counts,
    weighted_total,
)
from .errors import (
    ConfigurationError,
    DomainError,
    InsufficientPopulationError,
    RangeError,
)
from .euler import (
    ZETA2,
    WEIGHT_ERROR_THRESHOLD,
    EulerConstant,
    f0,
    f1,
    gamma_fn,
    gaussian_window,
    predict_s_full,
    predict_s_small,
    selberg_exact,
)
from .experiments import (
    TrendReport,
    erdos_kac_distance,
    erdos_kac_histogram,
    gamma_lemma_check,
    monotonicity_scan,
    prop32_scan,
    ratio_convergence,
    selberg_trend,
)
from .sieve import (
    SieveTables,
    build_sieve,
    distinct_primes,
    omega_class_counts,
)
from .weights import PrimeWeight

__version__ = "0.1.0"

__all__ = [
    "AbcdDecomposition",
    "CensusRecord",
    "CensusSummary",
    "ClassCounts",
    "ConfigurationError",
    "DomainError",
    "EulerConstant",
    "InsufficientPopulationError",
    "PrimeWeight",
    "RangeError",
    "RatioReport",
    "SieveTables",
    "TrendReport",
    "WEIGHT_ERROR_THRESHOLD",
    "ZETA2",
    "abcd",
    "abcd_from_counts",
    "build_sieve",
    "census_sample",
    "census_sample_synthetic",
    "counts_for_split",
    "distinct_primes",
    "erdos_kac_distance",
    "erdos_kac_histogram",
    "f0",
    "f1",
    "full_class_counts",
    "gamma_fn",
    "gamma_lemma_check",
    "gaussian_window",
    "h_series",
    "h_series_cumulative",
    "integer_kth_root",
    "monotonicity_scan",
    "omega_class_counts",
    "predict_s_full",
    "predict_s_small",
    "prop32_scan",
    "ratio",
    "ratio_convergence",
    "ratio_from_counts",
    "s_full",
    "s_small",
    "selberg_exact",
    "selberg_trend",
    "small_class_counts",
    "weighted_total",
]
