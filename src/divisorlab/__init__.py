"""divisorlab: exact, desk-scale verification of averaged divisor-sum behavior.

Squarefree-restricted divisor sums of multiplicative prime weights, their
small-divisor ratios and prime-split decompositions, Euler-product
constants and main-term predictors, an ordered k-fold factorization
census, and trend-style experiments over doubling ranges -- all grounded
in exact integer class counts from a shared sieve.
"""

from types import ModuleType as _ModuleType

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

# The public names are the classes, functions and constants imported above;
# the submodules that the imports bind are left out.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
