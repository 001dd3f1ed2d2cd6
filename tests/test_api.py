"""The public surface of the package, pinned name by name.

The enumerations and references that only tests compare against live in
loop_oracles, not here; adding or removing a public name means editing
this list.
"""

import divisorlab

PUBLIC = [
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


def test_public_names_are_pinned_and_resolve():
    assert sorted(divisorlab.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(divisorlab, name) is not None
