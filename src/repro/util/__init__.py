"""Shared utilities: deterministic RNG, statistics, units, text rendering.

These helpers are the lowest layer of the reproduction — everything above
(`repro.sim`, `repro.core`, `repro.experiments`) depends on them and they
depend on nothing but NumPy.
"""

from repro.util.rng import DEFAULT_SEED, derive_seed, make_rng, spawn
from repro.util.stats import (
    ExponentialMean,
    coefficient_of_variation,
    geometric_mean,
    summarize,
)
from repro.util.tables import (
    format_bar_chart,
    format_heatmap,
    format_series,
    format_table,
)
from repro.util.units import (
    CACHE_LINE_BYTES,
    access_rate_to_gbps,
    gbps_to_access_rate,
    ghz_to_hz,
    hz_to_ghz,
    ms_to_s,
    s_to_ms,
)
from repro.util.validation import (
    check_fraction,
    check_in_range,
    check_non_negative,
    check_positive,
    check_type,
    require,
)

__all__ = [
    "DEFAULT_SEED",
    "derive_seed",
    "make_rng",
    "spawn",
    "ExponentialMean",
    "coefficient_of_variation",
    "geometric_mean",
    "summarize",
    "format_bar_chart",
    "format_heatmap",
    "format_series",
    "format_table",
    "CACHE_LINE_BYTES",
    "access_rate_to_gbps",
    "gbps_to_access_rate",
    "ghz_to_hz",
    "hz_to_ghz",
    "ms_to_s",
    "s_to_ms",
    "check_fraction",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_type",
    "require",
]
