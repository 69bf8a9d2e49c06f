"""Order statistics for latency samples.

Timings are reported as a median plus the highest tail percentile that
still has at least ``MIN_BEYOND`` samples above its rank, so a tail figure
never rests on one or two outliers. Percentiles are nearest-rank and kept
in tenths of a percent so the rank arithmetic is exact.
"""

from __future__ import annotations

MIN_BEYOND = 10
PERMILLES = (999, 990, 900, 500)  # p99.9, p99, p90, p50


def rank(n: int, permille: int) -> int:
    """1-based nearest rank of a percentile among n samples."""
    return max(1, -(-permille * n // 1000))


def beyond(n: int, permille: int) -> int:
    """Number of samples ranked strictly above the percentile."""
    return n - rank(n, permille)


def percentile(sorted_samples, permille: int) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_samples[rank(len(sorted_samples), permille) - 1]


def tail_permille(n: int) -> int | None:
    """Highest percentile in PERMILLES with at least MIN_BEYOND samples
    above it, or None when even the median has fewer."""
    for pm in PERMILLES:
        if beyond(n, pm) >= MIN_BEYOND:
            return pm
    return None


def label(permille: int) -> str:
    """'p99.9', 'p99', 'p50', ..."""
    whole, tenth = divmod(permille, 10)
    return f"p{whole}" if tenth == 0 else f"p{whole}.{tenth}"

