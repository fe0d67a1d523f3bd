"""Order statistics shared by the run and comparison scripts."""

from __future__ import annotations

import math
import statistics


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else math.inf


def tail_percentile(values):
    """The highest whole percentile with at least ten samples beyond it.

    Returns (percentile, value) by nearest rank, or None below 11 samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    percentile = (100 * (n - 10)) // n
    rank = max(1, math.ceil(percentile * n / 100))
    return percentile, ordered[rank - 1]
