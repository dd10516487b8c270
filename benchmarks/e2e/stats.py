"""Order statistics with the benchmark's reporting rule.

A timing is reported as its median plus the highest requested percentile
that has at least :data:`MIN_BEYOND` samples above it.  When the sample
is too small for the requested percentile, the highest supported one is
reported instead, together with the sample count, so a "p99" taken over
200 samples can never masquerade as a real tail.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

#: samples that must lie strictly above a reported percentile
MIN_BEYOND = 10


@dataclass(frozen=True, slots=True)
class Percentile:
    """One reported order statistic."""

    value: float
    #: the quantile actually reported (may be below the one requested)
    q: float
    #: sample count it was taken over
    n: int

    def label(self) -> str:
        return f"p{self.q * 100:g} of n={self.n}"


def _rank(n: int, q: float) -> int:
    # the epsilon keeps 0.98 * 500 from rounding up to rank 491
    return min(n, max(1, math.ceil(q * n - 1e-9)))


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending, non-empty list."""
    return sorted_values[_rank(len(sorted_values), q) - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q`` quantile."""
    return n - _rank(n, q)


def supported_quantile(n: int, q: float) -> float:
    """The largest quantile <= ``q`` with :data:`MIN_BEYOND` samples above.

    The median is the floor: it is always reported, however few samples
    there are.
    """
    if n <= 0:
        raise ValueError("no samples")
    if q <= 0.5 or beyond(n, q) >= MIN_BEYOND:
        return q
    best = (n - MIN_BEYOND) / n
    return max(0.5, math.floor(best * 1000) / 1000)


def percentile(samples: list[float], q: float) -> Percentile:
    """Report the ``q`` quantile of ``samples`` under the support rule."""
    values = sorted(samples)
    used = supported_quantile(len(values), q)
    if used == 0.5:
        return Percentile(statistics.median(values), used, len(values))
    return Percentile(nearest_rank(values, used), used, len(values))


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(samples) < 2:
        value = samples[0]
        return value, value, value
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3

