"""The benchmark's own arithmetic: percentiles, SLO shares, medians.

Kept free of the ``repro`` package so it can be tested on its own.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

#: A percentile is reported only when at least this many samples lie
#: beyond it (above it, for the upper percentiles used here).
MIN_TAIL_SAMPLES = 10


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the ``q``-th percentile."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    return count - math.ceil(count * q / 100.0)


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile, or None when the sample cannot support it.

    Linear interpolation between order statistics (NumPy's default).
    None is returned when fewer than :data:`MIN_TAIL_SAMPLES` samples lie
    beyond the percentile, so a tail is never read off a handful of
    points.
    """
    values = np.asarray(samples, dtype=np.float64)
    if values.size == 0 or samples_beyond(values.size, q) < MIN_TAIL_SAMPLES:
        return None
    return float(np.percentile(values, q))


def slo_share(latencies: Sequence[float], failed: Sequence[bool],
              limit: float) -> float:
    """Share of requests sent that succeeded within ``limit``.

    A failed request misses the limit whatever its latency.
    """
    lat = np.asarray(latencies, dtype=np.float64)
    bad = np.asarray(failed, dtype=bool)
    if lat.shape != bad.shape:
        raise ValueError("latencies and failure flags differ in length")
    if lat.size == 0:
        raise ValueError("no requests were sent")
    return float(np.count_nonzero((lat <= limit) & ~bad) / lat.size)


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if len(values) == 0:
        raise ValueError("median of an empty sample")
    return float(np.median(np.asarray(values, dtype=np.float64)))


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance over the median (0 for a constant sample)."""
    import statistics
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else float("inf")
