"""Statistics helpers used by the benchmark harnesses.

The paper removes outliers from latency distributions using Tukey's method
(Section 4.2, footnote 3): a sample is kept only if it lies on the interval
``[q1 - 1.5 * IQR, q3 + 1.5 * IQR]``.  The helpers here mirror that, plus
the statistics the figures report (mean, percentiles, harmonic mean for
throughput as in Figure 13).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    if not samples:
        raise ValueError("percentile() of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q={q} out of range [0, 100]")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high or ordered[low] == ordered[high]:
        return ordered[low]
    frac = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * frac


def tukey_filter(samples: Sequence[float], k: float = 1.5) -> list[float]:
    """Drop outliers outside ``[q1 - k*IQR, q3 + k*IQR]`` (Tukey's method).

    This is the filtering the paper applies to the processor-mode latency
    experiment (Figure 3) to remove host-scheduling noise.
    """
    if len(samples) < 4:
        return list(samples)
    q1 = percentile(samples, 25.0)
    q3 = percentile(samples, 75.0)
    iqr = q3 - q1
    lo = q1 - k * iqr
    hi = q3 + k * iqr
    return [s for s in samples if lo <= s <= hi]


def mean(samples: Iterable[float]) -> float:
    """Arithmetic mean."""
    values = list(samples)
    if not values:
        raise ValueError("mean() of empty sequence")
    return sum(values) / len(values)


def harmonic_mean(samples: Sequence[float]) -> float:
    """Harmonic mean, as used for throughput aggregation in Figure 13."""
    values = list(samples)
    if not values:
        raise ValueError("harmonic_mean() of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("harmonic_mean() requires positive samples")
    return len(values) / sum(1.0 / v for v in values)
