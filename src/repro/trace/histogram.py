"""Fixed log-spaced latency histograms over simulated cycles.

The paper reports latency distributions (Figure 13's HTTP percentiles,
Figure 15's serverless latencies); a :class:`CycleHistogram` gives every
traced phase the same treatment.  Buckets are powers of two -- fixed and
index-computable (``value.bit_length()``), so two histograms built
anywhere share bucket boundaries and the whole structure is
deterministic: no adaptive resizing, no data-dependent boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Bucket count: bucket ``i`` holds values with ``bit_length() == i``,
#: i.e. ``[2**(i-1), 2**i)`` (bucket 0 holds exactly 0).  64 buckets
#: cover every cycle count a 64-bit counter can express.
BUCKETS = 64


@dataclass
class CycleHistogram:
    """A mergeable power-of-two-bucketed histogram of cycle latencies."""

    counts: list[int] = field(default_factory=lambda: [0] * BUCKETS)
    count: int = 0
    total: int = 0
    min_value: int | None = None
    max_value: int | None = None

    def record(self, cycles: int) -> None:
        """Add one observation (non-negative simulated cycles)."""
        if cycles < 0:
            raise ValueError(f"cannot record a negative latency: {cycles}")
        index = min(int(cycles).bit_length(), BUCKETS - 1)
        self.counts[index] += 1
        self.count += 1
        self.total += int(cycles)
        if self.min_value is None or cycles < self.min_value:
            self.min_value = int(cycles)
        if self.max_value is None or cycles > self.max_value:
            self.max_value = int(cycles)

    # -- statistics ----------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> int:
        """The upper bound of the bucket holding the ``p``-th percentile.

        Deterministic by construction (integer bucket walk, no
        interpolation); clamped to the exact observed max so p100 -- and
        any percentile landing in the top occupied bucket -- never
        overstates the tail.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile out of range: {p}")
        if self.count == 0:
            return 0
        rank = max(1, -(-self.count * p // 100))  # ceil without float error
        seen = 0
        for index, n in enumerate(self.counts):
            seen += n
            if seen >= rank:
                upper = 0 if index == 0 else (1 << index) - 1
                return min(upper, self.max_value or 0)
        return self.max_value or 0  # pragma: no cover - rank <= count

    @property
    def p50(self) -> int:
        return self.percentile(50.0)

    @property
    def p90(self) -> int:
        return self.percentile(90.0)

    @property
    def p99(self) -> int:
        return self.percentile(99.0)

    def summary(self) -> str:
        """One line: count, mean, p50/p90/p99, max (cycles)."""
        if self.count == 0:
            return "n=0"
        return (f"n={self.count} mean={self.mean:,.0f} p50={self.p50:,} "
                f"p90={self.p90:,} p99={self.p99:,} max={self.max_value:,}")
