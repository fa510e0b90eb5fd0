"""CycleHistogram: bucketing and percentiles."""

import pytest

from repro.trace import BUCKETS, CycleHistogram


class TestRecord:
    def test_bucket_indexing_is_power_of_two(self):
        hist = CycleHistogram()
        for value, bucket in ((0, 0), (1, 1), (2, 2), (3, 2), (4, 3),
                              (1023, 10), (1024, 11)):
            hist.record(value)
            assert hist.counts[bucket] >= 1
        assert hist.count == 7

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CycleHistogram().record(-1)

    def test_huge_values_clamp_to_last_bucket(self):
        hist = CycleHistogram()
        hist.record(1 << 200)
        assert hist.counts[BUCKETS - 1] == 1

    def test_min_max_total(self):
        hist = CycleHistogram()
        for v in (5, 1, 9):
            hist.record(v)
        assert (hist.min_value, hist.max_value, hist.total) == (1, 9, 15)
        assert hist.mean == 5.0


class TestPercentiles:
    def test_empty(self):
        hist = CycleHistogram()
        assert hist.p50 == 0
        assert hist.mean == 0.0
        assert hist.summary() == "n=0"

    def test_single_value_all_percentiles_equal_it(self):
        hist = CycleHistogram()
        hist.record(100)
        assert hist.p50 == hist.p90 == hist.p99 == 100

    def test_percentiles_are_bucket_upper_bounds(self):
        hist = CycleHistogram()
        for v in (1, 2, 4, 8, 1000):
            hist.record(v)
        # rank(50) = 3rd value -> bucket of 4 -> upper bound 7.
        assert hist.p50 == 7
        # The tail percentiles land in the top occupied bucket and are
        # clamped to the exact observed max.
        assert hist.p99 == 1000

    def test_out_of_range_percentile(self):
        with pytest.raises(ValueError):
            CycleHistogram().percentile(101.0)

    def test_determinism(self):
        def build(order):
            hist = CycleHistogram()
            for v in order:
                hist.record(v)
            return hist

        a = build([3, 1000, 17, 4])
        b = build([4, 17, 1000, 3])
        assert a.counts == b.counts
        assert a.summary() == b.summary()

    def test_summary_format(self):
        hist = CycleHistogram()
        hist.record(10_000)
        assert hist.summary() == ("n=1 mean=10,000 p50=10,000 p90=10,000 "
                                  "p99=10,000 max=10,000")
