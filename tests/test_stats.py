"""Statistics helper tests (Tukey filtering mirrors the paper's method)."""

import pytest
from hypothesis import given, strategies as st

from repro import stats


class TestPercentile:
    def test_median_odd(self):
        assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_median_even_interpolates(self):
        assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)

    def test_extremes(self):
        data = [5.0, 1.0, 9.0]
        assert stats.percentile(data, 0) == 1.0
        assert stats.percentile(data, 100) == 9.0

    def test_single_sample(self):
        assert stats.percentile([7.0], 99) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            stats.percentile([], 50)

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError):
            stats.percentile([1.0], 101)

    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=50),
           st.floats(min_value=0, max_value=100))
    def test_within_bounds(self, data, q):
        result = stats.percentile(data, q)
        assert min(data) <= result <= max(data)


class TestTukey:
    def test_keeps_clean_data(self):
        data = [10.0, 11.0, 12.0, 13.0, 14.0]
        assert stats.tukey_filter(data) == data

    def test_drops_outlier(self):
        data = [10.0, 11.0, 12.0, 13.0, 1000.0]
        filtered = stats.tukey_filter(data)
        assert 1000.0 not in filtered
        assert len(filtered) == 4

    def test_small_samples_untouched(self):
        assert stats.tukey_filter([1.0, 100.0]) == [1.0, 100.0]

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=4, max_size=100))
    def test_subset_property(self, data):
        filtered = stats.tukey_filter(data)
        assert all(x in data for x in filtered)
        assert len(filtered) <= len(data)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=4, max_size=100))
    def test_idempotent_on_uniform(self, data):
        uniform = [data[0]] * len(data)
        assert stats.tukey_filter(uniform) == uniform


class TestAggregates:
    def test_mean(self):
        assert stats.mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            stats.mean([])

    def test_harmonic_mean_known(self):
        assert stats.harmonic_mean([1.0, 2.0]) == pytest.approx(4.0 / 3.0)

    def test_harmonic_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            stats.harmonic_mean([1.0, 0.0])

    def test_harmonic_le_arithmetic(self):
        data = [1.0, 5.0, 10.0]
        assert stats.harmonic_mean(data) <= stats.mean(data)
