"""Unit-conversion tests (everything anchors to tinker's 2.69 GHz)."""

import pytest
from hypothesis import given, strategies as st

from repro import units


def test_tinker_frequency():
    assert units.TINKER_HZ == 2_690_000_000
    assert units.CYCLES_PER_US == 2690.0


def test_cycles_to_us():
    assert units.cycles_to_us(2690) == pytest.approx(1.0)
    assert units.cycles_to_us(0) == 0.0


def test_cycles_to_ms():
    assert units.cycles_to_ms(2_690_000) == pytest.approx(1.0)


def test_cycles_to_seconds():
    assert units.cycles_to_seconds(units.TINKER_HZ) == pytest.approx(1.0)


def test_us_to_cycles():
    assert units.us_to_cycles(1.0) == 2690
    assert units.us_to_cycles(100.0) == 269_000


def test_memcpy_bandwidth_constant():
    # 6.7 GB/s on a 2.69 GHz part is ~0.4 cycles per byte (Section 6.2).
    cyc_per_byte = units.gb_per_s_to_cycles_per_byte(6.7)
    assert cyc_per_byte == pytest.approx(0.4015, rel=1e-3)


def test_memcpy_16mb_matches_paper():
    # Figure 12: a 16 MB image costs ~2.3 ms, "roughly 6.8 GB/s".
    cyc = 16 * 1024 * 1024 * units.gb_per_s_to_cycles_per_byte(6.7)
    assert units.cycles_to_ms(cyc) == pytest.approx(2.5, abs=0.3)


@given(st.integers(min_value=0, max_value=10**12))
def test_roundtrip_us(cycles):
    us = units.cycles_to_us(cycles)
    assert units.us_to_cycles(us) == pytest.approx(cycles, abs=1)


@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_us_cycles_monotone(us):
    assert units.us_to_cycles(us) >= 0
