"""Unit conversions anchored to the paper's experimental testbed.

All simulated measurements in this repository are taken in *cycles* on a
virtual clock (:mod:`repro.hw.clock`).  The paper reports some results in
cycles (Table 1, Figures 2-4) and others in microseconds or milliseconds
(Table 2, Figures 11-15).  Conversions use the clock frequency of the
paper's primary machine, *tinker* (AMD EPYC 7281 @ 2.69 GHz).
"""

from __future__ import annotations

#: Clock frequency of the paper's ``tinker`` testbed, in Hz.
TINKER_HZ = 2_690_000_000

#: Cycles per microsecond on tinker.
CYCLES_PER_US = TINKER_HZ / 1_000_000  # 2690.0


def cycles_to_us(cycles: float) -> float:
    """Convert a cycle count to microseconds at tinker's clock rate."""
    return cycles / CYCLES_PER_US


def cycles_to_ms(cycles: float) -> float:
    """Convert a cycle count to milliseconds at tinker's clock rate."""
    return cycles / (CYCLES_PER_US * 1000.0)


def cycles_to_seconds(cycles: float) -> float:
    """Convert a cycle count to seconds at tinker's clock rate."""
    return cycles / TINKER_HZ


def us_to_cycles(us: float) -> int:
    """Convert microseconds to a cycle count at tinker's clock rate."""
    return int(round(us * CYCLES_PER_US))


def gb_per_s_to_cycles_per_byte(gb_per_s: float) -> float:
    """Convert a memory bandwidth into a per-byte cycle cost.

    The paper measures tinker's ``memcpy`` bandwidth at 6.7 GB/s (Section
    6.2), which is the cost model used for snapshot copies.
    """
    bytes_per_second = gb_per_s * 1e9
    return TINKER_HZ / bytes_per_second
