"""The calibrated host clock.

Host speed on a shared machine drifts by tens of percent within seconds
(clock states, busy sibling threads), so raw host time makes a noisy
metric.  Every host-time figure of the benchmark is therefore expressed
in *calibrated* units: the thread CPU time of the measured work divided
by the thread CPU time of a fixed calibration kernel run right before
and right after it, times :data:`REF_KERNEL_S`.

The kernel is the benchmark's own code and never calls the program, so
a faster simulator lowers calibrated times while a faster or slower
host leaves them alone.  It mimics the simulator's three kinds of work:
an interpreter loop over a dict register file, 8-byte loads and stores
at scattered pages of a 4 MB bytearray, and first touches of freshly
mapped pages (what a new guest memory costs the host).  It leaves the
garbage collector's state as it found it, so it never moves the
collector's schedule in the measured work.

Thread CPU time, not wall time, is the base clock: per operation, wall
time also counts the stretches the host deschedules the process (up to
5 ms on a 1 ms operation), which are no cost of the simulator and would
dominate the tail percentile.
"""

from __future__ import annotations

import gc
import mmap
import statistics
import time

#: The calibrated second is defined by this: one kernel run lasts
#: ``REF_KERNEL_S`` calibrated seconds, on any host.
REF_KERNEL_S = 250e-6

now_ns = time.thread_time_ns

_NAMES = ("ax", "bx", "cx", "dx", "si", "di", "bp", "sp")
_REGS = dict.fromkeys(_NAMES, 0)
_PROGRAM = tuple((i % 4, _NAMES[(i * 7) % 8], _NAMES[(i * 3) % 8])
                 for i in range(64))
_MEMORY = bytearray(1 << 22)
_PAGES = {page: page << 12 for page in range(1024)}
_FRESH_PAGES = 16


def kernel() -> int:
    """The fixed calibration work (0.1-0.4 ms on a 2-vCPU cloud VM).

    The collector is off while it runs, so no collection starts inside
    it; everything it allocates is freed before it returns, which
    restores the allocation count.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _work()
    finally:
        if enabled:
            gc.enable()


def _work() -> int:
    regs = _REGS
    for i, name in enumerate(_NAMES):
        regs[name] = i
    acc = 0
    for _ in range(10):
        for op, a, b in _PROGRAM:
            if op == 0:
                regs[a] = (regs[a] + regs[b]) & 0xFFFF
            elif op == 1:
                regs[a] = (regs[a] ^ (regs[b] << 1)) & 0xFFFF
            elif op == 2:
                acc += regs[b]
            else:
                regs[a] = regs[b]
    mem = _MEMORY
    pages = _PAGES
    x = 12345
    for _ in range(70):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        base = pages[x & 1023] + ((x >> 10) & 0xFF8)
        acc += int.from_bytes(mem[base:base + 8], "little")
        mem[base:base + 8] = (acc & 0xFFFFFFFF).to_bytes(8, "little")
    fresh = mmap.mmap(-1, _FRESH_PAGES << 12)
    for offset in range(0, _FRESH_PAGES << 12, 4096):
        fresh[offset] = 1
    fresh.close()
    return acc


def factor(before_ns: int, after_ns: int) -> float:
    """Calibrated seconds per host nanosecond, for work that ran between
    two kernel samples."""
    return 2.0 * REF_KERNEL_S / (before_ns + after_ns)


class Calibration:
    """The kernel samples of one run."""

    def __init__(self) -> None:
        self.samples: list[int] = []

    def sample(self) -> int:
        """Run the kernel once; return (and keep) its thread time in ns."""
        start = now_ns()
        kernel()
        elapsed = now_ns() - start
        self.samples.append(elapsed)
        return elapsed

    def median_ns(self) -> float:
        return statistics.median(self.samples)

    def median_factor(self) -> float:
        """Calibrated seconds per host second at the median kernel time."""
        return REF_KERNEL_S * 1e9 / self.median_ns()


def timed_steps(steps, calibration: Calibration) -> float:
    """Drive a generator of work steps; return their calibrated seconds.

    Each step (the code between two ``yield``\\ s) is bracketed by kernel
    samples, so a long set-up phase is calibrated as finely as an
    operation stream.
    """
    total = 0.0
    before = calibration.sample()
    while True:
        start = now_ns()
        try:
            next(steps)
            done = False
        except StopIteration:
            done = True
        elapsed = now_ns() - start
        after = calibration.sample()
        total += elapsed * factor(before, after)
        before = after
        if done:
            return total
