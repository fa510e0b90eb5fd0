"""Deadline and cancellation semantics, identical on every backend.

A launch carrying a cycle deadline dies with a typed VirtineTimeout on
every mechanism; cancellation clamps mid-compute (work is cut off, not
finished on borrowed time); and the timeout -- a blown deadline or a
watchdog kill -- surfaces in the launcher's counters the same way.

The deadline clock starts *inside* the launch (once the context is
provisioned), so the budget below is comfortably larger than any
backend's post-provision overhead yet far smaller than the guest's
attempted compute.
"""

import pytest

from repro.runtime.image import ImageBuilder
from repro.wasp.admission import Watchdog
from repro.wasp.policy import PermissivePolicy
from repro.wasp.virtine import VirtineHang, VirtineTimeout

DEADLINE = 1_000_000


def _spin_entry(env):
    for _ in range(10_000):
        env.charge(100_000)


class TestDeadline:
    def test_blown_deadline_is_typed(self, host):
        image = ImageBuilder().hosted("spinner", _spin_entry)
        with pytest.raises(VirtineTimeout) as excinfo:
            host.launch(image, policy=PermissivePolicy(),
                        deadline_cycles=DEADLINE)
        assert excinfo.value.cycles > 0

    def test_timeout_counted(self, host):
        image = ImageBuilder().hosted("spinner", _spin_entry)
        before = host.timeouts
        with pytest.raises(VirtineTimeout):
            host.launch(image, policy=PermissivePolicy(),
                        deadline_cycles=DEADLINE)
        assert host.timeouts == before + 1

    def test_watchdog_kill_counted(self, host):
        """A guest silent past the watchdog's no-progress threshold dies
        with a typed VirtineHang and counts as a timeout."""
        Watchdog(host, no_progress_cycles=DEADLINE)

        def entry(env):
            env.charge(10 * DEADLINE)

        image = ImageBuilder().hosted("silent", entry)
        before = host.timeouts
        with pytest.raises(VirtineHang):
            host.launch(image, policy=PermissivePolicy())
        assert host.timeouts == before + 1

    def test_cancellation_clamps_mid_compute(self, host):
        """The charge that blows the deadline consumes only the budget
        remaining, never the full charge: the launch costs about one
        deadline more than a trivial launch, nowhere near the 50M the
        guest asked for."""
        trivial = ImageBuilder().hosted("trivial", lambda env: 0)
        start = host.clock.cycles
        host.launch(trivial, policy=PermissivePolicy())
        baseline = host.clock.cycles - start

        def entry(env):
            env.charge(50_000_000)

        image = ImageBuilder().hosted("one-big-charge", entry)
        start = host.clock.cycles
        with pytest.raises(VirtineTimeout):
            host.launch(image, policy=PermissivePolicy(),
                        deadline_cycles=DEADLINE)
        elapsed = host.clock.cycles - start
        # Budget + crash-cleanup overhead, with slack for the scrub --
        # but never the full 50M compute.
        assert elapsed < baseline + DEADLINE + 10_000_000

    def test_work_not_finished_on_borrowed_time(self, host):
        """Side effects sequenced after the fatal charge never happen."""
        progress = []

        def entry(env):
            env.charge(50_000)
            progress.append("first")
            env.charge(50_000_000)
            progress.append("after-the-deadline")

        image = ImageBuilder().hosted("progress", entry)
        with pytest.raises(VirtineTimeout):
            host.launch(image, policy=PermissivePolicy(),
                        deadline_cycles=DEADLINE)
        assert progress == ["first"]

    def test_no_deadline_no_timeout(self, host):
        def entry(env):
            env.charge(5_000_000)
            return "done"

        image = ImageBuilder().hosted("unbounded", entry)
        assert host.launch(image, policy=PermissivePolicy()).value == "done"
