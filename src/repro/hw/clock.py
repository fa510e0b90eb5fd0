"""The virtual cycle clock.

Every latency reported by the benchmarks is measured on an instance of
:class:`Clock` -- wall-clock time is never used.  The clock is a plain
monotonically-increasing cycle counter; components advance it as they
charge costs from :mod:`repro.hw.costs`.

Charging rule: a cost that is a non-negative ``int`` by construction --
an ``int`` field of the validated :class:`~repro.hw.costs.CostModel`, a
sum of them priced once, ``costs.memcpy(n)``, a difference of two clock
readings -- is added to :attr:`Clock.cycles` directly
(``clock.cycles += cost``), as compiled guest code does.  Every other
charge goes through :meth:`Clock.advance`, which rejects a negative
amount and truncates a fractional one.

:class:`Region` provides the ``rdtsc``-style bracketing the paper uses:
read the counter, run the work, read it again.

For SMP scale-out (Figure 9/10) every simulated core owns a
:class:`SimClock`; a :class:`LockstepScheduler` interleaves the cores
deterministically -- the least-advanced core always runs next, ties
broken by a seeded round-robin rotation -- so the same seed replays the
identical interleaving, steal pattern, and per-core cycle totals.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.faults import NO_FAULTS
from repro.replay.stream import NO_RECORD
from repro.telemetry.registry import NO_TELEMETRY
from repro.trace.tracer import NO_TRACE


class Clock:
    """A monotonically-increasing virtual cycle counter; it also holds
    its clock domain's side channels."""

    __slots__ = ("cycles", "tracer", "recorder", "telemetry", "fault_plan")

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ValueError("clock cannot start at a negative cycle")
        #: Current cycle count, always an ``int``.  A plain slot, so
        #: reading the clock is an attribute load.  It only moves
        #: forward: by :meth:`advance`, or by a direct add of a cost that
        #: is a non-negative ``int`` by construction (the module's
        #: charging rule).
        self.cycles = start
        #: The domain's side channels: the shared nulls until the plane
        #: that owns this clock installs its own (``HostedPlane``).
        self.tracer, self.recorder = NO_TRACE, NO_RECORD
        self.telemetry, self.fault_plan = NO_TELEMETRY, NO_FAULTS

    def advance(self, cycles: float) -> None:
        """Advance the clock by ``cycles`` (must be non-negative)."""
        if cycles < 0:
            raise ValueError(f"cannot advance clock by {cycles} cycles")
        self.cycles += int(cycles)

    def region(self) -> "Region":
        """Open a measurement region starting now."""
        return Region(clock=self, start=self.cycles)

    def __repr__(self) -> str:
        return f"Clock(cycles={self.cycles})"


class SimClock(Clock):
    """A per-core cycle counter for the lockstep SMP plane.

    Identical to :class:`Clock` on the hot path (``advance`` is
    inherited untouched, so the fast-path engine's captured bound
    methods stay monomorphic); it only adds the core identity the
    scheduler and the per-core trace export key on.
    """

    __slots__ = ("core_id",)

    def __init__(self, core_id: int, start: int = 0) -> None:
        if core_id < 0:
            raise ValueError(f"core id cannot be negative: {core_id}")
        super().__init__(start)
        self.core_id = core_id

    def __repr__(self) -> str:
        return f"SimClock(core={self.core_id}, cycles={self.cycles})"


class LockstepScheduler:
    """Deterministic round-robin interleaver over per-core run queues.

    Each core has a :class:`SimClock` and a FIFO of tasks -- callables
    invoked as ``task(core_id)`` with the id of the core that actually
    runs them (which, under stealing, need not be where they were
    submitted), advancing that core's clock as they run.  One
    scheduling round picks the *least-advanced* runnable core -- ties
    broken by a rotation seeded from ``seed`` -- and lets it run tasks
    until it is more than ``quantum`` cycles ahead of the laggard or its
    queue drains.  A core whose queue is empty steals from the back of
    the deepest sibling queue (ties again broken by the rotation), so a
    skewed initial placement still finishes near the balanced makespan.

    Determinism contract: the interleaving is a pure function of
    ``(seed, quantum, submission order, task behaviour)``.  Nothing here
    reads wall-clock time or iterates an unordered container.
    """

    def __init__(self, cores: int, quantum: int = 100_000, seed: int = 0) -> None:
        if cores <= 0:
            raise ValueError(f"need at least one core, got {cores}")
        if quantum <= 0:
            raise ValueError(f"quantum must be positive: {quantum}")
        self.cores = cores
        self.quantum = quantum
        self.seed = seed
        self.clocks: list[SimClock] = [SimClock(i) for i in range(cores)]
        self._queues: list[deque[Callable[[int], None]]] = [deque() for _ in range(cores)]
        #: Rotation pointer for tie-breaks; advanced every pick so equal
        #: clocks (the common case at start) spread across cores.
        self._rotation = seed % cores
        self.steals = 0
        self.tasks_run = [0] * cores
        self.rounds = 0

    # -- submission ----------------------------------------------------------
    def submit(self, core_id: int, task: Callable[[int], None]) -> None:
        """Queue ``task`` on one core's local run queue."""
        self._queues[core_id % self.cores].append(task)

    def submit_round_robin(self, tasks: list[Callable[[int], None]]) -> None:
        """Initial placement: spread ``tasks`` across cores in order."""
        for i, task in enumerate(tasks):
            self._queues[(self.seed + i) % self.cores].append(task)

    def pending(self) -> int:
        return sum(len(q) for q in self._queues)

    # -- scheduling ----------------------------------------------------------
    def _rotated(self) -> list[int]:
        """Core ids starting at the rotation pointer (the tie-break order)."""
        r = self._rotation
        return [(r + i) % self.cores for i in range(self.cores)]

    def _pick_core(self) -> int:
        """The least-advanced core, ties broken by the seeded rotation."""
        order = self._rotated()
        best = min(order, key=lambda c: (self.clocks[c].cycles, order.index(c)))
        self._rotation = (self._rotation + 1) % self.cores
        return best

    def _steal_for(self, thief: int) -> bool:
        """Move one task from the deepest sibling queue onto ``thief``.

        Steals from the *back* of the victim's queue (classic
        work-stealing: the thief takes the work the victim would reach
        last).  Returns False when every sibling is empty.
        """
        order = [c for c in self._rotated() if c != thief]
        victim = max(order, key=lambda c: (len(self._queues[c]), -order.index(c)))
        if not self._queues[victim]:
            return False
        self._queues[thief].append(self._queues[victim].pop())
        self.steals += 1
        return True

    def run(self) -> None:
        """Drain every queue under the lockstep discipline."""
        while self.pending():
            self.rounds += 1
            core = self._pick_core()
            if not self._queues[core] and not self._steal_for(core):
                # This core is starved and there is nothing to steal;
                # some other core still holds work -- let it run.
                continue
            queue = self._queues[core]
            clock = self.clocks[core]
            horizon = self._laggard_cycles() + self.quantum
            while queue and clock.cycles <= horizon:
                task = queue.popleft()
                task(core)
                self.tasks_run[core] += 1

    def _laggard_cycles(self) -> int:
        return min(c.cycles for c in self.clocks)


@dataclass
class Region:
    """An ``rdtsc``-bracketed measurement region.

    Usable as a context manager::

        with clock.region() as r:
            do_work()
        latency = r.elapsed
    """

    clock: Clock
    start: int
    end: int | None = None

    def stop(self) -> int:
        """Close the region and return elapsed cycles."""
        self.end = self.clock.cycles
        return self.elapsed

    @property
    def elapsed(self) -> int:
        """Cycles elapsed between start and end (or now, if still open)."""
        end = self.end if self.end is not None else self.clock.cycles
        return end - self.start

    def __enter__(self) -> "Region":
        self.start = self.clock.cycles
        self.end = None
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


@dataclass
class BackgroundAccountant:
    """Tracks work done off the critical path.

    Wasp's asynchronous shell cleaning ("Wasp+CA" in Figure 8) performs the
    memset of a returned virtine's memory in the background.  Those cycles
    are real work but do not contribute to request latency; they accumulate
    here so experiments can still report total system work.
    """

    cycles: int = 0
    operations: int = field(default=0)

    def charge(self, cycles: float) -> None:
        """Account for ``cycles`` of background work."""
        if cycles < 0:
            raise ValueError(f"cannot charge {cycles} background cycles")
        self.cycles += int(cycles)
        self.operations += 1
