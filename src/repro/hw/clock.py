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

The clock also holds its domain's four side channels, and
:data:`SITES` says, as data, what each observation site sends them.

For SMP scale-out (Figure 9/10) every simulated core owns a
:class:`SimClock`; a :class:`LockstepScheduler` interleaves the cores
deterministically -- the least-advanced core always runs next, ties
broken by a seeded round-robin rotation -- so the same seed replays the
identical interleaving, steal pattern, and per-core cycle totals.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Callable

from repro.faults import NO_FAULTS
from repro.replay.stream import NO_RECORD
from repro.telemetry.registry import NO_TELEMETRY
from repro.trace.tracer import NO_TRACE, Category


_CHANNEL = {**dict.fromkeys(("component", "instant"), "_tracer"),
            **dict.fromkeys(("devcall", "segment", "milestone"), "_recorder"),
            **dict.fromkeys(("counter", "histogram", "flight"), "_telemetry")}


def _event(op: str, name: str | None = None, key: object = None,
           *fields: str, amount: str | None = None, **fixed: object) -> tuple:
    """One event: the channel call ``op``, its name (a ``str.format``
    template over the attrs; ``None``: the ``name`` attr) and its
    category, metric or flight kind (``None``: the ``category`` attr).  A
    field is the attr of that name or ``"out=attr"``, a keyword a
    constant; a counter counts 1, or the attr ``amount``."""
    fields = tuple(tuple(f.split("=")) if "=" in f else (f, f) for f in fields)
    return _CHANNEL[op], op, name, key, fields, fixed, amount


_span = partial(_event, "component", None)
_mark = partial(_event, "instant")
_count = partial(_event, "counter", None)
_BOOT, _VMM, _GUEST, _SUPERVISION = (
    Category.BOOT, Category.VMM, Category.GUEST, Category.SUPERVISION)
_CYCLES = _count("component_cycles_total", "component=name", amount="cycles")


def _flight(kind: str, name: str, *detail: str) -> tuple:
    return _event("flight", name, kind, *detail)


#: Every observation site of a clock domain -- each component charge and
#: each incident or counted event -- and the events it sends, in order:
#: the tracer a ``component`` leaf span over the charge or an
#: ``instant``; the boundary recorder a ``devcall``, a vmexit interior
#: ``segment`` or a ``milestone``; the telemetry registry ``counter`` and
#: ``histogram`` samples and ``flight`` entries.  A site tests
#: :attr:`Clock.observed` and calls :meth:`Clock.emit`; ``name``
#: defaults to the site and ``cycles`` is the charge.
SITES: dict[str, tuple] = {
    # Component charges, after the clock advanced by ``cycles``.
    "isa.row": (_span(_BOOT), _event("segment", None, _BOOT)),
    "ept faults": (_span(_VMM), _event("segment", None, _VMM)),
    "cow break": (_span(_VMM), _event("segment", None, _VMM)),
    "replay.segment": (_span(), _event("segment")),  # + category
    "kvm.call": (_span(_VMM), _event("devcall")),
    "memcpy.image": (_event("devcall"),),
    "guest.compute": (_span(_GUEST), _CYCLES),
    "hypercall.boundary": (_CYCLES,),
    "image.install": (_CYCLES,),
    "snapshot.verify": (_CYCLES,),
    "snapshot.restore": (_CYCLES,),
    "snapshot.capture": (_CYCLES, _count("snapshot_captures_total")),
    "retry.backoff": (_span(_SUPERVISION, "attempt"),
                      _count("supervisor_retries_total", "image"), _CYCLES),
    # Marks, incidents and counted events.
    "milestone": (_mark("milestone:{marker}", _GUEST, "marker"),
                  _event("milestone")),
    "cpu.mode": (_mark("cpu.mode:{mode}", _BOOT),),
    "guest.stall": (_mark("guest.stall", _GUEST, "virtine"),),
    "admission.admit": (_mark("admission.admit", _SUPERVISION, "image"),),
    "admission.shed": (
        _mark("admission.shed", _SUPERVISION, "image", "reason"),
        _count("admission_shed_total", "image", "reason")),
    "breaker.open": (_mark("breaker.open", _SUPERVISION, "image"),
                     _count("breaker_rejections_total", "image")),
    "timeout.deadline": (
        _mark("deadline.exceeded", _SUPERVISION, "consumed"),
        _count("timeouts_total", kind="deadline"),
        _flight("timeout", "deadline", "virtine", "consumed")),
    "timeout.watchdog": (_mark("watchdog.kill", _SUPERVISION, "kind"),
                         _count("timeouts_total", kind="watchdog"),
                         _flight("timeout", "watchdog", "virtine",
                                 "hang_kind=kind")),
    "timeout.mid_compute": (_count("timeouts_total", kind="mid_compute"),
                            _flight("timeout", "mid_compute", "virtine")),
    "timeout.step_budget": (_count("timeouts_total", kind="step_budget"),
                            _flight("timeout", "step_budget", "virtine")),
    "snapshot.corrupt": (_count("snapshot_fallbacks_total", reason="corrupt"),
                         _flight("snapshot", "corrupt", "key")),
    "snapshot.gone": (_mark("snapshot.gone", Category.SNAPSHOT, "key"),
                      _count("snapshot_fallbacks_total", reason="gone"),
                      _flight("snapshot", "gone", "key")),
    "launch.ok": (_count("launches_total", "image", "backend"),
                  _event("histogram", None, "launch_cycles", "image"),
                  _flight("launch", "ok", "image", "cycles_cost=cycles",
                          "from_snapshot")),
    "launch.crash": (_count("launch_failures_total", "image", "error"),
                     _flight("launch", "crash", "image", "error")),
    "hypercall": (_count("hypercalls_total", "nr"),),
    "crash": (_count("crashes_total", "crash_class", "image"),),
    "slo": (_flight("slo", "{kind}", "monitor", "metric", "observed",
                    "threshold"),),
    "pool": (_count("pool_{count}_total", "bucket_mb"),),
    # JIT-domain stat growth since the previous harvest, as ``cycles``.
    "jit.side_exits": (_count("jit_side_exits_total", "reason",
                              amount="cycles"),),
    "jit.counter": (_count("jit_{stat}_total", amount="cycles"),),
    "jit.image": (_count("jit_{stat}_total", "image", amount="cycles"),),
}


def _channel(slot: str) -> property:
    """A side channel whose assignment refreshes :attr:`Clock.observed`."""
    def install(clock: "Clock", sink: object) -> None:
        setattr(clock, slot, sink)
        clock.observed = (clock._tracer.enabled or clock._recorder.enabled
                          or clock._telemetry.enabled)
    return property(attrgetter(slot), install)


class Clock:
    """A monotonically-increasing virtual cycle counter; it also holds
    its clock domain's side channels.

    ``tracer``, ``recorder``, ``telemetry`` and ``fault_plan`` are the
    shared disabled nulls until the plane that owns the clock installs
    its own (``HostedPlane``); none ever advances the clock.
    :attr:`observed` is true while one of the first three is enabled,
    and assigning one refreshes it.  Each site of :data:`SITES` tests it
    and calls :meth:`emit`, so a site costs one attribute test while
    nothing observes.  The fault plan is no observer: its injection
    points test its own ``enabled``.
    """

    __slots__ = ("cycles", "_tracer", "_recorder", "_telemetry",
                 "fault_plan", "observed")

    tracer = _channel("_tracer")
    recorder = _channel("_recorder")
    telemetry = _channel("_telemetry")

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ValueError("clock cannot start at a negative cycle")
        #: Current cycle count, always an ``int``.  A plain slot, so
        #: reading the clock is an attribute load.  It only moves
        #: forward: by :meth:`advance`, or by a direct add of a cost that
        #: is a non-negative ``int`` by construction (the module's
        #: charging rule).
        self.cycles = start
        self._tracer, self._recorder = NO_TRACE, NO_RECORD
        self._telemetry, self.fault_plan = NO_TELEMETRY, NO_FAULTS
        self.observed = False

    def emit(self, site: str, cycles: int = 0, **attrs: object) -> None:
        """Send ``site``'s events (:data:`SITES`) to each enabled channel,
        at the current cycle; ``cycles`` is the charge just made."""
        attrs.setdefault("name", site)
        attrs["cycles"] = cycles
        for slot, op, name, key, fields, args, amount in SITES[site]:
            sink = getattr(self, slot)
            if not sink.enabled:
                continue
            name = attrs["name"] if name is None else name.format_map(attrs)
            if fields:
                args = {**args, **{out: attrs[attr] for out, attr in fields}}
            if key is None:
                key = attrs.get("category")
            if op == "component":
                sink.component(name, cycles, key, **args)
            elif op == "instant":
                sink.instant(name, key, **args)
            elif op == "devcall":
                sink.devcall(name, cycles)
            elif op == "segment":
                sink.segment_component(name, cycles, key.value, self.cycles)
            elif op == "milestone":
                sink.segment_milestone(attrs["marker"], self.cycles)
            elif op == "counter":
                sink.counter(key.format_map(attrs), **args).inc(
                    attrs[amount] if amount else 1)
            elif op == "histogram":
                sink.histogram(key, **args).record(cycles)
            else:
                sink.record_flight(key, name, **args)

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
