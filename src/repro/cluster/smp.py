"""The deterministic SMP scale-out plane (Figure 9/10).

The paper measures virtine creation scaling near-linearly across cores:
"creation rates scale roughly linearly up to the physical core count"
(Section 6.2, Figures 9 and 10).  Here every simulated core is a full
per-core execution stack -- its own :class:`~repro.hw.clock.SimClock`,
host kernel, KVM device, shell pools, and tracer -- and a
:class:`~repro.hw.clock.LockstepScheduler` interleaves the cores
deterministically: the least-advanced core always runs next, ties
broken by a seeded rotation, and a starved core steals queued launches
from the deepest sibling queue.

Work-stealing moves tasks, not shells: queued launches migrate between
core run queues, so a skewed placement still finishes near the balanced
makespan, while every shell stays in its own core's pool -- a shell's
virtual machine is bound to its core's clock at construction.

Determinism contract: the same ``(seed, cores, quantum, workload)``
replays the identical interleaving, steal pattern, per-core cycle
totals, and (with ``trace=True``) a byte-identical Chrome trace export.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.faults import FaultPlan
from repro.host.kernel import HostKernel
from repro.hw.clock import LockstepScheduler, SimClock
from repro.hw.costs import COSTS, CostModel
from repro.runtime.image import VirtineImage
from repro.telemetry.registry import TelemetryRegistry
from repro.telemetry.snapshot import TelemetrySnapshot, absorb_wasp
from repro.trace.export import cluster_chrome_json
from repro.units import cycles_to_seconds
from repro.wasp.admission import AdmissionController
from repro.wasp.hypervisor import Wasp
from repro.wasp.supervisor import BreakerConfig, RetryPolicy, Supervisor
from repro.wasp.virtine import VirtineResult

#: Default scheduling quantum: roughly one pooled launch, so cores
#: re-interleave at launch granularity without re-picking every task.
DEFAULT_QUANTUM = 100_000


@dataclass
class CoreEngine:
    """One simulated core's full execution stack."""

    core_id: int
    clock: SimClock
    wasp: Wasp
    supervisor: Supervisor | None = None

    def launch(self, image: VirtineImage, **kwargs: Any) -> VirtineResult:
        if self.supervisor is not None:
            return self.supervisor.launch(image, **kwargs)
        return self.wasp.launch(image, **kwargs)

    def counters(self) -> tuple[int, int, int, int]:
        """Monotonic ``(cycles, launches, pool hits, pool misses)``, in
        :class:`CoreStats` field order; a batch's stats are the difference."""
        pools = self.wasp._pools.values()
        return (self.clock.cycles, self.wasp.launches,
                sum(p.hits for p in pools), sum(p.misses for p in pools))


@dataclass(frozen=True)
class CoreStats:
    """Per-core accounting for one :meth:`VirtineCluster.launch_many`
    batch: every count covers that batch only."""

    core_id: int
    tasks: int
    cycles: int
    launches: int
    pool_hits: int
    pool_misses: int


@dataclass
class ClusterReport:
    """Outcome of one :meth:`VirtineCluster.launch_many` batch."""

    #: Per-submission results, in submission order; ``None`` where the
    #: entry failed (see :attr:`failures`).
    results: list[VirtineResult | None]
    #: ``(submission index, exception repr)`` for failed entries.
    failures: list[tuple[int, str]]
    #: Which core ran each submission (in submission order).
    placements: list[int]
    per_core: list[CoreStats]
    #: Tasks that ran on a different core than they were submitted to.
    steals: int
    #: Cycles on the furthest-advanced core (simulated wall clock).
    makespan_cycles: int
    #: Aggregate cycles across every core (total machine work).
    total_cycles: int
    seed: int = 0

    @property
    def launches(self) -> int:
        return sum(1 for r in self.results if r is not None)

    @property
    def throughput_per_s(self) -> float:
        """Completed launches per second of simulated wall time."""
        seconds = cycles_to_seconds(self.makespan_cycles)
        return self.launches / seconds if seconds > 0 else 0.0

    def signature(self) -> tuple:
        """The determinism check: everything a replay must reproduce."""
        return (
            tuple(r.cycles if r is not None else None for r in self.results),
            tuple(self.placements),
            tuple((s.core_id, s.tasks, s.cycles) for s in self.per_core),
            self.steals,
            self.makespan_cycles,
            self.total_cycles,
        )


class VirtineCluster:
    """N per-core Wasp engines under one lockstep scheduler.

    Every core owns a complete stack (clock, kernel, VMM, pools,
    tracer), so launches on different cores charge different clocks and
    genuinely overlap in simulated time; the scheduler's round-robin
    quantum decides the interleaving, reproducibly from ``seed``.

    ``supervised=True`` wraps each core's Wasp in a
    :class:`~repro.wasp.supervisor.Supervisor` so batched dispatch
    routes through the existing supervision plane (admission gate,
    breaker, retry); ``fault_plan_factory`` / ``admission_factory``
    build per-core fault plans and admission controllers from the core
    id, keeping per-core randomness streams independent and seeded.

    Snapshots are shared across cores by default (one
    :class:`~repro.wasp.snapshot.SnapshotStore`): a snapshot captured on
    one core restores on all of them, which is exactly the concurrent
    copy-on-write restore scenario the tests pin.
    """

    def __init__(
        self,
        cores: int = 2,
        *,
        seed: int = 0,
        quantum: int = DEFAULT_QUANTUM,
        costs: CostModel = COSTS,
        trace: bool = False,
        supervised: bool = False,
        retry: RetryPolicy | None = None,
        breaker: BreakerConfig | None = None,
        fault_plan_factory: Callable[[int], FaultPlan] | None = None,
        admission_factory: Callable[[int], AdmissionController] | None = None,
        share_snapshots: bool = True,
        snapshot_store: Any = None,
        telemetry: bool = False,
    ) -> None:
        self.seed = seed
        self.scheduler = LockstepScheduler(cores, quantum=quantum, seed=seed)
        self.engines: list[CoreEngine] = []
        #: ``snapshot_store`` pins the shared reset-state registry --
        #: pass a :class:`repro.store.cas.DurableSnapshotStore` and the
        #: whole cluster captures/restores through one journaled,
        #: content-addressed medium (implies ``share_snapshots``).
        shared_snapshots = snapshot_store
        for core_id, clock in enumerate(self.scheduler.clocks):
            plan = fault_plan_factory(core_id) if fault_plan_factory else None
            kernel = HostKernel(clock=clock, costs=costs)
            #: One registry per clock domain: a core's instruments carry
            #: its ``core`` id into merged cluster snapshots.
            registry = (TelemetryRegistry(clock, core=core_id)
                        if telemetry else None)
            wasp = Wasp(kernel=kernel, costs=costs, fault_plan=plan,
                        tracer=trace, telemetry=registry)
            if snapshot_store is not None:
                wasp.snapshots = shared_snapshots
            elif share_snapshots:
                if shared_snapshots is None:
                    shared_snapshots = wasp.snapshots
                else:
                    wasp.snapshots = shared_snapshots
            supervisor = None
            if supervised:
                admission = (admission_factory(core_id)
                             if admission_factory else None)
                supervisor = Supervisor(wasp, retry=retry, breaker=breaker,
                                        admission=admission)
            self.engines.append(CoreEngine(
                core_id=core_id, clock=clock, wasp=wasp, supervisor=supervisor,
            ))

    @property
    def cores(self) -> int:
        return len(self.engines)

    # -- provisioning --------------------------------------------------------
    def prewarm(self, image: VirtineImage, per_core: int) -> None:
        """Populate every core's shell pool for ``image``'s bucket."""
        for engine in self.engines:
            wasp = engine.wasp
            wasp.pool_for(wasp.memory_size_for(image)).prewarm(per_core)

    # -- batched dispatch ----------------------------------------------------
    def launch_many(
        self,
        image: VirtineImage,
        args_list: list[Any],
        *,
        placement: str = "round_robin",
        **launch_kwargs: Any,
    ) -> ClusterReport:
        """Dispatch one launch per ``args_list`` entry across the cores.

        ``placement`` picks the initial queue assignment:

        * ``"round_robin"`` -- spread submissions across cores (rotated
          by the seed);
        * ``"packed"`` -- enqueue everything on core 0, so completion
          depends entirely on work-stealing.

        Failures (crashes, sheds, open breakers) are captured per entry;
        one poisoned request never sinks the batch.
        """
        n = len(args_list)
        results: list[VirtineResult | None] = [None] * n
        failures: list[tuple[int, str]] = []
        placements: list[int] = [-1] * n
        before = [e.counters() for e in self.engines]

        def make_task(index: int, args: Any) -> Callable[[int], None]:
            def task(core: int) -> None:
                placements[index] = core
                engine = self.engines[core]
                try:
                    results[index] = engine.launch(image, args=args,
                                                   **launch_kwargs)
                except Exception as error:
                    failures.append((index, f"{type(error).__name__}: {error}"))
            return task

        tasks = [make_task(i, args) for i, args in enumerate(args_list)]
        if placement == "round_robin":
            self.scheduler.submit_round_robin(tasks)
        elif placement == "packed":
            for task in tasks:
                self.scheduler.submit(0, task)
        else:
            raise ValueError(f"unknown placement {placement!r}")
        steals_before = self.scheduler.steals
        self.scheduler.run()

        per_core = [
            CoreStats(e.core_id, placements.count(e.core_id),
                      *(now - then for now, then
                        in zip(e.counters(), before[e.core_id])))
            for e in self.engines
        ]
        return ClusterReport(
            results=results,
            failures=sorted(failures),
            placements=placements,
            per_core=per_core,
            steals=self.scheduler.steals - steals_before,
            makespan_cycles=max(s.cycles for s in per_core),
            total_cycles=sum(s.cycles for s in per_core),
            seed=self.seed,
        )

    # -- observability -------------------------------------------------------
    def tracers(self) -> list:
        return [engine.wasp.tracer for engine in self.engines]

    def chrome_json(self) -> str:
        """Byte-stable Chrome trace of every core (one thread per core),
        via :func:`repro.trace.export.cluster_chrome_trace`."""
        return cluster_chrome_json(self.tracers())

    def registries(self) -> list[TelemetryRegistry]:
        """Every core's telemetry registry (the shared no-op when off)."""
        return [engine.wasp.telemetry for engine in self.engines]

    def telemetry_snapshot(self, *, meta: dict | None = None,
                           black_boxes: bool = False,
                           extra: list[TelemetryRegistry] | None = None,
                           ) -> TelemetrySnapshot:
        """One merged, canonical snapshot of the whole cluster.

        Point-in-time gauges (pool depth, store occupancy, per-core
        cycles) are absorbed from each core's Wasp first, so the
        snapshot is complete without hot-path gauge updates.  ``extra``
        registries (e.g. the chaos ledger mirror) merge in after the
        per-core ones.
        """
        for engine in self.engines:
            absorb_wasp(engine.wasp)
        return TelemetrySnapshot.capture(
            self.registries() + list(extra or []),
            meta=dict(meta or {}, seed=self.seed, cores=self.cores),
            black_boxes=black_boxes,
        )


def parallel_creation(
    cores: int,
    launches: int,
    *,
    pooled: bool = True,
    seed: int = 0,
    prewarm: int | None = None,
    trace: bool = False,
    image: VirtineImage | None = None,
) -> ClusterReport:
    """The Figure 9/10 workload: ``launches`` virtine creations on
    ``cores`` simulated cores.

    ``pooled=True`` is the "Wasp+C" series (shells drawn from prewarmed
    per-core pools); ``pooled=False`` is the scratch "Wasp" series
    (every creation pays full context construction).  Returns the
    :class:`ClusterReport`, whose ``throughput_per_s`` is the figure's
    y-axis.
    """
    from repro.runtime.image import ImageBuilder

    if image is None:
        image = ImageBuilder().hlt_only()
    cluster = VirtineCluster(cores, seed=seed, trace=trace)
    if pooled:
        per_core = prewarm if prewarm is not None else -(-launches // cores)
        cluster.prewarm(image, min(per_core, 64))
    return cluster.launch_many(
        image, [None] * launches,
        use_snapshot=False, pooled=pooled,
    )
