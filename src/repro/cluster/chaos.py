"""Cluster chaos: seeded failure injection with exactly-once recovery.

The SMP plane (:mod:`repro.cluster.smp`) proves the cluster is fast and
deterministic; this module proves it is *durable*.  A seeded
:class:`ChaosPlan` schedules three production failure modes against a
running cluster:

* **core crash** -- a core dies mid-run.  Results completed on it but
  not yet acknowledged (acks are batched, like any real completion
  queue) are lost with the core and re-executed on surviving cores;
* **store corruption** -- a chunk of the shared durable snapshot store
  rots.  The next restore detects the mismatch, falls back to a cold
  boot, and re-captures; the scrub repairs whatever rot restores never
  touched;
* **migration interruption** -- an image/snapshot transfer between
  cores is dropped mid-flight or tampered with; the tampered payload
  fails closed at the receive-side digest check
  (:class:`~repro.wasp.migration.TransferTampered`) and lands in the
  target supervisor's crash record.

Exactly-once semantics: every task carries an idempotency key; the
:class:`CompletionLedger` deduplicates completions at ack time, and the
:class:`EffectLedger` deduplicates *side effects* at apply time, so a
re-executed task neither loses its result nor double-applies its
effect.  :func:`check_invariants` asserts the contract -- no lost
results, no duplicated effects, store integrity intact, at least one
survivor -- and :meth:`ChaosReport.signature` is a sha256 over the
canonical outcome: identical seeds must produce byte-identical
recovery signatures.
"""

from __future__ import annotations

import enum
import hashlib
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.cluster.smp import VirtineCluster
from repro.faults import FaultPlan, FaultSite
from repro.runtime.image import ImageBuilder
from repro.store.cas import DurableSnapshotStore
from repro.store.journal import canonical_json
from repro.telemetry.registry import TelemetryRegistry
from repro.wasp.hypercall import Hypercall
from repro.wasp.migration import (
    Cluster as MigrationCluster,
    MigrationLink,
    TransferDropped,
    TransferTampered,
)
from repro.wasp.policy import BitmaskPolicy, VirtineConfig
from repro.wasp.virtine import HostFault


class ChaosKind(enum.Enum):
    """The failure modes the chaos plan can schedule."""

    CORE_CRASH = "core_crash"
    STORE_CORRUPTION = "store_corruption"
    MIGRATION_INTERRUPT = "migration_interrupt"


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled failure: what, when (task-dispatch index), where."""

    kind: ChaosKind
    at_task: int
    core: int = 0
    #: MIGRATION_INTERRUPT only: tamper the payload instead of
    #: dropping the transfer.
    tamper: bool = False

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "at_task": self.at_task,
                "core": self.core, "tamper": self.tamper}


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded, immutable schedule of chaos events."""

    seed: int
    events: tuple[ChaosEvent, ...]

    @classmethod
    def generate(cls, seed: int, cores: int, tasks: int,
                 events: int | None = None) -> "ChaosPlan":
        """Derive a deterministic schedule from ``seed``.

        Events land strictly after the first two dispatches (so a
        snapshot exists to corrupt and work exists to lose) and are
        spread over the remaining task indices.
        """
        rng = random.Random(f"chaos:{seed}")
        count = events if events is not None else max(3, tasks // 6)
        schedule = []
        for _ in range(count):
            kind = rng.choices(
                list(ChaosKind), weights=[40, 35, 25])[0]
            schedule.append(ChaosEvent(
                kind=kind,
                at_task=rng.randrange(2, max(3, tasks)),
                core=rng.randrange(cores),
                tamper=rng.random() < 0.5,
            ))
        schedule.sort(key=lambda e: (e.at_task, e.kind.value, e.core))
        return cls(seed=seed, events=tuple(schedule))

    def events_at(self, dispatch_index: int) -> tuple[ChaosEvent, ...]:
        return tuple(e for e in self.events if e.at_task == dispatch_index)


class EffectLedger:
    """Idempotent side-effect application, keyed by idempotency key.

    A re-executed task calls :meth:`apply` again; the duplicate is
    suppressed, so the externally visible effect happens exactly once.
    """

    def __init__(self) -> None:
        self.applied: dict[str, Any] = {}
        self.suppressed_duplicates = 0

    def apply(self, key: str, value: Any) -> bool:
        if key in self.applied:
            self.suppressed_duplicates += 1
            return False
        self.applied[key] = value
        return True


class CompletionLedger:
    """Batched, deduplicated completion acknowledgement.

    Completions buffer per core and are acknowledged in batches (the
    realistic failure window: a core that dies holding unacked
    completions loses them).  Acking a key twice is suppressed --
    exactly one acked result per idempotency key, ever.
    """

    def __init__(self) -> None:
        self.acked: dict[str, Any] = {}
        self._pending: dict[int, list[tuple[str, Any]]] = {}
        self.acks = 0
        self.duplicate_completions = 0

    def complete(self, core: int, key: str, value: Any) -> None:
        self._pending.setdefault(core, []).append((key, value))

    def pending(self, core: int) -> int:
        return len(self._pending.get(core, ()))

    def ack(self, core: int) -> int:
        """Flush the core's completion buffer; returns newly acked."""
        fresh = 0
        for key, value in self._pending.pop(core, []):
            if key in self.acked:
                self.duplicate_completions += 1
            else:
                self.acked[key] = value
                fresh += 1
        self.acks += fresh
        return fresh

    def lose(self, core: int) -> list[str]:
        """The core died: its unacked completions are gone.  Returns
        the lost idempotency keys (they need re-execution)."""
        return [key for key, _value in self._pending.pop(core, [])]


def _chaos_entry(effects: EffectLedger):
    """The chaos workload's hosted entry: snapshot-once, effect-once."""

    def entry(env):
        if not env.from_snapshot:
            env.charge(20_000)
            env.snapshot()
        key, value = env.args
        result = value * 3 + 1
        effects.apply(key, result)
        return result

    return entry


@dataclass
class ChaosReport:
    """The canonical outcome of one chaos run."""

    seed: int
    cores: int
    tasks: int
    fired: list[dict] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)
    acked: dict[str, Any] = field(default_factory=dict)
    effects: dict[str, Any] = field(default_factory=dict)
    dead_cores: list[int] = field(default_factory=list)
    reexecutions: int = 0
    suppressed_effects: int = 0
    duplicate_completions: int = 0
    interrupted_migrations: int = 0
    tampered_migrations: int = 0
    corrupted_chunks: int = 0
    snapshot_fallbacks: int = 0
    launch_failures: list[str] = field(default_factory=list)
    store_signature: str = ""
    store_counters: dict = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    #: Merged telemetry snapshot payload (chaos ledger counters + the
    #: per-core registries + crash black boxes); None when telemetry is
    #: off, and then absent from the canonical dict -- PR-7 signatures
    #: of non-telemetry runs are unchanged.
    telemetry: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.violations and not self.launch_failures

    def to_dict(self) -> dict:
        return {
            "seed": self.seed, "cores": self.cores, "tasks": self.tasks,
            "fired": self.fired, "skipped": self.skipped,
            "acked": dict(sorted(self.acked.items())),
            "effects": dict(sorted(self.effects.items())),
            "dead_cores": sorted(self.dead_cores),
            "reexecutions": self.reexecutions,
            "suppressed_effects": self.suppressed_effects,
            "duplicate_completions": self.duplicate_completions,
            "interrupted_migrations": self.interrupted_migrations,
            "tampered_migrations": self.tampered_migrations,
            "corrupted_chunks": self.corrupted_chunks,
            "snapshot_fallbacks": self.snapshot_fallbacks,
            "launch_failures": self.launch_failures,
            "store_signature": self.store_signature,
            "store_counters": dict(sorted(self.store_counters.items())),
            "violations": self.violations,
            "ok": self.ok,
            **({"telemetry": self.telemetry}
               if self.telemetry is not None else {}),
        }

    def signature(self) -> str:
        """sha256 over the canonical outcome (identical seeds must
        produce byte-identical recovery signatures)."""
        return hashlib.sha256(canonical_json(self.to_dict())).hexdigest()


def check_invariants(
    tasks: int,
    completion: CompletionLedger,
    effects: EffectLedger,
    store: DurableSnapshotStore,
    live: set[int],
) -> list[str]:
    """The chaos-recovery contract, as a list of violations (empty =
    the run upheld exactly-once semantics and store integrity)."""
    violations: list[str] = []
    expected = {_task_key(i) for i in range(tasks)}
    lost = sorted(expected - set(completion.acked))
    if lost:
        violations.append(f"lost results: {lost}")
    phantom = sorted(set(completion.acked) - expected)
    if phantom:
        violations.append(f"phantom results: {phantom}")
    for key in sorted(expected & set(completion.acked)):
        if effects.applied.get(key) != completion.acked[key]:
            violations.append(
                f"effect/result divergence for {key}: "
                f"{effects.applied.get(key)!r} != {completion.acked[key]!r}"
            )
    missing_effects = sorted(expected - set(effects.applied))
    if missing_effects:
        violations.append(f"missing side effects: {missing_effects}")
    scrub = store.scrub(repair=False)
    if not scrub.clean:
        violations.append(
            f"store integrity: {len(scrub.corrupt_chunks)} corrupt chunks, "
            f"{len(scrub.missing_chunks)} missing chunks, "
            f"{scrub.refcount_repairs} refcount drift"
        )
    if not live:
        violations.append("no surviving cores")
    return violations


def _task_key(index: int) -> str:
    return f"task-{index:03d}"


def run_chaos(
    seed: int,
    cores: int = 4,
    tasks: int = 24,
    *,
    ack_batch: int = 3,
    plan: ChaosPlan | None = None,
    trace: bool = False,
    telemetry: bool = False,
) -> ChaosReport:
    """Run the seeded chaos workload and return its canonical report.

    ``tasks`` idempotent virtine launches round-robin over ``cores``
    supervised engines sharing one :class:`DurableSnapshotStore`, with
    the :class:`ChaosPlan`'s events fired at their scheduled dispatch
    indices.  Recovery is part of the run: lost completions re-execute
    on surviving cores, rot is scrubbed, and the invariant checker
    passes judgement at the end.

    With ``telemetry=True`` each core carries a registry, the chaos
    ledgers (re-executions, suppressed duplicate effects, duplicate
    acks, quarantined shells) are mirrored into ``chaos_*`` instruments,
    and the report gains a merged telemetry snapshot with per-core
    flight-recorder black boxes.  Off by default so PR-7 report
    signatures are unchanged.
    """
    plan = plan if plan is not None else ChaosPlan.generate(seed, cores, tasks)
    store = DurableSnapshotStore(gc_keep=8)
    cluster = VirtineCluster(cores, seed=seed, supervised=True, trace=trace,
                             snapshot_store=store, telemetry=telemetry)
    effects = EffectLedger()
    completion = CompletionLedger()
    image = ImageBuilder().hosted("chaos-job", _chaos_entry(effects))
    policy_config = VirtineConfig.allowing(Hypercall.SNAPSHOT)
    report = ChaosReport(seed=seed, cores=cores, tasks=tasks)
    live = set(range(cores))
    values = {_task_key(i): i for i in range(tasks)}
    queue: deque[str] = deque(_task_key(i) for i in range(tasks))
    rotation = 0
    dispatched = 0
    migration_faults = 0

    def fire(event: ChaosEvent) -> None:
        nonlocal migration_faults
        if event.kind is ChaosKind.CORE_CRASH:
            victim = event.core % cores
            if victim not in live or len(live) <= 1:
                report.skipped.append(event.to_dict())
                return
            live.discard(victim)
            report.dead_cores.append(victim)
            lost = completion.lose(victim)
            for key in lost:
                queue.append(key)
            report.reexecutions += len(lost)
            survivor = cluster.engines[min(live)]
            if survivor.supervisor is not None:
                survivor.supervisor.record_external_crash(
                    "chaos-job",
                    HostFault(
                        f"core {victim} crashed with {len(lost)} unacked "
                        f"completions"
                    ),
                )
        elif event.kind is ChaosKind.STORE_CORRUPTION:
            if store.corrupt_chunk() is None:
                report.skipped.append(event.to_dict())
                return
            report.corrupted_chunks += 1
        elif event.kind is ChaosKind.MIGRATION_INTERRUPT:
            if len(live) < 2:
                report.skipped.append(event.to_dict())
                return
            ordered = sorted(live)
            src = ordered[event.core % len(ordered)]
            dst = ordered[(event.core + 1) % len(ordered)]
            migration_faults += 1
            site = (FaultSite.MIGRATION_TAMPER if event.tamper
                    else FaultSite.MIGRATION_TRANSFER)
            fault_plan = FaultPlan(seed=seed * 1000 + migration_faults)
            fault_plan.fail(site, on={1})
            mig = MigrationCluster(link=MigrationLink(),
                                   fault_plan=fault_plan)
            source = mig.add_node(f"core{src}", wasp=cluster.engines[src].wasp)
            target = mig.add_node(f"core{dst}", wasp=cluster.engines[dst].wasp)
            try:
                mig.migrate(image, source, target)
            except TransferTampered:
                report.tampered_migrations += 1
            except TransferDropped:
                report.interrupted_migrations += 1
        report.fired.append(event.to_dict())

    while queue:
        for event in plan.events_at(dispatched):
            fire(event)
        if not live:
            break
        key = queue.popleft()
        dispatched += 1
        if key in completion.acked:
            continue  # idempotency key already satisfied
        ordered = sorted(live)
        core = ordered[rotation % len(ordered)]
        rotation += 1
        engine = cluster.engines[core]
        try:
            result = engine.launch(
                image, args=(key, values[key]),
                policy=BitmaskPolicy(policy_config),
            )
        except Exception as error:
            report.launch_failures.append(
                f"{key}: {type(error).__name__}: {error}")
            continue
        completion.complete(core, key, result.value)
        if completion.pending(core) >= ack_batch:
            completion.ack(core)

    # Events scheduled past the last dispatch still fire (a crash
    # during drain is the classic ack-loss window).
    for event in plan.events:
        if event.at_task >= dispatched and event.to_dict() not in report.fired \
                and event.to_dict() not in report.skipped:
            fire(event)
            for key in list(queue):
                queue.remove(key)
                if key not in completion.acked:
                    ordered = sorted(live)
                    if not ordered:
                        break
                    core = ordered[rotation % len(ordered)]
                    rotation += 1
                    try:
                        result = cluster.engines[core].launch(
                            image, args=(key, values[key]),
                            policy=BitmaskPolicy(policy_config),
                        )
                    except Exception as error:
                        report.launch_failures.append(
                            f"{key}: {type(error).__name__}: {error}")
                        continue
                    completion.complete(core, key, result.value)

    for core in sorted(live):
        completion.ack(core)

    store.scrub(repair=True)  # recovery scrub: repair surviving rot
    report.acked = dict(completion.acked)
    report.effects = dict(effects.applied)
    report.suppressed_effects = effects.suppressed_duplicates
    report.duplicate_completions = completion.duplicate_completions
    report.snapshot_fallbacks = sum(
        e.wasp.snapshot_fallbacks for e in cluster.engines)
    report.violations = check_invariants(tasks, completion, effects,
                                         store, live)
    report.store_signature = store.state_signature()
    report.store_counters = store.counters()
    if telemetry:
        report.telemetry = _chaos_telemetry(cluster, report)
    return report


def _chaos_telemetry(cluster: VirtineCluster, report: ChaosReport) -> dict:
    """Mirror the chaos ledgers into a registry and snapshot everything.

    The ledger counters live in an extra clock-less "main" registry so
    they merge with the per-core registries without claiming a core
    label; quarantined shells are summed across every engine's pools.
    """
    ledger = TelemetryRegistry()
    ledger.counter("chaos_reexecutions_total").inc(report.reexecutions)
    ledger.counter("chaos_suppressed_effects_total").inc(
        report.suppressed_effects)
    ledger.counter("chaos_duplicate_completions_total").inc(
        report.duplicate_completions)
    ledger.counter("chaos_corrupted_chunks_total").inc(
        report.corrupted_chunks)
    ledger.counter("chaos_tampered_migrations_total").inc(
        report.tampered_migrations)
    ledger.counter("chaos_interrupted_migrations_total").inc(
        report.interrupted_migrations)
    ledger.counter("chaos_snapshot_fallbacks_total").inc(
        report.snapshot_fallbacks)
    ledger.gauge("chaos_dead_cores").set(len(report.dead_cores))
    ledger.gauge("chaos_quarantined_shells").set(sum(
        pool.quarantines
        for engine in cluster.engines
        for pool in engine.wasp._pools.values()))
    snap = cluster.telemetry_snapshot(
        meta={"workload": "chaos", "tasks": report.tasks},
        black_boxes=True,
        extra=[ledger],
    )
    return snap.to_dict()
