"""Wasp: the embeddable micro-hypervisor (Section 5).

Wasp "is a userspace runtime system built as a library that host
programs (virtine clients) can link against" -- here, a Python class that
applications instantiate.  It owns the KVM device model, the shell pools,
the snapshot store, and the hypercall dispatch path; clients configure
policies and handlers per launch.

The launch path follows Figure 6: a request arrives (A), a context is
provisioned from the pool (D) or created clean (C), the image (or its
snapshot) is installed, the guest runs with hypercall interposition, and
on return the context is cleared (E) and cached for reuse (B).
"""

from __future__ import annotations

import copy
import functools
from typing import Any, Callable

from repro.faults import NO_FAULTS, FaultPlan, FaultSite, InjectedFault
from repro.host.kernel import HostKernel
from repro.units import us_to_cycles
from repro.hw.clock import BackgroundAccountant
from repro.hw.costs import COSTS, CostModel
from repro.hw.memory import GuestMemoryError
from repro.hw.vmx import STEP_BUDGET_EXHAUSTED, ExitReason
from repro.kvm.device import KVM, PLATFORMS
from repro.replay.stream import (
    NO_RECORD,
    InterfaceRecorder,
    ReplayDivergence,
    encode_value,
)
from repro.runtime.image import HOSTED_ENTER_PORT, VirtineImage
from repro.telemetry.registry import NO_TELEMETRY, TelemetryRegistry
from repro.trace.tracer import NO_TRACE, Category, Tracer
from repro.wasp.guestenv import GuestEnv, GuestExitRequested
from repro.wasp.handlers import CannedHandlers
from repro.wasp.hypercall import (
    HCALL_PORT,
    Hypercall,
    HypercallDenied,
    HypercallError,
    dispatch_handler,
    policy_gate,
)
from repro.wasp.policy import DefaultDenyPolicy, Policy
from repro.wasp.pool import CleanMode, ShardedShellPool, Shell, ShellPool
from repro.wasp.snapshot import RestoreMode, Snapshot, SnapshotGone, SnapshotStore
from repro.wasp.virtine import (
    KVM_CAPS,
    BackendCaps,
    BackendViolation,
    GuestFault,
    HostFault,
    IsolationKill,
    PolicyKill,
    Virtine,
    VirtineCrash,
    VirtineHang,
    VirtineResult,
    VirtineTimeout,
)

if False:  # pragma: no cover - typing only (avoids a module-load cycle)
    from repro.wasp.admission import Deadline

#: Guest memory below the image: boot scratch, GDT, real-mode stack.
_LOW_RESERVED = 0x8000
#: Guest memory above the image: page tables + protected/long stack.
_RUNTIME_HEADROOM = 0x300000

#: Errno names that indicate the *host* plane failed underneath the
#: virtine (vs. the guest passing bad arguments).  A crash rooted in one
#: of these classifies as a retryable :class:`HostFault`.
HOST_PLANE_ERRNOS = frozenset({"EIO", "ENOSPC", "ENOMEM", "ECONNRESET", "EPIPE", "ETIMEDOUT"})

#: Cycles a :data:`FaultSite.GUEST_STALL` fault wedges the guest for
#: before its hypercall lands: long enough to trip the default watchdog
#: no-progress threshold (1.5 ms) with margin.
GUEST_STALL_CYCLES = us_to_cycles(5_000.0)


def _bucket_size(required: int) -> int:
    """Round a memory requirement up to a power-of-two pool bucket."""
    size = 4 * 1024 * 1024
    while size < required:
        size *= 2
    return size


def plane_sink(value: Any, cls: type, off: Any) -> Any:
    """Normalise a ``tracer=`` / ``telemetry=`` launcher argument.

    An instance of ``cls`` is used as given; any other truthy value
    (``True``) builds a fresh one; ``None`` / ``False`` select the
    null-object sink ``off``, so the disabled path costs an empty call.
    """
    if isinstance(value, cls):
        return value
    return cls() if value else off


class HostedPlane:
    """The backend-neutral hosted-guest plane: one launcher contract.

    Everything a hosted guest body reaches through :class:`GuestEnv` --
    the deadline and watchdog checks, the clamped guest-compute charge,
    the hypercall round trip, the heartbeat, fd hygiene -- plus the
    crash taxonomy its entry runs under, defined once.  :class:`Wasp`
    (KVM) and :class:`repro.host.backend.BackendHost` (SUD, container,
    process, thread) both derive from it, so the mechanisms can differ
    only where a subclass says so:

    * ``caps`` -- the declared :class:`BackendCaps`;
    * ``launch`` -- provisioning, entry and teardown;
    * :meth:`gate_out_cycles` / :meth:`gate_back_cycles` -- the price of
      a hosted hypercall's two crossings, and ``exit_boundary_cycles``
      for EXIT's single one;
    * :meth:`on_denied` -- what a policy denial does on the mechanism;
    * ``capture_snapshot`` -- the SNAPSHOT hypercall.
    """

    caps: BackendCaps
    #: Shell-pool shards :meth:`launch_many` spreads a batch across.
    cores = 1
    #: Boundary-stream recorder (:data:`NO_RECORD` unless recording).
    recorder = NO_RECORD
    #: Active replay session (Wasp only; see :meth:`_run_hosted`).
    replay = None

    def __init__(
        self,
        kernel: HostKernel,
        costs: CostModel,
        fault_plan: FaultPlan | None,
        tracer: Tracer | bool | None,
        telemetry: TelemetryRegistry | bool | None,
    ) -> None:
        self.fault_plan = fault_plan if fault_plan is not None else NO_FAULTS
        if fault_plan is not None:
            kernel.fault_plan = self.fault_plan
        self.kernel = kernel
        self.costs = costs
        self.clock = kernel.clock
        #: Tracing is off by default: every instrumentation site calls the
        #: :data:`~repro.trace.tracer.NO_TRACE` no-op unconditionally, so
        #: the disabled path adds zero simulated cycles and no branches.
        self.tracer = plane_sink(tracer, Tracer, NO_TRACE)
        self.tracer.bind(self.clock)
        #: Telemetry mirrors the tracer contract: off by default, every
        #: site calls :data:`~repro.telemetry.registry.NO_TELEMETRY`
        #: unconditionally, and an enabled registry only ever *reads*
        #: the clock -- zero simulated cycles either way.
        self.telemetry = plane_sink(telemetry, TelemetryRegistry, NO_TELEMETRY)
        self.telemetry.bind(self.clock)
        self.canned = CannedHandlers(self.kernel)
        self.background = BackgroundAccountant()
        self.launches = 0
        #: Launches killed by deadline, watchdog, or step budget.
        self.timeouts = 0
        #: The attached :class:`repro.wasp.supervisor.Supervisor`, if any
        #: (set by the supervisor; read by :func:`repro.wasp.metrics.collect`).
        self.supervisor = None
        #: The attached :class:`repro.wasp.admission.Watchdog`, if any
        #: (set by the watchdog; consulted at every preemption point).
        self.watchdog = None

    # -- priced crossings (per mechanism) ---------------------------------
    def gate_out_cycles(self, virtine: Virtine, nr: Hypercall) -> int:
        """A hosted hypercall's guest -> host crossing."""
        raise NotImplementedError

    def gate_back_cycles(self, virtine: Virtine, nr: Hypercall) -> int:
        """A hosted hypercall's host -> guest crossing."""
        raise NotImplementedError

    def on_denied(self, virtine: Virtine, nr: Hypercall,
                  denied: HypercallDenied) -> None:
        """What a policy denial does.  Default: nothing more -- the
        catchable denial propagates and :meth:`_run_hosted` turns it
        into a :class:`PolicyKill`."""

    # -- launch bookkeeping ---------------------------------------------------
    def launch_many(
        self,
        image: VirtineImage,
        args_list: list[Any],
        *,
        return_exceptions: bool = False,
        **launch_kwargs: Any,
    ) -> list[VirtineResult | BaseException]:
        """Batched dispatch: one launch per ``args_list`` entry, in order.

        The batch routes through the attached planes exactly like single
        launches: when a :class:`~repro.wasp.supervisor.Supervisor` is
        attached, every entry passes its admission gate, breaker, and
        retry loop; otherwise :meth:`launch` runs directly.  Launches
        are spread round-robin across the pool shards on a multi-core
        Wasp unless the caller pins ``core=...`` explicitly.

        With ``return_exceptions`` set, a shed or crashed entry yields
        its exception in the result list instead of aborting the batch
        (the :mod:`asyncio.gather` convention) -- the cluster dispatch
        path relies on this so one poisoned request cannot sink its
        whole batch.
        """
        supervisor = self.supervisor
        launcher = supervisor.launch if supervisor is not None else self.launch
        pinned = "core" in launch_kwargs
        results: list[VirtineResult | BaseException] = []
        with self.tracer.span("launch_many", Category.LAUNCH,
                              image=image.name, batch=len(args_list)):
            for i, args in enumerate(args_list):
                if not pinned and self.cores > 1:
                    launch_kwargs["core"] = i % self.cores
                try:
                    results.append(launcher(image, args=args, **launch_kwargs))
                except Exception as error:
                    if not return_exceptions:
                        raise
                    results.append(error)
        return results

    def _make_virtine(
        self,
        image: VirtineImage,
        shell: Any,
        policy: Policy | None,
        handlers: dict[Hypercall, Callable] | None,
        resources: dict[int, Any] | None,
        allowed_paths: tuple[str, ...] | None,
    ) -> Virtine:
        table = dict(self.canned.table())
        if handlers:
            table.update(handlers)
        virtine = Virtine(
            name=image.name,
            image=image,
            shell=shell,
            policy=policy if policy is not None else DefaultDenyPolicy(),
            handlers=table,
            resources=dict(resources or {}),
            allowed_path_prefixes=allowed_paths,
        )
        virtine.policy.reset()
        return virtine

    def _launch_failed(self, image: VirtineImage, span: Any,
                       error: BaseException) -> None:
        """Report a launch that raised (the caller re-raises)."""
        kind = type(error).__name__
        span.annotate(error=kind)
        self.recorder.launch_end(image.name, kind, detail=str(error))
        self.telemetry.counter("launch_failures_total", image=image.name,
                               error=kind).inc()
        self.telemetry.record_flight("launch", "crash", image=image.name,
                                     error=kind)

    def _launch_done(self, image: VirtineImage, elapsed: int,
                     from_snapshot: bool) -> None:
        """Report a finished launch of ``elapsed`` cycles."""
        telemetry = self.telemetry
        telemetry.counter("launches_total", image=image.name,
                          backend=self.backend).inc()
        telemetry.histogram("launch_cycles", image=image.name).record(elapsed)
        telemetry.record_flight("launch", "ok", image=image.name,
                                cycles_cost=elapsed,
                                from_snapshot=from_snapshot)

    def _close_virtine_fds(self, virtine: Virtine) -> None:
        """Close any host fds the virtine leaked (isolation hygiene --
        the conformance leak check asserts this reaches zero)."""
        for fd in list(virtine.owned_fds):
            try:
                self.kernel.fs.close(fd)
            except Exception:
                pass
            virtine.owned_fds.discard(fd)

    # -- the hosted guest -----------------------------------------------------
    def _run_hosted(self, virtine: Virtine, args: Any, restored: Any,
                    persistent: dict | None = None,
                    from_snapshot: bool = False) -> None:
        """Execute the image's hosted entry function in guest context,
        under the shared crash taxonomy.

        *Who is at fault* classifies the same on every mechanism,
        whatever the mechanism-native signal was.  Under replay
        (:attr:`replay` set) the recorded boundary stream stands in for
        the entry body: a
        :class:`~repro.replay.substrate.ScriptedEntry` re-issues the
        recorded boundary ops against this same handler plane, so every
        crash below re-fires from the handlers exactly as it did live.
        """
        if self.replay is not None:
            entry = self.replay.scripted_entry(virtine.name)
        else:
            entry = virtine.image.hosted_entry
            if entry is None:
                raise VirtineCrash(
                    f"virtine {virtine.name!r} reached the hosted trampoline "
                    "but its image has no hosted entry"
                )
        env = GuestEnv(self, virtine, args=args, restored=restored,
                       persistent=persistent, from_snapshot=from_snapshot)
        recorder = self.recorder
        recorder.hosted_begin()
        try:
            with self.tracer.span("guest.hosted", Category.GUEST):
                virtine.result = entry(env)
        except GuestExitRequested:
            recorder.hosted_end(["exit"])
        except ReplayDivergence:
            # A strict-replay verdict about the *hypervisor*, not the
            # guest: it must escape the crash taxonomy untouched.
            recorder.hosted_end(["divergence"])
            raise
        except (HypercallDenied, IsolationKill) as error:
            # A guest that trips the policy dies -- by a catchable denial
            # or the mechanism's uncatchable kill -- and the host and
            # other virtines are unaffected (Section 3.3).
            crash = PolicyKill(f"virtine {virtine.name!r} killed: {error}")
            recorder.hosted_end(["crash", "PolicyKill", str(crash)])
            raise crash from error
        except BackendViolation as error:
            # The mechanism's own trap (mprotect fault, gate misuse):
            # untrusted code did something forbidden -- a guest fault.
            crash = GuestFault(f"virtine {virtine.name!r} faulted: {error}")
            recorder.hosted_end(["crash", "GuestFault", str(crash)])
            raise crash from error
        except HypercallError as error:
            # An unhandled hypercall error kills the virtine.  Who is at
            # fault decides retryability: a host-plane errno (EIO,
            # ECONNRESET...) means the host failed underneath a valid
            # request; anything else means the guest passed bad arguments.
            if error.errno_name in HOST_PLANE_ERRNOS:
                crash: VirtineCrash = HostFault(
                    f"virtine {virtine.name!r} killed by host failure: {error}"
                )
            else:
                crash = GuestFault(f"virtine {virtine.name!r} killed: {error}")
            recorder.hosted_end(["crash", type(crash).__name__, str(crash)])
            raise crash from error
        except VirtineCrash as crash:
            recorder.hosted_end(["crash", type(crash).__name__, str(crash)])
            raise
        except Exception as error:
            # An errant guest (the paper's example: a bad strcpy) crashes
            # only its own virtine; the fault is reported, not propagated
            # as a host failure.
            crash = GuestFault(
                f"virtine {virtine.name!r} faulted: {type(error).__name__}: {error}"
            )
            recorder.hosted_end(["crash", "GuestFault", str(crash)])
            raise crash from error
        else:
            recorder.hosted_end(["return", encode_value(virtine.result)])

    # -- the GuestEnv surface ---------------------------------------------------
    def check_deadline(self, virtine: Virtine) -> None:
        """Kill a virtine that has outlived its cycle deadline (or hung).

        Called at every natural preemption point (hypercall dispatch,
        vCPU exits, hosted compute charges); raises a typed
        :class:`VirtineTimeout` carrying what the launch consumed.  When
        a :class:`~repro.wasp.admission.Watchdog` is attached it is
        consulted at the same points, so hangs (no heartbeat) are killed
        even on launches with no explicit deadline.
        """
        if virtine.deadline is not None and self.clock.cycles > virtine.deadline:
            self.timeouts += 1
            consumed = self.clock.cycles - virtine.started_cycles
            self.tracer.instant("deadline.exceeded", Category.SUPERVISION,
                                consumed=consumed)
            self.telemetry.counter("timeouts_total", kind="deadline").inc()
            self.telemetry.record_flight("timeout", "deadline",
                                         virtine=virtine.name,
                                         consumed=consumed)
            raise VirtineTimeout(
                f"virtine {virtine.name!r} exceeded its cycle deadline "
                f"({consumed:,} cycles consumed)",
                cycles=consumed,
            )
        if self.watchdog is not None:
            try:
                self.watchdog.check(virtine, self.clock.cycles)
            except VirtineHang as hang:
                self.timeouts += 1
                kind = getattr(getattr(hang, "kind", None), "value", None)
                self.tracer.instant(
                    "watchdog.kill", Category.SUPERVISION, kind=kind,
                )
                self.telemetry.counter("timeouts_total", kind="watchdog").inc()
                self.telemetry.record_flight("timeout", "watchdog",
                                             virtine=virtine.name,
                                             hang_kind=kind)
                raise

    def charge_guest(self, virtine: Virtine, cycles: int) -> None:
        """Advance the clock for hosted-guest compute, clamped at the
        deadline.

        When the charge would blow past the virtine's deadline, only the
        remaining budget (plus the single cycle that trips the strict
        check) is consumed and the work is cancelled *mid-compute* -- the
        guest does not finish on borrowed time only to have the result
        discarded.
        """
        if cycles < 0:
            raise GuestFault(
                f"virtine {virtine.name!r} charged negative guest cycles "
                f"({cycles})"
            )
        self.recorder.hosted_charge(cycles)
        if virtine.deadline is not None:
            remaining = virtine.deadline - self.clock.cycles
            if cycles > remaining:
                charged = max(0, remaining) + 1
                self.clock.advance(charged)
                self.tracer.component("guest.compute", charged, Category.GUEST)
                self.telemetry.counter("component_cycles_total",
                                       component="guest.compute").inc(charged)
                self.timeouts += 1
                self.telemetry.counter("timeouts_total",
                                       kind="mid_compute").inc()
                self.telemetry.record_flight("timeout", "mid_compute",
                                             virtine=virtine.name)
                consumed = self.clock.cycles - virtine.started_cycles
                raise VirtineTimeout(
                    f"virtine {virtine.name!r} cancelled at its cycle "
                    f"deadline mid-compute ({consumed:,} cycles consumed)",
                    cycles=consumed,
                )
        self.clock.advance(cycles)
        self.tracer.component("guest.compute", cycles, Category.GUEST)
        self.telemetry.counter("component_cycles_total",
                               component="guest.compute").inc(int(cycles))
        self.check_deadline(virtine)

    def _beat(self, virtine: Virtine) -> None:
        """Record observable guest progress (the watchdog's heartbeat)."""
        virtine.last_beat_cycles = self.clock.cycles
        virtine.beats += 1

    def dispatch_hosted_hypercall(self, virtine: Virtine, nr: Hypercall, args: tuple) -> Any:
        """Full-cost hypercall from a hosted guest: exit, dispatch, re-enter.

        Same policy gate, audit, deadline check, and heartbeat on every
        mechanism; the two crossings are priced by :meth:`gate_out_cycles`
        and :meth:`gate_back_cycles`, and a denial additionally goes
        through :meth:`on_denied`.
        """
        boundary = self.telemetry.counter("component_cycles_total",
                                          component="hypercall.boundary")
        with self.tracer.span(f"hypercall:{nr.name}", Category.HYPERCALL):
            out_cost = self.gate_out_cycles(virtine, nr)
            self.clock.advance(out_cost)
            boundary.inc(int(out_cost))
            virtine.hypercall_count += 1
            self.telemetry.counter("hypercalls_total", nr=nr.name).inc()
            # Open the op now so a mid-dispatch escape (timeout, stall
            # kill, injected fault) is visible as an op with no outcome.
            op = self.recorder.hosted_hypercall_begin(nr.value, args)
            if self.fault_plan.draw(FaultSite.GUEST_STALL, virtine.name):
                # The guest wedged before this hypercall landed: cycles pass
                # with no heartbeat, which an armed watchdog classifies as a
                # no-progress hang at the check below.
                self.tracer.instant("guest.stall", Category.GUEST,
                                    virtine=virtine.name)
                self.clock.advance(GUEST_STALL_CYCLES)
            self.check_deadline(virtine)
            self._beat(virtine)
            try:
                result = dispatch_handler(virtine, nr, args)
                self._charge_marshalling(args, result)
                self.recorder.hosted_hypercall_end(op, "ok", result)
                return result
            except HypercallDenied as denied:
                self.recorder.hosted_hypercall_end(op, "denied")
                self.on_denied(virtine, nr, denied)
                raise
            except HypercallError as error:
                self.recorder.hosted_hypercall_end(op, "error", str(error))
                raise
            finally:
                back_cost = self.gate_back_cycles(virtine, nr)
                self.clock.advance(back_cost)
                boundary.inc(int(back_cost))

    def _charge_marshalling(self, args: tuple, result: Any) -> None:
        """Data crossing the boundary is copied, not shared (Section 3)."""
        moved = sum(len(a) for a in args if isinstance(a, (bytes, bytearray)))
        if isinstance(result, (bytes, bytearray)):
            moved += len(result)
        if moved:
            self.clock.advance(self.costs.memcpy(moved))


class Wasp(HostedPlane):
    """The embeddable virtine hypervisor."""

    BACKENDS = tuple(PLATFORMS)
    caps = KVM_CAPS
    # Rebound in Wasp's own class dict: the benchmark's layer trace
    # wraps ``vars(Wasp)["dispatch_hosted_hypercall"]``.
    dispatch_hosted_hypercall = HostedPlane.dispatch_hosted_hypercall

    def __init__(
        self,
        kernel: HostKernel | None = None,
        costs: CostModel = COSTS,
        backend: str = "kvm",
        fault_plan: FaultPlan | None = None,
        tracer: Tracer | bool | None = None,
        engine: str = "fast+jit",
        cores: int = 1,
        recorder: InterfaceRecorder | None = None,
        replay: Any = None,
        snapshot_store: SnapshotStore | None = None,
        telemetry: TelemetryRegistry | bool | None = None,
    ) -> None:
        #: Interpreter engine (``reference`` | ``fast`` | ``fast+jit``, see
        #: :data:`repro.hw.isa.ENGINES`).  Simulated cycles are identical
        #: under all three; ``reference`` also selects the per-page
        #: snapshot restores.  The backend device owns the
        #: :class:`~repro.hw.jit.JitDomain`, whose per-image block caches
        #: give pooled/restored shells their warm start.
        self.engine = engine
        super().__init__(kernel if kernel is not None else HostKernel(costs=costs),
                         costs, fault_plan, tracer, telemetry)
        #: Boundary-stream recorder: every interface site (launches,
        #: hypercalls, vmexits, device calls) reports through it; the
        #: default :data:`NO_RECORD` makes each report a no-op.
        self.recorder = recorder if recorder is not None else NO_RECORD
        #: Active :class:`~repro.replay.substrate.ReplaySession`, when
        #: this Wasp re-executes a recorded boundary stream instead of
        #: running a live guest.
        self.replay = replay
        device_cls = KVM
        if replay is not None:
            # The replay substrate feeds recorded vmexits to the handler
            # plane; no guest interpreter is ever constructed.
            from repro.replay.substrate import ReplayDevice

            device_cls = functools.partial(ReplayDevice, session=replay)
        self.kvm = device_cls(self.clock, costs, fault_plan=self.fault_plan,
                              tracer=self.tracer, recorder=self.recorder,
                              backend=backend, engine=engine)
        self.backend = backend
        #: Reset-state registry.  The in-memory :class:`SnapshotStore`
        #: by default; pass a :class:`repro.store.cas.DurableSnapshotStore`
        #: for content-addressed, journaled, crash-consistent storage
        #: (same surface -- the launch path additionally absorbs its
        #: :class:`~repro.store.cas.SnapshotGone` GC-race signal).
        self.snapshots = snapshot_store if snapshot_store is not None else SnapshotStore()
        if cores <= 0:
            raise ValueError(f"need at least one core, got {cores}")
        #: Shell-pool sharding degree: with ``cores > 1`` every bucket
        #: becomes a :class:`ShardedShellPool` (per-core free lists with
        #: cross-shard work-stealing) and ``launch(core=...)`` routes
        #: provisioning to that core's shard.
        self.cores = cores
        self._pools: dict[int, ShellPool | ShardedShellPool] = {}
        #: High-water marks of the JIT domain's monotonic stats already
        #: drained into telemetry counters (delta harvest per launch).
        self._jit_harvested: dict[tuple, int] = {}
        #: Snapshot restores that failed integrity and fell back cold.
        self.snapshot_fallbacks = 0

    # -- pools ---------------------------------------------------------------
    def memory_size_for(self, image: VirtineImage) -> int:
        """The pool bucket an image's virtines draw shells from."""
        required = _LOW_RESERVED + image.size + _RUNTIME_HEADROOM
        return _bucket_size(required)

    def pool_for(self, memory_size: int) -> ShellPool | ShardedShellPool:
        if memory_size not in self._pools:
            if self.cores > 1:
                self._pools[memory_size] = ShardedShellPool(
                    self.kvm, memory_size, background=self.background,
                    fault_plan=self.fault_plan, shards=self.cores,
                    telemetry=self.telemetry,
                )
            else:
                self._pools[memory_size] = ShellPool(
                    self.kvm, memory_size, background=self.background,
                    fault_plan=self.fault_plan, telemetry=self.telemetry,
                )
        return self._pools[memory_size]

    def _pool_view(self, image: VirtineImage, core: int):
        """The launch path's provisioning handle: the bucket pool, bound
        to ``core``'s shard when the pool is sharded."""
        pool = self.pool_for(self.memory_size_for(image))
        if isinstance(pool, ShardedShellPool):
            return pool.view(core)
        return pool

    # -- launch ------------------------------------------------------------------
    def launch(
        self,
        image: VirtineImage,
        *,
        policy: Policy | None = None,
        handlers: dict[Hypercall, Callable] | None = None,
        resources: dict[int, Any] | None = None,
        allowed_paths: tuple[str, ...] | None = None,
        args: Any = None,
        use_snapshot: bool = True,
        snapshot_key: str | None = None,
        restore_mode: RestoreMode = RestoreMode.EAGER,
        pooled: bool = True,
        clean: CleanMode = CleanMode.SYNC,
        max_steps: int = 50_000_000,
        deadline_cycles: int | None = None,
        deadline: "Deadline | None" = None,
        core: int = 0,
    ) -> VirtineResult:
        """Run ``image`` in a fresh virtine and return its result.

        ``pooled=False`` forces scratch context creation (the "Wasp"
        series of Figure 8); otherwise shells are drawn from and returned
        to the per-size pool under the ``clean`` discipline.  When
        ``use_snapshot`` is set and the image has a stored reset state,
        boot and runtime initialisation are skipped (Figure 7) -- unless
        its integrity checksum mismatches, in which case the launch falls
        back to a cold boot and the rotted snapshot is dropped.

        ``deadline_cycles`` bounds the launch's *total* simulated-cycle
        budget; exceeding it (or ``max_steps``) raises a typed
        :class:`VirtineTimeout`.  ``deadline`` instead carries an
        *absolute* request-scoped
        :class:`~repro.wasp.admission.Deadline` minted where the request
        entered the system, so time already burned upstream (queueing,
        admission) counts against the same budget; when both are given
        the absolute deadline wins.  A launch that crashes for any reason
        never returns its shell to the pool unscrubbed -- the shell is
        quarantined (scrub + generation bump) instead.

        ``core`` selects the shell-pool shard on a multi-core Wasp
        (``cores > 1``); single-core Wasps ignore it.
        """
        self.launches += 1
        self.recorder.launch_begin(image.name, pooled, use_snapshot)
        pool = self._pool_view(image, core)
        region = self.clock.region()
        # The launch root span opens with the measurement region and
        # closes (in the outer ``finally``) after teardown, so its cycle
        # count equals ``VirtineResult.cycles`` exactly: nothing advances
        # the clock between ``region.stop()`` and the span's end.
        launch_span = self.tracer.begin(
            f"launch:{image.name}", Category.LAUNCH,
            image=image.name, pooled=pooled,
        )
        try:
            shell = pool.acquire() if pooled else pool.create_scratch()
            virtine = self._make_virtine(image, shell, policy, handlers, resources, allowed_paths)
            virtine.snapshot_key = snapshot_key or image.name
            virtine.arm(self.clock.cycles, deadline, deadline_cycles)
            crashed = False
            try:
                from_snapshot = self._boot(virtine, args, max_steps, pool, pooled,
                                           use_snapshot, restore_mode)
                vm = virtine.shell.vm
                final_ax = vm.cpu.regs["ax"]
                milestones = [(m.marker, m.cycles) for m in vm.milestones]
            except BaseException:
                crashed = True
                raise
            finally:
                # ``_boot`` may have swapped the shell (a GC-raced
                # snapshot): retire the one the virtine ends up on.
                shell = virtine.shell
                self._close_virtine_fds(virtine)
                if pooled:
                    if crashed:
                        pool.quarantine(shell)
                    else:
                        pool.release(shell, clean)
                else:
                    shell.handle.close()
            launch_span.annotate(from_snapshot=from_snapshot)
        except BaseException as error:
            self._launch_failed(image, launch_span, error)
            raise
        finally:
            self.tracer.end(launch_span)
            self._harvest_jit_telemetry()
        self.recorder.launch_end(
            image.name, "ok", exit_code=virtine.exit_code,
            from_snapshot=from_snapshot,
            hypercalls=virtine.hypercall_count, ax=final_ax)
        # Nothing advances the clock between here and the region stop in
        # the result below, so the histogram sample equals
        # ``VirtineResult.cycles`` exactly.
        elapsed = region.stop()
        self._launch_done(image, elapsed, from_snapshot)
        return VirtineResult(
            value=virtine.result,
            exit_code=virtine.exit_code,
            cycles=elapsed,
            hypercall_count=virtine.hypercall_count,
            audit=virtine.audit,
            from_snapshot=from_snapshot,
            ax=final_ax,
            milestones=milestones,
        )

    def _harvest_jit_telemetry(self) -> None:
        """Drain JIT-domain stat deltas into dimensional counters.

        The domain's plain-int stats are monotonic; this folds the growth
        since the previous harvest into telemetry (image-labelled where
        the stat is per-image).  Returns at once with telemetry disabled
        (``telemetry`` is never rebound, so there is nothing to catch up
        on later), and never reads or advances the clock, so the
        sim-cost contract holds.
        """
        domain = self.kvm.jit_domain
        telemetry = self.telemetry
        if domain is None or telemetry is NO_TELEMETRY:
            return
        seen = self._jit_harvested
        for reason, total in domain.side_exits.items():
            delta = total - seen.get(("exit", reason), 0)
            if delta > 0:
                telemetry.counter("jit_side_exits_total",
                                  reason=reason).inc(delta)
                seen[("exit", reason)] = total
        for name, total in domain.counters.items():
            delta = total - seen.get(("ctr", name), 0)
            if delta > 0:
                telemetry.counter(f"jit_{name}_total").inc(delta)
                seen[("ctr", name)] = total
        for cache in domain.images():
            stats = cache.stats()
            for stat in ("compiles", "invalidations",
                         "warm_hits", "warm_misses"):
                total = stats[stat]
                delta = total - seen.get((stat, cache.name), 0)
                if delta > 0:
                    telemetry.counter(f"jit_{stat}_total",
                                      image=cache.name).inc(delta)
                    seen[(stat, cache.name)] = total

    def session(self, image: VirtineImage, **kwargs: Any) -> "VirtineSession":
        """Open a retained-context session (the "no teardown" mode)."""
        return VirtineSession(self, image, **kwargs)

    # -- internals ------------------------------------------------------------------
    def _boot(self, virtine: Virtine, args: Any, max_steps: int, pool: Any,
              pooled: bool, use_snapshot: bool,
              restore_mode: RestoreMode = RestoreMode.EAGER,
              persistent: dict | None = None) -> bool:
        """The one boot sequence of :meth:`launch` and a session's cold
        invoke: restore the verified reset state (or install the image
        cold), then run until the guest halts or exits.  Returns whether
        the virtine started from its snapshot.  A reset state collected
        under the shell swaps ``virtine.shell``, so callers retire that.
        """
        snap = None
        if use_snapshot:
            try:
                snap = self._usable_snapshot(virtine.snapshot_key)
            except SnapshotGone as gone:
                virtine.shell = self._replace_gone_shell(
                    pool, virtine.shell, pooled, gone)
        if snap is None:
            self._install_image(virtine)
        else:
            self._restore_snapshot(virtine, snap, restore_mode)
            if snap.hosted:
                self._run_hosted(virtine, args, restored=snap.payload_copy(),
                                 persistent=persistent, from_snapshot=True)
        self._run_loop(virtine, args, max_steps, persistent)
        return snap is not None

    def _install_image(self, virtine: Virtine) -> None:
        """Cold path: copy the image into guest memory and reset the vCPU."""
        image = virtine.image
        vm = virtine.shell.vm
        with self.tracer.span("image.install", Category.BOOT, bytes=image.size):
            vm.reset()
            cost = self.costs.memcpy(image.size)
            self.clock.advance(cost)
            self.telemetry.counter("component_cycles_total",
                                   component="image.install").inc(int(cost))
            # Only the code is copied; the padding loads as zeros through
            # the memory's zero-page invariant (the charge above is still
            # for the full image).
            vm.memory.load_bytes(image.program.image, image.program.base,
                                 image.size)
            vm.interp.attach_program(image.program)

    def _usable_snapshot(self, key: str) -> Snapshot | None:
        """Fetch and integrity-check a stored reset state.

        This is the snapshot-corruption injection point: the plan can rot
        a stored bit here, exactly like cold storage would.  Verification
        is charged at checksum bandwidth; a mismatch drops the snapshot
        (it would poison every future restore) and returns ``None`` so
        the caller boots cold -- graceful degradation, not a crash.
        """
        snap = self.snapshots.get(key)
        if snap is None:
            return None
        with self.tracer.span("snapshot.verify", Category.SNAPSHOT, key=key) as span:
            if self.fault_plan.draw(FaultSite.SNAPSHOT_RESTORE, key):
                snap.corrupt()
            cost = self.costs.checksum(snap.copy_size)
            self.clock.advance(cost)
            self.telemetry.counter("component_cycles_total",
                                   component="snapshot.verify").inc(int(cost))
            if not snap.verify():
                self.snapshots.drop(key)
                self.snapshots.integrity_failures += 1
                self.snapshot_fallbacks += 1
                self.telemetry.counter("snapshot_fallbacks_total",
                                       reason="corrupt").inc()
                self.telemetry.record_flight("snapshot", "corrupt", key=key)
                span.annotate(outcome="corrupt")
                return None
            span.annotate(outcome="ok")
            return snap

    def _replace_gone_shell(
        self, pool: Any, shell: Shell, pooled: bool, gone: SnapshotGone,
    ) -> Shell:
        """Absorb the GC-vs-restore race: the reset state promised to
        this shell was collected between acquire and restore.

        The half-prepared shell is quarantined (reset + synchronous
        scrub + generation bump -- it must never re-enter circulation
        carrying provisioning state for an image that no longer has a
        reset state) and a fresh shell is provisioned for the cold
        boot.  The launch degrades, it does not raise.
        """
        self.snapshot_fallbacks += 1
        self.tracer.instant("snapshot.gone", Category.SNAPSHOT, key=gone.key)
        self.telemetry.counter("snapshot_fallbacks_total", reason="gone").inc()
        self.telemetry.record_flight("snapshot", "gone", key=gone.key)
        if pooled:
            pool.quarantine_defect(shell)
            return pool.acquire()
        shell.handle.close()
        return pool.create_scratch()

    def _restore_snapshot(
        self,
        virtine: Virtine,
        snap: Snapshot,
        mode: RestoreMode = RestoreMode.EAGER,
    ) -> None:
        """Warm path: install the reset state instead of booting."""
        vm = virtine.shell.vm
        with self.tracer.span("snapshot.restore", Category.SNAPSHOT,
                              mode=mode.value, pages=len(snap.pages)):
            if mode is RestoreMode.EAGER:
                cost = self.costs.memcpy(snap.copy_size)
                self.clock.advance(cost)
                self.telemetry.counter("component_cycles_total",
                                       component="snapshot.restore").inc(int(cost))
                if self.engine != "reference":
                    # Coalesced contiguous-run slice copies; identical
                    # state effects (and charge) to the per-page loop.
                    vm.memory.restore_runs(snap.page_runs(), snap.pages)
                else:
                    vm.memory.restore_pages(dict(snap.pages))
            else:
                # CoW: cheap shared mappings now, per-page copies on write.
                cost = self.costs.COW_MAP_PER_PAGE * len(snap.pages)
                self.clock.advance(cost)
                self.telemetry.counter("component_cycles_total",
                                       component="snapshot.restore").inc(int(cost))
                if self.engine != "reference":
                    vm.memory.restore_runs_cow(snap.page_runs(), snap.pages)
                else:
                    vm.memory.restore_pages_cow(dict(snap.pages))
            vm.memory.mark_touched(snap.pages.keys())
            vm.cpu.load_state(snap.cpu_state)
            vm.interp.attach_program(virtine.image.program, reset_rip=False)
            vm.milestones.clear()
            self.snapshots.note_restore()

    def _deadline_slice(self, virtine: Virtine, steps_left: int) -> int:
        """Bound one KVM_RUN's step budget by the virtine's deadline.

        Every interpreter step costs at least one cycle, so ``remaining
        + 1`` steps provably crosses the deadline; slicing the budget
        guarantees a spinning guest is cancelled at its deadline instead
        of running out its full (possibly enormous) step budget first.
        """
        if virtine.deadline is None:
            return steps_left
        remaining = virtine.deadline - self.clock.cycles
        return max(1, min(steps_left, remaining + 1))

    def _run_loop(self, virtine: Virtine, args: Any, max_steps: int,
                  persistent: dict | None = None) -> None:
        """Drive KVM_RUN until the guest halts or exits."""
        shell = virtine.shell
        steps_left = max_steps
        while True:
            if shell.vm.cpu.halted:
                return
            try:
                info = shell.vcpu.run(self._deadline_slice(virtine, steps_left))
            except InjectedFault as fault:
                # The KVM_RUN ioctl itself failed: a host-plane fault,
                # not the guest's doing.
                raise HostFault(
                    f"virtine {virtine.name!r} lost its vCPU: {fault}"
                ) from fault
            steps_left -= info.steps
            self.check_deadline(virtine)
            if info.reason is ExitReason.HLT:
                return
            if info.reason is ExitReason.IO_OUT:
                if info.port == HOSTED_ENTER_PORT:
                    self._run_hosted(virtine, args, restored=None,
                                     persistent=persistent)
                    continue
                if info.port == HCALL_PORT:
                    if self._isa_hypercall(virtine, info.value):
                        return
                    continue
                raise GuestFault(
                    f"virtine {virtine.name!r} wrote unknown port {info.port:#x}"
                )
            if info.reason is ExitReason.IO_IN:
                # No device model exists; reads of unknown ports yield 0.
                shell.vcpu.complete_io_in(info.in_dest, 0)
                continue
            if info.detail == STEP_BUDGET_EXHAUSTED:
                if steps_left > 0:
                    # Only the deadline slice ran dry, not the caller's
                    # budget, and the deadline check above let us
                    # through -- keep driving the guest.
                    continue
                self.timeouts += 1
                self.telemetry.counter("timeouts_total",
                                       kind="step_budget").inc()
                self.telemetry.record_flight("timeout", "step_budget",
                                             virtine=virtine.name)
                raise VirtineTimeout(
                    f"virtine {virtine.name!r} exhausted its step budget "
                    f"({max_steps - steps_left:,} steps)",
                    steps=max_steps - steps_left,
                    cycles=self.clock.cycles - virtine.started_cycles,
                )
            raise GuestFault(f"virtine {virtine.name!r} shut down: {info.detail}")

    #: Largest single buffer an assembly guest may move per hypercall.
    ISA_MAX_TRANSFER = 1 << 20

    def _isa_hypercall(self, virtine: Virtine, nr_value: int) -> bool:
        """Dispatch an ``out HCALL_PORT, nr`` from assembly guest code.

        Register ABI (the co-designed convention of Section 5.1):

        * ``bx`` -- scalar argument (fd, handle, exit code, open flags)
        * ``cx`` -- guest-physical buffer address (data hypercalls)
        * ``dx`` -- buffer length
        * ``ax`` -- result on return (byte count / fd / size), or the
          all-ones error value when the handler rejects the call.

        Data crossing the boundary is copied through guest memory with
        memcpy cost, exactly like the hosted path.  Returns True when the
        virtine is done (EXIT).
        """
        try:
            nr = Hypercall(nr_value)
        except ValueError:
            raise GuestFault(f"virtine {virtine.name!r}: bad hypercall {nr_value}")
        vm = virtine.shell.vm
        cpu = vm.cpu
        bx = cpu.read_reg("bx")
        cx = cpu.read_reg("cx")
        dx = cpu.read_reg("dx")
        virtine.hypercall_count += 1
        self._beat(virtine)
        self.telemetry.counter("hypercalls_total", nr=nr.name).inc()
        try:
            with self.tracer.span(f"hypercall:{nr.name}", Category.HYPERCALL):
                exited = self._isa_hypercall_body(virtine, nr, bx, cx, dx)
        except HypercallDenied as denied:
            # Same fate as a hosted guest tripping the policy.
            raise PolicyKill(f"virtine {virtine.name!r} killed: {denied}") from denied
        self.recorder.isa_hypercall(nr.value, bx, cx, dx,
                                    cpu.read_reg("ax"), exited)
        return exited

    #: Hypercall numbers whose cx/dx registers name a guest buffer.
    _ISA_BUFFER_CALLS = frozenset({
        Hypercall.READ, Hypercall.RECV, Hypercall.WRITE, Hypercall.SEND,
        Hypercall.OPEN, Hypercall.STAT,
    })

    def _check_isa_buffer(
        self, virtine: Virtine, nr: Hypercall, cx: int, dx: int, size: int
    ) -> None:
        """Validate a guest-supplied buffer descriptor before any handler
        or memory path sees it.

        A hostile guest controls cx/dx completely; descriptors that are
        negative or straddle the guest-physical limit must land in the
        crash taxonomy as a precise :class:`GuestFault`, never surface as
        an ``IndexError``/``struct.error`` from the copy machinery.
        """
        if nr not in self._ISA_BUFFER_CALLS:
            return
        if dx < 0:
            raise GuestFault(
                f"virtine {virtine.name!r}: hypercall {nr.name} passed a "
                f"negative buffer length ({dx})"
            )
        if cx < 0:
            raise GuestFault(
                f"virtine {virtine.name!r}: hypercall {nr.name} passed a "
                f"negative buffer address ({cx})"
            )
        # Clamp to the per-call transfer cap first: oversized lengths are
        # the handlers' EINVAL/ENAMETOOLONG business, not a memory fault.
        limit = 4096 if nr in (Hypercall.OPEN, Hypercall.STAT) else self.ISA_MAX_TRANSFER
        window = min(dx, limit)
        if cx + window > size:
            raise GuestFault(
                f"virtine {virtine.name!r}: hypercall {nr.name} buffer "
                f"[{cx:#x}, {cx + window:#x}) straddles the guest-physical "
                f"limit {size:#x}"
            )

    def _isa_hypercall_body(
        self, virtine: Virtine, nr: Hypercall, bx: int, cx: int, dx: int
    ) -> bool:
        vm = virtine.shell.vm
        cpu = vm.cpu
        self._check_isa_buffer(virtine, nr, cx, dx, vm.memory.size)
        if nr is Hypercall.EXIT:
            policy_gate(virtine, nr)
            virtine.exit_code = bx
            return True
        if nr is Hypercall.SNAPSHOT:
            policy_gate(virtine, nr)
            self._capture(virtine, payload=None, hosted=False)
            return False
        error_value = cpu.mode.mask  # all-ones: the guest-visible errno
        try:
            if nr in (Hypercall.READ, Hypercall.RECV):
                count = min(dx, self.ISA_MAX_TRANSFER)
                data = dispatch_handler(virtine, nr, (bx, count))
                self.clock.advance(self.costs.memcpy(len(data)))
                vm.memory.write(cx, data)
                cpu.write_reg("ax", len(data))
            elif nr in (Hypercall.WRITE, Hypercall.SEND):
                if dx > self.ISA_MAX_TRANSFER:
                    raise HypercallError(nr, "EINVAL", f"transfer {dx} too large")
                data = vm.memory.read(cx, dx)
                self.recorder.attach_guest_buffer(cx, data)
                self.clock.advance(self.costs.memcpy(len(data)))
                cpu.write_reg("ax", int(dispatch_handler(virtine, nr, (bx, data))))
            elif nr in (Hypercall.OPEN, Hypercall.STAT):
                if dx > 4096:
                    raise HypercallError(nr, "ENAMETOOLONG", f"path length {dx}")
                raw = vm.memory.read(cx, dx)
                self.recorder.attach_guest_buffer(cx, raw)
                path = raw.decode("utf-8", errors="strict")
                args = (path, bx) if nr is Hypercall.OPEN else (path,)
                cpu.write_reg("ax", int(dispatch_handler(virtine, nr, args)))
            elif nr is Hypercall.CLOSE:
                dispatch_handler(virtine, nr, (bx,))
                cpu.write_reg("ax", 0)
            else:
                # Remaining numbers carry scalars only.
                result = dispatch_handler(virtine, nr, (bx, cx))
                cpu.write_reg("ax", int(result) if isinstance(result, int) else 0)
        except GuestMemoryError as error:
            # The descriptor check above bounds the *window*; a handler
            # returning more data than the guest's buffer can hold (or a
            # fuzzer-forged descriptor) still lands here, typed.
            raise GuestFault(
                f"virtine {virtine.name!r}: hypercall {nr.name} touched "
                f"memory outside the guest ({error})"
            ) from error
        except HypercallError as error:
            virtine.audit.record(nr, allowed=True, detail=str(error))
            cpu.write_reg("ax", error_value)
        except UnicodeDecodeError:
            cpu.write_reg("ax", error_value)
        return False

    # -- priced crossings -----------------------------------------------------------
    # The exits are "doubly expensive due to the ring transitions
    # necessitated by KVM" (Section 6.3): the guest pays the world switch
    # out and the ioctl return to userspace, then the ioctl + world switch
    # back in.
    def gate_out_cycles(self, virtine: Virtine, nr: Hypercall) -> int:
        return self.costs.VMRUN_EXIT + self.costs.ioctl()

    def gate_back_cycles(self, virtine: Virtine, nr: Hypercall) -> int:
        costs = self.costs
        return costs.ioctl() + costs.KVM_RUN_CHECKS + costs.VMRUN_ENTRY

    def exit_boundary_cycles(self) -> int:
        """Cycles the EXIT hypercall's one-way boundary crossing costs.

        Exit pays only the outbound half of the round trip (there is no
        re-entry); each isolation backend prices this differently.
        """
        return int(self.costs.VMRUN_EXIT + self.costs.ioctl())

    # -- snapshots ------------------------------------------------------------------------
    def capture_snapshot(self, virtine: Virtine, payload: Any) -> None:
        """SNAPSHOT hypercall from a hosted guest (policy-checked)."""
        with self.tracer.span("hypercall:SNAPSHOT", Category.HYPERCALL):
            self.clock.advance(self.gate_out_cycles(virtine, Hypercall.SNAPSHOT))
            virtine.hypercall_count += 1
            self.recorder.hosted_snapshot(payload)
            try:
                policy_gate(virtine, Hypercall.SNAPSHOT)
                self._capture(virtine, payload, hosted=True)
            finally:
                self.clock.advance(self.gate_back_cycles(virtine, Hypercall.SNAPSHOT))

    def _capture(self, virtine: Virtine, payload: Any, hosted: bool) -> None:
        vm = virtine.shell.vm
        with self.tracer.span("snapshot.capture", Category.SNAPSHOT) as span:
            pages = vm.memory.capture_dirty()
            self.recorder.mem_capture(sorted(pages))
            snap = Snapshot(
                image_name=virtine.image.name,
                pages=pages,
                cpu_state=vm.cpu.save_state(),
                hosted_payload=copy.deepcopy(payload),
                hosted=hosted,
            )
            cost = self.costs.memcpy(snap.copy_size)
            self.clock.advance(cost)
            self.telemetry.counter("component_cycles_total",
                                   component="snapshot.capture").inc(int(cost))
            self.telemetry.counter("snapshot_captures_total").inc()
            span.annotate(pages=len(pages))
            self.snapshots.put(getattr(virtine, "snapshot_key", virtine.image.name), snap)


class VirtineSession:
    """A retained virtine: one shell and runtime kept across invocations.

    Implements the "no teardown" optimisation of Section 6.5: "since all
    virtines are cleared and reset after execution, paying the cost of
    tearing down the JavaScript engine can be avoided ... by retaining
    it."  Only safe when every invocation belongs to the same trust
    domain; the session's shell never returns to the shared pool until
    :meth:`close`.
    """

    def __init__(
        self,
        wasp: Wasp,
        image: VirtineImage,
        *,
        policy: Policy | None = None,
        handlers: dict[Hypercall, Callable] | None = None,
        resources: dict[int, Any] | None = None,
        allowed_paths: tuple[str, ...] | None = None,
        use_snapshot: bool = True,
    ) -> None:
        self.wasp = wasp
        self.image = image
        self.use_snapshot = use_snapshot
        self._pool = wasp.pool_for(wasp.memory_size_for(image))
        #: The retained virtine; its shell is the session's context.
        self._virtine: Virtine | None = None
        self._persistent: dict = {}
        self._policy = policy
        self._handlers = handlers
        self._resources = resources
        self._allowed_paths = allowed_paths
        self.invocations = 0

    def invoke(
        self,
        args: Any = None,
        max_steps: int = 50_000_000,
        deadline_cycles: int | None = None,
        deadline: "Deadline | None" = None,
    ) -> VirtineResult:
        """Run one invocation, reusing the retained context if present.

        A crashing invocation poisons the retained context: the shell is
        quarantined (never blindly reinserted into the shared pool), the
        persistent state is discarded, and the next :meth:`invoke`
        rebuilds from scratch.
        """
        with self.wasp.tracer.span(f"invoke:{self.image.name}", Category.LAUNCH,
                                   image=self.image.name, session=True):
            try:
                return self._invoke(args, max_steps, deadline_cycles, deadline)
            except VirtineCrash:
                self._abandon_crashed()
                raise

    def _invoke(
        self, args: Any, max_steps: int, deadline_cycles: int | None,
        deadline: "Deadline | None" = None,
    ) -> VirtineResult:
        wasp = self.wasp
        region = wasp.clock.region()
        virtine = self._virtine
        if virtine is None:
            # Cold: a pooled shell boots through launch's own sequence,
            # with the session's persistent dict handed to the guest.
            virtine = self._virtine = wasp._make_virtine(
                self.image, self._pool.acquire(), self._policy, self._handlers,
                self._resources, self._allowed_paths,
            )
            virtine.snapshot_key = self.image.name
            virtine.arm(wasp.clock.cycles, deadline, deadline_cycles)
            from_snapshot = wasp._boot(virtine, args, max_steps, self._pool, True,
                                       self.use_snapshot, persistent=self._persistent)
        else:
            # Warm re-entry: the runtime inside the retained context is
            # still alive; one KVM_RUN round trip re-enters it.
            from_snapshot = False
            virtine.policy.reset()
            virtine.arm(wasp.clock.cycles, deadline, deadline_cycles)
            wasp.clock.advance(wasp.costs.vmrun_roundtrip())
            wasp._run_hosted(virtine, args, restored=self._persistent.get("state"),
                             persistent=self._persistent)
        self.invocations += 1
        return VirtineResult(
            value=virtine.result,
            exit_code=virtine.exit_code,
            cycles=region.stop(),
            hypercall_count=virtine.hypercall_count,
            audit=virtine.audit,
            from_snapshot=from_snapshot,
            ax=virtine.shell.vm.cpu.regs["ax"],
        )

    def _retire(self, give_back: Callable[[Shell], None]) -> None:
        """End the retained context: close the host fds its guest opened,
        hand the shell to ``give_back`` and drop all retained state."""
        virtine = self._virtine
        if virtine is not None:
            self.wasp._close_virtine_fds(virtine)
            give_back(virtine.shell)
            self._virtine = None
            self._persistent.clear()

    def _abandon_crashed(self) -> None:
        """Quarantine the shell and drop all retained state post-crash."""
        self._retire(self._pool.quarantine)

    def close(self, clean: CleanMode = CleanMode.SYNC) -> None:
        """Release the retained shell back to the pool."""
        self._retire(lambda shell: self._pool.release(shell, clean))

    def __enter__(self) -> "VirtineSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
