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
from types import MappingProxyType
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
    HYPERCALL_LABELS,
    AuditRecord,
    Hypercall,
    HypercallDenied,
    HypercallError,
    HypercallRequest,
    dispatch_handler,
    policy_gate,
)
from repro.wasp.policy import DefaultDenyPolicy, Policy
from repro.wasp.pool import CleanMode, Shell, ShellPool
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

# Bound once: reading an enum member off its class runs the enum
# metaclass's ``__getattr__`` hook.
_GUEST_STALL, _SNAPSHOT_RESTORE = FaultSite.GUEST_STALL, FaultSite.SNAPSHOT_RESTORE
_HLT, _IO_OUT, _IO_IN = ExitReason.HLT, ExitReason.IO_OUT, ExitReason.IO_IN
_EXIT, _SNAPSHOT, _OPEN, _CLOSE = (
    Hypercall.EXIT, Hypercall.SNAPSHOT, Hypercall.OPEN, Hypercall.CLOSE)


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
    null-object sink ``off``, whose ``enabled`` is false: hot sites test
    it and skip the sink, the rest call its no-op methods.
    """
    if isinstance(value, cls):
        return value
    return cls() if value else off


def _hosted_crash(virtine: Virtine, error: BaseException) -> VirtineCrash:
    """The crash a hosted entry's escaping ``error`` kills its virtine
    with: *who is at fault* classifies the same on every mechanism."""
    if isinstance(error, (HypercallDenied, IsolationKill)):
        # A guest that trips the policy dies -- by a catchable denial or
        # the mechanism's uncatchable kill -- and the host and other
        # virtines are unaffected (Section 3.3).
        return PolicyKill(f"virtine {virtine.name!r} killed: {error}")
    if isinstance(error, BackendViolation):
        # The mechanism's own trap (mprotect fault, gate misuse):
        # untrusted code did something forbidden -- a guest fault.
        return GuestFault(f"virtine {virtine.name!r} faulted: {error}")
    if isinstance(error, HypercallError):
        # An unhandled hypercall error kills the virtine.  Who is at fault
        # decides retryability: a host-plane errno (EIO, ECONNRESET...)
        # means the host failed underneath a valid request; anything else
        # means the guest passed bad arguments.
        if error.errno_name in HOST_PLANE_ERRNOS:
            return HostFault(
                f"virtine {virtine.name!r} killed by host failure: {error}")
        return GuestFault(f"virtine {virtine.name!r} killed: {error}")
    if isinstance(error, VirtineCrash):
        return error
    # An errant guest (the paper's example: a bad strcpy) crashes only its
    # own virtine; the fault is reported, not propagated as a host failure.
    return GuestFault(
        f"virtine {virtine.name!r} faulted: {type(error).__name__}: {error}")


class HostedPlane:
    """The backend-neutral hosted-guest plane: one launcher contract.

    Everything a hosted guest body reaches through :class:`GuestEnv` --
    the deadline and watchdog checks, the clamped guest-compute charge,
    the hypercall round trip, the heartbeat, fd hygiene -- plus the
    crash taxonomy its entry runs under, defined once.  :class:`Wasp`
    (KVM) and :class:`repro.host.backend.BackendHost` (SUD, container,
    process, thread) both derive from it.  It also owns the launch
    bracket of Figure 6 (:meth:`launch`) and its per-size pools
    (:meth:`pool_for`), so the mechanisms differ only where a subclass
    says so:

    * ``caps`` -- the declared :class:`BackendCaps`;
    * ``maker`` -- the pools' context maker (see :class:`ShellPool`),
      and :meth:`memory_size_for`;
    * :meth:`_enter` -- boot or enter the context and run the guest;
    * :meth:`_after_launch` -- work done once a launch has ended;
    * :meth:`gate_out_cycles` / :meth:`gate_back_cycles` -- the price of
      a hosted hypercall's two crossings, and ``exit_boundary_cycles``
      for EXIT's single one: non-negative ints of the cost model, which
      the hosted path adds to the clock directly;
    * :meth:`on_denied` -- what a policy denial does on the mechanism;
    * ``capture_snapshot`` -- the SNAPSHOT hypercall.
    """

    caps: BackendCaps
    #: Boundary-stream recorder (:data:`NO_RECORD` unless a subclass sets
    #: one before this class's ``__init__``).
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
        self.kernel = kernel
        self.costs = costs
        clock = self.clock = kernel.clock
        # The plane installs the four side channels on its clock once,
        # for every layer beneath it.  Off by default (the shared nulls);
        # none ever advances the clock.
        self.tracer = clock.tracer = plane_sink(
            tracer, Tracer, NO_TRACE).bind(clock)
        self.telemetry = clock.telemetry = plane_sink(
            telemetry, TelemetryRegistry, NO_TELEMETRY).bind(clock)
        self.fault_plan = clock.fault_plan = (
            fault_plan if fault_plan is not None else NO_FAULTS)
        clock.recorder = self.recorder
        #: The canned handler table, built once and shared read-only by
        #: every launch that installs no handlers of its own.
        self.canned_table = MappingProxyType(CannedHandlers(self.kernel).table())
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
        self._pools: dict[int, ShellPool] = {}
        #: ``id(image)`` -> ``(image, pool)``: the pool an image's
        #: virtines draw from, a function of the image alone.
        self._image_pools: dict[int, tuple[VirtineImage, ShellPool]] = {}

    # -- the launch bracket ---------------------------------------------------
    def memory_size_for(self, image: VirtineImage) -> int:
        """The pool bucket an image's virtines draw contexts from."""
        raise NotImplementedError

    def pool_for(self, memory_size: int) -> ShellPool:
        pool = self._pools.get(memory_size)
        if pool is None:
            pool = self._pools[memory_size] = ShellPool(
                self.maker, memory_size, background=self.background)
        return pool

    def _enter(self, virtine: Virtine, args: Any, max_steps: int,
               pool: ShellPool, pooled: bool, use_snapshot: bool,
               restore_mode: RestoreMode) -> tuple[bool, int]:
        """Run ``virtine`` in its provisioned context; returns whether it
        started from a snapshot and its final ``ax``."""
        raise NotImplementedError

    def _after_launch(self) -> None:
        """Runs once a launch has ended, after teardown and its span."""

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
        pooled: bool | None = None,
        clean: CleanMode = CleanMode.SYNC,
        max_steps: int = 50_000_000,
        deadline_cycles: int | None = None,
        deadline: "Deadline | None" = None,
    ) -> VirtineResult:
        """Run ``image`` in a fresh virtine and return its result.

        ``pooled=False`` forces scratch context creation (the "Wasp"
        series of Figure 8); otherwise contexts are drawn from and
        returned to the per-size pool under the ``clean`` discipline.
        ``pooled=None`` follows ``caps.pooled``: cheap-to-create
        mechanisms (SUD, threads) build scratch contexts, expensive ones
        draw from the pool.  When ``use_snapshot`` is set and the image
        has a stored reset state, boot and runtime initialisation are
        skipped (Figure 7) -- unless its integrity checksum mismatches,
        in which case the launch falls back to a cold boot and the
        rotted snapshot is dropped.  The snapshot and step knobs apply
        to KVM only.

        ``deadline_cycles`` bounds the launch's *total* simulated-cycle
        budget; exceeding it (or ``max_steps``) raises a typed
        :class:`VirtineTimeout`.  ``deadline`` instead carries an
        *absolute* request-scoped
        :class:`~repro.wasp.admission.Deadline` minted where the request
        entered the system, so time already burned upstream (queueing,
        admission) counts against the same budget; when both are given
        the absolute deadline wins.  A launch that crashes for any reason
        never returns its context to the pool unscrubbed -- the context
        is quarantined (scrub + generation bump) instead.
        """
        if pooled is None:
            pooled = self.caps.pooled
        self.launches += 1
        tracer = self.tracer
        recorder = self.recorder
        if recorder.enabled:
            recorder.launch_begin(image.name, pooled, use_snapshot)
        memo = self._image_pools.get(id(image))
        if memo is None or memo[0] is not image:
            if len(self._image_pools) >= 64:
                self._image_pools.clear()
            memo = self._image_pools[id(image)] = (
                image, self.pool_for(self.memory_size_for(image)))
        pool = memo[1]
        region = self.clock.region()
        # The launch root span opens with the measurement region and
        # closes (in the outer ``finally``) after teardown, so its cycle
        # count equals ``VirtineResult.cycles`` exactly: nothing advances
        # the clock between ``region.stop()`` and the span's end.
        launch_span = None
        if tracer.enabled:
            launch_span = tracer.begin(
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
                from_snapshot, final_ax = self._enter(
                    virtine, args, max_steps, pool, pooled, use_snapshot,
                    restore_mode)
                milestones = virtine.shell.vm.milestones.copy()
            except BaseException:
                crashed = True
                raise
            finally:
                # ``_enter`` may have swapped the shell (a GC-raced
                # snapshot): retire the one the virtine ends up on.
                shell = virtine.shell
                self._close_virtine_fds(virtine)
                if pooled:
                    if crashed:
                        pool.quarantine(shell)
                    else:
                        pool.release(shell, clean)
                else:
                    self.maker.destroy(shell)
            if launch_span is not None:
                launch_span.annotate(from_snapshot=from_snapshot)
        except BaseException as error:
            self._launch_failed(image, launch_span, error)
            raise
        finally:
            if launch_span is not None:
                tracer.end(launch_span)
            self._after_launch()
        if recorder.enabled:
            recorder.launch_end(
                image.name, "ok", exit_code=virtine.exit_code,
                from_snapshot=from_snapshot,
                hypercalls=virtine.hypercall_count, ax=final_ax)
        # Nothing advances the clock between here and the region stop in
        # the result below, so the histogram sample equals
        # ``VirtineResult.cycles`` exactly.
        elapsed = region.stop()
        if self.clock.observed:
            self.clock.emit("launch.ok", elapsed, image=image.name,
                            backend=self.backend, from_snapshot=from_snapshot)
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

    # -- priced crossings (per mechanism) ---------------------------------
    def gate_out_cycles(self, virtine: Virtine, nr: Hypercall) -> int:
        """A hosted hypercall's guest -> host crossing (a non-negative int)."""
        raise NotImplementedError

    def gate_back_cycles(self, virtine: Virtine, nr: Hypercall) -> int:
        """A hosted hypercall's host -> guest crossing (a non-negative int)."""
        raise NotImplementedError

    def on_denied(self, virtine: Virtine, nr: Hypercall,
                  denied: HypercallDenied) -> None:
        """What a policy denial does.  Default: nothing more -- the
        catchable denial propagates and :meth:`_run_hosted` turns it
        into a :class:`PolicyKill`."""

    # -- launch bookkeeping ---------------------------------------------------
    def _make_virtine(
        self,
        image: VirtineImage,
        shell: Any,
        policy: Policy | None,
        handlers: dict[Hypercall, Callable] | None,
        resources: dict[int, Any] | None,
        allowed_paths: tuple[str, ...] | None,
    ) -> Virtine:
        table = {**self.canned_table, **handlers} if handlers else self.canned_table
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
        """Report a launch that raised (the caller re-raises); ``span``
        is ``None`` when tracing is off."""
        kind = type(error).__name__
        if span is not None:
            span.annotate(error=kind)
        self.recorder.launch_end(image.name, kind, detail=str(error))
        if self.clock.observed:
            self.clock.emit("launch.crash", image=image.name, error=kind)

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
        tracer = self.tracer
        tracing = tracer.enabled
        recorder = self.recorder
        recording = recorder.enabled
        if recording:
            recorder.hosted_begin()
        try:
            if tracing:
                span = tracer.begin("guest.hosted", Category.GUEST)
            try:
                virtine.result = entry(env)
            except BaseException as error:
                if tracing:
                    span.annotate(error=type(error).__name__)
                raise
            finally:
                if tracing:
                    tracer.end(span)
        except GuestExitRequested:
            if recording:
                recorder.hosted_end(["exit"])
        except ReplayDivergence:
            # A strict-replay verdict about the *hypervisor*, not the
            # guest: it must escape the crash taxonomy untouched.
            if recording:
                recorder.hosted_end(["divergence"])
            raise
        except (Exception, IsolationKill) as error:
            crash = _hosted_crash(virtine, error)
            if recording:
                recorder.hosted_end(["crash", type(crash).__name__, str(crash)])
            if crash is error:
                raise
            raise crash from error
        else:
            if recording:
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
        clock = self.clock
        if virtine.deadline is not None and clock.cycles > virtine.deadline:
            self.timeouts += 1
            consumed = clock.cycles - virtine.started_cycles
            if clock.observed:
                clock.emit("timeout.deadline", virtine=virtine.name,
                           consumed=consumed)
            raise VirtineTimeout(
                f"virtine {virtine.name!r} exceeded its cycle deadline "
                f"({consumed:,} cycles consumed)",
                cycles=consumed,
            )
        if self.watchdog is not None:
            try:
                self.watchdog.check(virtine, clock.cycles)
            except VirtineHang as hang:
                self.timeouts += 1
                if clock.observed:
                    clock.emit("timeout.watchdog", virtine=virtine.name,
                               kind=getattr(getattr(hang, "kind", None),
                                            "value", None))
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
        if self.recorder.enabled:
            self.recorder.hosted_charge(cycles)
        clock = self.clock
        if virtine.deadline is not None:
            remaining = virtine.deadline - clock.cycles
            if cycles > remaining:
                charged = max(0, remaining) + 1
                clock.advance(charged)
                self.timeouts += 1
                if clock.observed:
                    clock.emit("guest.compute", charged)
                    clock.emit("timeout.mid_compute", virtine=virtine.name)
                consumed = clock.cycles - virtine.started_cycles
                raise VirtineTimeout(
                    f"virtine {virtine.name!r} cancelled at its cycle "
                    f"deadline mid-compute ({consumed:,} cycles consumed)",
                    cycles=consumed,
                )
        # Checked non-negative above; a float charge truncates, as
        # ``Clock.advance`` would.
        clock.cycles += int(cycles)
        if clock.observed:
            clock.emit("guest.compute", int(cycles))
        # check_deadline does nothing without a deadline or watchdog.
        if virtine.deadline is not None or self.watchdog is not None:
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
        through :meth:`on_denied`.  Data crossing the boundary is copied,
        not shared (Section 3): byte arguments and results are charged
        at memcpy bandwidth.  The gate, the handler call and the charges
        run in this one body, and each side channel is reached only when
        it is enabled (``with tracer.span`` spelled out, crash
        annotation included).
        """
        clock = self.clock
        observed = clock.observed
        tracer = self.tracer
        tracing = tracer.enabled
        recorder = self.recorder
        recording = recorder.enabled
        span_name, name, number = HYPERCALL_LABELS[nr]
        if tracing:
            span = tracer.begin(span_name, Category.HYPERCALL)
        try:
            out_cost = self.gate_out_cycles(virtine, nr)
            clock.cycles += out_cost
            virtine.hypercall_count += 1
            if observed:
                clock.emit("hypercall.boundary", out_cost)
                clock.emit("hypercall", nr=name)
            # Open the op now so a mid-dispatch escape (timeout, stall
            # kill, injected fault) is visible as an op with no outcome.
            op = recorder.hosted_hypercall_begin(number, args) if recording else None
            plan = self.fault_plan
            if plan.enabled and plan.draw(_GUEST_STALL, virtine.name):
                # The guest wedged before this hypercall landed: cycles pass
                # with no heartbeat, which an armed watchdog classifies as a
                # no-progress hang at the check below.
                if observed:
                    clock.emit("guest.stall", virtine=virtine.name)
                clock.cycles += GUEST_STALL_CYCLES
            # check_deadline does nothing without a deadline or watchdog.
            if virtine.deadline is not None or self.watchdog is not None:
                self.check_deadline(virtine)
            # The heartbeat (see _beat).
            virtine.last_beat_cycles = clock.cycles
            virtine.beats += 1
            try:
                # The policy gate and its audit record (see policy_gate).
                allowed = virtine.policy.allows(nr)
                virtine.audit.records.append(AuditRecord(nr, allowed))
                if not allowed:
                    raise HypercallDenied(nr)
                handler = virtine.handlers.get(nr)
                if handler is None:
                    raise HypercallError(nr, "ENOSYS", "no handler installed")
                result = handler(HypercallRequest(nr, args, virtine))
                moved = len(result) if isinstance(result, (bytes, bytearray)) else 0
                for arg in args:
                    if isinstance(arg, (bytes, bytearray)):
                        moved += len(arg)
                if moved:
                    clock.cycles += self.costs.memcpy(moved)
                if recording:
                    recorder.hosted_hypercall_end(op, "ok", result)
                return result
            except HypercallDenied as denied:
                if recording:
                    recorder.hosted_hypercall_end(op, "denied")
                self.on_denied(virtine, nr, denied)
                raise
            except HypercallError as error:
                if recording:
                    recorder.hosted_hypercall_end(op, "error", str(error))
                raise
            finally:
                back_cost = self.gate_back_cycles(virtine, nr)
                clock.cycles += back_cost
                if observed:
                    clock.emit("hypercall.boundary", back_cost)
        except BaseException as error:
            if tracing:
                span.annotate(error=type(error).__name__)
            raise
        finally:
            if tracing:
                tracer.end(span)


class Wasp(HostedPlane):
    """The embeddable virtine hypervisor."""

    BACKENDS = tuple(PLATFORMS)
    caps = KVM_CAPS
    # Rebound in Wasp's own class dict: the benchmark's layer trace
    # wraps ``vars(Wasp)["launch"]`` and
    # ``vars(Wasp)["dispatch_hosted_hypercall"]``.
    launch = HostedPlane.launch
    dispatch_hosted_hypercall = HostedPlane.dispatch_hosted_hypercall

    def __init__(
        self,
        kernel: HostKernel | None = None,
        costs: CostModel = COSTS,
        backend: str = "kvm",
        fault_plan: FaultPlan | None = None,
        tracer: Tracer | bool | None = None,
        engine: str = "fast+jit",
        recorder: InterfaceRecorder | None = None,
        replay: Any = None,
        snapshot_store: SnapshotStore | None = None,
        telemetry: TelemetryRegistry | bool | None = None,
    ) -> None:
        #: Interpreter engine (``reference`` | ``fast`` | ``fast+jit``, see
        #: :data:`repro.hw.isa.ENGINES`).  Simulated cycles are identical
        #: under all three; the VMs also pick their snapshot restore by
        #: it (:meth:`~repro.hw.vmx.VirtualMachine.restore_memory`).
        #: The backend device owns the
        #: :class:`~repro.hw.jit.JitDomain`, whose per-image block caches
        #: give pooled/restored shells their warm start.
        self.engine = engine
        #: Boundary-stream recorder: every interface site (launches,
        #: hypercalls, vmexits, device calls) reports through it; with
        #: the default :data:`NO_RECORD` nothing is recorded.
        self.recorder = recorder if recorder is not None else NO_RECORD
        super().__init__(kernel if kernel is not None else HostKernel(costs=costs),
                         costs, fault_plan, tracer, telemetry)
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
        self.kvm = self.maker = device_cls(
            self.clock, costs, backend=backend, engine=engine)
        self.backend = backend
        #: Reset-state registry.  The in-memory :class:`SnapshotStore`
        #: by default; pass a :class:`repro.store.cas.DurableSnapshotStore`
        #: for content-addressed, journaled, crash-consistent storage
        #: (same surface -- the launch path additionally absorbs its
        #: :class:`~repro.store.cas.SnapshotGone` GC-race signal).
        self.snapshots = snapshot_store if snapshot_store is not None else SnapshotStore()
        #: High-water marks of the JIT domain's monotonic stats already
        #: drained into telemetry counters (delta harvest per launch).
        self._jit_harvested: dict[tuple, int] = {}
        #: Snapshot restores that failed integrity and fell back cold.
        self.snapshot_fallbacks = 0
        #: A hosted hypercall's two crossings (see :meth:`gate_out_cycles`).
        self._gate_out = int(costs.VMRUN_EXIT + costs.ioctl())
        self._gate_back = int(costs.ioctl() + costs.KVM_RUN_CHECKS
                              + costs.VMRUN_ENTRY)

    # -- launch hooks ----------------------------------------------------------
    def memory_size_for(self, image: VirtineImage) -> int:
        """The pool bucket an image's virtines draw shells from."""
        required = _LOW_RESERVED + image.size + _RUNTIME_HEADROOM
        return _bucket_size(required)

    def _harvest_jit_telemetry(self) -> None:
        """Drain JIT-domain stat deltas into dimensional counters.

        The domain's plain-int stats are monotonic; this folds the growth
        since the previous harvest into telemetry (image-labelled where
        the stat is per-image).  Returns at once while nothing observes
        the clock domain (its channels are installed once, so there is
        nothing to catch up on later), and never advances the clock, so
        the sim-cost contract holds.
        """
        domain = self.kvm.jit_domain
        clock = self.clock
        if domain is None or not clock.observed:
            return
        seen = self._jit_harvested
        for reason, total in domain.side_exits.items():
            delta = total - seen.get(("exit", reason), 0)
            if delta > 0:
                clock.emit("jit.side_exits", delta, reason=reason)
                seen[("exit", reason)] = total
        for name, total in domain.counters.items():
            delta = total - seen.get(("ctr", name), 0)
            if delta > 0:
                clock.emit("jit.counter", delta, stat=name)
                seen[("ctr", name)] = total
        for cache in domain.images():
            stats = cache.stats()
            for stat in ("compiles", "invalidations",
                         "warm_hits", "warm_misses"):
                total = stats[stat]
                delta = total - seen.get((stat, cache.name), 0)
                if delta > 0:
                    clock.emit("jit.image", delta, stat=stat,
                               image=cache.name)
                    seen[(stat, cache.name)] = total

    _after_launch = _harvest_jit_telemetry

    def session(self, image: VirtineImage, **kwargs: Any) -> "VirtineSession":
        """Open a retained-context session (the "no teardown" mode)."""
        return VirtineSession(self, image, **kwargs)

    # -- internals ------------------------------------------------------------------
    def _boot(self, virtine: Virtine, args: Any, max_steps: int, pool: Any,
              pooled: bool, use_snapshot: bool,
              restore_mode: RestoreMode = RestoreMode.EAGER,
              persistent: dict | None = None) -> tuple[bool, int]:
        """The one boot sequence of :meth:`launch` and a session's cold
        invoke: restore the verified reset state (or install the image
        cold), then run until the guest halts or exits.  Returns whether
        the virtine started from its snapshot, and its final ``ax``.  A
        reset state collected under the shell swaps ``virtine.shell``,
        so callers retire that.
        """
        snap = None
        # A key the store does not hold skips the lookup: ``get`` would
        # return None with no fault draw.
        if use_snapshot and virtine.snapshot_key in self.snapshots.stored:
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
        return snap is not None, virtine.shell.vm.cpu.regs["ax"]

    _enter = _boot

    def _install_image(self, virtine: Virtine) -> None:
        """Cold path: copy the image into guest memory and point the vCPU
        at its entry.

        The vCPU is already at power-on, so it is not reset again here:
        every shell arrives that way (a new one from ``CPU()``, a
        recycled one from :meth:`ShellPool.release` or
        :meth:`ShellPool.quarantine`), with no milestones and the
        first-instruction charge pending.
        """
        image = virtine.image
        vm = virtine.shell.vm
        tracer = self.tracer
        tracing = tracer.enabled
        if tracing:
            span = tracer.begin("image.install", Category.BOOT, bytes=image.size)
        try:
            cost = self.costs.memcpy(image.size)
            self.clock.cycles += cost
            if self.clock.observed:
                self.clock.emit("image.install", cost)
            # Only the code is copied; the padding loads as zeros through
            # the memory's zero-page invariant (the charge above is still
            # for the full image).
            vm.memory.load_bytes(image.program.image, image.program.base,
                                 image.size)
            vm.interp.attach_program(image.program)
        except BaseException as error:
            if tracing:
                span.annotate(error=type(error).__name__)
            raise
        finally:
            if tracing:
                tracer.end(span)

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
            plan = self.fault_plan
            if plan.enabled and plan.draw(_SNAPSHOT_RESTORE, key):
                snap.corrupt()
            cost = self.costs.checksum(snap.copy_size)
            clock = self.clock
            clock.advance(cost)
            if clock.observed:
                clock.emit("snapshot.verify", int(cost))
            if not snap.verify():
                self.snapshots.drop(key)
                self.snapshots.integrity_failures += 1
                self.snapshot_fallbacks += 1
                if clock.observed:
                    clock.emit("snapshot.corrupt", key=key)
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
        if self.clock.observed:
            self.clock.emit("snapshot.gone", key=gone.key)
        if pooled:
            pool.quarantine_defect(shell)
            return pool.acquire()
        self.kvm.destroy(shell)
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
            else:
                # CoW: cheap shared mappings now, per-page copies on write.
                cost = self.costs.COW_MAP_PER_PAGE * len(snap.pages)
            self.clock.advance(cost)
            if self.clock.observed:
                self.clock.emit("snapshot.restore", int(cost))
            vm.restore_memory(snap, cow=mode is RestoreMode.COW)
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
        :meth:`_run_loop` calls it only for a virtine with a deadline.
        """
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
                info = shell.vcpu.run(
                    steps_left if virtine.deadline is None
                    else self._deadline_slice(virtine, steps_left))
            except InjectedFault as fault:
                # The KVM_RUN ioctl itself failed: a host-plane fault,
                # not the guest's doing.
                raise HostFault(
                    f"virtine {virtine.name!r} lost its vCPU: {fault}"
                ) from fault
            steps_left -= info.steps
            if virtine.deadline is not None or self.watchdog is not None:
                self.check_deadline(virtine)
            reason = info.reason
            if reason is _HLT:
                return
            if reason is _IO_OUT:
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
            if reason is _IO_IN:
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
                if self.clock.observed:
                    self.clock.emit("timeout.step_budget",
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
        span_name, name, number = HYPERCALL_LABELS[nr]
        if self.clock.observed:
            self.clock.emit("hypercall", nr=name)
        try:
            with self.tracer.span(span_name, Category.HYPERCALL):
                exited = self._isa_hypercall_body(virtine, nr, bx, cx, dx)
        except HypercallDenied as denied:
            # Same fate as a hosted guest tripping the policy.
            raise PolicyKill(f"virtine {virtine.name!r} killed: {denied}") from denied
        self.recorder.isa_hypercall(number, bx, cx, dx,
                                    cpu.read_reg("ax"), exited)
        return exited

    #: Hypercall numbers whose cx/dx registers name a guest buffer, by
    #: use: guest memory the host fills, guest bytes sent to the host,
    #: and a path (at most 4096 bytes) the host reads.
    _ISA_INBOUND_CALLS = frozenset({Hypercall.READ, Hypercall.RECV})
    _ISA_OUTBOUND_CALLS = frozenset({Hypercall.WRITE, Hypercall.SEND})
    _ISA_PATH_CALLS = frozenset({Hypercall.OPEN, Hypercall.STAT})
    _ISA_BUFFER_CALLS = _ISA_INBOUND_CALLS | _ISA_OUTBOUND_CALLS | _ISA_PATH_CALLS

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
        limit = 4096 if nr in self._ISA_PATH_CALLS else self.ISA_MAX_TRANSFER
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
        if nr is _EXIT:
            policy_gate(virtine, nr)
            virtine.exit_code = bx
            return True
        if nr is _SNAPSHOT:
            policy_gate(virtine, nr)
            self._capture(virtine, payload=None, hosted=False)
            return False
        error_value = cpu.mode.mask  # all-ones: the guest-visible errno
        try:
            if nr in self._ISA_INBOUND_CALLS:
                count = min(dx, self.ISA_MAX_TRANSFER)
                data = dispatch_handler(virtine, nr, (bx, count))
                self.clock.cycles += self.costs.memcpy(len(data))
                vm.memory.write(cx, data)
                cpu.write_reg("ax", len(data))
            elif nr in self._ISA_OUTBOUND_CALLS:
                if dx > self.ISA_MAX_TRANSFER:
                    raise HypercallError(nr, "EINVAL", f"transfer {dx} too large")
                data = vm.memory.read(cx, dx)
                self.recorder.attach_guest_buffer(cx, data)
                self.clock.cycles += self.costs.memcpy(len(data))
                cpu.write_reg("ax", int(dispatch_handler(virtine, nr, (bx, data))))
            elif nr in self._ISA_PATH_CALLS:
                if dx > 4096:
                    raise HypercallError(nr, "ENAMETOOLONG", f"path length {dx}")
                raw = vm.memory.read(cx, dx)
                self.recorder.attach_guest_buffer(cx, raw)
                path = raw.decode("utf-8", errors="strict")
                args = (path, bx) if nr is _OPEN else (path,)
                cpu.write_reg("ax", int(dispatch_handler(virtine, nr, args)))
            elif nr is _CLOSE:
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
    # Neither depends on the call, so both are priced once, at
    # construction (``_gate_out`` / ``_gate_back``).
    def gate_out_cycles(self, virtine: Virtine, nr: Hypercall) -> int:
        return self._gate_out

    def gate_back_cycles(self, virtine: Virtine, nr: Hypercall) -> int:
        return self._gate_back

    def exit_boundary_cycles(self) -> int:
        """Cycles the EXIT hypercall's one-way boundary crossing costs.

        Exit pays only the outbound half of the round trip (there is no
        re-entry); each isolation backend prices this differently.
        """
        return self._gate_out

    # -- snapshots ------------------------------------------------------------------------
    def capture_snapshot(self, virtine: Virtine, payload: Any) -> None:
        """SNAPSHOT hypercall from a hosted guest (policy-checked)."""
        with self.tracer.span("hypercall:SNAPSHOT", Category.HYPERCALL):
            self.clock.advance(self.gate_out_cycles(virtine, _SNAPSHOT))
            virtine.hypercall_count += 1
            self.recorder.hosted_snapshot(payload)
            try:
                policy_gate(virtine, _SNAPSHOT)
                self._capture(virtine, payload, hosted=True)
            finally:
                self.clock.advance(self.gate_back_cycles(virtine, _SNAPSHOT))

    def _capture(self, virtine: Virtine, payload: Any, hosted: bool) -> None:
        vm = virtine.shell.vm
        with self.tracer.span("snapshot.capture", Category.SNAPSHOT) as span:
            pages = vm.memory.capture_dirty()
            self.recorder.mem_capture(list(pages.numbers))
            snap = Snapshot(
                image_name=virtine.image.name,
                pages=pages,
                cpu_state=vm.cpu.save_state(),
                hosted_payload=copy.deepcopy(payload),
                hosted=hosted,
            )
            cost = self.costs.memcpy(snap.copy_size)
            self.clock.advance(cost)
            if self.clock.observed:
                self.clock.emit("snapshot.capture", int(cost))
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
            from_snapshot, _ = wasp._boot(
                virtine, args, max_steps, self._pool, True, self.use_snapshot,
                persistent=self._persistent)
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
