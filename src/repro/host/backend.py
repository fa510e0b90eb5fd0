"""First-class isolation backends: the Table 2 spectrum as one interface.

The paper positions virtines against processes, pthreads, and SGX
(Table 2); ROADMAP item 2 adds two more points on that spectrum --
mnvkd's ``vk_isolate`` (Syscall User Dispatch) and a namespace/seccomp
container.  Every mechanism answers the same four questions:

* what does *creating* an isolated context cost?
* what does *crossing into/out of* it cost?
* what does each *interposed host interaction* (the hypercall analogue)
  cost while inside?
* what happens on a *violation* -- and how does it map into the shared
  crash taxonomy (:class:`~repro.wasp.virtine.GuestFault` /
  :class:`~repro.wasp.virtine.PolicyKill` / ...)?

:class:`IsolationBackend` is that contract; :class:`BackendHost` is the
Wasp-shaped launcher that drives any backend through the *same* policy
gate, handler table, audit log, deadline plane, and taxonomy as the KVM
hypervisor -- which is what makes the cross-backend conformance suite
(``tests/conformance/``) meaningful: identical verdicts, different costs.

Backend selection is by name (``"sud" | "container" | "process" |
"thread"``; ``"kvm"`` selects the real :class:`~repro.wasp.hypervisor.
Wasp`) through :func:`create_host` and the ``@virtine(backend=...)``
decorator option.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.faults import NO_FAULTS, FaultPlan, FaultSite
from repro.host.kernel import HostKernel
from repro.hw.clock import BackgroundAccountant
from repro.hw.costs import COSTS, CostModel
from repro.hw.memory import GuestMemory
from repro.replay.stream import NO_RECORD
from repro.runtime.image import VirtineImage
from repro.telemetry.registry import NO_TELEMETRY, TelemetryRegistry
from repro.trace.tracer import NO_TRACE, Category, Tracer
from repro.wasp.guestenv import GuestEnv, GuestExitRequested
from repro.wasp.handlers import CannedHandlers
from repro.wasp.hypercall import (
    Hypercall,
    HypercallDenied,
    HypercallError,
    dispatch_handler,
)
from repro.wasp.hypervisor import HOST_PLANE_ERRNOS
from repro.wasp.policy import DefaultDenyPolicy, Policy
from repro.wasp.pool import CleanMode
from repro.wasp.virtine import (
    GuestFault,
    HostFault,
    PolicyKill,
    Virtine,
    VirtineCrash,
    VirtineResult,
    VirtineTimeout,
)

#: Every selectable backend, KVM included (the conformance matrix).
BACKEND_NAMES = ("kvm", "sud", "container", "process", "thread")

#: Default guest-memory size for a backend context: large enough for the
#: language extensions' marshalling windows (RET_AREA at 0x240000).
DEFAULT_CONTEXT_MEMORY = 4 * 1024 * 1024


class BackendViolation(Exception):
    """A backend-native isolation violation (mprotect trap, bad gate
    transition...).  :class:`BackendHost` maps it into the shared crash
    taxonomy as a :class:`~repro.wasp.virtine.GuestFault` -- the guest
    did something its mechanism forbids."""


class IsolationKill(BaseException):
    """An *uncatchable* mechanism-delivered kill (seccomp
    ``SECCOMP_RET_KILL_PROCESS`` semantics).

    Deliberately a ``BaseException``: guest code running ``except
    Exception`` cannot swallow it, exactly as a process cannot handle
    the SIGSYS that seccomp's kill action delivers.  The launch path
    converts it to the shared :class:`~repro.wasp.virtine.PolicyKill`
    verdict, so kill-on-violation backends classify identically to
    catch-and-deny ones.
    """

    def __init__(self, message: str, nr: Hypercall | None = None) -> None:
        super().__init__(message)
        self.nr = nr


@dataclass(frozen=True)
class BackendCaps:
    """What an isolation mechanism can and cannot do.

    Conformance tests gate on these instead of special-casing backend
    names: a divergence must be a *declared capability*, never an
    accident (the observable-divergence argument made testable).
    """

    #: Can capture/restore reset states (KVM only today).
    snapshot: bool = False
    #: Contexts are worth caching in a pool (creation is expensive).
    pooled: bool = True
    #: Shares the host address space (no hardware context of its own).
    in_process: bool = False
    #: A policy violation kills the context uncatchably (seccomp
    #: ``SECCOMP_RET_KILL``) instead of surfacing a catchable denial.
    kill_on_violation: bool = False


KVM_CAPS = BackendCaps(snapshot=True, pooled=True, in_process=False,
                       kill_on_violation=False)


def caps_of(host: Any) -> BackendCaps:
    """The capability flags of any launcher, Wasp included.

    :class:`BackendHost` carries its backend's caps directly; the KVM
    hypervisor predates the caps dataclass (and cannot import this
    module without a cycle), so its flags live in :data:`KVM_CAPS`.
    Conformance tests gate divergences on these, never on names.
    """
    return getattr(host, "caps", KVM_CAPS)


@dataclass
class IsolationContext:
    """One isolated execution context (the backend analogue of a
    :class:`~repro.wasp.pool.Shell`).

    Duck-types the parts of a shell the hosted path touches:
    ``ctx.vm.memory`` and ``ctx.vm.milestones`` (via the ``vm`` property
    returning the context itself), so :class:`~repro.wasp.guestenv.
    GuestEnv` runs unchanged on every backend.
    """

    backend: str
    memory: GuestMemory
    memory_size: int
    generation: int = 0
    #: Guest-recorded (marker, cycle) milestones, same as a VM's.
    milestones: list = field(default_factory=list)
    #: Backend-private state (SUD gate, seccomp filter, worker pid...).
    state: dict = field(default_factory=dict)
    closed: bool = False

    @property
    def vm(self) -> "IsolationContext":
        return self

    def reset(self) -> None:
        self.milestones.clear()

    def clear_memory(self) -> int:
        """Zero the context's memory; returns the memset cycle cost."""
        self.memory.fill()
        self.memory.reset_touch_tracking()
        return int(self.memory.size * COSTS.MEMCPY_CYCLES_PER_BYTE)


class IsolationBackend:
    """The per-mechanism cost + lifecycle contract.

    Subclasses override the ``*_cycles`` cost classes (each one a
    distinct calibrated constant combination, per the timing-simulation
    argument) and, where the mechanism has native machinery, the
    lifecycle hooks.  All charging goes through the shared
    :class:`~repro.host.kernel.HostKernel` clock.
    """

    name = "abstract"
    caps = BackendCaps()

    def __init__(self, kernel: HostKernel) -> None:
        self.kernel = kernel
        self.costs = kernel.costs
        self.clock = kernel.clock

    # -- cost classes (one per mechanism, never shared generics) ---------
    def creation_cycles(self) -> int:
        """Creating one context from scratch (the Figure 8 quantity)."""
        raise NotImplementedError

    def teardown_cycles(self) -> int:
        """Destroying a context (default: one syscall to reap it)."""
        return self.costs.syscall()

    def enter_cycles(self) -> int:
        """One-way transition from the host into the context."""
        raise NotImplementedError

    def exit_cycles(self) -> int:
        """One-way transition from the context back to the host."""
        raise NotImplementedError

    def crossing_cycles(self) -> int:
        """A full boundary crossing (the Table 2 quantity)."""
        return self.enter_cycles() + self.exit_cycles()

    def gate_out_cycles(self, virtine: Virtine, nr: Hypercall) -> int:
        """Interposed host-interaction cost, context -> host direction."""
        return self.exit_cycles()

    def gate_back_cycles(self, virtine: Virtine, nr: Hypercall) -> int:
        """Interposed host-interaction cost, host -> context direction."""
        return self.enter_cycles()

    # -- lifecycle --------------------------------------------------------
    def create(self, memory_size: int = DEFAULT_CONTEXT_MEMORY) -> IsolationContext:
        """Build one context, charging the creation cost class."""
        self.clock.advance(self.creation_cycles())
        return IsolationContext(
            backend=self.name,
            memory=GuestMemory(memory_size),
            memory_size=memory_size,
        )

    def destroy(self, ctx: IsolationContext) -> None:
        self.clock.advance(self.teardown_cycles())
        ctx.closed = True

    def prepare_launch(self, virtine: Virtine) -> None:
        """Per-launch setup hook (seccomp filter install, gate arming)."""

    def on_denied(self, virtine: Virtine, nr: Hypercall,
                  denied: HypercallDenied) -> None:
        """What a policy denial *does* on this mechanism.

        Default: re-raise the catchable denial (the KVM semantics).
        Kill-on-violation backends raise their uncatchable kill signal
        instead; either way the launch verdict is a
        :class:`~repro.wasp.virtine.PolicyKill`.
        """
        raise denied


class ContextPool:
    """A free list of reusable backend contexts (the shell-pool pattern).

    Mirrors :class:`~repro.wasp.pool.ShellPool`: pool hits cost only
    bookkeeping, crashed contexts are quarantined (synchronous scrub +
    generation bump) rather than blindly reinserted, and the
    :data:`~repro.faults.FaultSite.POOL_ACQUIRE` injection point models
    a cached context found defective.
    """

    def __init__(
        self,
        backend: IsolationBackend,
        memory_size: int = DEFAULT_CONTEXT_MEMORY,
        background: BackgroundAccountant | None = None,
        max_free: int = 64,
        fault_plan: FaultPlan | None = None,
        telemetry: TelemetryRegistry | None = None,
    ) -> None:
        self.backend = backend
        self.memory_size = memory_size
        self.background = background if background is not None else BackgroundAccountant()
        self.max_free = max_free
        self.fault_plan = fault_plan if fault_plan is not None else NO_FAULTS
        self.telemetry = telemetry if telemetry is not None else NO_TELEMETRY
        self._free: list[IsolationContext] = []
        self.hits = 0
        self.misses = 0
        self.quarantines = 0
        self.defects = 0

    @property
    def clock(self):
        return self.backend.clock

    def acquire(self) -> IsolationContext:
        if self._free:
            if self.fault_plan.draw(FaultSite.POOL_ACQUIRE):
                self.clock.advance(self.backend.costs.POOL_BOOKKEEPING)
                bad = self._free.pop()
                self.backend.destroy(bad)
                self.defects += 1
                self.misses += 1
                self.telemetry.counter("pool_defects_total",
                                       backend=self.backend.name).inc()
                self.telemetry.counter("pool_misses_total",
                                       backend=self.backend.name).inc()
                return self.backend.create(self.memory_size)
            self.clock.advance(self.backend.costs.POOL_BOOKKEEPING)
            self.hits += 1
            self.telemetry.counter("pool_hits_total",
                                   backend=self.backend.name).inc()
            ctx = self._free.pop()
            ctx.generation += 1
            return ctx
        self.misses += 1
        self.telemetry.counter("pool_misses_total",
                               backend=self.backend.name).inc()
        return self.backend.create(self.memory_size)

    def create_scratch(self) -> IsolationContext:
        self.misses += 1
        self.telemetry.counter("pool_misses_total",
                               backend=self.backend.name).inc()
        return self.backend.create(self.memory_size)

    def release(self, ctx: IsolationContext,
                clean: CleanMode = CleanMode.SYNC) -> None:
        ctx.reset()
        if clean is CleanMode.SYNC:
            self.clock.advance(ctx.clear_memory())
        elif clean is CleanMode.ASYNC:
            self.background.charge(ctx.clear_memory())
        if len(self._free) < self.max_free:
            self.clock.advance(self.backend.costs.POOL_BOOKKEEPING)
            self._free.append(ctx)
        else:
            self.backend.destroy(ctx)

    def quarantine(self, ctx: IsolationContext) -> None:
        """Reclaim a context that hosted a crash: the scrub is a security
        boundary (never deferred), and the generation bump makes stale
        references to the pre-crash occupancy detectable."""
        self.quarantines += 1
        self.telemetry.counter("pool_quarantines_total",
                               backend=self.backend.name).inc()
        ctx.reset()
        self.clock.advance(ctx.clear_memory())
        ctx.generation += 1
        if len(self._free) < self.max_free:
            self.clock.advance(self.backend.costs.POOL_BOOKKEEPING)
            self._free.append(ctx)
        else:
            self.backend.destroy(ctx)

    def prewarm(self, count: int) -> None:
        target = min(count, self.max_free)
        while len(self._free) < target:
            self._free.append(self.backend.create(self.memory_size))

    @property
    def free_count(self) -> int:
        return len(self._free)


class BackendHost:
    """A Wasp-shaped launcher over any :class:`IsolationBackend`.

    Presents the surface the rest of the stack programs against --
    ``launch`` / ``clock`` / ``tracer`` / ``telemetry`` / ``supervisor``
    / ``charge_guest`` / ``dispatch_hosted_hypercall`` -- so hosted guest
    bodies, the ``@virtine`` decorator, and the supervision plane run
    unchanged while every boundary is priced (and every violation
    punished) by the selected mechanism.
    """

    def __init__(
        self,
        backend: IsolationBackend,
        *,
        fault_plan: FaultPlan | None = None,
        tracer: Tracer | None = None,
        telemetry: TelemetryRegistry | bool | None = None,
    ) -> None:
        self.backend_impl = backend
        self.backend = backend.name
        self.caps = backend.caps
        self.kernel = backend.kernel
        self.costs = backend.costs
        self.clock = backend.clock
        self.fault_plan = fault_plan if fault_plan is not None else NO_FAULTS
        if fault_plan is not None:
            self.kernel.fault_plan = fault_plan
        self.tracer = tracer if tracer is not None else NO_TRACE
        self.tracer.bind(self.clock)
        if isinstance(telemetry, TelemetryRegistry):
            self.telemetry = telemetry
        elif telemetry:
            self.telemetry = TelemetryRegistry()
        else:
            self.telemetry = NO_TELEMETRY
        self.telemetry.bind(self.clock)
        self.recorder = NO_RECORD
        self.canned = CannedHandlers(self.kernel)
        self.background = BackgroundAccountant()
        self.pool = ContextPool(
            backend, background=self.background,
            fault_plan=self.fault_plan, telemetry=self.telemetry,
        )
        #: GuestEnv.can_snapshot reads this through the shared accessor.
        self.snapshot_capable = backend.caps.snapshot
        self.launches = 0
        self.timeouts = 0
        #: Attached supervision plane, if any (set by the Supervisor).
        self.supervisor = None
        self.watchdog = None

    # -- launch -----------------------------------------------------------
    def launch(
        self,
        image: VirtineImage,
        *,
        policy: Policy | None = None,
        handlers: dict[Hypercall, Callable] | None = None,
        resources: dict[int, Any] | None = None,
        allowed_paths: tuple[str, ...] | None = None,
        args: Any = None,
        pooled: bool | None = None,
        clean: CleanMode = CleanMode.SYNC,
        deadline_cycles: int | None = None,
        deadline: Any = None,
        **_wasp_compat: Any,
    ) -> VirtineResult:
        """Run ``image``'s hosted entry inside one isolated context.

        Accepts (and ignores) the Wasp-only keywords -- ``use_snapshot``,
        ``max_steps``, ``core``... -- so callers written against
        :meth:`Wasp.launch` work unmodified.  ``pooled`` defaults to the
        backend's declared capability: cheap-to-create mechanisms (SUD,
        threads) build scratch contexts; expensive ones draw from the
        pool.
        """
        if image.hosted_entry is None:
            raise VirtineCrash(
                f"backend {self.backend!r} hosts Python entries only; "
                f"image {image.name!r} has none"
            )
        if pooled is None:
            pooled = self.caps.pooled
        self.launches += 1
        region = self.clock.region()
        launch_span = self.tracer.begin(
            f"launch:{image.name}", Category.LAUNCH,
            image=image.name, backend=self.backend,
        )
        try:
            ctx = self.pool.acquire() if pooled else self.pool.create_scratch()
            virtine = self._make_virtine(image, ctx, policy, handlers,
                                         resources, allowed_paths)
            virtine.started_cycles = self.clock.cycles
            virtine.last_beat_cycles = self.clock.cycles
            if deadline is not None:
                virtine.deadline = int(deadline.expires_at)
            elif deadline_cycles is not None:
                virtine.deadline = self.clock.cycles + deadline_cycles
            crashed = False
            try:
                self.backend_impl.prepare_launch(virtine)
                self.clock.advance(self.backend_impl.enter_cycles())
                self._run_entry(virtine, args)
                self.clock.advance(self.backend_impl.exit_cycles())
                milestones = [(m.marker, m.cycles) for m in ctx.milestones]
            except BaseException:
                crashed = True
                raise
            finally:
                self._close_virtine_fds(virtine)
                if pooled:
                    if crashed:
                        self.pool.quarantine(ctx)
                    else:
                        self.pool.release(ctx, clean)
                else:
                    self.backend_impl.destroy(ctx)
        except BaseException as error:
            launch_span.annotate(error=type(error).__name__)
            self.telemetry.counter("launch_failures_total", image=image.name,
                                   error=type(error).__name__).inc()
            self.telemetry.record_flight("launch", "crash", image=image.name,
                                         error=type(error).__name__)
            raise
        finally:
            self.tracer.end(launch_span)
        elapsed = region.stop()
        self.telemetry.counter("launches_total", image=image.name,
                               backend=self.backend).inc()
        self.telemetry.histogram("launch_cycles", image=image.name).record(elapsed)
        return VirtineResult(
            value=virtine.result,
            exit_code=virtine.exit_code,
            cycles=elapsed,
            hypercall_count=virtine.hypercall_count,
            audit=virtine.audit,
            from_snapshot=False,
            milestones=milestones,
        )

    def launch_many(self, image: VirtineImage, args_list: list[Any], *,
                    return_exceptions: bool = False,
                    **launch_kwargs: Any) -> list[VirtineResult | BaseException]:
        """Batched dispatch, routing through an attached supervisor."""
        supervisor = self.supervisor
        launcher = supervisor.launch if supervisor is not None else self.launch
        results: list[VirtineResult | BaseException] = []
        for args in args_list:
            try:
                results.append(launcher(image, args=args, **launch_kwargs))
            except Exception as error:
                if not return_exceptions:
                    raise
                results.append(error)
        return results

    # -- internals --------------------------------------------------------
    def _make_virtine(
        self,
        image: VirtineImage,
        ctx: IsolationContext,
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
            shell=ctx,
            policy=policy if policy is not None else DefaultDenyPolicy(),
            handlers=table,
            resources=dict(resources or {}),
            allowed_path_prefixes=allowed_paths,
        )
        virtine.policy.reset()
        return virtine

    def _run_entry(self, virtine: Virtine, args: Any) -> None:
        """Execute the hosted entry under the shared crash taxonomy.

        The except-chain is deliberately identical to the KVM
        hypervisor's hosted path: the conformance contract is that *who
        is at fault* classifies the same on every mechanism, whatever
        the mechanism-native signal was.
        """
        env = GuestEnv(self, virtine, args=args)
        try:
            with self.tracer.span("guest.hosted", Category.GUEST):
                virtine.result = virtine.image.hosted_entry(env)
        except GuestExitRequested:
            pass
        except HypercallDenied as error:
            raise PolicyKill(
                f"virtine {virtine.name!r} killed: {error}") from error
        except IsolationKill as error:
            raise PolicyKill(
                f"virtine {virtine.name!r} killed: {error}") from error
        except BackendViolation as error:
            # The mechanism's own trap (mprotect fault, gate misuse):
            # untrusted code did something forbidden -- a guest fault.
            raise GuestFault(
                f"virtine {virtine.name!r} faulted: {error}") from error
        except HypercallError as error:
            if error.errno_name in HOST_PLANE_ERRNOS:
                raise HostFault(
                    f"virtine {virtine.name!r} killed by host failure: {error}"
                ) from error
            raise GuestFault(
                f"virtine {virtine.name!r} killed: {error}") from error
        except VirtineCrash:
            raise
        except Exception as error:
            raise GuestFault(
                f"virtine {virtine.name!r} faulted: "
                f"{type(error).__name__}: {error}") from error

    # -- the GuestEnv surface (duck-typed Wasp) ---------------------------
    def exit_boundary_cycles(self) -> int:
        """EXIT pays only the outbound half of the crossing."""
        return int(self.backend_impl.exit_cycles())

    def dispatch_hosted_hypercall(self, virtine: Virtine, nr: Hypercall,
                                  args: tuple) -> Any:
        """One interposed host interaction: gate out, dispatch, gate back.

        Same policy gate, audit, deadline check, and heartbeat as the
        KVM path; the boundary cost classes and the consequence of a
        denial are the backend's.
        """
        backend = self.backend_impl
        boundary = self.telemetry.counter("component_cycles_total",
                                          component="hypercall.boundary")
        with self.tracer.span(f"hypercall:{nr.name}", Category.HYPERCALL):
            out_cost = backend.gate_out_cycles(virtine, nr)
            self.clock.advance(out_cost)
            boundary.inc(int(out_cost))
            virtine.hypercall_count += 1
            self.telemetry.counter("hypercalls_total", nr=nr.name).inc()
            if self.fault_plan.draw(FaultSite.GUEST_STALL, virtine.name):
                from repro.wasp.hypervisor import GUEST_STALL_CYCLES

                self.clock.advance(GUEST_STALL_CYCLES)
            self.check_deadline(virtine)
            self._beat(virtine)
            try:
                result = dispatch_handler(virtine, nr, args)
                self._charge_marshalling(args, result)
                return result
            except HypercallDenied as denied:
                backend.on_denied(virtine, nr, denied)
                raise
            finally:
                back_cost = backend.gate_back_cycles(virtine, nr)
                self.clock.advance(back_cost)
                boundary.inc(int(back_cost))

    def _charge_marshalling(self, args: tuple, result: Any) -> None:
        """Data crossing the boundary is copied, not shared (Section 3)."""
        moved = sum(len(a) for a in args if isinstance(a, (bytes, bytearray)))
        if isinstance(result, (bytes, bytearray)):
            moved += len(result)
        if moved:
            self.clock.advance(self.costs.memcpy(moved))

    def capture_snapshot(self, virtine: Virtine, payload: Any) -> None:
        """Snapshots are a declared capability; mechanisms without one
        reject the hypercall *typed* (ENOSYS -> GuestFault), never as an
        untyped surprise."""
        raise HypercallError(
            Hypercall.SNAPSHOT, "ENOSYS",
            f"backend {self.backend!r} cannot capture reset states",
        )

    def check_deadline(self, virtine: Virtine) -> None:
        """Kill a virtine past its cycle deadline (typed, like Wasp)."""
        if virtine.deadline is not None and self.clock.cycles > virtine.deadline:
            self.timeouts += 1
            consumed = self.clock.cycles - virtine.started_cycles
            self.telemetry.counter("timeouts_total", kind="deadline").inc()
            raise VirtineTimeout(
                f"virtine {virtine.name!r} exceeded its cycle deadline "
                f"({consumed:,} cycles consumed)",
                cycles=consumed,
            )
        if self.watchdog is not None:
            self.watchdog.check(virtine, self.clock.cycles)

    def charge_guest(self, virtine: Virtine, cycles: int) -> None:
        """Deadline-clamped guest compute charge (mirrors Wasp exactly:
        work is cancelled mid-compute, not finished on borrowed time)."""
        if cycles < 0:
            raise GuestFault(
                f"virtine {virtine.name!r} charged negative guest cycles "
                f"({cycles})"
            )
        if virtine.deadline is not None:
            remaining = virtine.deadline - self.clock.cycles
            if cycles > remaining:
                self.clock.advance(max(0, remaining) + 1)
                self.timeouts += 1
                self.telemetry.counter("timeouts_total",
                                       kind="mid_compute").inc()
                consumed = self.clock.cycles - virtine.started_cycles
                raise VirtineTimeout(
                    f"virtine {virtine.name!r} cancelled at its cycle "
                    f"deadline mid-compute ({consumed:,} cycles consumed)",
                    cycles=consumed,
                )
        self.clock.advance(cycles)
        self.check_deadline(virtine)

    def _beat(self, virtine: Virtine) -> None:
        virtine.last_beat_cycles = self.clock.cycles
        virtine.beats += 1

    def _close_virtine_fds(self, virtine: Virtine) -> None:
        """Close any host fds the virtine leaked (isolation hygiene --
        the conformance leak check asserts this reaches zero)."""
        for fd in list(virtine.owned_fds):
            try:
                self.kernel.fs.close(fd)
            except Exception:
                pass
            virtine.owned_fds.discard(fd)


def create_host(
    name: str,
    kernel: HostKernel | None = None,
    *,
    costs: CostModel = COSTS,
    seed: int = 0,
    fault_plan: FaultPlan | None = None,
    tracer: Tracer | None = None,
    telemetry: TelemetryRegistry | bool | None = None,
    **wasp_kwargs: Any,
):
    """Build a launcher for a named backend.

    ``"kvm"`` returns a full :class:`~repro.wasp.hypervisor.Wasp`; every
    other name returns a :class:`BackendHost` over that mechanism.  The
    ``seed`` parameterizes seeded backend state (the container's seccomp
    rule ordering).
    """
    if name == "kvm":
        from repro.wasp.hypervisor import Wasp

        return Wasp(kernel=kernel, costs=costs, fault_plan=fault_plan,
                    tracer=tracer, telemetry=telemetry, **wasp_kwargs)
    if kernel is None:
        kernel = HostKernel(costs=costs, fault_plan=fault_plan)
    if name == "sud":
        from repro.host.sud import SudBackend

        backend: IsolationBackend = SudBackend(kernel)
    elif name == "container":
        from repro.host.container import ContainerBackend

        backend = ContainerBackend(kernel, seed=seed)
    elif name == "process":
        from repro.host.process import ProcessBackend

        backend = ProcessBackend(kernel)
    elif name == "thread":
        from repro.host.threads import ThreadBackend

        backend = ThreadBackend(kernel)
    else:
        raise ValueError(
            f"unknown isolation backend {name!r} (use one of {BACKEND_NAMES})")
    return BackendHost(backend, fault_plan=fault_plan, tracer=tracer,
                       telemetry=telemetry)
