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
from repro.runtime.image import VirtineImage
from repro.telemetry.registry import NO_TELEMETRY, TelemetryRegistry
from repro.trace.tracer import Category, Tracer
from repro.wasp.hypercall import Hypercall, HypercallDenied, HypercallError
from repro.wasp.hypervisor import HostedPlane
from repro.wasp.policy import Policy
from repro.wasp.pool import CleanMode
from repro.wasp.virtine import (  # noqa: F401 - re-exported for the backends
    BackendCaps,
    BackendViolation,
    IsolationKill,
    Virtine,
    VirtineCrash,
    VirtineResult,
)

#: Every selectable backend, KVM included (the conformance matrix).
BACKEND_NAMES = ("kvm", "sud", "container", "process", "thread")

#: Default guest-memory size for a backend context: large enough for the
#: language extensions' marshalling windows (RET_AREA at 0x240000).
DEFAULT_CONTEXT_MEMORY = 4 * 1024 * 1024


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


class BackendHost(HostedPlane):
    """A Wasp-shaped launcher over any :class:`IsolationBackend`.

    The hosted-guest plane -- deadline and watchdog checks, guest-compute
    charges, the hypercall round trip, the crash taxonomy -- is
    :class:`~repro.wasp.hypervisor.HostedPlane`'s, shared with the KVM
    :class:`~repro.wasp.hypervisor.Wasp`; this class adds only context
    provisioning and forwards the boundary prices and the consequence
    of a denial to the selected mechanism.
    """

    def __init__(
        self,
        backend: IsolationBackend,
        *,
        fault_plan: FaultPlan | None = None,
        tracer: Tracer | bool | None = None,
        telemetry: TelemetryRegistry | bool | None = None,
    ) -> None:
        super().__init__(backend.kernel, backend.costs, fault_plan, tracer,
                         telemetry)
        self.backend_impl = backend
        self.backend = backend.name
        self.caps = backend.caps
        self.pool = ContextPool(
            backend, background=self.background,
            fault_plan=self.fault_plan, telemetry=self.telemetry,
        )

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
        ``max_steps``, ``restore_mode``... -- so callers written against
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
            virtine.arm(self.clock.cycles, deadline, deadline_cycles)
            crashed = False
            try:
                self.backend_impl.prepare_launch(virtine)
                self.clock.advance(self.backend_impl.enter_cycles())
                self._run_hosted(virtine, args, restored=None)
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
            self._launch_failed(image, launch_span, error)
            raise
        finally:
            self.tracer.end(launch_span)
        elapsed = region.stop()
        self._launch_done(image, elapsed, from_snapshot=False)
        return VirtineResult(
            value=virtine.result,
            exit_code=virtine.exit_code,
            cycles=elapsed,
            hypercall_count=virtine.hypercall_count,
            audit=virtine.audit,
            from_snapshot=False,
            milestones=milestones,
        )

    # -- the mechanism's prices and verdicts --------------------------------
    def gate_out_cycles(self, virtine: Virtine, nr: Hypercall) -> int:
        return self.backend_impl.gate_out_cycles(virtine, nr)

    def gate_back_cycles(self, virtine: Virtine, nr: Hypercall) -> int:
        return self.backend_impl.gate_back_cycles(virtine, nr)

    def on_denied(self, virtine: Virtine, nr: Hypercall,
                  denied: HypercallDenied) -> None:
        self.backend_impl.on_denied(virtine, nr, denied)

    def exit_boundary_cycles(self) -> int:
        """EXIT pays only the outbound half of the crossing."""
        return int(self.backend_impl.exit_cycles())

    def capture_snapshot(self, virtine: Virtine, payload: Any) -> None:
        """Snapshots are a declared capability; mechanisms without one
        reject the hypercall *typed* (ENOSYS -> GuestFault), never as an
        untyped surprise."""
        raise HypercallError(
            Hypercall.SNAPSHOT, "ENOSYS",
            f"backend {self.backend!r} cannot capture reset states",
        )


def create_host(
    name: str,
    kernel: HostKernel | None = None,
    *,
    costs: CostModel = COSTS,
    seed: int = 0,
    fault_plan: FaultPlan | None = None,
    tracer: Tracer | bool | None = None,
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
