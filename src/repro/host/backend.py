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
Wasp-shaped launcher that drives any backend through the *same* launch
bracket, context pool, policy gate, handler table, audit log, deadline
plane, and taxonomy as the KVM hypervisor -- which is what makes the
cross-backend conformance suite (``tests/conformance/``) meaningful:
identical verdicts, different costs.  A backend supplies only what
differs: how a context is made and unmade (it is the
:class:`~repro.wasp.pool.ShellPool`'s maker, as the KVM device is for
Wasp), how the launch enters it, and what each crossing costs.

Backend selection is by name (``"sud" | "container" | "process" |
"thread"``; ``"kvm"`` selects the real :class:`~repro.wasp.hypervisor.
Wasp`) through :func:`create_host` and the ``@virtine(backend=...)``
decorator option.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.faults import FaultPlan
from repro.host.kernel import HostKernel
from repro.hw.costs import COSTS, CostModel
from repro.hw.memory import GuestMemory
from repro.runtime.image import VirtineImage
from repro.telemetry.registry import TelemetryRegistry
from repro.trace.tracer import NO_TRACE, Tracer
from repro.wasp.hypercall import Hypercall, HypercallDenied, HypercallError
from repro.wasp.hypervisor import HostedPlane
from repro.wasp.pool import ShellPool
from repro.wasp.snapshot import RestoreMode
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
    :class:`~repro.host.kernel.HostKernel` clock.  ``create`` and
    ``destroy`` make a backend the context maker of a
    :class:`~repro.wasp.pool.ShellPool`, as the KVM device is for Wasp.
    """

    name = "abstract"
    caps = BackendCaps()
    #: The tracer pool spans open on (bound by :class:`BackendHost`).
    tracer = NO_TRACE

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


class BackendHost(HostedPlane):
    """A Wasp-shaped launcher over any :class:`IsolationBackend`.

    The hosted-guest plane -- the launch bracket and its context pool,
    deadline and watchdog checks, guest-compute charges, the hypercall
    round trip, the crash taxonomy -- is
    :class:`~repro.wasp.hypervisor.HostedPlane`'s, shared with the KVM
    :class:`~repro.wasp.hypervisor.Wasp`.  The backend is the pool's
    context maker; this class adds only the entry (the mechanism's
    launch hook and crossings around the hosted entry) and takes the
    boundary prices and the consequence of a denial from the selected
    mechanism.
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
        backend.tracer = self.tracer
        self.backend_impl = self.maker = backend
        self.backend = backend.name
        self.caps = backend.caps
        # The mechanism prices a hosted hypercall's two crossings and
        # decides what a denial does.
        self.gate_out_cycles = backend.gate_out_cycles
        self.gate_back_cycles = backend.gate_back_cycles
        self.on_denied = backend.on_denied

    def launch(self, image: VirtineImage, **kwargs: Any) -> VirtineResult:
        """Run ``image``'s hosted entry inside one isolated context
        (:meth:`~repro.wasp.hypervisor.HostedPlane.launch`)."""
        if image.hosted_entry is None:
            raise VirtineCrash(
                f"backend {self.backend!r} hosts Python entries only; "
                f"image {image.name!r} has none"
            )
        return super().launch(image, **kwargs)

    def memory_size_for(self, image: VirtineImage) -> int:
        return DEFAULT_CONTEXT_MEMORY

    def _enter(self, virtine: Virtine, args: Any, max_steps: int,
               pool: ShellPool, pooled: bool, use_snapshot: bool,
               restore_mode: RestoreMode) -> tuple[bool, int]:
        """Arm the mechanism, cross in, run the hosted entry, cross out.
        The snapshot and step knobs do not apply."""
        backend = self.backend_impl
        backend.prepare_launch(virtine)
        self.clock.advance(backend.enter_cycles())
        self._run_hosted(virtine, args, restored=None)
        self.clock.advance(backend.exit_cycles())
        return False, 0

    # -- the mechanism's prices and verdicts --------------------------------
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
