"""The hardware-virtualization device model, for KVM and for Hyper-V.

On Linux, each virtual context is "a device file which is manipulated by
Wasp using an ioctl" (Section 5.1); "our hypervisor implementation works
on both Linux and has a prototype implementation in Windows (through
Hyper-V) ... Hyper-V performance was similar for our experiments"
(Section 4.1).  Both platforms offer the same four calls, so one device
class serves both, driven by a per-platform row of :data:`PLATFORMS`:

* :meth:`KVM.create_vm` -- ``KVM_CREATE_VM`` / ``WHvCreatePartition``:
  allocates the in-kernel VM state (VMCB on AMD / VMCS on Intel).  This
  is the expensive step pooling avoids (Section 5.2).
* :meth:`VMHandle.set_user_memory_region` --
  ``KVM_SET_USER_MEMORY_REGION`` / ``WHvMapGpaRange``.
* :meth:`VMHandle.create_vcpu` -- ``KVM_CREATE_VCPU`` /
  ``WHvCreateVirtualProcessor``.
* :meth:`VcpuHandle.run` -- ``KVM_RUN`` / ``WHvRunVirtualProcessor``:
  "a series of sanity checks followed by execution of the vmrun
  instruction" (Section 4.2), plus the crossing of the call itself.

Every call charges its cycle costs on the shared clock.  The first three
build one :class:`Shell` (:meth:`KVM.create`, the context maker of
:class:`~repro.wasp.pool.ShellPool`); :meth:`KVM.destroy` closes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.faults import FaultSite
from repro.hw.clock import Clock
from repro.hw.costs import COSTS, CostModel
from repro.hw.isa import Program, check_engine
from repro.hw.jit import JitDomain
from repro.hw.vmx import ExitInfo, ExitReason, VirtualMachine
from repro.trace.tracer import Category

#: WHvCreatePartition + WHvSetupPartition (two API round trips; slightly
#: heavier than KVM_CREATE_VM).
WHV_CREATE_PARTITION = 205_000
WHV_SETUP_PARTITION = 40_000
#: WHvMapGpaRange.
WHV_MAP_GPA_RANGE = 34_000
#: WHvCreateVirtualProcessor.
WHV_CREATE_VCPU = 71_000
#: WHvRunVirtualProcessor API crossing (user-mode DLL + kernel transition;
#: a bit heavier than a bare ioctl).
WHV_RUN_OVERHEAD = 1_900

#: One row per platform, keyed by the names ``Wasp.BACKENDS`` uses.  A row
#: names the platform's four calls -- create VM, map guest memory, create
#: vCPU, run vCPU -- each with its cycle charge under a cost model.  KVM's
#: calls are ioctls charged from the :class:`CostModel`; Hyper-V's cross
#: the WHP user-mode API at "similar" but not identical fixed costs.
PLATFORMS: dict[str, tuple[tuple[str, Callable[[CostModel], int]], ...]] = {
    "kvm": (
        ("KVM_CREATE_VM", lambda c: c.ioctl() + c.KVM_CREATE_VM_BASE),
        ("KVM_SET_USER_MEMORY_REGION",
         lambda c: c.ioctl() + c.KVM_SET_MEMORY_REGION),
        ("KVM_CREATE_VCPU", lambda c: c.ioctl() + c.KVM_CREATE_VCPU),
        ("KVM_RUN", lambda c: c.ioctl() + c.KVM_RUN_CHECKS),
    ),
    "hyperv": (
        ("WHvCreatePartition",
         lambda c: WHV_CREATE_PARTITION + WHV_SETUP_PARTITION),
        ("WHvMapGpaRange", lambda c: WHV_MAP_GPA_RANGE),
        ("WHvCreateVirtualProcessor", lambda c: WHV_CREATE_VCPU),
        ("WHvRunVirtualProcessor", lambda c: WHV_RUN_OVERHEAD),
    ),
}


class KvmError(Exception):
    """An invalid use of the device interface."""


class KVM:
    """The system device: ``/dev/kvm``, or the WHP interface on Hyper-V."""

    def __init__(
        self,
        clock: Clock,
        costs: CostModel = COSTS,
        *,
        backend: str = "kvm",
        engine: str = "fast+jit",
    ) -> None:
        if backend not in PLATFORMS:
            raise ValueError(f"unknown VMM backend {backend!r} "
                             f"(use one of {tuple(PLATFORMS)})")
        self.clock = clock
        self.costs = costs
        #: The clock domain's side channels, installed by its plane.
        self.fault_plan, self.tracer, self.recorder = (
            clock.fault_plan, clock.tracer, clock.recorder)
        self.backend = backend
        #: ``(call name, cycles)`` of each platform call, charged once here.
        (self._create_call, self._map_call, self._vcpu_call,
         (self._run_name, self._run_cost)) = [
            (name, charge(costs)) for name, charge in PLATFORMS[backend]]
        #: Interpreter engine forwarded to every VirtualMachine.
        self.engine = check_engine(engine)
        #: Superblock-JIT domain shared by every VM of this device: pooled
        #: shells and snapshot restores re-attach the same per-image block
        #: caches, so later launches start with compiled blocks (warm
        #: start).  Device-scoped (not process-global) so same-seed runs
        #: are reproducible within one process.
        self.jit_domain = JitDomain() if engine == "fast+jit" else None
        self.vms_created = 0
        #: VM handles released via ``VMHandle.close`` (leak accounting:
        #: ``vms_created - vms_closed`` is the live-handle population).
        self.vms_closed = 0

    def _charge(self, call: tuple[str, int]) -> None:
        name, cost = call
        self.clock.advance(cost)
        if self.tracer.enabled:
            self.tracer.component(name, cost, Category.VMM)
        if self.recorder.enabled:
            self.recorder.devcall(name, cost)

    def create_vm(self) -> "VMHandle":
        """``KVM_CREATE_VM``: allocate in-kernel VM state."""
        self._charge(self._create_call)
        self.vms_created += 1
        return VMHandle(self)

    def create(self, memory_size: int) -> "Shell":
        """Build one shell: create the VM, map its memory, add a vCPU."""
        handle = self.create_vm()
        handle.set_user_memory_region(memory_size)
        vcpu = handle.create_vcpu()
        return Shell(handle, vcpu, memory_size)

    def destroy(self, shell: "Shell") -> None:
        """Close a shell's VM (host-side teardown is off the critical path)."""
        shell.handle.close()

    def _new_vm(self, size: int) -> VirtualMachine:
        """VM factory (the replay substrate overrides this)."""
        return VirtualMachine(size, self.clock, self.costs, engine=self.engine,
                              jit_domain=self.jit_domain)


class VMHandle:
    """A VM handle returned by :meth:`KVM.create_vm`."""

    def __init__(self, kvm: KVM) -> None:
        self.kvm = kvm
        self.vm: VirtualMachine | None = None
        self.vcpu: VcpuHandle | None = None
        self.closed = False

    def _check_open(self) -> None:
        if self.closed:
            raise KvmError("operation on a closed VM handle")

    def set_user_memory_region(self, size: int) -> None:
        """``KVM_SET_USER_MEMORY_REGION``: register guest memory."""
        self._check_open()
        if self.vm is not None:
            raise KvmError("memory region already registered")
        self.kvm._charge(self.kvm._map_call)
        self.vm = self.kvm._new_vm(size)

    def create_vcpu(self) -> "VcpuHandle":
        """``KVM_CREATE_VCPU``: allocate a vCPU."""
        self._check_open()
        if self.vm is None:
            raise KvmError("create_vcpu before set_user_memory_region")
        if self.vcpu is not None:
            raise KvmError("vCPU already created")
        self.kvm._charge(self.kvm._vcpu_call)
        self.vcpu = VcpuHandle(self)
        return self.vcpu

    def load_program(self, program: Program) -> None:
        """Copy a program image into guest memory (host-side memcpy)."""
        self._check_open()
        if self.vm is None:
            raise KvmError("load_program before set_user_memory_region")
        cost = self.kvm.costs.memcpy(len(program.image))
        self.kvm.clock.advance(cost)
        self.kvm.recorder.devcall("memcpy.image", cost)
        self.vm.load_program(program)

    def close(self) -> None:
        """Release the VM (host-side teardown is off the critical path).

        Breaks the handle's reference cycles (the vCPU's back-reference
        and the VM's callbacks), so a closed VM is freed by refcount as
        soon as its last holder lets go.
        """
        if not self.closed:
            self.kvm.vms_closed += 1
            if self.vm is not None:
                self.vm.close()
            self.vcpu = None
        self.closed = True


class VcpuHandle:
    """A vCPU handle returned by :meth:`VMHandle.create_vcpu`."""

    __slots__ = ("handle", "vm")

    def __init__(self, handle: VMHandle) -> None:
        self.handle = handle
        #: The VM this vCPU runs: ``create_vcpu`` runs only once the
        #: memory region, and with it the VM, exists.
        self.vm: VirtualMachine = handle.vm

    def run(self, max_steps: int = 50_000_000) -> ExitInfo:
        """``KVM_RUN``: call crossing + sanity checks + vmrun, until the
        next exit.

        The ring transitions of the call are charged on both the way in
        and (implicitly, as part of the round trip) on the way out --
        this is why hypercall exits are "doubly expensive" relative to a
        bare world switch (Section 6.3).
        """
        handle = self.handle
        if handle.closed:
            raise KvmError("operation on a closed VM handle")
        kvm = handle.kvm
        tracer = kvm.tracer
        tracing = tracer.enabled
        if tracing:
            span = tracer.begin(kvm._run_name, Category.VMM)
        try:
            kvm.clock.advance(kvm._run_cost)
            if kvm.fault_plan.draw(FaultSite.VCPU_RUN):
                # The call returns an error without ever entering the
                # guest (the crossing above was still paid).
                if tracing:
                    span.annotate(error="InjectedFault")
                raise kvm.fault_plan.fault(FaultSite.VCPU_RUN,
                                           f"{kvm._run_name} aborted")
            info = self.vm.vmrun(max_steps)
            if not isinstance(info.reason, ExitReason):
                # Fail closed: an exit reason outside the architectural
                # enum is hostile (or corrupt) guest state, not a host
                # bug -- classify it precisely, preserving the raw value.
                from repro.wasp.virtine import GuestFault

                if tracing:
                    span.annotate(error="GuestFault")
                raise GuestFault(
                    f"vCPU reported unknown vmexit reason {info.reason!r}; "
                    f"failing closed")
            if tracing:
                span.annotate(exit_reason=info.reason._value_)
            return info
        finally:
            if tracing:
                tracer.end(span)

    def complete_io_in(self, dest: str, value: int) -> None:
        """Deliver the result of an ``in`` port read before re-entry."""
        self.vm.complete_io_in(dest, value)


@dataclass
class Shell:
    """A cached, uninitialised hardware virtual context."""

    handle: VMHandle
    vcpu: VcpuHandle
    memory_size: int
    generation: int = 0

    def __post_init__(self) -> None:
        #: The vCPU's VM, bound once: a launch reaches it at every step.
        self.vm: VirtualMachine = self.vcpu.vm
