"""Device-model tests: the call surface and its cost structure, on both
platform rows (KVM ioctls and Hyper-V's WHP calls, Section 4.1)."""

import pytest

from repro.faults import FaultPlan, FaultSite, InjectedFault
from repro.hw.clock import Clock
from repro.hw.costs import COSTS
from repro.hw.isa import Assembler
from repro.hw.vmx import ExitReason
from repro.kvm.device import KVM, KvmError
from repro.replay.stream import InterfaceRecorder
from repro.trace.tracer import Tracer

BACKENDS = ("kvm", "hyperv")

#: Each platform's four calls -- create VM, map memory, create vCPU, run
#: vCPU -- with the exact cycles each one charges.
CALLS = {
    "kvm": [
        ("KVM_CREATE_VM", COSTS.ioctl() + COSTS.KVM_CREATE_VM_BASE),
        ("KVM_SET_USER_MEMORY_REGION",
         COSTS.ioctl() + COSTS.KVM_SET_MEMORY_REGION),
        ("KVM_CREATE_VCPU", COSTS.ioctl() + COSTS.KVM_CREATE_VCPU),
        ("KVM_RUN", COSTS.ioctl() + COSTS.KVM_RUN_CHECKS),
    ],
    "hyperv": [
        ("WHvCreatePartition", 245_000),
        ("WHvMapGpaRange", 34_000),
        ("WHvCreateVirtualProcessor", 71_000),
        ("WHvRunVirtualProcessor", 1_900),
    ],
}


@pytest.fixture(params=BACKENDS)
def device(request):
    return KVM(Clock(), backend=request.param)


@pytest.fixture
def kvm():
    return KVM(Clock())


def hlt_program():
    return Assembler(0x8000).assemble("hlt")


class TestLifecycle:
    def test_create_vm_charges(self, kvm):
        before = kvm.clock.cycles
        kvm.create_vm()
        assert kvm.clock.cycles - before >= COSTS.KVM_CREATE_VM_BASE
        assert kvm.vms_created == 1

    def test_full_bringup_and_run(self, device):
        handle = device.create_vm()
        handle.set_user_memory_region(4 * 1024 * 1024)
        vcpu = handle.create_vcpu()
        handle.load_program(hlt_program())
        info = vcpu.run()
        assert info.reason is ExitReason.HLT
        assert device.vms_created == 1

    def test_vcpu_before_memory_rejected(self, device):
        handle = device.create_vm()
        with pytest.raises(KvmError):
            handle.create_vcpu()

    def test_double_memory_region_rejected(self, device):
        handle = device.create_vm()
        handle.set_user_memory_region(4 * 1024 * 1024)
        with pytest.raises(KvmError):
            handle.set_user_memory_region(4 * 1024 * 1024)

    def test_double_vcpu_rejected(self, device):
        handle = device.create_vm()
        handle.set_user_memory_region(4 * 1024 * 1024)
        handle.create_vcpu()
        with pytest.raises(KvmError):
            handle.create_vcpu()

    def test_closed_fd_rejected(self, device):
        handle = device.create_vm()
        handle.close()
        with pytest.raises(KvmError):
            handle.set_user_memory_region(4 * 1024 * 1024)

    def test_load_after_close_rejected(self, device):
        handle = device.create_vm()
        handle.set_user_memory_region(4 * 1024 * 1024)
        handle.create_vcpu()
        handle.close()
        with pytest.raises(KvmError):
            handle.load_program(hlt_program())

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            KVM(Clock(), backend="xen")


class TestPlatformRows:
    """Each row charges its platform's cycles and emits its call names."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bringup_charges_and_names(self, backend):
        clock = Clock()
        tracer = Tracer(clock)
        recorder = InterfaceRecorder()
        plan = FaultPlan().fail(FaultSite.VCPU_RUN, on={1})
        device = KVM(clock, fault_plan=plan, tracer=tracer,
                     recorder=recorder, backend=backend)
        charged = []
        before = clock.cycles
        handle = device.create_vm()
        charged.append(clock.cycles - before)
        before = clock.cycles
        handle.set_user_memory_region(4 * 1024 * 1024)
        charged.append(clock.cycles - before)
        before = clock.cycles
        vcpu = handle.create_vcpu()
        charged.append(clock.cycles - before)
        handle.load_program(hlt_program())
        before = clock.cycles
        run_name = CALLS[backend][3][0]
        with pytest.raises(InjectedFault, match=f"{run_name} aborted"):
            vcpu.run()
        charged.append(clock.cycles - before)

        assert charged == [cycles for _, cycles in CALLS[backend]]
        names = [name for name, _ in CALLS[backend]]
        assert [span.name for span in tracer.walk()] == names
        assert [(event["name"], event["cycles"])
                for event in recorder.events] == [
            *CALLS[backend][:3],
            ("memcpy.image", COSTS.memcpy(len(hlt_program().image))),
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_run_span_carries_exit_reason(self, backend):
        clock = Clock()
        tracer = Tracer(clock)
        device = KVM(clock, tracer=tracer, backend=backend)
        handle = device.create_vm()
        handle.set_user_memory_region(4 * 1024 * 1024)
        vcpu = handle.create_vcpu()
        handle.load_program(hlt_program())
        vcpu.run()
        (run,) = tracer.find(CALLS[backend][3][0])
        assert run.args["exit_reason"] == ExitReason.HLT.value


class TestCosts:
    def test_vmrun_roundtrip_is_the_floor(self, kvm):
        """KVM_RUN on a ready VM: the "vmrun" series of Figures 2/8."""
        handle = kvm.create_vm()
        handle.set_user_memory_region(4 * 1024 * 1024)
        vcpu = handle.create_vcpu()
        handle.load_program(hlt_program())
        vcpu.run()  # warm: first-instruction charge happens here
        before = kvm.clock.cycles
        vcpu.handle.vm.reset()
        vcpu.handle.vm.interp.attach_program(vcpu.handle.vm.interp.program)
        vcpu.handle.vm.interp._first_instruction_pending = False
        vcpu.run()
        roundtrip = kvm.clock.cycles - before
        # Must be within ~2% of the cost-model floor (plus the hlt itself).
        assert roundtrip == pytest.approx(COSTS.vmrun_roundtrip(), rel=0.02)

    def test_creation_dominates_run(self, device):
        """Figure 2: creating a VM costs orders of magnitude more than
        entering an existing one."""
        with device.clock.region() as create_region:
            handle = device.create_vm()
            handle.set_user_memory_region(4 * 1024 * 1024)
            vcpu = handle.create_vcpu()
        handle.load_program(hlt_program())
        with device.clock.region() as run_region:
            vcpu.run()
        assert create_region.elapsed > 50 * run_region.elapsed

    def test_load_program_charges_memcpy(self, device):
        handle = device.create_vm()
        handle.set_user_memory_region(4 * 1024 * 1024)
        handle.create_vcpu()
        program = hlt_program()
        before = device.clock.cycles
        handle.load_program(program)
        assert device.clock.cycles - before >= COSTS.memcpy(len(program.image))
