"""VirtualMachine tests: world switches, exits, EPT faults, milestones."""

import pytest

from repro.hw.clock import Clock
from repro.hw.costs import COSTS
from repro.hw.cpu import Mode
from repro.hw.isa import Assembler
from repro.hw.vmx import DEBUG_PORT, ExitReason, VirtualMachine
from repro.runtime.boot import boot_source, fib_source


def make_vm(source, clock=None):
    vm = VirtualMachine(8 * 1024 * 1024, clock if clock is not None else Clock())
    vm.load_program(Assembler(0x8000).assemble(source))
    return vm


class TestWorldSwitch:
    def test_hlt_exit(self):
        vm = make_vm("hlt")
        info = vm.vmrun()
        assert info.reason is ExitReason.HLT

    def test_entry_and_exit_charged(self):
        clock = Clock()
        vm = make_vm("hlt", clock)
        before = clock.cycles
        vm.vmrun()
        elapsed = clock.cycles - before
        assert elapsed >= COSTS.VMRUN_ENTRY + COSTS.VMRUN_EXIT

    def test_io_out_exit(self):
        vm = make_vm("mov bx, 3\nout 0x200, bx\nhlt")
        info = vm.vmrun()
        assert info.reason is ExitReason.IO_OUT
        assert info.port == 0x200
        assert info.value == 3
        assert vm.vmrun().reason is ExitReason.HLT

    def test_io_in_exit_and_resume(self):
        vm = make_vm("in ax, 0x60\nhlt")
        info = vm.vmrun()
        assert info.reason is ExitReason.IO_IN
        vm.complete_io_in(info.in_dest, 0x42)
        assert vm.vmrun().reason is ExitReason.HLT
        assert vm.cpu.read_reg("ax") == 0x42

    def test_shutdown_on_bad_fetch(self):
        vm = make_vm("jmp 0x10")
        info = vm.vmrun()
        assert info.reason is ExitReason.SHUTDOWN
        assert "unmapped" in info.detail


class TestEptFaults:
    def test_guest_store_faults_once_per_page(self):
        vm = make_vm("mov ax, 1\nmov [0x100], ax\nmov [0x108], ax\nhlt")
        vm.vmrun()
        assert vm.ept_faults == 1
        assert vm.ept_fault_cycles == COSTS.EPT_FIRST_TOUCH_FAULT

    def test_host_image_load_does_not_fault(self):
        vm = make_vm("hlt")
        assert vm.ept_faults == 0
        vm.vmrun()
        assert vm.ept_faults == 0

    def test_recycled_shell_keeps_ept(self):
        """Clearing memory keeps the EPT mappings (cheap shell reuse)."""
        vm = make_vm("mov ax, 1\nmov [0x100], ax\nhlt")
        vm.vmrun()
        assert vm.ept_faults == 1
        vm.clear_memory()
        vm.reset()
        vm.interp.attach_program(vm.interp.program)
        vm.vmrun()
        assert vm.ept_faults == 1  # no new fault on the re-run

    def test_clear_memory_cost_scales_with_dirty(self):
        vm_small = make_vm("mov ax, 1\nmov [0x100], ax\nhlt")
        vm_small.vmrun()
        small = vm_small.clear_memory()
        vm_big = make_vm("""
            mov di, 0x100000
            mov ax, 1
            mov cx, 5000
        w:
            stos64
            dec cx
            jnz w
            hlt
        """)
        vm_big.vmrun()
        big = vm_big.clear_memory()
        assert big > small


class TestMilestones:
    def test_debug_port_records_without_exit(self):
        clock = Clock()
        vm = make_vm(f"out {DEBUG_PORT:#x}, 1\nout {DEBUG_PORT:#x}, 2\nhlt", clock)
        info = vm.vmrun()
        assert info.reason is ExitReason.HLT  # debug writes did not exit
        assert [m.marker for m in vm.milestones] == [1, 2]

    def test_milestones_are_timestamps(self):
        vm = make_vm(f"out {DEBUG_PORT:#x}, 1\nmov ax, 1\nmov bx, 2\nout {DEBUG_PORT:#x}, 2\nhlt")
        vm.vmrun()
        first, second = vm.milestones
        assert second.cycles > first.cycles

    def test_milestone_deltas(self):
        vm = make_vm(f"out {DEBUG_PORT:#x}, 0\nnop\nout {DEBUG_PORT:#x}, 1\nhlt")
        vm.vmrun()
        deltas = vm.milestone_deltas()
        assert deltas[1] == COSTS.INSN_BASE * 2  # nop + the out itself

    def test_reset_clears_milestones(self):
        vm = make_vm(f"out {DEBUG_PORT:#x}, 1\nhlt")
        vm.vmrun()
        vm.reset()
        assert vm.milestones == []


class TestBootSequences:
    @pytest.mark.parametrize("mode", [Mode.REAL16, Mode.PROT32, Mode.LONG64])
    def test_boot_reaches_mode(self, mode):
        vm = make_vm(boot_source(mode))
        info = vm.vmrun()
        assert info.reason is ExitReason.HLT
        assert vm.cpu.mode is mode

    def test_long_mode_has_identity_map(self):
        from repro.hw.paging import is_identity_mapped

        vm = make_vm(boot_source(Mode.LONG64))
        vm.vmrun()
        assert vm.cpu.paging_enabled
        assert is_identity_mapped(vm.memory, vm.cpu.cr3, 1 << 30)

    def test_long_boot_faults_three_table_pages(self):
        vm = make_vm(boot_source(Mode.LONG64))
        vm.vmrun()
        assert vm.ept_faults == 3  # PML4, PDPT, PD pages

    @pytest.mark.parametrize("mode,n,expected", [
        (Mode.REAL16, 10, 55),
        (Mode.PROT32, 12, 144),
        (Mode.LONG64, 15, 610),
    ])
    def test_fib_in_each_mode(self, mode, n, expected):
        vm = make_vm(fib_source(mode, n))
        info = vm.vmrun()
        assert info.reason is ExitReason.HLT
        assert vm.cpu.regs["ax"] == expected

    def test_mode_latency_ordering(self):
        """Figure 3 / claim C2: deeper modes cost more to reach."""
        costs = {}
        for mode in (Mode.REAL16, Mode.PROT32, Mode.LONG64):
            clock = Clock()
            vm = make_vm(fib_source(mode, 10), clock)
            vm.vmrun()
            costs[mode] = clock.cycles
        assert costs[Mode.REAL16] < costs[Mode.PROT32] < costs[Mode.LONG64]


class TestRestoreMemory:
    """The VM picks the snapshot restore by its engine; the reference
    engine's per-page copies are the oracle for the bulk run copies."""

    @staticmethod
    def restored(engine, cow):
        from repro.wasp.snapshot import Snapshot

        pages = {page: bytes([page]) * 4096 for page in (3, 4, 5, 9)}
        snap = Snapshot(image_name="img", pages=pages, cpu_state={})
        vm = VirtualMachine(1024 * 1024, Clock(), engine=engine)
        vm.restore_memory(snap, cow=cow)
        memory = vm.memory
        return (memory.snapshot_bytes(), memory.capture_dirty(),
                memory.cow_pending_pages, memory.touched_pages)

    @pytest.mark.parametrize("cow", [False, True], ids=["eager", "cow"])
    def test_engines_restore_identical_state(self, cow):
        reference = self.restored("reference", cow)
        assert reference == self.restored("fast+jit", cow)
        image, dirty, pending, touched = reference
        assert image[5 * 4096] == 5 and touched == 4
        assert (pending, set(dirty)) == (
            (frozenset({3, 4, 5, 9}), set()) if cow
            else (frozenset(), {3, 4, 5, 9}))
