"""Runtime tests: boot sources, image building, Table 1 calibration."""

import pytest

from repro.hw.clock import Clock
from repro.hw.costs import COSTS
from repro.hw.cpu import Mode
from repro.hw.isa import Assembler
from repro.hw.vmx import VirtualMachine
from repro.runtime import boot
from repro.runtime.image import HOSTED_ENTER_PORT, ImageBuilder, LIBC_FOOTPRINT, VirtineImage


def boot_vm(mode):
    vm = VirtualMachine(8 * 1024 * 1024, Clock())
    vm.load_program(Assembler(0x8000).assemble(boot.boot_source(mode)))
    vm.vmrun()
    return vm


class TestBootSources:
    def test_real_mode_is_trivial(self):
        vm = boot_vm(Mode.REAL16)
        assert vm.cpu.mode is Mode.REAL16
        assert not vm.cpu.paging_enabled

    def test_protected_boot_loads_gdt(self):
        vm = boot_vm(Mode.PROT32)
        assert vm.cpu.gdtr.loaded
        assert vm.cpu.gdtr.base == boot.GDT_ADDR
        assert not vm.cpu.paging_enabled  # Figure 4: "no paging"

    def test_long_boot_enables_everything(self):
        vm = boot_vm(Mode.LONG64)
        assert vm.cpu.mode is Mode.LONG64
        assert vm.cpu.paging_enabled
        assert vm.cpu.long_mode_active
        assert vm.cpu.cr3 == boot.PAGE_TABLE_BASE

    def test_milestones_in_order(self):
        vm = boot_vm(Mode.LONG64)
        markers = [marker for marker, _ in vm.milestones]
        assert markers == sorted(markers)
        assert boot.MS_MAIN_ENTRY in markers

    def test_fib_negative_rejected(self):
        with pytest.raises(ValueError):
            boot.fib_source(Mode.REAL16, -1)


class TestTable1Calibration:
    """The boot breakdown must land near the paper's Table 1 numbers."""

    @pytest.fixture(scope="class")
    def components(self):
        vm = boot_vm(Mode.LONG64)
        return vm.interp.component_cycles, vm

    def test_lgdt_real(self, components):
        comp, _ = components
        assert comp["load 32-bit gdt (lgdt)"] == 4118

    def test_protected_transition(self, components):
        comp, _ = components
        assert comp["protected transition"] == 3217

    def test_long_transition(self, components):
        comp, _ = components
        assert comp["long transition (lgdt)"] == 681

    def test_jumps(self, components):
        comp, _ = components
        assert comp["jump to 32-bit (ljmp)"] == 175
        assert comp["jump to 64-bit (ljmp)"] == 190

    def test_first_instruction(self, components):
        comp, _ = components
        assert comp["first instruction"] == 74

    def test_ident_map_block_near_paper(self, components):
        """Paper: 28,109 cycles for the identity-map block.  Ours emerges
        from 514 entry stores + 3 EPT faults + paging-enable controls."""
        _, vm = components
        deltas = {}
        prev = None
        for marker, cycles in vm.milestones:
            if prev is not None:
                deltas[marker] = cycles - prev
            prev = cycles
        block = deltas[boot.MS_AFTER_IDENT_MAP] + deltas[boot.MS_PAGING_ON]
        assert block == pytest.approx(28_109, rel=0.05)

    def test_total_boot_under_100k(self, components):
        """Artifact claim C1: total average cycle counts < ~100K."""
        _, vm = components
        total = vm.milestones[-1][1] - vm.milestones[0][1]
        assert total < 100_000


class TestImageBuilder:
    def test_minimal_image(self):
        image = ImageBuilder().minimal(Mode.LONG64)
        assert image.mode is Mode.LONG64
        assert image.size == len(image.program.image)
        assert image.hosted_entry is None

    def test_padding(self):
        image = ImageBuilder().minimal(Mode.LONG64, size=64 * 1024)
        assert image.size == 64 * 1024
        padded = image.image_bytes
        assert len(padded) == 64 * 1024
        assert padded[len(image.program.image):] == bytes(64 * 1024 - len(image.program.image))

    def test_size_smaller_than_code_clamped(self):
        image = ImageBuilder().minimal(Mode.LONG64, size=1)
        assert image.size == len(image.program.image)

    def test_declared_size_validation(self):
        good = ImageBuilder().minimal(Mode.LONG64)
        with pytest.raises(ValueError):
            VirtineImage(name="bad", program=good.program, mode=Mode.LONG64, size=1)

    def test_hosted_default_includes_libc(self):
        image = ImageBuilder().hosted("h", lambda env: None)
        assert image.size >= LIBC_FOOTPRINT
        assert image.hosted_entry is not None

    def test_hosted_without_libc(self):
        image = ImageBuilder().hosted("h", lambda env: None, include_libc=False)
        assert image.size < LIBC_FOOTPRINT

    def test_fib_metadata(self):
        image = ImageBuilder().fib(Mode.PROT32, 7)
        assert image.metadata == {"n": 7}

    def test_hosted_trampoline_exits_on_port(self):
        source = boot.hosted_trampoline_source(Mode.LONG64, HOSTED_ENTER_PORT)
        vm = VirtualMachine(8 * 1024 * 1024, Clock())
        vm.load_program(Assembler(0x8000).assemble(source))
        info = vm.vmrun()
        assert info.port == HOSTED_ENTER_PORT
