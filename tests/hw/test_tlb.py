"""Software-TLB tests: flush semantics, push invalidation, counters.

The fast-path engine caches virtual-to-physical translations in a
per-interpreter dict.  Correctness hangs on the invalidation points:
control-register writes, EFER updates, guest stores to live page-table
pages (watched pages), and host-side restores over guest memory.  A
stale entry would silently read the wrong frame -- these tests pin every
invalidation edge, and that simulated cycles never depend on the cache.
"""

import pytest

from repro.hw import paging
from repro.hw.clock import Clock
from repro.hw.costs import COSTS
from repro.hw.cpu import CPU, CR0_PE, CR0_PG, MSR_EFER, Mode
from repro.hw.cpu import EFER_LME
from repro.hw.isa import Assembler, Interpreter
from repro.hw.memory import PAGE_SHIFT, GuestMemory
from repro.hw.vmx import ExitReason, VirtualMachine
from repro.runtime.image import ImageBuilder

MiB = 1024 * 1024
LARGE_FLAGS = paging.PTE_PRESENT | paging.PTE_WRITABLE | paging.PTE_LARGE


def make_paged_interp(engine: str = "fast+jit"):
    """An interpreter in long mode with a live 1 GB identity map."""
    memory = GuestMemory(8 * MiB)
    cr3 = paging.build_identity_map(memory, paging.IdentityMapLayout.at(0x100000))
    cpu = CPU()
    cpu.mode = Mode.LONG64
    cpu.cr0 = CR0_PE | CR0_PG
    cpu.efer = EFER_LME
    cpu.cr3 = cr3
    interp = Interpreter(cpu, memory, Clock(), COSTS, engine=engine)
    return interp, memory, cr3


def remap_low_2mb(memory: GuestMemory, cr3: int, frame: int) -> int:
    """Point the PD entry covering vaddr [0, 2 MB) at ``frame``.

    Returns the physical address of the rewritten PD entry.
    """
    layout = paging.IdentityMapLayout.at(0x100000)
    assert cr3 == layout.pml4
    memory.write_u64(layout.pd, frame | LARGE_FLAGS)
    return layout.pd


class TestCounters:
    def test_miss_then_hit(self):
        interp, _, _ = make_paged_interp()
        interp._load(0x8000, 8)
        assert (interp.tlb_misses, interp.tlb_hits) == (1, 0)
        interp._load(0x8008, 8)  # same 4 KB page
        assert (interp.tlb_misses, interp.tlb_hits) == (1, 1)
        interp._load(0x9000, 8)  # next page: separate entry
        assert (interp.tlb_misses, interp.tlb_hits) == (2, 1)

    def test_disabled_engine_has_no_tlb(self):
        interp, _, _ = make_paged_interp(engine="reference")
        interp._load(0x8000, 8)
        interp._load(0x8000, 8)
        assert interp._tlb is None
        assert (interp.tlb_hits, interp.tlb_misses, interp.tlb_flushes) == (0, 0, 0)

    def test_flush_counts_only_nonempty(self):
        interp, _, _ = make_paged_interp()
        interp.tlb_flush()  # empty: nothing to drop
        assert interp.tlb_flushes == 0
        interp._load(0x8000, 8)
        interp.tlb_flush()
        assert interp.tlb_flushes == 1


class TestControlRegisterFlushes:
    def test_cr3_reload_switches_address_space(self):
        interp, memory, cr3 = make_paged_interp()
        # A second hierarchy at 0x200000 whose low 2 MB maps to 4 MB phys.
        alt = paging.build_identity_map(
            memory, paging.IdentityMapLayout.at(0x200000))
        memory.write_u64(0x202000, (4 * MiB) | LARGE_FLAGS)
        memory.write_u64(0x8000, 0x1111)
        memory.write_u64(4 * MiB + 0x8000, 0x2222)

        assert interp._load(0x8000, 8) == 0x1111
        interp._write_ctrl("cr3", alt)
        assert interp.tlb_flushes == 1
        assert interp._load(0x8000, 8) == 0x2222

    def test_cr0_pg_clear_bypasses_translation(self):
        interp, memory, cr3 = make_paged_interp()
        interp._load(0x8000, 8)
        interp._write_ctrl("cr0", CR0_PE)  # paging off
        misses = interp.tlb_misses
        memory.write_u64(0x5000, 0xBEEF)
        assert interp._load(0x5000, 8) == 0xBEEF
        # Untranslated access: neither a hit nor a miss was recorded.
        assert (interp.tlb_misses, interp.tlb_hits) == (misses, 0)

    def test_wrmsr_efer_flushes(self):
        interp, memory, _ = make_paged_interp()
        program = Assembler(0x8000).assemble(
            "mov ax, [0x5000]\n"       # populate the TLB
            f"mov cx, {MSR_EFER:#x}\n"
            f"mov ax, {EFER_LME:#x}\n"
            "wrmsr\n"
            "hlt\n")
        interp.load_program(program)
        interp.run(1_000)
        assert interp.tlb_misses == 1
        assert interp.tlb_flushes == 1
        assert len(interp._tlb) == 0


class TestPushInvalidation:
    def test_guest_store_to_live_pte_invalidates(self):
        interp, memory, cr3 = make_paged_interp()
        memory.write_u64(4 * MiB + 0x10, 0xCAFE)
        memory.write_u64(0x10, 0xF00D)
        assert interp._load(0x10, 8) == 0xF00D
        # Rewrite the PD entry through the *guest* store path (the PD page
        # is identity-mapped, and it is watched after the walk above).
        pd_entry = paging.IdentityMapLayout.at(0x100000).pd
        interp._store(pd_entry, (4 * MiB) | LARGE_FLAGS, 8)
        misses_before = interp.tlb_misses
        assert interp._load(0x10, 8) == 0xCAFE
        assert interp.tlb_misses == misses_before + 1  # re-walked

    def test_host_restore_over_table_page_invalidates(self):
        interp, memory, cr3 = make_paged_interp()
        interp._load(0x10, 8)
        assert len(interp._tlb) == 1
        pd = paging.IdentityMapLayout.at(0x100000).pd
        page_bytes = memory.read(pd, 4096)
        memory.restore_pages({pd >> PAGE_SHIFT: page_bytes})
        assert len(interp._tlb) == 0

    def test_host_fill_invalidates(self):
        interp, memory, _ = make_paged_interp()
        interp._load(0x10, 8)
        memory.fill()
        assert len(interp._tlb) == 0

    def test_host_write_to_unwatched_page_keeps_tlb(self):
        interp, memory, _ = make_paged_interp()
        interp._load(0x10, 8)
        cached = len(interp._tlb)
        memory.write_u64(0x700000, 1)  # plain data page, never walked
        assert len(interp._tlb) == cached

    def test_mark_entry_flushes(self):
        """Shell recycling re-enters the guest: stale translations drop."""
        interp, memory, _ = make_paged_interp()
        interp._load(0x10, 8)
        interp.mark_entry()
        assert len(interp._tlb) == 0


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def booted(self):
        """Boot to LONG64 and run fib(10) -- stack traffic under paging."""
        vms = {}
        for fast in (True, False):
            clock = Clock()
            vm = VirtualMachine(4 * MiB, clock,
                                engine="fast+jit" if fast else "reference")
            vm.load_program(ImageBuilder().fib(Mode.LONG64, 10).program)
            info = vm.vmrun()
            assert info.reason is ExitReason.HLT
            assert vm.cpu.regs["ax"] == 55  # fib(10)
            vms[fast] = (vm, clock.cycles)
        return vms

    def test_boot_exercises_tlb(self, booted):
        vm, _ = booted[True]
        interp = vm.interp
        assert interp.tlb_misses > 0
        assert interp.tlb_hits > 0
        # Boot's CR/EFER writes all precede the first translated access
        # (paging turns on last), so no *populated* TLB was ever dropped.
        assert interp.tlb_flushes == 0

    def test_cycles_identical_fast_vs_slow(self, booted):
        _, fast_cycles = booted[True]
        _, slow_cycles = booted[False]
        assert fast_cycles == slow_cycles

    def test_slow_path_counters_untouched(self, booted):
        vm, _ = booted[False]
        interp = vm.interp
        assert (interp.tlb_hits, interp.tlb_misses, interp.tlb_flushes) == (0, 0, 0)


def make_sibling_interp(memory: GuestMemory, cr3: int,
                        engine: str = "fast+jit"):
    """A second interpreter (own CPU, clock, TLB) over *shared* memory.

    This is the SMP sharing shape: cluster cores never share guest
    memory, but two interpreters of one memory (snapshot plumbing,
    migration checks) must see push-invalidation as a broadcast.
    """
    cpu = CPU()
    cpu.mode = Mode.LONG64
    cpu.cr0 = CR0_PE | CR0_PG
    cpu.efer = EFER_LME
    cpu.cr3 = cr3
    return Interpreter(cpu, memory, Clock(), COSTS, engine=engine)


class TestCrossCorePushInvalidation:
    """A watched-page write must invalidate *every* registered TLB."""

    def _warm_both(self):
        interp_a, memory, cr3 = make_paged_interp()
        interp_b = make_sibling_interp(memory, cr3)
        memory.write_u64(4 * MiB + 0x10, 0xCAFE)
        memory.write_u64(0x10, 0xF00D)
        assert interp_a._load(0x10, 8) == 0xF00D
        assert interp_b._load(0x10, 8) == 0xF00D
        assert len(interp_a._tlb) == 1 and len(interp_b._tlb) == 1
        return interp_a, interp_b, memory, cr3

    def test_guest_store_on_one_core_invalidates_the_sibling(self):
        interp_a, interp_b, memory, cr3 = self._warm_both()
        pd_entry = paging.IdentityMapLayout.at(0x100000).pd
        # Core A rewrites the live PD entry through the guest store
        # path; core B's cached translation must die with core A's.
        interp_a._store(pd_entry, (4 * MiB) | LARGE_FLAGS, 8)
        b_misses = interp_b.tlb_misses
        assert interp_b._load(0x10, 8) == 0xCAFE  # sees the remap
        assert interp_b.tlb_misses == b_misses + 1  # via a fresh walk

    def test_host_restore_invalidates_every_core(self):
        interp_a, interp_b, memory, cr3 = self._warm_both()
        pd = paging.IdentityMapLayout.at(0x100000).pd
        page_bytes = memory.read(pd, 4096)
        memory.restore_pages({pd >> PAGE_SHIFT: page_bytes})
        assert len(interp_a._tlb) == 0
        assert len(interp_b._tlb) == 0

    def test_cow_restore_invalidates_every_core(self):
        interp_a, interp_b, memory, cr3 = self._warm_both()
        pd = paging.IdentityMapLayout.at(0x100000).pd
        page_bytes = memory.read(pd, 4096)
        memory.restore_pages_cow({pd >> PAGE_SHIFT: bytes(page_bytes)})
        assert len(interp_a._tlb) == 0
        assert len(interp_b._tlb) == 0

    def test_local_cr3_reload_leaves_the_sibling_cached(self):
        """Control-register flushes are per-core; only watched-page
        writes broadcast."""
        interp_a, interp_b, memory, cr3 = self._warm_both()
        interp_a.cpu.write_cr("cr3", cr3)
        interp_a.tlb_flush()
        assert len(interp_a._tlb) == 0
        assert len(interp_b._tlb) == 1  # untouched: no memory event

    def test_slow_path_sibling_stays_correct(self):
        """A fast core's remap is visible to a no-TLB reference core."""
        interp_a, memory, cr3 = make_paged_interp()
        interp_b = make_sibling_interp(memory, cr3, engine="reference")
        memory.write_u64(4 * MiB + 0x10, 0xCAFE)
        memory.write_u64(0x10, 0xF00D)
        assert interp_a._load(0x10, 8) == 0xF00D
        assert interp_b._load(0x10, 8) == 0xF00D
        pd_entry = paging.IdentityMapLayout.at(0x100000).pd
        interp_a._store(pd_entry, (4 * MiB) | LARGE_FLAGS, 8)
        assert interp_b._tlb is None  # reference path has no cache at all
        assert interp_b._load(0x10, 8) == 0xCAFE
