"""Superblock JIT unit tests (DESIGN.md SS15).

The contract under test is the fast-path contract one level up: a
compiled region must be *invisible* in every simulated observable --
registers, flags, cycles, dirty pages, TLB counters -- while the
plumbing around it (profiling, per-image caching, warm start, push
invalidation, guards, blacklist) behaves as documented.  Equality
checks here run the same guest three ways: reference interpreter,
fast path with the JIT off, fast path with the JIT on.
"""

import re
import struct

import pytest

from repro.hw import isa as isa_module
from repro.hw import jit as jit_module
from repro.hw import paging
from repro.hw.clock import Clock
from repro.hw.costs import COSTS
from repro.hw.cpu import CPU, CR0_PE, CR0_PG, EFER_LME, Mode
from repro.hw.isa import Assembler, HaltExit, Interpreter
from repro.hw.jit import JitDomain
from repro.hw.memory import GuestMemory
from repro.hw.vmx import ExitReason, VirtualMachine
from repro.runtime.image import ImageBuilder
from repro.trace import Tracer, boot_breakdown, to_chrome_json

from tests.engine_configs import ENGINE_CONFIGS, access_width

MiB = 1024 * 1024

#: A counted loop, hot enough to cross any small threshold, with a
#: backward conditional branch (the canonical superblock shape).
HOT_LOOP = """
    mov cx, 0
    mov ax, 0
loop:
    add ax, 3
    xor ax, 5
    inc cx
    cmp cx, 200
    jne loop
    hlt
"""

#: A call/ret pair inside a hot loop: the region discovery must pull
#: the callee *and* the return site into one generated function.
CALL_LOOP = """
    mov sp, 0x7f00
    mov cx, 0
    mov ax, 0
loop:
    call bump
    inc cx
    cmp cx, 150
    jne loop
    hlt
bump:
    add ax, 7
    ret
"""


def make_interp(source: str, *, engine: str = "fast+jit",
                domain: JitDomain | None = None, paged: bool = False,
                memory: GuestMemory | None = None,
                mode: Mode = Mode.LONG64):
    if memory is None:
        memory = GuestMemory(8 * MiB)
    cpu = CPU()
    cpu.mode = mode
    if paged:
        cr3 = paging.build_identity_map(
            memory, paging.IdentityMapLayout.at(0x100000))
        cpu.cr0 = CR0_PE | CR0_PG
        cpu.efer = EFER_LME
        cpu.cr3 = cr3
    clock = Clock()
    interp = Interpreter(cpu, memory, clock, COSTS, engine=engine,
                         jit_domain=domain)
    interp.load_program(Assembler(0x8000).assemble(source))
    return interp


def run_to_halt(interp, chunk: int = 97) -> dict:
    """Drive ``run_steps`` to the halt; return every observable."""
    for _ in range(10_000):
        try:
            interp.run_steps(chunk)
        except HaltExit:
            break
    else:  # pragma: no cover - generator bug guard
        raise AssertionError("guest did not halt")
    cpu = interp.cpu
    return {
        "regs": dict(cpu.regs),
        "rip": cpu.rip,
        "flags": (cpu.flags.zero, cpu.flags.sign, cpu.flags.carry),
        "cycles": interp.clock.cycles,
        "dirty": sorted(interp.memory.dirty_pages),
        "retired": interp.instructions_retired,
    }


class TestCompilationAndEquality:
    def test_hot_loop_compiles_and_is_bit_equal(self):
        domain = JitDomain(threshold=4)
        jit = make_interp(HOT_LOOP, domain=domain)
        jit_obs = run_to_halt(jit)
        fast_obs = run_to_halt(make_interp(HOT_LOOP, engine="fast"))
        ref_obs = run_to_halt(make_interp(HOT_LOOP, engine="reference"))
        assert jit_obs == fast_obs == ref_obs
        stats = domain.stats()
        assert stats["blocks_compiled"] > 0
        assert stats["block_runs"] > 0
        assert stats["block_instructions"] > 0
        # The mispredicted (taken) backward branch is a counted side
        # exit even when it transfers internally.
        assert stats["side_exits"]["branch"] > 0

    def test_paged_loop_equal_including_tlb_counters(self):
        """The translation memo must be count-exact, not just phys-exact."""
        domain = JitDomain(threshold=4)
        jit = make_interp(HOT_LOOP, domain=domain, paged=True)
        jit_obs = run_to_halt(jit)
        jit_tlb = (jit.tlb_hits, jit.tlb_misses, jit.tlb_flushes)
        fast = make_interp(HOT_LOOP, engine="fast", paged=True)
        fast_obs = run_to_halt(fast)
        fast_tlb = (fast.tlb_hits, fast.tlb_misses, fast.tlb_flushes)
        assert domain.stats()["blocks_compiled"] > 0
        assert jit_obs == fast_obs
        assert jit_tlb == fast_tlb

    def test_region_transfers_keep_execution_inside_blocks(self):
        """call/ret chains must not bounce through the dispatcher."""
        domain = JitDomain(threshold=4)
        jit = make_interp(CALL_LOOP, domain=domain, paged=True)
        jit_obs = run_to_halt(jit, chunk=100_000)
        assert jit_obs == run_to_halt(
            make_interp(CALL_LOOP, engine="reference", paged=True),
            chunk=100_000)
        counters = domain.counters
        assert counters["block_runs"] > 0
        # Internal transfers (loop back-edge, call, ret) mean each
        # dispatch retires many instructions, not one trace's worth.
        assert (counters["block_instructions"]
                > 20 * counters["block_runs"])


class TestWarmStart:
    def test_second_shell_attaches_warm(self):
        domain = JitDomain(threshold=4)
        first = make_interp(HOT_LOOP, domain=domain)
        run_to_halt(first)
        compiles_after_first = domain.stats()["blocks_compiled"]
        assert compiles_after_first > 0
        second = make_interp(HOT_LOOP, domain=domain)
        run_to_halt(second)
        stats = domain.stats()
        # Same image bytes -> same cache: no recompilation...
        assert stats["blocks_compiled"] == compiles_after_first
        # ...and the attach itself counted as a warm hit.
        image = stats["images"][0]
        assert image["warm_hits"] >= 1
        assert image["warm_hit_ratio"] > 0

    def test_different_image_is_a_different_cache(self):
        domain = JitDomain(threshold=4)
        run_to_halt(make_interp(HOT_LOOP, domain=domain))
        run_to_halt(make_interp(CALL_LOOP, domain=domain, paged=True))
        assert len(domain.stats()["images"]) == 2


class TestInvalidation:
    #: The loop gets hot, then a store lands on its own code page; the
    #: loop keeps running afterwards, so it must re-heat and recompile.
    SMC = """
        mov cx, 0
        mov ax, 0
    loop:
        add ax, 1
        inc cx
        cmp cx, 120
        jne loop
        mov bx, 0x9090
        mov [0x8040], bx
        mov cx, 0
    loop2:
        add ax, 2
        inc cx
        cmp cx, 120
        jne loop2
        hlt
    """

    def test_self_modifying_store_invalidates_and_recompiles(self):
        domain = JitDomain(threshold=4)
        jit = make_interp(self.SMC, domain=domain)
        jit_obs = run_to_halt(jit)
        assert jit_obs == run_to_halt(make_interp(self.SMC, engine="fast"))
        stats = domain.stats()["images"][0]
        assert stats["invalidations"] > 0
        # loop2 ran hot after the invalidation: blocks exist again.
        assert stats["blocks"] > 0

    def test_invalidated_pc_recounts_from_zero(self):
        domain = JitDomain(threshold=4)
        jit = make_interp(self.SMC, domain=domain)
        cache = jit._jit_cache
        run_to_halt(jit)
        # Every surviving block was (re)compiled after the store; the
        # page index only tracks live blocks.
        for page, pcs in cache.page_index.items():
            for pc in pcs:
                assert pc in cache.blocks


class TestGuards:
    def test_budget_guard_falls_back_per_instruction(self):
        domain = JitDomain(threshold=2)
        jit = make_interp(HOT_LOOP, domain=domain)
        # Tiny chunks: once blocks exist, most entries find budget < len.
        jit_obs = run_to_halt(jit, chunk=1)
        assert jit_obs == run_to_halt(make_interp(HOT_LOOP, engine="fast"),
                                      chunk=1)
        assert domain.side_exits["budget_guard"] > 0

    def test_blacklisted_head_is_not_retried(self):
        source = """
            mov cx, 0
        loop:
            mov bx, cr0
            inc cx
            cmp cx, 50
            jne loop
            hlt
        """
        domain = JitDomain(threshold=4)
        jit = make_interp(source, domain=domain)
        cache = jit._jit_cache
        jit_obs = run_to_halt(jit)
        assert jit_obs == run_to_halt(make_interp(source, engine="reference"))
        # The control-register read heads the loop: uncompilable there,
        # so that pc is blacklisted; the rest of the loop still compiles.
        head = jit.program.labels["loop"]
        assert head in cache.blacklist
        assert head not in cache.blocks


class TestEscapeHatches:
    def test_reference_engine_disables_jit(self):
        interp = make_interp(HOT_LOOP, engine="reference")
        assert not interp.jit

    def test_jit_flag_off(self):
        domain_stats_before = None
        interp = make_interp(HOT_LOOP, engine="fast")
        assert not interp.jit
        run_to_halt(interp)
        assert domain_stats_before is None  # nothing to leak

    def test_impure_clock_subclass_disables_jit(self):
        """Generated code bumps the ``clock.cycles`` slot directly; that
        is only sound while ``advance`` is the base accumulator."""

        class TracingClock(Clock):
            def advance(self, cycles):
                super().advance(cycles)

        memory = GuestMemory(8 * MiB)
        cpu = CPU()
        cpu.mode = Mode.LONG64
        interp = Interpreter(cpu, memory, TracingClock(), COSTS,
                             engine="fast+jit")
        assert not interp.jit
        # An inheriting-but-not-overriding subclass stays eligible.
        class PlainClock(Clock):
            pass

        interp2 = Interpreter(CPU(), GuestMemory(8 * MiB), PlainClock(),
                              COSTS, engine="fast+jit")
        assert interp2.jit


class TestWideRegisterGuard:
    """A region writes back every register it writes anywhere, which is
    exact only while the dict values fit the mode mask."""

    #: ``bx`` is written only on the never-taken ``je`` path, so it is
    #: region-resident yet never written by the path that runs.
    SOURCE = """
        mov cx, 0
    loop:
        add ax, 1
        cmp ax, 0x7fff
        je never
        inc cx
        cmp cx, 60
        jne loop
        hlt
    never:
        mov bx, 5
        hlt
    """

    def _run(self, bx: int, **kw):
        interp = make_interp(self.SOURCE, mode=Mode.PROT32, **kw)
        interp.cpu.regs["bx"] = bx
        return run_to_halt(interp, chunk=1000), interp

    def _count_refusals(self, monkeypatch) -> list[int]:
        refused: list[int] = []
        compile_block = isa_module.compile_block

        def counting(interp, pc):
            blocks = compile_block(interp, pc)
            for blk in blocks or ():
                def entry(I, left, seg, fn=blk.fn):
                    ran = fn(I, left, seg)
                    if ran < 0:
                        refused.append(seg)
                    return ran
                blk.fn = entry
            return blocks

        monkeypatch.setattr(isa_module, "compile_block", counting)
        return refused

    def test_wide_register_refuses_entry_and_stays_bit_identical(
            self, monkeypatch):
        refused = self._count_refusals(monkeypatch)
        domain = JitDomain(threshold=2)
        wide = 1 << 40
        jit_obs, _ = self._run(wide, domain=domain)
        ref_obs, _ = self._run(wide, engine="reference")
        assert jit_obs == ref_obs
        assert jit_obs["regs"]["bx"] == wide  # the raw dict, untruncated
        assert domain.stats()["blocks_compiled"] > 0
        assert refused
        assert domain.side_exits["mode_guard"] == len(refused)

    def test_stos64_stores_the_raw_accumulator(self):
        """``ax`` not written by the region stays a dict read: stos64
        stores its low 64 bits, however wide the dict value is."""
        source = """
            mov di, 0x2000
            mov cx, 0
        loop:
            stos64
            inc cx
            cmp cx, 20
            jne loop
            hlt
        """
        observed = []
        for kw in ({"domain": JitDomain(threshold=2)},
                   {"engine": "reference"}):
            interp = make_interp(source, mode=Mode.PROT32, **kw)
            interp.cpu.regs["ax"] = (1 << 70) | 0x1234_5678_9ABC
            obs = run_to_halt(interp)
            obs["stored"] = interp.memory.read(0x2000, 8 * 20)
            observed.append(obs)
        assert observed[0] == observed[1]
        assert observed[0]["stored"][:8] == (0x1234_5678_9ABC).to_bytes(
            8, "little")

    def test_fitting_registers_enter(self, monkeypatch):
        refused = self._count_refusals(monkeypatch)
        domain = JitDomain(threshold=2)
        jit_obs, _ = self._run(7, domain=domain)
        ref_obs, _ = self._run(7, engine="reference")
        assert jit_obs == ref_obs
        assert refused == []
        assert domain.side_exits["mode_guard"] == 0
        assert domain.counters["block_runs"] > 0


#: Small enough that REAL16's 16-bit addresses reach the last bytes.
SMALL_MEMORY = 64 * 1024
#: Identity-map tables for the paged configuration (above the code).
TABLES = 0xC000
#: Loop trip count: the first iteration profiles, the rest run compiled.
ITERS = 12


def _memory_loop(kind: str, width: int) -> str:
    """A hot loop whose stack loads/stores hit one memory-path case.

    Compiled regions touch memory only through the stack (and
    ``stos64``), so each body points ``sp`` at ``bx`` and addresses by
    ``pop`` (load at ``sp``) and ``push`` (store at ``sp - width``).
    """
    if kind in ("first_touch", "cow"):
        # Two iterations per page: the first store takes the accessor
        # (CoW break, then EPT first touch), the second is quiet.
        start, step = 0x1000, 0x800
        body = """
        mov sp, bx
        pop si
        add si, cx
        push si
        """
    elif kind == "straddle":
        # Every other iteration makes a fresh page quiet, then stores
        # across its end into the next, still untouched page (EPT first
        # touch of the upper page), and loads the straddling word back.
        start, step = 0x1100, 0x800
        cross = 0x1000 - 0x100 - width // 2
        body = f"""
        mov sp, bx
        push ax
        add sp, {cross + 2 * width:#x}
        push ax
        pop si
        add ax, 0x1234
        """
    elif kind == "unaligned":
        # Accesses misaligned by half a word on quiet pages: after each
        # page's first store (the accessor), none of them straddles, so
        # all take the inline struct path, not the word views.
        start, step = 0x1000 + width // 2 + width, 0x800
        body = f"""
        mov sp, bx
        push ax
        add sp, {3 * width:#x}
        pop si
        add si, cx
        push si
        """
    elif kind == "mem_top":
        # Aligned word accesses walking up to the view's last slot
        # (``size - width``); the next one, at ``size``, raises.  REAL16
        # addresses wrap at 64 KB, so there it lands at 0 and halts.
        start, step = SMALL_MEMORY - (ITERS - 1) * width, width
        body = """
        mov sp, bx
        pop si
        add si, cx
        push si
        """
    elif kind == "memo_quiet":
        # The load fills the translation memo on a page that is not yet
        # quiet; the first store after it takes the accessor (EPT first
        # touch), the next refills the memo, quiet now, and the rest
        # take the memo word path.
        start, step = 0x1000, 0x800
        body = f"""
        mov sp, bx
        pop si
        add si, cx
        push si
        add sp, {4 * width:#x}
        push si
        push si
        push si
        """
    else:
        # Walk up to the end of memory: the last access straddles it.
        start = SMALL_MEMORY - width // 2 - (ITERS - 1) * width
        step = width
        if kind == "oob_store":
            start += width  # the push stores below sp
            accesses = "push ax\n        pop si"
        else:
            accesses = "pop si\n        push ax"
        body = f"""
        mov sp, bx
        {accesses}
        """
    return f"""
        mov cx, {ITERS}
        mov bx, {start:#x}
        mov ax, 0x5a5a
    loop:
        {body}
        add bx, {step:#x}
        dec cx
        jne loop
        hlt
    """


def _run_traced(source: str, config: str, engine: str,
                cow: bool = False):
    """Run ``source`` on a traced VM to its halt or fault, answering
    every ``in``; ``cow`` restores pages 1-7 copy-on-write first."""
    mode, paged = ENGINE_CONFIGS[config]
    clock = Clock()
    tracer = clock.tracer = Tracer(clock)
    domain = JitDomain(threshold=2)
    vm = VirtualMachine(SMALL_MEMORY, clock,
                        engine="fast+jit" if engine == "jit" else engine,
                        jit_domain=domain)
    cpu = vm.cpu
    cpu.mode = mode
    if paged:
        cpu.cr3 = paging.build_identity_map(
            vm.memory, paging.IdentityMapLayout.at(TABLES))
        cpu.cr0 = CR0_PE | CR0_PG
        cpu.efer = EFER_LME
    vm.load_program(Assembler(0x8000).assemble(source))
    if cow:
        vm.memory.restore_pages(
            {page: bytes([page]) * 4096 for page in range(1, 8)}, cow=True)
    inputs = 0
    try:
        while True:
            info = vm.vmrun()
            if info.reason is not ExitReason.IO_IN:
                break
            inputs += 1
            vm.complete_io_in(info.in_dest, info.port * 167 + inputs)
        outcome = info.reason.value
    except Exception as exc:  # the out-of-bounds cases
        outcome = type(exc).__name__
    interp = vm.interp
    return {
        "outcome": outcome,
        "inputs": inputs,
        "regs": dict(cpu.regs),
        "rip": cpu.rip,
        "flags": (cpu.flags.zero, cpu.flags.sign, cpu.flags.carry),
        "cycles": clock.cycles,
        "retired": interp.instructions_retired,
        "steps": interp.last_run_steps,
        "dirty": vm.memory.capture_dirty(),
        "cow_pending": sorted(vm.memory.cow_pending_pages),
        "ept_faults": vm.ept_faults,
        "cow_breaks": vm.cow_breaks,
        "trace": to_chrome_json(tracer),
        # The reference engine keeps no TLB: compared jit against fast.
        "tlb": (interp.tlb_hits, interp.tlb_misses, interp.tlb_flushes),
    }, domain


def _run_memory_case(kind: str, config: str, engine: str):
    width = access_width(ENGINE_CONFIGS[config][0])
    return _run_traced(_memory_loop(kind, width), config, engine,
                       cow=kind == "cow")


def _region_source(domain: JitDomain) -> str:
    return "".join(blk.source for cache in domain.images()
                   for blk in cache.meta.values())


class TestInlineMemoryPaths:
    """Every access width's inline load/store path against the reference,
    inside a compiled loop: the accessor fallbacks must fire their
    callbacks at the exact cycle (Chrome trace bytes included) and raise
    with exact state."""

    @pytest.mark.parametrize("config", list(ENGINE_CONFIGS))
    @pytest.mark.parametrize("kind", ["first_touch", "cow", "straddle",
                                      "oob_store", "oob_load", "unaligned",
                                      "mem_top", "memo_quiet"])
    def test_bit_equal_to_reference(self, kind, config):
        jit_obs, domain = _run_memory_case(kind, config, "jit")
        fast_obs, _ = _run_memory_case(kind, config, "fast")
        ref_obs, _ = _run_memory_case(kind, config, "reference")
        assert jit_obs.pop("tlb") == fast_obs.pop("tlb")
        ref_obs.pop("tlb")
        assert jit_obs == fast_obs == ref_obs
        # The case ran inside compiled code, not just next to it.
        assert domain.counters["block_instructions"] > 2 * 5
        width = access_width(ENGINE_CONFIGS[config][0])
        raises = kind.startswith("oob") or (kind == "mem_top" and width > 2)
        if raises:
            assert ref_obs["outcome"] == "GuestMemoryError"
            assert domain.side_exits["fault"] == 1  # raised in a block
        else:
            assert ref_obs["outcome"] == "hlt"
        if kind in ("first_touch", "memo_quiet"):
            assert ref_obs["ept_faults"] >= 6
        if kind == "cow":
            assert ref_obs["cow_breaks"] == 6
        # The region took the paths the case is about.
        source = _region_source(domain)
        views = width in (4, 8)
        assert (f"_v{width}[" in source) == views
        if kind == "unaligned":
            assert f"_pk{width}(_data" in source
            assert f"_up{width}(_data" in source
        if kind == "memo_quiet" and ENGINE_CONFIGS[config][1]:
            assert "_lq and not" in source

    def test_compiled_store_after_fill_lands_in_new_mapping(self):
        """``fill()`` zeroes the mapping in place: compiled stores after
        it must land in the same memory that reads see, through the same
        word views."""
        loop = """
            mov cx, 40
            mov bx, 0x2008
        loop:
            mov sp, bx
            push cx
            dec cx
            jne loop
            hlt
        """
        domain = JitDomain(threshold=2)
        interp = make_interp(loop, domain=domain)
        memory = interp.memory
        for _ in range(2):
            run_to_halt(interp)
            assert "_v8[" in _region_source(domain)
            assert memory.read_u64(0x2000) == 1
            memory.fill()
            assert memory.read_u64(0x2000) == 0
            interp.cpu.rip = 0x8000
            interp.cpu.halted = False


#: Instruction forms no guest runs hot, which the JIT leaves to the
#: per-instruction handlers: memory operands, ``jmp``, dynamic ``call``,
#: ``in`` and ``nop``.  ``r9`` holds ``after`` (also stored at 0x3000)
#: and ``r10`` holds ``fn`` (also stored at 0x3008).
REFUSED_FORMS = {
    "mov_load": "mov si, [bx + 8]",
    "mov_store": "mov [bx + 8], ax",
    "alu_mem_dst": "add [bx], ax",
    "alu_mem_src": "xor si, [bx]",
    "inc_mem": "inc [bx]",
    "cmp_mem": "cmp [bx], ax",
    "test_mem": "test ax, [bx + 8]",
    "jmp_imm": "jmp after",
    "jmp_reg": "jmp r9",
    "jmp_mem": "jmp [0x3000]",
    "call_reg": "call r10",
    "call_mem": "call [0x3008]",
    "push_mem": "push [bx]",
    "in": "in si, 0x42",
    "nop": "nop",
}


class TestRefusedForms:
    """A form the JIT does not compile splits the hot loop around it:
    the code on either side compiles, the form itself runs on its
    handler, and every observable stays the reference's."""

    @staticmethod
    def _loop(form: str) -> str:
        return f"""
            mov sp, 0x7f00
            mov bx, 0x3010
            mov r9, after
            mov [0x3000], r9
            mov r10, fn
            mov [0x3008], r10
            mov cx, {ITERS}
            mov ax, 0x5a5a
        loop:
            add ax, cx
            xor ax, 0x55
        form:
            {form}
        after:
            add ax, 3
            dec cx
            jne loop
            hlt
        fn:
            add ax, 7
            ret
        """

    @pytest.mark.parametrize("config", list(ENGINE_CONFIGS))
    @pytest.mark.parametrize("form", list(REFUSED_FORMS))
    def test_form_stays_on_handler_and_bit_equal(self, form, config):
        source = self._loop(REFUSED_FORMS[form])
        jit_obs, domain = _run_traced(source, config, "jit")
        fast_obs, _ = _run_traced(source, config, "fast")
        ref_obs, _ = _run_traced(source, config, "reference")
        assert jit_obs.pop("tlb") == fast_obs.pop("tlb")
        ref_obs.pop("tlb")
        assert jit_obs == fast_obs == ref_obs
        assert ref_obs["outcome"] == "hlt"
        assert ref_obs["inputs"] == (ITERS if form == "in" else 0)
        labels = Assembler(0x8000).assemble(source).labels
        compiled = {int(line.split(":")[0], 16)
                    for cache in domain.images()
                    for blk in cache.meta.values() for line in blk.lines}
        # Both sides of the form compiled; the form did not.
        assert labels["loop"] in compiled and labels["after"] in compiled
        assert not any(labels["form"] <= addr < labels["after"]
                       for addr in compiled)


def _boot_long64(engine: str, budgets=None):
    """Boot the minimal LONG64 image with the JIT forced hot.

    ``engine`` is ``reference``, ``fast`` (JIT off), ``jit``, or
    ``jit-plain`` (JIT on, store-loop fast-forward disabled by the
    caller).  With ``budgets`` the boot is sliced into ``vmrun`` calls
    of those step budgets (cycled), recording the state after each.
    """
    clock = Clock()
    tracer = clock.tracer = Tracer(clock)
    domain = JitDomain(threshold=2)
    vm = VirtualMachine(4 * MiB, clock,
                        engine=("fast+jit" if engine.startswith("jit")
                                else engine),
                        jit_domain=domain)
    vm.load_program(ImageBuilder().minimal(Mode.LONG64).program)
    cpu = vm.cpu
    slices = []
    for i in range(100_000):
        budget = budgets[i % len(budgets)] if budgets else 50_000_000
        info = vm.vmrun(max_steps=budget)
        slices.append((info.reason.value, info.steps,
                       vm.interp.last_run_steps, dict(cpu.regs), cpu.rip,
                       (cpu.flags.zero, cpu.flags.sign, cpu.flags.carry),
                       clock.cycles))
        if info.reason.value == "hlt":
            break
    else:  # pragma: no cover - boot never halted
        raise AssertionError("boot did not halt")
    return {
        "cycles": clock.cycles,
        "components": boot_breakdown(tracer),
        "trace": to_chrome_json(tracer),
        "dirty": vm.memory.capture_dirty(),
        "ept_faults": vm.ept_faults,
        "slices": slices,
    }, domain


class TestLong64BootStoreLoop:
    """The boot's 512-entry page-directory fill (``pd_loop``) is a
    counted store loop: the JIT retires it in bulk, and nothing the
    reference can observe may change -- Table 1's "paging identity
    mapping" row, the EPT-fault timestamps in the trace, the page
    tables' bytes, and the JIT's own side-exit counts."""

    @staticmethod
    def _no_fast_forward(monkeypatch):
        monkeypatch.setattr(jit_module, "_match_store_loop",
                            lambda *args: None)

    @staticmethod
    def _count_bulk_stores(monkeypatch) -> list[str]:
        formats: list[str] = []
        pack_into = struct.pack_into

        def counting(fmt, *args):
            formats.append(fmt)
            return pack_into(fmt, *args)

        monkeypatch.setattr(struct, "pack_into", counting)
        return formats

    def _plain_jit(self, budgets=None):
        with pytest.MonkeyPatch.context() as mp:
            self._no_fast_forward(mp)
            return _boot_long64("jit-plain", budgets)

    def test_boot_bit_equal_across_engines(self, monkeypatch):
        formats = self._count_bulk_stores(monkeypatch)
        jit_obs, domain = _boot_long64("jit")
        monkeypatch.undo()
        fast_obs, _ = _boot_long64("fast")
        ref_obs, _ = _boot_long64("reference")
        plain_obs, plain = self._plain_jit()
        assert jit_obs == fast_obs == ref_obs == plain_obs
        assert jit_obs["components"]["paging identity mapping"] > 0
        assert jit_obs["ept_faults"] >= 3
        # The fill really ran in bulk: one store per quiet page run.
        assert formats and all(f.endswith("Q") for f in formats)
        assert sum(int(f[1:-1]) for f in formats) > 400
        assert domain.side_exits == plain.side_exits
        assert domain.counters == plain.counters
        assert domain.stats()["blocks_compiled"] == \
            plain.stats()["blocks_compiled"]

    @pytest.mark.parametrize("budgets", [(3,), (7, 50), (129, 1, 300)])
    def test_sliced_boot_matches_reference_at_every_slice(
            self, budgets, monkeypatch):
        formats = self._count_bulk_stores(monkeypatch)
        jit_obs, domain = _boot_long64("jit", budgets)
        monkeypatch.undo()
        # Slices of 3 never cover the 5-instruction segment; the others
        # cut pd_loop mid-page, so the budget bound sets the bulk size.
        assert bool(formats) == (max(budgets) > 3)
        ref_obs, _ = _boot_long64("reference", budgets)
        assert jit_obs == ref_obs
        plain_obs, plain = self._plain_jit(budgets)
        assert jit_obs == plain_obs
        assert domain.side_exits == plain.side_exits
        assert domain.counters == plain.counters


def _compare(source: str, config: str):
    """Run ``source`` on all three engines; every observable must match
    (the TLB counters between the two engines that keep one)."""
    jit_obs, domain = _run_traced(source, config, "jit")
    fast_obs, _ = _run_traced(source, config, "fast")
    ref_obs, _ = _run_traced(source, config, "reference")
    assert jit_obs.pop("tlb") == fast_obs.pop("tlb")
    ref_obs.pop("tlb")
    assert jit_obs == fast_obs == ref_obs
    return ref_obs, domain


def _run_fib_sliced(mode: Mode, engine: str, budget: int):
    """Boot and run the Figure 3 ``fib`` image in ``run_steps(budget)``
    slices; the state at every slice boundary and every exit."""
    domain = JitDomain(threshold=2)
    cpu = CPU()
    clock = Clock()
    interp = Interpreter(cpu, GuestMemory(4 * MiB), clock, COSTS,
                         engine=engine, jit_domain=domain)
    interp.load_program(ImageBuilder().fib(mode, 8).program)
    states = []
    while True:
        try:
            interp.run_steps(budget)
            outcome = "slice"
        except HaltExit:
            outcome = "hlt"
        except isa_module.IOOutExit:
            outcome = "out"
        states.append((outcome, dict(cpu.regs), cpu.rip,
                       (cpu.flags.zero, cpu.flags.sign, cpu.flags.carry),
                       clock.cycles, interp.instructions_retired))
        if outcome == "hlt":
            return states, interp


class TestCallReturnRegions:
    """Recursive call/return regions (fib's shape): the dispatch chain
    tests hot segments first, ``ret`` compares against the region's
    return sites before the segment map, and flag locals are computed
    only where something can observe them -- none of which may show in
    any observable, at any exit."""

    @pytest.mark.parametrize("mode", [Mode.REAL16, Mode.PROT32, Mode.LONG64])
    def test_fib_head_is_tested_first(self, mode):
        """In the region rooted at main, index order puts the fib head
        fifth: after main, the ``hlt`` site, the leaf ``ret`` and a
        return site.  Hot-first tests it first and main last."""
        states, interp = _run_fib_sliced(mode, "fast+jit", 1000)
        assert states[-1][1]["ax"] == 21
        program = interp.program
        main = next(addr for addr, insn in program.by_addr.items()
                    if insn.line.strip() == "mov ax, 8")
        source = jit_module.compile_block(interp, main)[0].source
        chain = [line for line in source.splitlines()
                 if line.lstrip().startswith(("if _pc ==", "elif _pc =="))]
        fib = program.labels["fib"]
        assert chain[0].endswith(f"# {fib:#x}"), chain
        assert chain[-1].endswith(f"# {main:#x}"), chain
        # Both rets (the leaf return and the unwind) predict every
        # call's return site before they fall back to the segment map.
        sites = [insn.addr + insn.size for insn in program.by_addr.values()
                 if insn.op == "call"]
        assert len(sites) == 3
        for site in sites:
            assert source.count(f"_v == {site}:") == 2
        assert source.count("_map.get(_v)") == 2

    @pytest.mark.parametrize("mode", [Mode.REAL16, Mode.PROT32, Mode.LONG64])
    def test_budget_sweep_matches_reference_at_every_boundary(self, mode):
        """Every budget from 1 to 40 cuts the fib web somewhere else:
        internal transfers, predicted returns and the flags they owe
        must leave exact state at each cut."""
        for budget in range(1, 41):
            jit, interp = _run_fib_sliced(mode, "fast+jit", budget)
            ref, _ = _run_fib_sliced(mode, "reference", budget)
            assert jit == ref, budget
            assert interp._jit_domain.counters["block_runs"] > 0

    @pytest.mark.parametrize("config", list(ENGINE_CONFIGS))
    def test_raising_store_right_after_flag_op(self, config):
        """The last ``push`` stores past the end of memory right after a
        ``sub`` whose flags are still pending: its ``except`` clause
        must materialise them, or the fault leaves stale flags."""
        width = access_width(ENGINE_CONFIGS[config][0])
        start = SMALL_MEMORY - width // 2 - (ITERS - 2) * width
        ref_obs, domain = _compare(f"""
            mov cx, {ITERS}
            mov bx, {start:#x}
        loop:
            mov sp, bx
            mov ax, 1
            sub ax, 2
            push ax
            add bx, {width}
            dec cx
            jne loop
            hlt
        """, config)
        assert ref_obs["outcome"] == "GuestMemoryError"
        assert domain.side_exits["fault"] == 1  # raised in a block
        # sub's flags: not zero, negative, borrow.
        assert ref_obs["flags"] == (False, True, True)

    @pytest.mark.parametrize("config", list(ENGINE_CONFIGS))
    def test_raising_load_after_transfer_owing_flags(self, config):
        """The back edge's taken path owes ``dec``'s sign and carry into
        a head that loads before it writes the flags; the ``jge`` left
        the sign local True.  The last ``pop`` faults on the load, so
        the transfer must have materialised them."""
        width = access_width(ENGINE_CONFIGS[config][0])
        start = SMALL_MEMORY - width // 2 - (ITERS - 1) * width
        ref_obs, domain = _compare(f"""
            mov cx, {ITERS}
            mov bx, {start:#x}
            mov ax, 0
        loop:
            mov sp, bx
            pop si
            add si, 3
            cmp ax, 1
            jge out
            add bx, {width}
            dec cx
            jne loop
        out:
            hlt
        """, config)
        assert ref_obs["outcome"] == "GuestMemoryError"
        assert domain.side_exits["fault"] == 1
        assert ref_obs["flags"] == (False, False, False)

    @pytest.mark.parametrize("config", list(ENGINE_CONFIGS))
    def test_first_touch_store_between_cmp_and_jcc(self, config):
        """``cmp``'s flags stay pending across a ``push`` that takes the
        accessor (EPT first touch on every other iteration, callbacks and
        trace events at their exact cycle); the ``jl`` reads only the
        sign, and the store's ``except`` clause owes the rest."""
        ref_obs, domain = _compare(f"""
            mov cx, {ITERS}
            mov bx, 0x1000
            mov ax, 0
        loop:
            mov sp, bx
            cmp cx, {ITERS // 2}
            push cx
            jl low
            add ax, 3
        low:
            add bx, 0x800
            dec cx
            jne loop
            hlt
        """, config)
        assert ref_obs["outcome"] == "hlt"
        assert ref_obs["ept_faults"] >= ITERS // 2
        source = _region_source(domain)
        half = ITERS // 2
        # The store's except clause computes all three flags, and the
        # jl after it computes only the sign: below ``half`` or negative.
        sign_less = rf"r_cx < {half} or r_cx >= \d+"
        assert re.search(
            rf"except BaseException:\n\s+fz = r_cx == {half}\n"
            rf"\s+fc = r_cx < {half}\n\s+fs = {sign_less}\n"
            rf"\s+_k = \d+\n\s+raise\n\s+_cy = -\d+\n(\s+_lpg = -1\n)?"
            rf"\s+fs = {sign_less}\n\s+if fs:\n", source), source

    @pytest.mark.parametrize("config", list(ENGINE_CONFIGS))
    @pytest.mark.parametrize("target", ["back", "back_head"])
    def test_rewritten_return_address_misses_the_prediction(
            self, target, config):
        """``fn`` swaps its return address for ``back``: the ``ret``
        matches no predicted return site.  With ``back_head`` a branch
        makes ``back`` a segment head, so the segment map catches it;
        otherwise the ``ret`` returns to the dispatcher."""
        guard = "cmp cx, 100\n            je back" if target == "back_head" \
            else ""
        source = f"""
            mov sp, 0x7f00
            mov r10, back
            mov cx, {ITERS}
            mov ax, 0
        loop:
            {guard}
            call fn
            add ax, 1
        back:
            xor ax, 0x55
            dec cx
            jne loop
            hlt
        fn:
            add ax, 7
            pop r9
            push r10
            ret
        """
        ref_obs, domain = _compare(source, config)
        assert ref_obs["outcome"] == "hlt"
        program = Assembler(0x8000).assemble(source)
        call = next(insn for insn in program.by_addr.values()
                    if insn.op == "call")
        # The ret predicts the call's return site, which it never hits.
        assert f"if _v == {call.addr + call.size}:" in _region_source(domain)
        loop = program.labels["loop"]
        cache = domain.images()[0]
        region = {pc for pc, blk in cache.meta.items()
                  if blk.fn is cache.meta[loop].fn}
        back = program.labels["back"]
        assert (back in region) == (target == "back_head")
        # A ret the region cannot place reaches the dispatcher, which
        # compiles its target as a region of its own.
        assert back in cache.meta


#: Inputs each wrap-boundary loop sweeps, one per iteration: the first
#: few profile and compile the loop, the edge falls after them.
SWEEP = 12


def _imm(value: int) -> int:
    """``value`` as an immediate: encodings are signed 64-bit, and every
    use masks them to the mode's width."""
    return value - (1 << 64) if value >> 63 else value


def _sweep_flags(op: str, start: int, dx: int) -> str:
    """A loop that applies ``op`` to ``ax = bx`` for ``SWEEP`` values of
    ``bx`` from ``start`` up (wrapping past the mask), and counts the
    carry, sign and zero flags it leaves in ``si``, ``di`` and ``bp``:
    every flag of every result is observed, not only the last one's."""
    return f"""
        mov cx, {SWEEP}
        mov bx, {_imm(start)}
        mov dx, {_imm(dx)}
        mov si, 0
        mov di, 0
        mov bp, 0
    loop:
        mov ax, bx
        {op}
        jnc c0
        inc si
    c0:
        mov ax, bx
        {op}
        jge s0
        inc di
    s0:
        mov ax, bx
        {op}
        jne z0
        inc bp
    z0:
        inc bx
        dec cx
        jne loop
        hlt
    """


class TestWrapBoundaries:
    """Compiled stack and ALU results wrap only on their overflow
    branch, and sign tests compare against the sign bit instead of
    flipping it.  Each form runs at the edge of its range inside a
    compiled loop, bit-equal to the reference in every config."""

    @staticmethod
    def _assert_ran_compiled(ref_obs: dict, domain: JitDomain) -> None:
        if ref_obs["outcome"] == "hlt":
            compiled = domain.counters["block_instructions"]
            assert 3 * compiled > 2 * ref_obs["retired"], (
                compiled, ref_obs["retired"])
        else:
            # The edge access is out of memory (unmapped when paged):
            # it faulted inside a compiled region.
            assert domain.side_exits["fault"] == 1

    @pytest.mark.parametrize("config", list(ENGINE_CONFIGS))
    @pytest.mark.parametrize("offset", [0, 1])
    @pytest.mark.parametrize("form", ["push", "call", "pop", "stos64"])
    def test_stack_pointer_wraps(self, form, offset, config):
        """``sp`` (``di`` for ``stos64``) walks down by one access per
        iteration from just above 0, through 0, to just below the mask
        (``sub`` wraps it): ``push``/``call`` store below ``sp < width``,
        ``pop``/``ret``/``stos64`` access the top ``width`` bytes and
        step past the mask.  REAL16's top of the address space is
        memory; elsewhere the access past it faults."""
        mode = ENGINE_CONFIGS[config][0]
        width = 8 if form == "stos64" else access_width(mode)
        # ``xor`` keeps every bit of the stepped pointer, so one that
        # left ``[0, mask]`` shows in ``dx`` at the halt.
        body = {
            "push": "mov sp, bx\n        push cx\n        xor dx, sp",
            "call": "mov sp, bx\n        call fn\n        xor dx, sp",
            "pop": "mov sp, bx\n        pop si\n        xor dx, sp",
            "stos64": "mov di, bx\n        stos64\n        xor dx, di",
        }[form]
        ref_obs, domain = _compare(f"""
            mov cx, {SWEEP}
            mov bx, {(SWEEP // 2) * width + offset:#x}
            mov ax, 0x5a
            mov dx, 0
        loop:
            {body}
            sub bx, {width}
            dec cx
            jne loop
            hlt
        fn:
            ret
        """, config)
        self._assert_ran_compiled(ref_obs, domain)
        if mode is Mode.REAL16 and offset == 0:
            assert ref_obs["outcome"] == "hlt"

    @pytest.mark.parametrize("config", list(ENGINE_CONFIGS))
    @pytest.mark.parametrize("edge", ["mask", "sign"])
    @pytest.mark.parametrize("op", ["add ax, 3", "add ax, dx", "inc ax",
                                    "sub ax, 3", "sub ax, dx", "dec ax",
                                    "shl ax, 1", "shl ax, 3", "mul ax, dx",
                                    "xor ax, dx", "shr ax, 1"])
    def test_alu_result_wraps(self, op, edge, config):
        """``dx`` is the mask, and ``bx`` sweeps through the mask to 5
        (``edge="mask"``) or across the sign bit ``S``: ``add``/``inc``
        carry out of the mask, ``sub``/``dec`` borrow below 0,
        ``shl``/``mul`` reach ``2 * mask`` and far past it, and results
        land on ``S`` itself."""
        mask = ENGINE_CONFIGS[config][0].mask
        start = mask - 5 if edge == "mask" else (mask + 1) // 2 - SWEEP // 2
        ref_obs, domain = _compare(_sweep_flags(op, start, mask), config)
        self._assert_ran_compiled(ref_obs, domain)

    @pytest.mark.parametrize("config", list(ENGINE_CONFIGS))
    @pytest.mark.parametrize("form", ["0", "S - 1", "S", "S + 1", "mask",
                                      "S - 1 reversed", "S reversed"])
    def test_cmp_against_constant(self, form, config):
        """``cmp ax, k`` (``cmp k, ax`` reversed) for ``ax`` on both
        sides of ``k``, at the sign bit ``S`` and the mask."""
        mask = ENGINE_CONFIGS[config][0].mask
        sign = (mask + 1) >> 1
        k = {"0": 0, "S - 1": sign - 1, "S": sign, "S + 1": sign + 1,
             "mask": mask}[form.split(" reversed")[0]]
        op = (f"cmp {_imm(k)}, ax" if form.endswith("reversed")
              else f"cmp ax, {_imm(k)}")
        start = (k - SWEEP // 2) & mask
        ref_obs, domain = _compare(_sweep_flags(op, start, 0), config)
        self._assert_ran_compiled(ref_obs, domain)
        assert ref_obs["regs"]["bp"] == 1  # the sweep passes ``k``

    @pytest.mark.parametrize("config", list(ENGINE_CONFIGS))
    @pytest.mark.parametrize("op", ["cmp ax, dx", "cmp dx, ax"])
    @pytest.mark.parametrize("dx", ["S - 1", "S"])
    def test_cmp_registers_with_mixed_signs(self, dx, op, config):
        """``ax`` sweeps across the sign bit ``S`` against ``dx`` at the
        largest positive or the smallest negative value: same-sign
        pairs compare unsigned, mixed-sign pairs by sign alone."""
        mask = ENGINE_CONFIGS[config][0].mask
        sign = (mask + 1) >> 1
        value = sign - 1 if dx == "S - 1" else sign
        ref_obs, domain = _compare(
            _sweep_flags(op, sign - SWEEP // 2, value), config)
        self._assert_ran_compiled(ref_obs, domain)
        assert ref_obs["regs"]["bp"] == 1  # the sweep passes ``dx``
