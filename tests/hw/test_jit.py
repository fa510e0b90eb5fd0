"""Superblock JIT unit tests (DESIGN.md SS15).

The contract under test is the fast-path contract one level up: a
compiled region must be *invisible* in every simulated observable --
registers, flags, cycles, dirty pages, TLB counters -- while the
plumbing around it (profiling, per-image caching, warm start, push
invalidation, guards, blacklist) behaves as documented.  Equality
checks here run the same guest three ways: reference interpreter,
fast path with the JIT off, fast path with the JIT on.
"""

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
from repro.hw.vmx import VirtualMachine
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


def make_interp(source: str, *, fast_paths: bool = True, jit: bool = True,
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
    interp = Interpreter(cpu, memory, clock, COSTS, fast_paths=fast_paths,
                         jit=jit, jit_domain=domain)
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
        fast_obs = run_to_halt(make_interp(HOT_LOOP, jit=False))
        ref_obs = run_to_halt(make_interp(HOT_LOOP, fast_paths=False))
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
        fast = make_interp(HOT_LOOP, jit=False, paged=True)
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
            make_interp(CALL_LOOP, fast_paths=False, paged=True),
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
        assert jit_obs == run_to_halt(make_interp(self.SMC, jit=False))
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
        assert jit_obs == run_to_halt(make_interp(HOT_LOOP, jit=False),
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
        assert jit_obs == run_to_halt(make_interp(source, fast_paths=False))
        # The control-register read heads the loop: uncompilable there,
        # so that pc is blacklisted; the rest of the loop still compiles.
        head = jit.program.labels["loop"]
        assert head in cache.blacklist
        assert head not in cache.blocks


class TestEscapeHatches:
    def test_fast_paths_off_disables_jit(self):
        interp = make_interp(HOT_LOOP, fast_paths=False, jit=True)
        assert not interp.jit

    def test_jit_flag_off(self):
        domain_stats_before = None
        interp = make_interp(HOT_LOOP, jit=False)
        assert not interp.jit
        run_to_halt(interp)
        assert domain_stats_before is None  # nothing to leak

    def test_impure_clock_subclass_disables_jit(self):
        """Generated code bumps ``clock._cycles`` directly; that is only
        sound while ``advance`` is the base accumulator."""

        class TracingClock(Clock):
            def advance(self, cycles):
                super().advance(cycles)

        memory = GuestMemory(8 * MiB)
        cpu = CPU()
        cpu.mode = Mode.LONG64
        interp = Interpreter(cpu, memory, TracingClock(), COSTS,
                             fast_paths=True, jit=True)
        assert not interp.jit
        # An inheriting-but-not-overriding subclass stays eligible.
        class PlainClock(Clock):
            pass

        interp2 = Interpreter(CPU(), GuestMemory(8 * MiB), PlainClock(),
                              COSTS, fast_paths=True, jit=True)
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
        ref_obs, _ = self._run(wide, fast_paths=False)
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
                   {"fast_paths": False}):
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
        ref_obs, _ = self._run(7, fast_paths=False)
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
    """A hot loop whose stores/loads hit one memory-path case."""
    if kind in ("first_touch", "cow"):
        # Two iterations per page: the first store takes the accessor
        # (CoW break, then EPT first touch), the second is quiet.
        start, step = 0x1000, 0x800
        body = """
        mov si, [bx]
        add si, cx
        mov [bx], si
        """
    elif kind == "straddle":
        # Every other iteration makes a fresh page quiet, then stores
        # across its end into the next, still untouched page (EPT first
        # touch of the upper page).  Once, in iteration 10, a constant-
        # address store crosses from quiet page 6 into untouched page 7.
        start, step = 0x1100, 0x800
        cross = 0x1000 - 0x100 - width // 2
        body = f"""
        mov [bx], ax
        mov [bx + {cross:#x}], ax
        mov si, [bx + {cross:#x}]
        add ax, 0x1234
        cmp cx, 3
        jne skip
        mov [{0x7000 - width // 2:#x}], ax
    skip:
        """
    else:
        # Walk up to the end of memory: the last access straddles it.
        start = SMALL_MEMORY - width // 2 - (ITERS - 1) * width
        step = width
        first, second = "mov [bx], ax", "mov si, [bx]"
        if kind == "oob_load":
            first, second = second, first
        body = f"""
        {first}
        {second}
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


def _run_memory_case(kind: str, config: str, engine: str):
    mode, paged = ENGINE_CONFIGS[config]
    width = access_width(mode)
    clock = Clock()
    tracer = Tracer(clock)
    domain = JitDomain(threshold=2)
    vm = VirtualMachine(SMALL_MEMORY, clock, tracer=tracer,
                        fast_paths=engine != "reference",
                        jit=engine == "jit", jit_domain=domain)
    cpu = vm.cpu
    cpu.mode = mode
    if paged:
        cpu.cr3 = paging.build_identity_map(
            vm.memory, paging.IdentityMapLayout.at(TABLES))
        cpu.cr0 = CR0_PE | CR0_PG
        cpu.efer = EFER_LME
    vm.load_program(Assembler(0x8000).assemble(_memory_loop(kind, width)))
    if kind == "cow":
        vm.memory.restore_pages_cow(
            {page: bytes([page]) * 4096 for page in range(1, 8)})
    try:
        outcome = vm.vmrun().reason.value
    except Exception as exc:  # the out-of-bounds cases
        outcome = type(exc).__name__
    interp = vm.interp
    return {
        "outcome": outcome,
        "regs": dict(cpu.regs),
        "rip": cpu.rip,
        "flags": (cpu.flags.zero, cpu.flags.sign, cpu.flags.carry),
        "cycles": clock.cycles,
        "retired": interp.instructions_retired,
        "steps": interp.last_run_steps,
        "dirty": sorted(vm.memory.dirty_pages),
        "cow_pending": sorted(vm.memory.cow_pending_pages),
        "ept_faults": vm.ept_faults,
        "cow_breaks": vm.cow_breaks,
        "trace": to_chrome_json(tracer),
    }, domain


class TestInlineMemoryPaths:
    """Every access width's inline load/store path against the reference,
    inside a compiled loop: the accessor fallbacks must fire their
    callbacks at the exact cycle (Chrome trace bytes included) and raise
    with exact state."""

    @pytest.mark.parametrize("config", list(ENGINE_CONFIGS))
    @pytest.mark.parametrize("kind", ["first_touch", "cow", "straddle",
                                      "oob_store", "oob_load"])
    def test_bit_equal_to_reference(self, kind, config):
        jit_obs, domain = _run_memory_case(kind, config, "jit")
        fast_obs, _ = _run_memory_case(kind, config, "fast")
        ref_obs, _ = _run_memory_case(kind, config, "reference")
        assert jit_obs == fast_obs == ref_obs
        # The case ran inside compiled code, not just next to it.
        assert domain.counters["block_instructions"] > 2 * 5
        if kind.startswith("oob"):
            assert ref_obs["outcome"] == "GuestMemoryError"
            assert domain.side_exits["fault"] == 1  # raised in a block
        else:
            assert ref_obs["outcome"] == "hlt"
        if kind == "first_touch":
            assert ref_obs["ept_faults"] >= 6
        if kind == "cow":
            assert ref_obs["cow_breaks"] == 6


def _boot_long64(engine: str, budgets=None):
    """Boot the minimal LONG64 image with the JIT forced hot.

    ``engine`` is ``reference``, ``fast`` (JIT off), ``jit``, or
    ``jit-plain`` (JIT on, store-loop fast-forward disabled by the
    caller).  With ``budgets`` the boot is sliced into ``vmrun`` calls
    of those step budgets (cycled), recording the state after each.
    """
    clock = Clock()
    tracer = Tracer(clock)
    domain = JitDomain(threshold=2)
    vm = VirtualMachine(4 * MiB, clock, tracer=tracer,
                        fast_paths=engine != "reference",
                        jit=engine.startswith("jit"), jit_domain=domain)
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
