"""Boot replay: a recorded boot is observationally a live one.

Under ``fast+jit`` an untraced boot from the power-on state to the
main-entry milestone is recorded once per image (on its
``ImageBlockCache``) and then applied instead of executed (DESIGN.md
SS15, "Boot replay").  These tests boot images on one device, through
scratch and pooled shells, and require every replayed boot to leave
exactly the state of the ``reference`` engine (the oracle) and of a
traced ``fast+jit`` run (which never replays), and they pin the cases
that must run live.
"""

import copy
import hashlib

import pytest

from repro.hw.clock import Clock
from repro.hw.cpu import Mode
from repro.hw.isa import Assembler
from repro.hw.jit import MAX_BLOCK_INSNS, JitDomain
from repro.hw.memory import GuestMemoryError
from repro.hw.vmx import ExitReason, VirtualMachine
from repro.kvm.device import KVM
from repro.runtime import boot
from repro.runtime.image import ImageBuilder, VirtineImage
from repro.trace import Tracer
from repro.wasp import PermissivePolicy, Wasp
from repro.wasp.admission import Deadline
from repro.wasp.virtine import VirtineTimeout

#: A low JIT threshold keeps the warm-up short; replays start a few
#: boots past it.
THRESHOLD = 4
BOOTS = THRESHOLD + 8
SIZES = (16 << 10, 1 << 20, 4 << 20)
MODES = (Mode.PROT32, Mode.LONG64)
PAGE_TABLES = boot.PAGE_TABLE_BASE >> 12


@pytest.fixture(scope="module", autouse=True)
def low_threshold():
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_JIT_THRESHOLD", str(THRESHOLD))
        yield


def memory_size(image) -> int:
    return 4 << 20 if image.size < 2 << 20 else 8 << 20


class Rig:
    """One device and its pooled shells, installing images the way
    ``Wasp._install_image`` does and releasing them the way
    ``ShellPool.release`` does."""

    def __init__(self, engine: str = "fast+jit", traced: bool = False):
        clock = Clock()
        if traced:
            clock.tracer = Tracer(clock)
        self.kvm = KVM(clock, engine=engine)
        self.pooled: dict[int, object] = {}

    def shell(self, image, pooled: bool):
        size = memory_size(image)
        handle = self.pooled.get(size) if pooled else None
        if handle is None:
            handle = self.kvm.create_vm()
            handle.set_user_memory_region(size)
            handle.create_vcpu()
            if pooled:
                self.pooled[size] = handle
        return handle

    def install(self, image, pooled: bool = False, scrub: bool = True,
                prepare=None):
        """Install ``image`` on a shell (a pooled shell is released
        first); returns its handle."""
        handle = self.shell(image, pooled)
        vm = handle.vm
        if vm.interp.program is not None:
            vm.reset()
            if scrub:
                self.kvm.clock.advance(vm.clear_memory())
        vm.reset()
        self.kvm.clock.advance(self.kvm.costs.memcpy(image.size))
        vm.memory.load_bytes(image.program.image, image.program.base,
                             image.size)
        vm.interp.attach_program(image.program)
        if prepare is not None:
            prepare(vm)
        return handle

    def boot(self, image, pooled: bool = False, **kwargs):
        """Install ``image`` and run it to its halt; returns the VM."""
        handle = self.install(image, pooled, **kwargs)
        info = handle.vcpu.run()
        assert info.reason is ExitReason.HLT, info
        return handle.vm

    def cache(self, image):
        domain = self.kvm.jit_domain
        return domain.image_cache(image.program, self.kvm.costs)


def boot_with(extra: str, mode: Mode = Mode.PROT32) -> VirtineImage:
    """A minimal image with ``extra`` just before main entry."""
    source = boot.boot_source(mode).replace(
        f"    out 0xE9, {boot.MS_MAIN_ENTRY}\n",
        f"    {extra}\n    out 0xE9, {boot.MS_MAIN_ENTRY}\n")
    program = Assembler().assemble(source)
    return VirtineImage(name="boot+", program=program, mode=mode,
                        size=len(program.image))


def unquiet(vm) -> dict:
    """:func:`observe` without the quiet set: host-side bookkeeping that
    the fast engines' watches (compiled code pages, walked page tables)
    shrink, so it differs from the reference engine's on live runs."""
    state = observe(vm)
    del state["quiet"]
    return state


def translations(vm) -> tuple:
    """The software TLB and what it watches (fast engines only)."""
    interp, memory = vm.interp, vm.memory
    return (dict(interp._tlb), frozenset(memory._watched_pages),
            memory.translation_version,
            (interp.tlb_hits, interp.tlb_misses, interp.tlb_flushes))


def observe(vm) -> dict:
    memory = vm.memory
    return {
        "clock": vm.clock.cycles,
        "milestones": [(m.marker, m.cycles) for m in vm.milestones],
        "cpu": vm.cpu.save_state(),
        "memory": hashlib.sha256(memory.snapshot_bytes()).hexdigest(),
        "dirty": memory.dirty_pages,
        "touched": frozenset(memory._touched),
        "quiet": frozenset(memory._quiet),
        "cow": memory.cow_pending_pages,
        "components": list(vm.interp.component_cycles.items()),
        "ept": (vm.ept_faults, vm.ept_fault_cycles),
        "retired": vm.interp.instructions_retired,
    }


def jit_state(rig: Rig) -> dict:
    domain = rig.kvm.jit_domain
    stats = domain.stats()
    for image in stats["images"]:
        image.pop("replays")
    return {"stats": stats,
            "counts": {cache.name: dict(cache.counts)
                       for cache in domain.images()}}


def trio() -> tuple[Rig, Rig, Rig]:
    """A replaying rig and its two oracles: the reference engine and a
    traced ``fast+jit`` run."""
    return Rig(), Rig("reference"), Rig(traced=True)


def lockstep(boots, rigs=None, **kwargs):
    """Boot ``(image, pooled)`` pairs on each rig of a :func:`trio`;
    yields ``(replayed, replay_vm, reference_vm, traced_vm)``."""
    replay, reference, traced = rigs or trio()
    for image, pooled in boots:
        before = replay.cache(image).replays
        vms = [rig.boot(image, pooled, **kwargs)
               for rig in (replay, reference, traced)]
        yield replay.cache(image).replays > before, *vms


def wasp_replays(wasp) -> int | None:
    """Boot replays of a one-image Wasp (``None`` without a JIT)."""
    domain = wasp.kvm.jit_domain
    return domain.images()[0].replays if domain else None


IMAGES = [ImageBuilder().minimal(mode, size)
          for mode in MODES for size in SIZES]


class TestReplayedBootsAreExact:
    @pytest.fixture(scope="class")
    def runs(self):
        """Every image on one device: scratch boots, then pooled ones."""
        rigs = trio()
        boots = [(image, pooled) for image in IMAGES
                 for pooled in (False, True) for _ in range(BOOTS)]
        runs = []
        for replayed, vm, ref, traced in lockstep(boots, rigs):
            state = (observe(vm), observe(ref), observe(traced),
                     jit_state(rigs[0]), jit_state(rigs[2]))
            runs.append((replayed, state))
        return rigs, runs

    def test_every_image_and_shell_kind_replays(self, runs):
        rigs, results = runs
        replayed = [hit for hit, _ in results]
        # Images that differ only in padding share one cache.
        per_cache = {}
        for k, image in enumerate(IMAGES):
            scratch = replayed[2 * k * BOOTS:(2 * k + 1) * BOOTS]
            pooled = replayed[(2 * k + 1) * BOOTS:(2 * k + 2) * BOOTS]
            assert any(scratch) and any(pooled), image.name
            cache = rigs[0].cache(image)
            per_cache[cache] = per_cache.get(cache, 0) + sum(scratch + pooled)
        for cache, replays in per_cache.items():
            assert cache.replays == cache.stats()["replays"] == replays
        # Nothing replays when traced.
        assert all(c.replays == 0 for c in rigs[2].kvm.jit_domain.images())

    def test_fresh_and_recycled_shells_keep_their_own_records(self, runs):
        rigs, _ = runs
        for image in IMAGES:
            boots = rigs[0].cache(image).boots
            if image.mode is Mode.LONG64:
                # 3 EPT faults on a fresh shell, none on a recycled one.
                assert boots[False].ept_faults == 3
                assert boots[True].ept_faults == 0
                assert list(boots[False].pages) == [
                    PAGE_TABLES, PAGE_TABLES + 1, PAGE_TABLES + 2]
            else:
                assert list(boots) == [True]
                assert boots[True].pages == {}

    def test_every_boot_equals_reference_and_traced(self, runs):
        _, results = runs
        for _, (vm, ref, traced, jit, traced_jit) in results:
            assert vm == ref == traced
            assert jit == traced_jit


@pytest.mark.parametrize("size", [1 << 20, 4 << 20])
def test_record_takes_the_pages_stored_to_not_a_dirty_diff(size):
    """Images of 1 MB and up load zero padding over the page tables, so
    those pages are dirty before the boot stores to them: a record
    built from a dirty-set diff would drop their bytes and EPT faults."""
    image = ImageBuilder().minimal(Mode.LONG64, size)
    dirty_before = []

    def note(vm):
        dirty_before.append(PAGE_TABLES in vm.memory.dirty_pages)

    replays = 0
    for replayed, vm, ref, traced in lockstep([(image, False)] * BOOTS,
                                              prepare=note):
        replays += replayed
        assert observe(vm) == observe(ref) == observe(traced)
        assert vm.ept_faults == 3
    assert all(dirty_before) and replays


class TestFallsBackToLive:
    def warm(self, rigs, image, pooled=False):
        for _ in lockstep([(image, pooled)] * BOOTS, rigs):
            pass
        assert rigs[0].cache(image).replays > 0

    @pytest.mark.parametrize("pooled", [False, True])
    def test_non_zero_page_table_bytes(self, pooled):
        image = ImageBuilder().minimal(Mode.LONG64)
        rigs = trio()
        self.warm(rigs, image, pooled)

        def stray(vm):
            # Host-side write into the PML4 page, away from its one entry.
            vm.memory.load_bytes(b"\xaa", boot.PAGE_TABLE_BASE + 0x800)

        for replayed, vm, ref, traced in lockstep(
                [(image, pooled)] * 2, rigs, prepare=stray):
            assert not replayed
            assert observe(vm) == observe(ref) == observe(traced)
            assert vm.memory.read(boot.PAGE_TABLE_BASE + 0x800, 1) == b"\xaa"

    def test_unscrubbed_pooled_shell(self):
        image = ImageBuilder().minimal(Mode.LONG64)
        rigs = trio()
        self.warm(rigs, image, pooled=True)
        for replayed, vm, ref, traced in lockstep(
                [(image, True)] * 2, rigs, scrub=False):
            assert not replayed
            assert observe(vm) == observe(ref) == observe(traced)

    def test_guest_store_to_a_compiled_code_page(self):
        # A load-free boot prefix whose one extra store lands on the page
        # holding its own (compiled) code: every boot invalidates it.
        image = boot_with("mov [0x8ff8], ax")
        assert image.program.boot_prefix_end is not None
        rigs = trio()
        for replayed, vm, ref, traced in lockstep(
                [(image, False)] * (3 * BOOTS), rigs):
            assert not replayed
            assert observe(vm) == observe(traced)
            assert unquiet(vm) == unquiet(ref)
        cache = rigs[0].cache(image)
        assert cache.invalidations > 0 and not cache.boots

    def test_boot_leaving_a_translation_cached(self):
        # A paged store after the switch to long mode leaves a TLB entry
        # and watched page-table pages, which a record does not hold.
        image = boot_with("mov [0x300000], ax", Mode.LONG64)
        assert image.program.boot_prefix_end is not None
        for replayed, vm, ref, traced in lockstep([(image, False)] * BOOTS):
            assert not replayed
            assert observe(vm) == observe(traced)
            assert unquiet(vm) == unquiet(ref)
            assert translations(vm) == translations(traced)
            assert vm.interp._tlb

    def test_record_from_a_larger_memory(self):
        # Recorded in 8 MB guests, the boot's store at 5 MB lies outside
        # a 4 MB one, where it must fault as it does live.
        program = boot_with("mov [0x500000], ax").program
        domain = JitDomain()
        for _ in range(BOOTS):
            vm = VirtualMachine(8 << 20, Clock(), jit_domain=domain)
            vm.load_program(program)
            vm.vmrun()
        assert domain.images()[0].replays > 0
        for engine in ("fast+jit", "reference"):
            small = VirtualMachine(4 << 20, Clock(), engine=engine,
                                   jit_domain=domain)
            small.load_program(program)
            with pytest.raises(GuestMemoryError):
                small.vmrun()

    @pytest.mark.parametrize("slack", [-200, 0, 1, MAX_BLOCK_INSNS])
    def test_step_budget_near_the_boot(self, slack):
        image = ImageBuilder().minimal(Mode.LONG64)
        rigs = trio()
        self.warm(rigs, image)
        record = rigs[0].cache(image).boots[False]
        replays = rigs[0].cache(image).replays
        exits = []
        for rig in rigs:
            handle = rig.install(image)
            info = handle.vcpu.run(record.steps + slack)
            exits.append((info.reason, info.detail, info.steps,
                          observe(handle.vm)))
        assert exits[0] == exits[1] == exits[2]
        assert jit_state(rigs[0]) == jit_state(rigs[2])
        assert rigs[0].cache(image).replays == replays

    def test_deadline_expiring_mid_boot(self):
        image = ImageBuilder().minimal(Mode.LONG64)
        outcomes = {}
        for engine in ("fast+jit", "reference"):
            wasp = Wasp(engine=engine)
            for _ in range(BOOTS):
                start = wasp.clock.cycles
                result = wasp.launch(image, pooled=False)
            # Scratch launches repeat cycle for cycle, so the next one
            # flips CR0.PE one launch period later.
            marks = dict(result.milestones)
            mid_boot = Deadline(marks[boot.MS_AFTER_PE]
                                + wasp.clock.cycles - start)
            replays = wasp_replays(wasp)
            with pytest.raises(VirtineTimeout) as timeout:
                wasp.launch(image, pooled=False, deadline=mid_boot)
            if engine == "fast+jit":
                assert replays > 0 and wasp_replays(wasp) == replays
            outcomes[engine] = (timeout.value.cycles, wasp.clock.cycles)
        assert outcomes["fast+jit"] == outcomes["reference"]

    def test_snapshot_restored_vcpu(self):
        def entry(env):
            if not env.from_snapshot:
                env.charge(10_000)
                env.snapshot()
            return 0

        outcomes = {}
        for engine in ("fast+jit", "reference"):
            wasp = Wasp(engine=engine)
            image = ImageBuilder().hosted(name="snap-boot", entry=entry)
            cycles = [wasp.launch(image, use_snapshot=False,
                                  policy=PermissivePolicy()).cycles
                      for _ in range(BOOTS)]
            replays = wasp_replays(wasp)
            restored = [wasp.launch(image, policy=PermissivePolicy())
                        for _ in range(3)]
            assert all(result.from_snapshot for result in restored)
            if engine == "fast+jit":
                assert replays > 0 and wasp_replays(wasp) == replays
            outcomes[engine] = (cycles, [r.cycles for r in restored],
                                wasp.clock.cycles)
        assert outcomes["fast+jit"] == outcomes["reference"]


class TestRecordIsNeverAliased:
    """A replay hands the vCPU the record's state; the guest then runs
    on from main entry and changes it.  None of that may reach back
    into the record, or the next replay would start from the previous
    guest's state."""

    #: After main entry: set IF, load registers, set ZF/SF/CF with a
    #: compare, and point the GDTR elsewhere.
    BODY = """
    sti
    mov ax, 0x1234
    mov bx, 0x2345
    mov r9, 0x77
    cmp ax, bx
    lgdt 0x7000
    hlt
"""

    @pytest.mark.parametrize("mode", MODES)
    def test_records_survive_many_replays_unchanged(self, mode):
        program = Assembler().assemble(boot.boot_source(mode, self.BODY))
        image = VirtineImage(name="mutator", program=program, mode=mode,
                             size=len(program.image))
        rig = Rig()
        for _ in range(BOOTS):
            rig.boot(image)
        cache = rig.cache(image)
        [touched] = cache.boots  # scratch shells: one record
        pristine = copy.deepcopy(cache.boots[touched])
        replays = cache.replays
        for _ in range(3 * BOOTS):
            vm = rig.boot(image)
            cpu = vm.cpu
            record = cache.boots[touched]
            after = cpu.save_state()
            for name in ("flags", "gdtr", "regs"):
                assert after[name] != record.cpu[name], name
                assert getattr(cpu, name) is not record.cpu[name], name
            # Every field, the CPU state and milestones among them.
            assert record == pristine
        assert cache.replays == replays + 3 * BOOTS


class TestBootPrefix:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_boot_images_are_replayable(self, mode):
        program = ImageBuilder().minimal(mode).program
        end = program.boot_prefix_end
        main = next(insn for insn in program.instructions
                    if insn.op == "out" and insn.operands[1].value
                    == boot.MS_MAIN_ENTRY)
        assert end == main.addr + main.size

    @pytest.mark.parametrize("extra", [
        "mov bx, [0x9000]",   # a memory read
        "push ax",            # the stack
        "in ax, 0x60",        # port input
        "out 0x80, 1",        # a non-debug port
        "jmp bx",             # a dynamic target
        "jmp 0x20000",        # a target outside the prefix
    ])
    def test_prefixes_that_are_not_load_free(self, extra):
        assert boot_with(extra).program.boot_prefix_end is None

    def test_no_main_entry_milestone(self):
        assert Assembler().assemble("nop\nhlt").boot_prefix_end is None
