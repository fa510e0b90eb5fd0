"""Differential fuzzing of the fast-path engine (PR 4's contract).

A seeded generator emits random guest programs mixing arithmetic,
forward branches, memory traffic, stack pairs, and port I/O (the
hypercall mechanism at the interpreter level: ``out``/``in`` raise the
exits Wasp turns into hypercalls).  Every program runs twice -- once on
the fast path (software TLB + predecoded dispatch + ``run_steps`` bulk
loop) and once on the reference ``step()`` interpreter -- and every
observable must be bit-equal: registers, flags, dirty memory pages,
total cycles, per-component cycle attribution, retired-instruction
count, the I/O log, and the exit sequence.

Each case derives its seed as ``REPRO_SEED + case``; a failure
message prints the exact seed and generated source, so any divergence
replays with ``REPRO_SEED=<seed> REPRO_FUZZ_CASES=1 pytest ...``.

Forward-only control flow guarantees termination by construction: every
branch (conditional or not) targets a label strictly ahead of it.
"""

import hashlib
import os
import random

import pytest

from repro import env_seed
from repro.hw import isa as isa_module
from repro.hw import jit as jit_module
from repro.hw import paging
from repro.hw.clock import Clock
from repro.hw.costs import COSTS
from repro.hw.cpu import CPU, CR0_PE, CR0_PG, EFER_LME, Mode
from repro.hw.isa import (
    Assembler,
    ExecutionError,
    HaltExit,
    Interpreter,
    IOInExit,
    IOOutExit,
    TripleFault,
)
from repro.hw.jit import JitDomain
from repro.hw.memory import GuestMemory, GuestMemoryError
from repro.hw.vmx import VirtualMachine
from repro.trace import Tracer, to_chrome_json

from tests.engine_configs import ENGINE_CONFIGS, access_width

#: How many generated programs to run (CI runs the full 200; a local
#: repro of one failing case sets REPRO_FUZZ_CASES=1).
CASES = int(os.environ.get("REPRO_FUZZ_CASES", "200"))
#: Base seed; case ``i`` uses ``BASE_SEED + i``.
BASE_SEED = env_seed(20260805)

MODES = (Mode.REAL16, Mode.PROT32, Mode.LONG64)
#: Registers the generator touches (sp stays reserved for the stack,
#: di for stos64's cursor).
REGS = ("ax", "bx", "cx", "dx", "si", "r8", "r9", "r10")
#: Data window for absolute loads/stores: well below the code at 0x8000.
DATA_LO, DATA_HI = 0x4000, 0x6000
#: Odd bulk-loop chunk so guest exits straddle run_steps boundaries.
CHUNK = 7

_BIN_OPS = ("mov", "add", "sub", "and", "or", "xor", "mul")
_JCC = ("je", "jne", "jl", "jle", "jg", "jge", "jc", "jnc", "jmp")


def generate_program(seed: int) -> tuple[str, Mode]:
    """One random guest program + the mode to run it in."""
    rng = random.Random(seed)
    mode = MODES[seed % len(MODES)]
    lines = [
        "mov sp, 0x7f00",   # sane stack for push/pop pairs
        "mov di, 0x6800",   # stos64 cursor, clear of the data window
    ]
    #: (instructions-to-go, label) for branches awaiting their target.
    pending: list[list] = []
    label_counter = 0

    def emit(line: str) -> None:
        lines.append(line)
        for entry in pending:
            entry[0] -= 1
        while pending and pending[0][0] <= 0:
            lines.append(f"{pending.pop(0)[1]}:")

    def reg() -> str:
        return rng.choice(REGS)

    def imm() -> int:
        return rng.randrange(0, 0x10000)

    def addr() -> int:
        return rng.randrange(DATA_LO, DATA_HI) & ~0x7

    for _ in range(rng.randrange(12, 56)):
        kind = rng.choices(
            ("arith", "cmp", "branch", "mem", "stack", "io", "stos"),
            weights=(10, 4, 4, 6, 2, 3, 1),
        )[0]
        if kind == "arith":
            op = rng.choice(_BIN_OPS)
            src = reg() if rng.random() < 0.5 else f"{imm():#x}"
            if rng.random() < 0.2:
                emit(f"{rng.choice(('inc', 'dec'))} {reg()}")
            elif rng.random() < 0.2:
                emit(f"{rng.choice(('shl', 'shr'))} {reg()}, {rng.randrange(0, 16)}")
            else:
                emit(f"{op} {reg()}, {src}")
        elif kind == "cmp":
            op = rng.choice(("cmp", "test"))
            src = reg() if rng.random() < 0.5 else f"{imm():#x}"
            emit(f"{op} {reg()}, {src}")
        elif kind == "branch":
            label = f"L{label_counter}"
            label_counter += 1
            # Target lands 1-4 emitted instructions ahead (forward only).
            pending.append([rng.randrange(1, 5), label])
            pending.sort(key=lambda e: e[0])
            emit(f"{rng.choice(_JCC)} {label}")
        elif kind == "mem":
            form = rng.randrange(3)
            if form == 0:
                emit(f"mov [{addr():#x}], {reg()}")
            elif form == 1:
                emit(f"mov {reg()}, [{addr():#x}]")
            else:
                base = addr()
                emit(f"mov si, {base:#x}")
                emit(f"mov [si + {rng.randrange(0, 8) * 8}], {reg()}")
        elif kind == "stack":
            emit(f"push {reg()}")
            emit(f"pop {reg()}")
        elif kind == "io":
            port = rng.randrange(0, 0x100)
            if rng.random() < 0.5:
                emit(f"out {port:#x}, {reg()}")
            else:
                emit(f"in {reg()}, {port:#x}")
        else:
            emit("stos64")
    # Close out any branches still waiting for their target.
    for _, label in pending:
        lines.append(f"{label}:")
    lines.append("hlt")
    return "\n".join(lines), mode


def execute(source: str, mode: Mode, engine: str) -> dict:
    """Run ``source`` to completion; return every observable.

    An ``ExecutionError`` propagates: the generators emit only valid
    forms, so one is a generator or engine bug and fails the case.
    """
    return _run(source, mode, engine, record_errors=False)


def execute_to_error(source: str, mode: Mode, engine: str) -> dict:
    """:func:`execute` for programs that are meant to fault: an
    ``ExecutionError`` ends the run as an ``error:<message>`` exit, so
    the state it leaves can be compared across engines."""
    return _run(source, mode, engine, record_errors=True)


def _run(source: str, mode: Mode, engine: str, record_errors: bool) -> dict:
    cpu = CPU()
    cpu.mode = mode
    memory = GuestMemory(1024 * 1024)
    clock = Clock()
    interp = Interpreter(cpu, memory, clock, COSTS, engine=engine)
    interp.load_program(Assembler(0x8000).assemble(source))
    outs: list[tuple[int, int]] = []
    exits: list[str] = []
    in_count = 0
    executed = 0
    while True:
        if executed > 100_000:
            raise ExecutionError("runaway guest (generator bug)")
        try:
            interp.run_steps(CHUNK)
            executed += CHUNK
        except HaltExit:
            exits.append("hlt")
            break
        except IOOutExit as exit_event:
            outs.append((exit_event.port, exit_event.value))
            exits.append("out")
        except IOInExit as exit_event:
            # Deterministic port data: a pure function of (port, seq).
            value = (exit_event.port * 167 + in_count * 41 + 7) & 0xFFFF
            interp.resume_with_input(exit_event.dest, value)
            in_count += 1
            exits.append("in")
        except TripleFault as fault:
            exits.append(f"fault:{fault}")
            break
        except ExecutionError as error:
            if not record_errors:
                raise
            exits.append(f"error:{error}")
            break
    return {
        "regs": {r: cpu.read_reg(r) for r in
                 ("ax", "bx", "cx", "dx", "si", "di", "sp", "bp",
                  "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15")},
        "rip": cpu.rip,
        "flags": (cpu.flags.zero, cpu.flags.sign, cpu.flags.carry,
                  cpu.flags.interrupts),
        "dirty": memory.capture_dirty(),
        "cycles": clock.cycles,
        "component_cycles": dict(interp.component_cycles),
        "retired": interp.instructions_retired,
        "outs": outs,
        "exits": exits,
    }


@pytest.mark.parametrize("case", range(CASES))
def test_fast_path_bit_equal_to_reference(case):
    seed = BASE_SEED + case
    source, mode = generate_program(seed)
    fast = execute(source, mode, engine="fast+jit")
    reference = execute(source, mode, engine="reference")
    assert fast == reference, (
        f"fast path diverged from reference in {mode.name}; replay with "
        f"REPRO_SEED={seed} REPRO_FUZZ_CASES=1\n"
        f"--- program ---\n{source}"
    )


# -- instruction forms the generator never emits ------------------------------
#
# The generator above sticks to register/immediate ALU forms, label
# branches and push/pop of registers, so the fast engine's handlers for
# the rarer forms a guest may still assemble -- an immediate push, a
# conditional jump through a register or memory, ``rdmsr``, and the
# invalid-operand errors -- would never meet the reference.  Each
# program below runs in every mode on all three engines; the error
# cases must stop at the same instruction, cycle and message.

RARE_FORMS = {
    "push-imm": """
        mov sp, 0x7f00
        push 0x1234
        pop ax
        push 0x9abc
        hlt
    """,
    "push-sp": """
        mov sp, 0x7f00
        push sp
        pop ax
        hlt
    """,
    "jcc-through-register": """
        mov bx, skip
        cmp ax, ax
        je bx
        mov cx, 1
    skip:
        jne bx
        mov dx, 2
        hlt
    """,
    "jcc-through-memory": """
        mov bx, skip
        mov [0x4000], bx
        mov si, 0x4000
        cmp ax, 1
        jne [si]
        mov cx, 1
    skip:
        jg [0x4000]
        mov dx, 2
        hlt
    """,
    "rdmsr": """
        mov cx, 0
        mov ax, 0x100
        mov dx, 0
        wrmsr
        mov ax, 0
        rdmsr
        mov bx, ax
        hlt
    """,
    "pop-to-memory": """
        mov sp, 0x7f00
        mov ax, 5
        push ax
        pop [0x4000]
        hlt
    """,
    "in-to-memory": """
        mov ax, 1
        in [0x4000], 0x10
        hlt
    """,
    "mov-to-immediate": """
        mov ax, 3
        mov 5, ax
        hlt
    """,
    "alu-to-immediate": """
        mov ax, 3
        add 5, ax
        hlt
    """,
}

#: What each form leaves behind on the reference engine, so a form that
#: silently stopped doing its job (and agreed with itself) still fails.
RARE_FORM_RESULTS = {
    "push-imm": ("hlt", "ax", 0x1234),
    "push-sp": ("hlt", "ax", 0x7f00),
    "jcc-through-register": ("hlt", "cx", 0),
    "jcc-through-memory": ("hlt", "cx", 0),
    "rdmsr": ("hlt", "bx", 0x100),
    "pop-to-memory": ("error:pop requires a register operand", "ax", 5),
    "in-to-memory": ("error:in requires a register destination", "ax", 1),
    "mov-to-immediate": ("error:cannot write to an immediate", "ax", 3),
    "alu-to-immediate": ("error:cannot write to an immediate", "ax", 3),
}


class TestRareForms:
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.name)
    @pytest.mark.parametrize("form", sorted(RARE_FORMS))
    def test_fast_engines_bit_equal_to_reference(self, form, mode):
        source = RARE_FORMS[form]
        reference = execute_to_error(source, mode, engine="reference")
        exit_kind, reg, value = RARE_FORM_RESULTS[form]
        assert reference["exits"] == [exit_kind]
        assert reference["regs"][reg] == value
        for engine in ("fast", "fast+jit"):
            assert execute_to_error(source, mode, engine=engine) == reference, (
                f"{engine} diverged from reference on {form} in {mode.name}"
            )


# -- superblock-targeted fuzzing (PR 9: the JIT's contract) ------------------
#
# The forward-only generator above almost never revisits a PC, so it
# exercises the JIT's *cold* path only.  The generators below build what
# superblocks are made of: counted backward loops (hot PCs), data-
# dependent mispredicted exits, call/ret chains (region transfers),
# self-modifying stores over compiled pages (push invalidation), and
# control-register writes mid-loop (TLB flush between block runs).
# Termination is by construction: every loop runs on a dedicated,
# monotonically decremented counter register; every other branch is
# forward.  Each case runs three ways -- reference, fast path with the
# JIT off, fast path with the JIT forced hot (threshold 2) -- and every
# observable must be bit-equal, the raw ``cpu.regs`` dict included
# (``read_reg`` masks, so only the raw dict shows a write-back that
# truncated or widened a register).  The hot-loop and SMC classes run
# every seed in every engine configuration the emitter specialises on
# (``tests.engine_configs``).

#: Registers the loop-body generator may clobber (cx/dx are loop
#: counters, r11 holds the CR3 reload value, sp/di as above).
_JIT_REGS = ("ax", "bx", "si", "r8", "r9", "r10")
_JIT_THRESHOLD = 2


def _loop_body_item(rng, emit, call_targets) -> None:
    kind = rng.choices(
        ("arith", "cmp", "mem", "stack", "call", "stos", "io"),
        weights=(10, 4, 6, 2, 3 if call_targets else 0, 1, 1),
    )[0]
    reg = lambda: rng.choice(_JIT_REGS)
    if kind == "arith":
        if rng.random() < 0.25:
            emit(f"{rng.choice(('inc', 'dec'))} {reg()}")
        elif rng.random() < 0.25:
            emit(f"{rng.choice(('shl', 'shr'))} {reg()}, {rng.randrange(0, 16)}")
        else:
            src = reg() if rng.random() < 0.5 else f"{rng.randrange(0, 0x10000):#x}"
            emit(f"{rng.choice(_BIN_OPS)} {reg()}, {src}")
    elif kind == "cmp":
        src = reg() if rng.random() < 0.5 else f"{rng.randrange(0, 0x10000):#x}"
        emit(f"{rng.choice(('cmp', 'test'))} {reg()}, {src}")
    elif kind == "mem":
        target = rng.randrange(DATA_LO, DATA_HI) & ~0x7
        if rng.random() < 0.5:
            emit(f"mov [{target:#x}], {reg()}")
        else:
            emit(f"mov {reg()}, [{target:#x}]")
    elif kind == "stack":
        emit(f"push {reg()}")
        emit(f"pop {reg()}")
    elif kind == "call":
        emit(f"call {rng.choice(call_targets)}")
    elif kind == "stos":
        emit("stos64")
    else:
        port = rng.randrange(0, 0x100)
        if rng.random() < 0.5:
            emit(f"out {port:#x}, {reg()}")
        else:
            emit(f"in {reg()}, {port:#x}")


def generate_hot_loop_program(seed: int, *, smc: bool = False,
                              cr3_reload: bool = False) -> str:
    """Counted loops with mispredicted exits, calls, and optional
    self-modifying stores / CR3 reloads.  Every constant fits 16 bits,
    so the same program runs in every mode."""
    rng = random.Random(seed * 0x9E3779B1 + 7)
    lines = ["mov sp, 0x7f00", "mov di, 0x6800"]
    if cr3_reload:
        lines.append("mov r11, cr3")
    emit = lines.append
    helpers = rng.randrange(1, 3)
    call_targets = [f"fn{i}" for i in range(helpers)]
    for li in range(rng.randrange(1, 4)):
        iters = rng.randrange(6, 32)
        counter = "cx" if li % 2 == 0 else "dx"
        emit(f"mov {counter}, {iters}")
        emit(f"L{li}:")
        for _ in range(rng.randrange(2, 7)):
            _loop_body_item(rng, emit, call_targets)
        if smc:
            # A store over the program's own first code page: any
            # compiled region there must be dropped and re-heated.
            patch = 0x8000 + (rng.randrange(0, 0x100) & ~0x7)
            emit(f"mov [{patch:#x}], {rng.choice(_JIT_REGS)}")
        if cr3_reload:
            # Reloading the same root is architecturally a full TLB
            # flush: every translation re-walks on the next block run.
            emit("mov cr3, r11")
        if rng.random() < 0.7:
            # Data-dependent early exit: taken on exactly one iteration
            # (a guaranteed branch mispredict inside a hot loop).
            emit(f"cmp {counter}, {rng.randrange(1, iters)}")
            emit(f"je X{li}")
        emit(f"dec {counter}")
        emit(f"cmp {counter}, 0")
        emit(f"jne L{li}")
        emit(f"X{li}:")
    emit("hlt")
    for i in range(helpers):
        emit(f"fn{i}:")
        for _ in range(rng.randrange(1, 4)):
            src = (rng.choice(_JIT_REGS) if rng.random() < 0.5
                   else f"{rng.randrange(0, 0x10000):#x}")
            emit(f"{rng.choice(_BIN_OPS)} {rng.choice(_JIT_REGS)}, {src}")
        emit("ret")
    return "\n".join(lines)


def execute_hot(source: str, mode: Mode, *, engine: str,
                domain: JitDomain | None = None,
                paged: bool = False,
                chunk: int = CHUNK) -> tuple[dict, Interpreter]:
    """Run ``source`` in ``mode`` (LONG64 optionally paged) in
    ``run_steps(chunk)`` slices; observables + interp.

    Besides the final state, ``exit_states`` digests the raw registers,
    flags, RIP and cycles at every ``run_steps`` return, normal or by
    exception (each slice boundary and each ``out``/``in``/fault exit).
    A flag that is wrong where a region exits but dead afterwards shows
    only there.
    """
    cpu = CPU()
    cpu.mode = mode
    memory = GuestMemory(8 * 1024 * 1024)
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
    outs: list[tuple[int, int]] = []
    exits: list[str] = []
    in_count = 0
    executed = 0
    exit_states = hashlib.sha256()

    def fold_exit_state() -> None:
        flags = cpu.flags
        exit_states.update(repr((
            sorted(cpu.regs.items()), cpu.rip, clock.cycles,
            flags.zero, flags.sign, flags.carry, flags.interrupts,
        )).encode())

    while True:
        try:
            try:
                interp.run_steps(chunk)
            finally:
                fold_exit_state()
            executed += chunk
            if executed > 200_000:
                raise ExecutionError("runaway guest (generator bug)")
        except HaltExit:
            exits.append("hlt")
            break
        except IOOutExit as exit_event:
            outs.append((exit_event.port, exit_event.value))
            exits.append("out")
        except IOInExit as exit_event:
            value = (exit_event.port * 167 + in_count * 41 + 7) & 0xFFFF
            interp.resume_with_input(exit_event.dest, value)
            in_count += 1
            exits.append("in")
        except TripleFault as fault:
            exits.append(f"fault:{fault}")
            break
    obs = {
        "regs": {r: cpu.read_reg(r) for r in
                 ("ax", "bx", "cx", "dx", "si", "di", "sp", "bp",
                  "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15")},
        "raw_regs": dict(cpu.regs),
        "rip": cpu.rip,
        "flags": (cpu.flags.zero, cpu.flags.sign, cpu.flags.carry,
                  cpu.flags.interrupts),
        "dirty": memory.capture_dirty(),
        "cycles": clock.cycles,
        "component_cycles": dict(interp.component_cycles),
        "retired": interp.instructions_retired,
        "outs": outs,
        "exits": exits,
        "exit_states": exit_states.hexdigest(),
    }
    return obs, interp


def _run_three_ways(source: str, mode: Mode = Mode.LONG64, *,
                    paged: bool = False, chunk: int = CHUNK):
    """reference / fast / fast+jit; returns (jit domain, fast, jit interp)."""
    domain = JitDomain(threshold=_JIT_THRESHOLD)
    jit_obs, jit_interp = execute_hot(source, mode, engine="fast+jit",
                                      domain=domain, paged=paged,
                                      chunk=chunk)
    fast_obs, fast_interp = execute_hot(source, mode, engine="fast",
                                        paged=paged, chunk=chunk)
    ref_obs, _ = execute_hot(source, mode, engine="reference", paged=paged,
                             chunk=chunk)
    return domain, jit_obs, fast_obs, ref_obs, jit_interp, fast_interp


#: Step budgets per ``run_steps`` call, cycled by case in every
#: superblock class: the odd small chunk cuts every segment (and a block
#: is entered only when the budget left covers it), the others let whole
#: loops and call webs run inside one region invocation.  The cycle is
#: keyed by the case's seed, so a failure's ``REPRO_SEED=<seed>
#: REPRO_FUZZ_CASES=1`` replay line runs it at the same chunk.
_CHUNKS = (CHUNK, 61, 1000)


class TestSuperblockHotLoops:
    """Hot counted loops with mispredicted exits and call/ret regions."""

    compiled_total: dict[str, int] = {}

    @pytest.mark.parametrize("case", range(CASES))
    @pytest.mark.parametrize("config", list(ENGINE_CONFIGS))
    def test_jit_bit_equal_on_hot_loops(self, config, case):
        seed = BASE_SEED + case
        mode, paged = ENGINE_CONFIGS[config]
        source = generate_hot_loop_program(seed)
        chunk = _CHUNKS[seed % len(_CHUNKS)]
        domain, jit_obs, fast_obs, ref_obs, *_ = _run_three_ways(
            source, mode, paged=paged, chunk=chunk)
        assert jit_obs == fast_obs == ref_obs, (
            f"superblock engine diverged in {config} at chunk {chunk}; "
            f"replay with "
            f"REPRO_SEED={seed} REPRO_FUZZ_CASES=1 -k '{config}-0'\n"
            f"--- program ---\n{source}"
        )
        compiled = TestSuperblockHotLoops.compiled_total
        compiled[config] = (compiled.get(config, 0)
                            + domain.stats()["blocks_compiled"])

    def test_corpus_actually_compiled_blocks(self):
        """The class above proves nothing if a configuration stayed cold."""
        compiled = TestSuperblockHotLoops.compiled_total
        assert set(compiled) == set(ENGINE_CONFIGS)
        assert all(compiled.values()), compiled


class TestSuperblockSelfModifyingCode:
    """Stores over compiled code pages: push invalidation under fire."""

    invalidations_total: dict[str, int] = {}

    @pytest.mark.parametrize("case", range(CASES))
    @pytest.mark.parametrize("config", list(ENGINE_CONFIGS))
    def test_smc_bit_equal_and_invalidates(self, config, case):
        seed = BASE_SEED + case
        mode, paged = ENGINE_CONFIGS[config]
        source = generate_hot_loop_program(seed, smc=True)
        chunk = _CHUNKS[seed % len(_CHUNKS)]
        domain, jit_obs, fast_obs, ref_obs, *_ = _run_three_ways(
            source, mode, paged=paged, chunk=chunk)
        assert jit_obs == fast_obs == ref_obs, (
            f"SMC invalidation diverged in {config} at chunk {chunk}; "
            f"replay with "
            f"REPRO_SEED={seed} REPRO_FUZZ_CASES=1 -k '{config}-0'\n"
            f"--- program ---\n{source}"
        )
        invalidations = TestSuperblockSelfModifyingCode.invalidations_total
        invalidations[config] = (invalidations.get(config, 0)
                                 + domain.stats()["invalidations"])

    def test_corpus_actually_invalidated(self):
        invalidations = TestSuperblockSelfModifyingCode.invalidations_total
        assert set(invalidations) == set(ENGINE_CONFIGS)
        assert all(invalidations.values()), invalidations


class TestSuperblockTlbFlushMidLoop:
    """CR3 reloads between block runs: the paged guards + TLB counters."""

    @pytest.mark.parametrize("case", range(CASES // 4))
    def test_cr3_reload_bit_equal_including_tlb(self, case):
        seed = BASE_SEED + case
        source = generate_hot_loop_program(seed, cr3_reload=True)
        chunk = _CHUNKS[seed % len(_CHUNKS)]
        (domain, jit_obs, fast_obs, ref_obs,
         jit_interp, fast_interp) = _run_three_ways(
            source, Mode.LONG64, paged=True, chunk=chunk)
        assert jit_obs == fast_obs == ref_obs, (
            f"paged superblock diverged at chunk {chunk}; replay with "
            f"REPRO_SEED={seed} REPRO_FUZZ_CASES=1\n"
            f"--- program ---\n{source}"
        )
        # The TLB counters are host telemetry, not simulated state, but
        # the JIT inlines the hit path *and* memoises the last page --
        # the counts must still match the plain fast path exactly.
        assert ((jit_interp.tlb_hits, jit_interp.tlb_misses,
                 jit_interp.tlb_flushes)
                == (fast_interp.tlb_hits, fast_interp.tlb_misses,
                    fast_interp.tlb_flushes)), (
            f"TLB counter divergence; replay with REPRO_SEED={seed}"
        )


# -- recursion (call/return webs) ---------------------------------------------
#
# The loop helpers above are all leaves.  Recursive helpers make the
# shape the JIT predicts returns for: every ``call`` site is a return
# site the region dispatches to, call sites nest, and the outermost
# ``ret`` of each top-level call leaves the region.  Flag-setting ops
# sit right before ``push``/``call``, so their flags stay pending across
# a store and a transfer into a head that overwrites them.

#: Scratch registers the recursion generator's flag-setting ops clobber
#: (``ax`` is the argument and result, ``bx`` the saved argument).
_REC_SCRATCH = ("si", "r8", "r9", "r10")
def generate_recursion_program(seed: int) -> str:
    """Fib-like recursive helpers called from a straight-line main.

    ``rec{i}`` returns when ``ax`` is below its base (2 or 3) and
    otherwise recurses on ``ax - 1`` and, for two-call helpers, on
    ``ax - 2``, which may go to any helper up to ``rec{i}``: every
    argument drops, so recursion ends.  Base cases and returns may call
    leaf helpers that call each other (nested return sites), and a base
    case may ``out``.  Main's return sites start with ``nop`` (never
    compiled) or an ALU op, so a helper's last ``ret`` leaves the region
    or is predicted.  Every constant fits 16 bits, so the same program
    runs in every mode.
    """
    rng = random.Random(seed * 0x2545F491 + 11)
    lines = ["mov sp, 0x7f00", "mov di, 0x6800"]
    emit = lines.append
    helpers = rng.randrange(1, 4)
    leaves = rng.randrange(1, 3)

    def flag_op() -> None:
        dst = rng.choice(_REC_SCRATCH)
        form = rng.randrange(5)
        if form == 0:
            emit(f"cmp {dst}, {rng.choice(('ax', 'bx', hex(rng.randrange(0x10000))))}")
        elif form == 1:
            emit(f"test ax, {rng.randrange(1, 8):#x}")
        elif form == 2:
            emit(f"{rng.choice(('inc', 'dec'))} {dst}")
        elif form == 3:
            emit(f"{rng.choice(('shl', 'shr'))} {dst}, {rng.randrange(0, 16)}")
        else:
            src = rng.choice(("ax", "bx", hex(rng.randrange(0x10000))))
            emit(f"{rng.choice(_BIN_OPS)} {dst}, {src}")

    def maybe_flag_op(p: float = 0.6) -> None:
        if rng.random() < p:
            flag_op()

    def maybe_leaf_call(p: float = 0.35) -> None:
        if rng.random() < p:
            maybe_flag_op(0.5)
            emit(f"call leaf{rng.randrange(leaves)}")

    for _ in range(rng.randrange(1, 4)):
        emit(f"mov ax, {rng.randrange(0, 9)}")
        maybe_flag_op()
        emit(f"call rec{rng.randrange(helpers)}")
        if rng.random() < 0.5:
            emit("nop")
        emit("add r8, ax")
    emit("hlt")
    for i in range(helpers):
        base = rng.randrange(2, 4)
        emit(f"rec{i}:")
        emit(f"cmp ax, {base}")
        emit(f"{rng.choice(('jl', 'jc'))} rec{i}_base")
        maybe_flag_op()
        emit("push ax")
        maybe_flag_op()
        emit("dec ax" if rng.random() < 0.5 else "sub ax, 1")
        maybe_flag_op()
        emit(f"call rec{i}")
        emit("pop bx")
        if rng.random() < 0.6:
            emit("push ax")
            emit("mov ax, bx")
            emit("sub ax, 2")
            maybe_flag_op()
            emit(f"call rec{rng.randrange(i + 1)}")
            emit("pop bx")
        emit(f"{rng.choice(('add', 'xor', 'sub'))} ax, bx")
        maybe_leaf_call()
        emit("ret")
        emit(f"rec{i}_base:")
        maybe_leaf_call()
        if rng.random() < 0.1:
            emit(f"out {rng.randrange(0x100):#x}, ax")
        emit("ret")
    for j in range(leaves):
        emit(f"leaf{j}:")
        for _ in range(rng.randrange(1, 3)):
            flag_op()
        if j + 1 < leaves and rng.random() < 0.5:
            emit(f"call leaf{j + 1}")
        emit("ret")
    return "\n".join(lines)


class TestSuperblockRecursion:
    """Recursive call/return webs: predicted returns and flag liveness."""

    predicted: dict[str, int] = {}

    @pytest.mark.parametrize("case", range(CASES))
    @pytest.mark.parametrize("config", list(ENGINE_CONFIGS))
    def test_recursion_bit_equal(self, config, case):
        seed = BASE_SEED + case
        mode, paged = ENGINE_CONFIGS[config]
        source = generate_recursion_program(seed)
        chunk = _CHUNKS[seed % len(_CHUNKS)]
        domain, jit_obs, fast_obs, ref_obs, *_ = _run_three_ways(
            source, mode, paged=paged, chunk=chunk)
        assert jit_obs == fast_obs == ref_obs, (
            f"recursive region diverged in {config} at chunk {chunk}; "
            f"replay with "
            f"REPRO_SEED={seed} REPRO_FUZZ_CASES=1 -k '{config}-0'\n"
            f"--- program ---\n{source}"
        )
        sources = {blk.source for cache in domain.images()
                   for blk in cache.meta.values()}
        predicted = TestSuperblockRecursion.predicted
        predicted[config] = predicted.get(config, 0) + sum(
            "                if _v == " in src for src in sources)

    def test_corpus_actually_predicted_returns(self):
        """The class above proves nothing if no region predicted a ret."""
        predicted = TestSuperblockRecursion.predicted
        assert set(predicted) == set(ENGINE_CONFIGS)
        assert all(predicted.values()), predicted


# -- stack windows ------------------------------------------------------------
#
# A segment whose stack accesses are all ``push``/``pop``/``call``/``ret``
# at static offsets from its entry ``sp`` gets a fast body behind one
# test that its whole span lies in the region's stack window (one quiet,
# in-bounds page).  The generator walks ``sp`` across page boundaries
# with unbalanced pushes and pops in hot loops around calls of balanced
# helpers (whose accesses fuse into the caller's segment), and mixes in
# everything the window must notice: ``sp`` writes that misalign or move
# it, reads of ``sp``, ``stos64`` stores onto the stack page, the code
# page and (paged) a page-table page, forward branch exits and ``out``.

#: Registers the stack-window generator clobbers (cx/dx count loops).
_WINDOW_REGS = ("ax", "bx", "si", "r8", "r9", "r10")


def generate_stack_window_program(seed: int) -> str:
    """Counted loops that move ``sp`` across page boundaries.

    ``sp`` starts within 0x100 bytes of a page boundary, misaligned by
    2 one time in four, and each loop iteration moves it by at most two
    words and 16 bytes, so it stays clear of the code and of address 0.
    Helpers are balanced on every path and call only higher-numbered
    helpers, and every loop runs on a counter the body never touches,
    so every program halts.
    """
    rng = random.Random(seed * 0x51ED27 + 3)

    def near_boundary() -> int:
        return (rng.choice((0x4000, 0x5000, 0x6000, 0x7000))
                + rng.choice((-0x100, -0x40, -0x18, -8, 0,
                              8, 0x18, 0x40, 0x100))
                + (2 if rng.random() < 0.25 else 0))

    lines = [f"mov sp, {near_boundary():#x}", "mov di, 0x6800"]
    emit = lines.append
    helpers = rng.randrange(1, 4)
    reg = lambda: rng.choice(_WINDOW_REGS)
    exits = 0
    for li in range(rng.randrange(1, 4)):
        counter = "cx" if li % 2 == 0 else "dx"
        emit(f"mov {counter}, {rng.randrange(6, 40)}")
        emit(f"L{li}:")
        for _ in range(rng.randrange(2, 7)):
            kind = rng.choices(
                ("push", "pop", "call", "arith", "branch", "sp_write",
                 "sp_read", "move", "stos", "table_store", "out"),
                weights=(6, 5, 8, 4, 2, 2, 1, 1, 2, 1, 1))[0]
            if kind == "push":
                emit(f"push {rng.choice(_WINDOW_REGS + ('cx', 'dx'))}")
            elif kind == "pop":
                emit(f"pop {reg()}")
            elif kind == "call":
                emit(f"call fn{rng.randrange(helpers)}")
            elif kind == "arith":
                emit(f"{rng.choice(_BIN_OPS)} {reg()}, "
                     f"{rng.randrange(0x10000):#x}")
            elif kind == "branch":
                # Taken on some iterations only: a mid-segment exit
                # past the push that follows it.
                emit(f"cmp {counter}, {rng.randrange(1, 8)}")
                emit(f"{rng.choice(('jl', 'je', 'jc'))} S{exits}")
                emit(f"push {reg()}")
                emit(f"S{exits}:")
                exits += 1
            elif kind == "sp_write":
                if rng.random() < 0.25:
                    emit("and sp, 0xfff8")  # realign
                else:
                    emit(f"{rng.choice(('add', 'sub'))} sp, "
                         f"{rng.choice((2, 4, 8, 16))}")
            elif kind == "sp_read":
                emit(f"mov {reg()}, sp")
            elif kind == "move":
                emit(f"mov sp, {near_boundary():#x}")
            elif kind == "stos":
                # The stack page, the code page (push invalidation) or
                # the paged identity map's PML4 page (an unused entry).
                target = rng.choice((0x6ff0, 0x7008, 0x8000, 0x100008,
                                     0x100008))
                emit(f"mov di, {target:#x}")
                emit("stos64")
            elif kind == "table_store":
                # A pop from the paged identity map's PML4 page puts it
                # in the TLB; the second call's segment sets the
                # window; the stos64 there then takes the accessor
                # without a walk and clears the TLB, and the always-taken
                # jne goes straight into a windowed segment.
                emit("mov bx, sp")
                emit("mov sp, 0x100010")
                emit(f"pop {rng.choice(('si', 'r8', 'r9', 'r10'))}")
                emit("mov sp, bx")
                emit(f"call fn{rng.randrange(helpers)}")
                emit(f"call fn{rng.randrange(helpers)}")
                emit("mov di, 0x100008")
                emit("stos64")
                emit(f"cmp {counter}, 0")
                emit(f"jne S{exits}")
                emit(f"push {reg()}")
                emit(f"S{exits}:")
                emit(f"call fn{rng.randrange(helpers)}")
                exits += 1
            else:
                emit(f"out {rng.randrange(0x100):#x}, {reg()}")
        emit(f"dec {counter}")
        emit(f"jne L{li}")
    emit("hlt")
    for i in range(helpers):
        emit(f"fn{i}:")
        saved = [reg() for _ in range(rng.randrange(0, 3))]
        for name in saved:
            emit(f"push {name}")
        if rng.random() < 0.5:
            # A forward exit over a balanced pair.
            emit(f"cmp {reg()}, {rng.randrange(0x10000):#x}")
            emit(f"{rng.choice(('jl', 'jg', 'jne'))} fn{i}_x")
            emit(f"push {reg()}")
            emit(f"pop {reg()}")
            emit(f"fn{i}_x:")
        if i + 1 < helpers and rng.random() < 0.5:
            emit(f"call fn{rng.randrange(i + 1, helpers)}")
        emit(f"{rng.choice(_BIN_OPS)} {reg()}, {reg()}")
        for name in reversed(saved):
            emit(f"pop {name}")
        emit("ret")
    return "\n".join(lines)


class TestSuperblockStackWindow:
    """Stack-window fast bodies against page boundaries, alignment,
    ``sp`` writes and mid-region accessor stores."""

    windowed: dict[str, int] = {}

    # Half the corpus: a case compiles several regions, each segment with
    # two bodies, and costs about three hot-loop cases.
    @pytest.mark.parametrize("case", range(max(1, CASES // 2)))
    @pytest.mark.parametrize("config", list(ENGINE_CONFIGS))
    def test_stack_window_bit_equal(self, config, case):
        seed = BASE_SEED + case
        mode, paged = ENGINE_CONFIGS[config]
        source = generate_stack_window_program(seed)
        chunk = _CHUNKS[seed % len(_CHUNKS)]
        (domain, jit_obs, fast_obs, ref_obs,
         jit_interp, fast_interp) = _run_three_ways(
            source, mode, paged=paged, chunk=chunk)
        replay = (f"replay with REPRO_SEED={seed} REPRO_FUZZ_CASES=1 "
                  f"-k '{config}-0'\n--- program ---\n{source}")
        assert jit_obs == fast_obs == ref_obs, (
            f"stack window diverged in {config} at chunk {chunk}; {replay}")
        # The fast bodies count their accesses as memo TLB hits in bulk.
        assert ((jit_interp.tlb_hits, jit_interp.tlb_misses,
                 jit_interp.tlb_flushes)
                == (fast_interp.tlb_hits, fast_interp.tlb_misses,
                    fast_interp.tlb_flushes)), (
            f"TLB counter divergence in {config}; {replay}")
        sources = {blk.source for cache in domain.images()
                   for blk in cache.meta.values()}
        windowed = TestSuperblockStackWindow.windowed
        windowed[config] = windowed.get(config, 0) + sum(
            "if _wl <= " in src for src in sources)

    def test_corpus_actually_compiled_windows(self):
        """The class above proves nothing unless fast bodies were
        compiled: in every configuration with word views, and in no
        other (REAL16's 2-byte stack has none)."""
        windowed = TestSuperblockStackWindow.windowed
        assert set(windowed) == set(ENGINE_CONFIGS)
        for config, count in windowed.items():
            width = access_width(ENGINE_CONFIGS[config][0])
            assert (count > 0) == (width > 2), (config, count)


# -- counted store loops (the closed-form fast-forward) ----------------------
#
# The emitter retires whole iterations of a counted store loop in bulk
# (one ``pack_into`` per quiet page).  The generator below builds that
# idiom -- ``stos64``, ``add reg, imm`` inductions and a ``dec cx``
# counter -- around everything the fast-forward must stop short of:
# counters that start at 0, 1 or 2 (a 0 counter wraps and runs until the
# step cap) or with the sign bit set, counts that cross pages, stored
# values and ``di`` that wrap the mask, starts at a page's end (aligned,
# unaligned, straddling), untouched pages, CoW-pending pages, the
# watched code page (SMC), the end of memory (a fault right after a
# fast-forward), and step budgets that cut the loop mid-page.  About one
# case in four is a near miss (a load, a double stride, a
# register-source update, a second store, ``cmp cx, 1``, a counter that
# counts up, is the stored value or is also stepped by an ``add``, an
# ``add`` after the ``dec``) that must not be recognised.
# Each case runs four ways -- reference, fast, JIT, JIT without the
# fast-forward -- through ``vmrun`` slices on a traced VM, so EPT-fault
# and CoW-break charges land in the compared Chrome trace at their exact
# cycle.

#: Steps one case may run: wrapped counters stop only here.
_STORE_LOOP_STEPS = 3000
#: Guest memory: its last page is where "end" loops run out of bounds.
_STORE_LOOP_MEMORY = 1024 * 1024
#: Data pages a loop may start in: clear of the code page (8) and, in
#: REAL16, within the 16-bit address space (page 15 wraps to page 0).
_STORE_LOOP_PAGES = (1, 2, 3, 4, 5, 10, 11, 12, 13, 14, 15)
#: Identity-map tables for the paged configuration, clear of the data.
_STORE_LOOP_TABLES = 0x30000
#: Share of cases per unpaged configuration whose region must compile
#: the fast-forward (the fuzz proves nothing if the idiom never matches).
_STORE_LOOP_MIN_SHARE = 0.4


def generate_store_loop_program(seed: int, mode: Mode):
    """One counted store loop for ``mode``.

    Returns ``(source, cow_pages, budgets)``: the pages to restore
    copy-on-write before the run, and the ``vmrun`` step budgets to
    slice it with (cycled).
    """
    rng = random.Random(seed * 0x2545F491 + mode.value)
    mask = (1 << mode.value) - 1

    def lit(value: int) -> str:
        # Immediates encode as signed 64-bit: write the top half negative.
        return str(value - (1 << 64)) if value >> 63 else f"{value:#x}"

    target = rng.choice(("fresh", "touched", "cow", "smc", "end", "wrap"))
    if target == "smc":
        page = 7  # runs into the code page at 0x8000
    elif target == "end" and mode is not Mode.REAL16:
        # Runs off the end of memory: the faulting store raises right
        # after a fast-forward, with the flag locals it left behind.
        page = (_STORE_LOOP_MEMORY >> 12) - 1
    else:
        page = rng.choice(_STORE_LOOP_PAGES)
    if target == "smc" or rng.random() < 0.7:
        # Near the page's end: aligned, unaligned, or straddling it.
        skew = rng.choice((0, 0, 1, 4))
        start = ((page + 1) << 12) - rng.randrange(1, 40) * 8 - skew
    else:
        start = (page << 12) + rng.randrange(0, 512) * 8
    if target == "wrap":
        # ``di`` wraps the mask mid-loop (into page 0 in REAL16; out of
        # memory, a fault, elsewhere).
        start = mask - rng.randrange(0, 40) * 8
    # 0 wraps on the first decrement; mask - k starts with the sign set.
    count = rng.choice((0, 1, 2, rng.randrange(3, 64),
                        rng.randrange(64, 700), mask - rng.randrange(100)))
    # The stored value steps by ``delta`` and may wrap the mask.
    delta = rng.choice((0, 1, 3, 0x200000 & mask, 0x4321))
    v0 = (mask - rng.randrange(0, 60) * delta) & mask if delta \
        else rng.randrange(0, mask + 1)
    lines = [f"mov cx, {lit(count)}", f"mov di, {lit(start)}",
             f"mov ax, {lit(v0)}"]
    body = [f"add ax, {delta:#x}"] if delta else []
    if rng.random() < 0.3:
        lines.append(f"mov r8, {lit(rng.randrange(0, mask + 1))}")
        body.append(f"add r8, {rng.choice((1, 5, 0x100)):#x}")
    if target == "touched":
        # Dirty the pages first: they are quiet from the loop's start.
        for p in range(page, page + 3):
            lines.append(f"mov [{p << 12:#x}], r10")
    rng.shuffle(body)
    body.append("dec cx")
    body.insert(rng.randrange(len(body) + 1), "stos64")
    near_miss = rng.choice((
        *(None,) * 20,
        "mov r10, [di]",        # a load
        "add di, 8",            # a double stride
        "add r8, r9",           # a register-source update
        "stos64",               # a second store
        "cmp cx, 1",            # a flag writer after the dec
        "inc cx",               # a counter that counts up
        "dec ax",               # a counter that is the stored value
        "add cx, 2",            # a counter that is also an induction
        "add r9, 1",            # an add after the dec
    ))
    if near_miss in ("inc cx", "dec ax"):
        body[body.index("dec cx")] = near_miss
    elif near_miss == "add cx, 2":
        body.insert(0, near_miss)
    elif near_miss in ("cmp cx, 1", "add r9, 1"):
        if near_miss == "add r9, 1":
            # Its flags end the loop after five iterations.
            lines.append(f"mov r9, {lit(mask - 4)}")
        body.append(near_miss)
    elif near_miss is not None:
        body.insert(rng.randrange(len(body) + 1), near_miss)
    lines.append("L0:")
    lines += body
    lines.append(rng.choice(("jnz L0", "jne L0")))
    lines.append("hlt")
    cow_pages = ([p for p in range(page, page + 3)
                  if p < _STORE_LOOP_MEMORY >> 12] if target == "cow" else [])
    budgets = [rng.choice((1, 2, 3, 5, 8, 13)) if rng.random() < 0.3
               else rng.randrange(20, 400) for _ in range(5)]
    return "\n".join(lines), cow_pages, budgets


def execute_store_loop(source: str, cow_pages: list[int], config: str,
                       engine: str, budgets: list[int]):
    """Run a store-loop case on a traced VM in ``vmrun`` slices.

    ``engine`` is ``reference``, ``fast`` or ``jit``; returns every
    observable plus the JIT domain.
    """
    mode, paged = ENGINE_CONFIGS[config]
    clock = Clock()
    tracer = clock.tracer = Tracer(clock)
    domain = JitDomain(threshold=_JIT_THRESHOLD)
    vm = VirtualMachine(_STORE_LOOP_MEMORY, clock,
                        engine="fast+jit" if engine == "jit" else engine,
                        jit_domain=domain)
    cpu = vm.cpu
    cpu.mode = mode
    if paged:
        cpu.cr3 = paging.build_identity_map(
            vm.memory, paging.IdentityMapLayout.at(_STORE_LOOP_TABLES))
        cpu.cr0 = CR0_PE | CR0_PG
        cpu.efer = EFER_LME
    vm.load_program(Assembler(0x8000).assemble(source))
    if cow_pages:
        vm.memory.restore_pages(
            {page: bytes([page]) * 4096 for page in cow_pages}, cow=True)
    slices = []
    total = 0
    while total < _STORE_LOOP_STEPS:
        try:
            info = vm.vmrun(max_steps=budgets[len(slices) % len(budgets)])
        except GuestMemoryError:
            # A wrapped address left memory: the raise must carry exact
            # state (flags included) out of the region.
            slices.append(("fault", vm.interp.last_run_steps))
            break
        slices.append((info.reason.value, info.steps,
                       vm.interp.last_run_steps))
        total += info.steps
        if info.reason.value == "hlt":
            break
    return {
        "raw_regs": dict(cpu.regs),
        "rip": cpu.rip,
        "flags": (cpu.flags.zero, cpu.flags.sign, cpu.flags.carry),
        "cycles": clock.cycles,
        "retired": vm.interp.instructions_retired,
        "slices": slices,
        "dirty": vm.memory.capture_dirty(),
        "cow_pending": sorted(vm.memory.cow_pending_pages),
        "ept_faults": vm.ept_faults,
        "cow_breaks": vm.cow_breaks,
        "trace": to_chrome_json(tracer),
    }, domain


class TestSuperblockStoreLoopFuzz:
    """Counted store loops: the closed-form fast-forward under fire."""

    #: config -> [cases, cases whose region compiled a fast-forward]
    fast_forwards: dict[str, list[int]] = {}

    @pytest.mark.parametrize("case", range(CASES))
    @pytest.mark.parametrize("config", list(ENGINE_CONFIGS))
    def test_store_loop_bit_equal(self, config, case, monkeypatch):
        seed = BASE_SEED + case
        mode, paged = ENGINE_CONFIGS[config]
        source, cow_pages, budgets = generate_store_loop_program(seed, mode)
        sources: list[str] = []
        compile_block = isa_module.compile_block

        def recording(interp, pc):
            blocks = compile_block(interp, pc)
            if blocks:
                sources.append(blocks[0].source)
            return blocks

        monkeypatch.setattr(isa_module, "compile_block", recording)
        run = lambda engine: execute_store_loop(source, cow_pages, config,
                                                engine, budgets)
        jit_obs, jit_domain = run("jit")
        monkeypatch.setattr(isa_module, "compile_block", compile_block)
        monkeypatch.setattr(jit_module, "_match_store_loop",
                            lambda *args: None)
        plain_obs, plain_domain = run("jit")
        monkeypatch.undo()
        fast_obs, _ = run("fast")
        ref_obs, _ = run("reference")
        replay = (f"replay with REPRO_SEED={seed} REPRO_FUZZ_CASES=1 "
                  f"-k 'store_loop and {config}-0'\n"
                  f"--- program ---\n{source}")
        assert jit_obs == ref_obs, f"JIT diverged in {config}; {replay}"
        assert fast_obs == ref_obs, f"fast diverged in {config}; {replay}"
        assert plain_obs == ref_obs, f"plain JIT diverged; {replay}"
        # The fast-forward retires iterations the plain region would
        # have retired one by one: no side exit or dispatch may differ.
        assert jit_domain.side_exits == plain_domain.side_exits, replay
        assert jit_domain.counters == plain_domain.counters, replay
        compiled = any("_pack_into(" in src for src in sources)
        if paged:
            assert not compiled, f"paged region fast-forwards; {replay}"
        tally = TestSuperblockStoreLoopFuzz.fast_forwards.setdefault(
            config, [0, 0])
        tally[0] += 1
        tally[1] += compiled

    def test_corpus_actually_fast_forwarded(self):
        tallies = TestSuperblockStoreLoopFuzz.fast_forwards
        assert set(tallies) == set(ENGINE_CONFIGS)
        for config, (cases, compiled) in tallies.items():
            if ENGINE_CONFIGS[config][1]:
                assert compiled == 0, config
            else:
                assert compiled >= _STORE_LOOP_MIN_SHARE * cases, (
                    config, compiled, cases)


class TestHarness:
    """The fuzzer only proves something if its own pieces are sound."""

    def test_generator_is_deterministic(self):
        assert generate_program(1234) == generate_program(1234)
        assert generate_program(1234) != generate_program(1235)

    def test_hot_loop_generator_is_deterministic(self):
        assert (generate_hot_loop_program(1234)
                == generate_hot_loop_program(1234))
        assert (generate_hot_loop_program(1234)
                != generate_hot_loop_program(1235))
        smc = generate_hot_loop_program(1234, smc=True)
        assert "mov [0x80" in smc  # the self-modifying store is present
        assert "mov cr3, r11" in generate_hot_loop_program(7, cr3_reload=True)

    def test_stack_window_generator_is_deterministic_and_covers_its_shapes(
            self):
        assert (generate_stack_window_program(1234)
                == generate_stack_window_program(1234))
        assert (generate_stack_window_program(1234)
                != generate_stack_window_program(1235))
        sources = [generate_stack_window_program(BASE_SEED + case)
                   for case in range(40)]
        for shape in ("add sp,", "sub sp,", "and sp,", "mov sp,",
                      ", sp\n", "mov di, 0x100008\nstos64",
                      "mov sp, 0x100010\npop ", "stos64\ncmp ",
                      "mov di, 0x8000\nstos64", "out ", "call fn1\n"):
            assert any(shape in s for s in sources), shape
        # Starts on both sides of a page boundary, aligned or not.
        starts = {int(s.split()[2], 16) for s in sources}
        assert {v & 0xFFF < 0x800 for v in starts} == {True, False}
        assert {v & 7 for v in starts} == {0, 2}

    def test_recursion_generator_is_deterministic_and_covers_its_shapes(self):
        assert (generate_recursion_program(1234)
                == generate_recursion_program(1234))
        assert (generate_recursion_program(1234)
                != generate_recursion_program(1235))
        sources = [generate_recursion_program(BASE_SEED + case)
                   for case in range(40)]
        # Two-call (fib-like) helpers, nested leaf calls, return sites
        # the JIT never compiles, and I/O from a base case.
        assert any("sub ax, 2" in s for s in sources)
        assert any("call leaf1\nret" in s.split("leaf0:")[-1]
                   for s in sources)
        assert any("nop" in s for s in sources)
        assert any("out " in s for s in sources)

    def test_generated_programs_cover_every_kind(self):
        kinds_seen = set()
        for case in range(40):
            source, _ = generate_program(BASE_SEED + case)
            if "out " in source:
                kinds_seen.add("out")
            if "in " in source:
                kinds_seen.add("in")
            if "push" in source:
                kinds_seen.add("stack")
            if "[" in source:
                kinds_seen.add("mem")
            if any(jcc + " L" in source for jcc in _JCC):
                kinds_seen.add("branch")
            if "stos64" in source:
                kinds_seen.add("stos")
        assert kinds_seen == {"out", "in", "stack", "mem", "branch", "stos"}

    def test_execution_terminates_with_halt(self):
        source, mode = generate_program(BASE_SEED)
        result = execute(source, mode, engine="fast+jit")
        assert result["exits"][-1] == "hlt"

    def test_same_run_twice_is_identical(self):
        source, mode = generate_program(BASE_SEED + 3)
        assert (execute(source, mode, engine="fast+jit")
                == execute(source, mode, engine="fast+jit"))
