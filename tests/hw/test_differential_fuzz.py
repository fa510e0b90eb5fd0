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

Each case derives its seed as ``REPRO_FUZZ_SEED + case``; a failure
message prints the exact seed and generated source, so any divergence
replays with ``REPRO_FUZZ_SEED=<seed> REPRO_FUZZ_CASES=1 pytest ...``.

Forward-only control flow guarantees termination by construction: every
branch (conditional or not) targets a label strictly ahead of it.
"""

import os
import random

import pytest

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
from repro.hw.memory import GuestMemory

from tests.engine_configs import ENGINE_CONFIGS

#: How many generated programs to run (CI runs the full 200; a local
#: repro of one failing case sets REPRO_FUZZ_CASES=1).
CASES = int(os.environ.get("REPRO_FUZZ_CASES", "200"))
#: Base seed; case ``i`` uses ``BASE_SEED + i``.
BASE_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20260805"))

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


def execute(source: str, mode: Mode, fast_paths: bool) -> dict:
    """Run ``source`` to completion; return every observable."""
    cpu = CPU()
    cpu.mode = mode
    memory = GuestMemory(1024 * 1024)
    clock = Clock()
    interp = Interpreter(cpu, memory, clock, COSTS, fast_paths=fast_paths)
    interp.load_program(Assembler(0x8000).assemble(source))
    outs: list[tuple[int, int]] = []
    exits: list[str] = []
    in_count = 0
    executed = 0
    while True:
        try:
            interp.run_steps(CHUNK)
            executed += CHUNK
            if executed > 100_000:
                raise ExecutionError("runaway guest (generator bug)")
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
    fast = execute(source, mode, fast_paths=True)
    reference = execute(source, mode, fast_paths=False)
    assert fast == reference, (
        f"fast path diverged from reference in {mode.name}; replay with "
        f"REPRO_FUZZ_SEED={seed} REPRO_FUZZ_CASES=1\n"
        f"--- program ---\n{source}"
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


def execute_hot(source: str, mode: Mode, *, fast_paths: bool,
                jit: bool = False, domain: JitDomain | None = None,
                paged: bool = False) -> tuple[dict, Interpreter]:
    """Run ``source`` in ``mode`` (LONG64 optionally paged); observables
    + interp."""
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
    interp = Interpreter(cpu, memory, clock, COSTS, fast_paths=fast_paths,
                         jit=jit, jit_domain=domain)
    interp.load_program(Assembler(0x8000).assemble(source))
    outs: list[tuple[int, int]] = []
    exits: list[str] = []
    in_count = 0
    executed = 0
    while True:
        try:
            interp.run_steps(CHUNK)
            executed += CHUNK
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
    }
    return obs, interp


def _run_three_ways(source: str, mode: Mode = Mode.LONG64, *,
                    paged: bool = False):
    """reference / fast / fast+jit; returns (jit domain, fast, jit interp)."""
    domain = JitDomain(threshold=_JIT_THRESHOLD)
    jit_obs, jit_interp = execute_hot(source, mode, fast_paths=True,
                                      jit=True, domain=domain, paged=paged)
    fast_obs, fast_interp = execute_hot(source, mode, fast_paths=True,
                                        paged=paged)
    ref_obs, _ = execute_hot(source, mode, fast_paths=False, paged=paged)
    return domain, jit_obs, fast_obs, ref_obs, jit_interp, fast_interp


class TestSuperblockHotLoops:
    """Hot counted loops with mispredicted exits and call/ret regions."""

    compiled_total: dict[str, int] = {}

    @pytest.mark.parametrize("case", range(CASES))
    @pytest.mark.parametrize("config", list(ENGINE_CONFIGS))
    def test_jit_bit_equal_on_hot_loops(self, config, case):
        seed = BASE_SEED + case
        mode, paged = ENGINE_CONFIGS[config]
        source = generate_hot_loop_program(seed)
        domain, jit_obs, fast_obs, ref_obs, *_ = _run_three_ways(
            source, mode, paged=paged)
        assert jit_obs == fast_obs == ref_obs, (
            f"superblock engine diverged in {config}; replay with "
            f"REPRO_FUZZ_SEED={seed} REPRO_FUZZ_CASES=1 -k '{config}-0'\n"
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
        domain, jit_obs, fast_obs, ref_obs, *_ = _run_three_ways(
            source, mode, paged=paged)
        assert jit_obs == fast_obs == ref_obs, (
            f"SMC invalidation diverged in {config}; replay with "
            f"REPRO_FUZZ_SEED={seed} REPRO_FUZZ_CASES=1 -k '{config}-0'\n"
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
        (domain, jit_obs, fast_obs, ref_obs,
         jit_interp, fast_interp) = _run_three_ways(source, Mode.LONG64,
                                                    paged=True)
        assert jit_obs == fast_obs == ref_obs, (
            f"paged superblock diverged; replay with "
            f"REPRO_FUZZ_SEED={seed} REPRO_FUZZ_CASES=1\n"
            f"--- program ---\n{source}"
        )
        # The TLB counters are host telemetry, not simulated state, but
        # the JIT inlines the hit path *and* memoises the last page --
        # the counts must still match the plain fast path exactly.
        assert ((jit_interp.tlb_hits, jit_interp.tlb_misses,
                 jit_interp.tlb_flushes)
                == (fast_interp.tlb_hits, fast_interp.tlb_misses,
                    fast_interp.tlb_flushes)), (
            f"TLB counter divergence; replay with REPRO_FUZZ_SEED={seed}"
        )


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
        result = execute(source, mode, fast_paths=True)
        assert result["exits"][-1] == "hlt"

    def test_same_run_twice_is_identical(self):
        source, mode = generate_program(BASE_SEED + 3)
        assert (execute(source, mode, fast_paths=True)
                == execute(source, mode, fast_paths=True))
