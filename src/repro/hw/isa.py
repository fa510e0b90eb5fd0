"""A small x86-flavoured instruction set: assembler and interpreter.

The minimal virtine runtime environments are "roughly 160 lines of
assembly" (Section 4.2).  To make the boot-cost experiments *emerge* from
executing real operations -- rather than from canned constants -- the
guest boot code in this reproduction is written in a NASM-flavoured
assembly dialect, assembled by :class:`Assembler` into a byte image, and
executed instruction-by-instruction by :class:`Interpreter` with each
instruction charging cycles from the cost model.

Supported instruction classes:

* data movement: ``mov``, ``push``, ``pop``, ``stos64``
* ALU: ``add``, ``sub``, ``and``, ``or``, ``xor``, ``shl``, ``shr``,
  ``inc``, ``dec``, ``cmp``, ``test``
* control flow: ``jmp``, conditional jumps, ``call``, ``ret``
* system: ``hlt``, ``cli``, ``sti``, ``lgdt``, ``ljmp`` (mode switch),
  ``wrmsr``, ``rdmsr``, moves to/from CR0/CR3/CR4
* I/O: ``out``/``in`` on virtual ports (the hypercall mechanism)

Mode transitions (real -> protected -> long) follow the architectural
requirements enforced by :class:`repro.hw.cpu.CPU`.
"""

from __future__ import annotations

import re
import struct
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from repro.hw.costs import COSTS, CostModel
from repro.hw.clock import Clock
from repro.hw.cpu import CPU, CR0_PG, CpuFault, GPRS, MSR_EFER, Mode
from repro.hw.jit import JitDomain, compile_block
from repro.hw.memory import GuestMemory
from repro.hw.paging import PageFault, translate, translate_watched
from repro.trace.tracer import Category


#: Magic, zero-cost instrumentation port (simulation-only; see
#: :mod:`repro.hw.vmx`).
DEBUG_PORT = 0xE9

#: The debug-port milestone a boot writes as it hands control to the
#: guest's main body (``repro.runtime.boot.MS_MAIN_ENTRY``).
MAIN_ENTRY_MARKER = 10

#: Ops that read memory, touch the stack or leave the guest; a boot
#: prefix holding one is not replayable (see Program.boot_prefix_end).
_NOT_LOAD_FREE = frozenset({"push", "pop", "call", "ret", "in", "hlt"})


class AssemblyError(Exception):
    """A problem assembling source text."""


class ExecutionError(Exception):
    """A problem during guest execution (bad fetch, unmapped code, ...)."""


# --------------------------------------------------------------------------
# Operands
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Reg:
    """A general-purpose register operand."""

    name: str


@dataclass(frozen=True)
class CtrlReg:
    """A control-register operand (cr0/cr3/cr4)."""

    name: str


@dataclass(frozen=True)
class Imm:
    """An immediate operand (label references resolve to these)."""

    value: int


@dataclass(frozen=True)
class MemRef:
    """A memory operand: ``[base + disp]`` (base may be omitted)."""

    base: str | None
    disp: int


Operand = Reg | CtrlReg | Imm | MemRef


@dataclass(frozen=True)
class Instr:
    """One assembled instruction."""

    op: str
    operands: tuple[Operand, ...]
    addr: int
    size: int
    line: str = ""


@dataclass
class Program:
    """An assembled program: instructions, labels, and the byte image."""

    instructions: list[Instr]
    labels: dict[str, int]  # label -> address
    image: bytes
    base: int
    #: Predecoded handler tables, by cost-model identity (see handlers()).
    _handlers: dict[int, tuple[CostModel, dict[int, "Handler"]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def by_addr(self) -> dict[int, Instr]:
        """Instruction index by address, built once per program and shared
        by every interpreter (and the JIT) that attaches it."""
        return {insn.addr: insn for insn in self.instructions}

    def handlers(self, costs: CostModel) -> dict[int, "Handler"]:
        """The fast path's handler table under ``costs``, by address.

        Built on first use and shared by every interpreter that attaches
        this program -- pooled, restored and scratch shells alike -- so
        a launch pays the predecode once per image, not once per VM.
        Keyed by the cost model because each handler bakes its charges
        in as constants.
        """
        entry = self._handlers.get(id(costs))
        if entry is None:
            # The entry keeps ``costs`` alive, so its id stays unique.
            entry = (costs, {insn.addr: _compile(insn, costs)
                             for insn in self.instructions})
            self._handlers[id(costs)] = entry
        return entry[1]

    @cached_property
    def boot_prefix_end(self) -> int | None:
        """RIP just past the boot's main-entry milestone, when the boot
        up to it can be replayed; ``None`` otherwise.

        The boot prefix runs from :meth:`entry` through the first
        ``out DEBUG_PORT, MAIN_ENTRY_MARKER``.  It is replayable when it
        is statically load-free -- no memory-operand reads, no stack
        ops, no ``in``, no ``hlt``, no ``out`` but to the debug port --
        and every branch and ``ljmp`` target lies inside it, so from
        the power-on state it is a pure function of the program and
        the cost model (see ``VirtualMachine._run_until_exit``).
        Decided once per program, like :attr:`by_addr`.
        """
        entry = self.entry()
        prefix = [insn for insn in self.instructions if insn.addr >= entry]
        main = (Imm(DEBUG_PORT), Imm(MAIN_ENTRY_MARKER))
        end = next((k for k, insn in enumerate(prefix)
                    if insn.op == "out" and insn.operands == main), None)
        if end is None:
            return None
        prefix = prefix[:end + 1]
        last = prefix[-1].addr
        for insn in prefix:
            op, ops = insn.op, insn.operands
            reads = ops[1:] if op == "mov" else ops
            if (op in _NOT_LOAD_FREE
                    or any(type(operand) is MemRef for operand in reads)
                    or op == "out" and ops[0] != main[0]):
                return None
            if op == "jmp" or op == "ljmp" or op in _JCC:
                target = ops[-1]
                if type(target) is not Imm or not entry <= target.value <= last:
                    return None
        return last + prefix[-1].size

    def entry(self, label: str = "_start") -> int:
        """Address of a label (default ``_start``; falls back to base)."""
        if label in self.labels:
            return self.labels[label]
        if label == "_start":
            return self.base
        raise AssemblyError(f"no such label: {label}")


# --------------------------------------------------------------------------
# Assembler
# --------------------------------------------------------------------------

_OPCODES = {
    "mov": 0x01, "add": 0x02, "sub": 0x03, "and": 0x04, "or": 0x05,
    "xor": 0x06, "shl": 0x07, "shr": 0x08, "inc": 0x09, "dec": 0x0A,
    "cmp": 0x0B, "test": 0x0C, "jmp": 0x0D, "je": 0x0E, "jne": 0x0F,
    "jl": 0x10, "jle": 0x11, "jg": 0x12, "jge": 0x13, "jc": 0x14,
    "jnc": 0x15, "call": 0x16, "ret": 0x17, "push": 0x18, "pop": 0x19,
    "hlt": 0x1A, "out": 0x1B, "in": 0x1C, "cli": 0x1D, "sti": 0x1E,
    "lgdt": 0x1F, "ljmp": 0x20, "wrmsr": 0x21, "rdmsr": 0x22,
    "stos64": 0x23, "nop": 0x24, "mul": 0x25,
}

_JCC_ALIASES = {"jz": "je", "jnz": "jne", "jb": "jc", "jae": "jnc"}

_CTRL_REGS = {"cr0", "cr3", "cr4"}

_MEM_RE = re.compile(
    r"^\[\s*(?:(?P<base>[a-z][a-z0-9]*)\s*)?"
    r"(?:(?P<sign>[+-])\s*)?(?P<disp>0x[0-9a-fA-F]+|\d+)?\s*\]$"
)


def _parse_int(text: str) -> int:
    text = text.strip()
    if text.lower().startswith("0x"):
        return int(text, 16)
    return int(text, 10)


def _operand_size(operand: Operand) -> int:
    """Byte size of an operand in our simple encoding."""
    if isinstance(operand, (Reg, CtrlReg)):
        return 1
    if isinstance(operand, Imm):
        return 8
    return 9  # MemRef: 1 base byte + 8 disp bytes


def _encode_operand(operand: Operand) -> bytes:
    if isinstance(operand, Reg):
        return bytes([0x80 | GPRS.index(operand.name)])
    if isinstance(operand, CtrlReg):
        return bytes([0xC0 | ("cr0", "cr3", "cr4").index(operand.name)])
    if isinstance(operand, Imm):
        return struct.pack("<q", operand.value & 0xFFFFFFFFFFFFFFFF if operand.value >= 0 else operand.value)
    base_code = 0xFF if operand.base is None else GPRS.index(operand.base)
    return bytes([base_code]) + struct.pack("<q", operand.disp)


class Assembler:
    """Two-pass assembler for the mini-ISA dialect."""

    def __init__(self, base: int = 0x8000) -> None:
        self.base = base

    def assemble(self, source: str) -> Program:
        """Assemble ``source`` into a :class:`Program` based at ``base``."""
        lines = self._clean(source)
        # Pass 1: lay out instructions, collect label addresses.
        addr = self.base
        labels: dict[str, int] = {}
        pending: list[tuple[str, list[str], int, str]] = []
        for line in lines:
            if line.endswith(":"):
                label = line[:-1].strip()
                if not label or not re.match(r"^[A-Za-z_.][\w.]*$", label):
                    raise AssemblyError(f"bad label: {line!r}")
                if label in labels:
                    raise AssemblyError(f"duplicate label: {label}")
                labels[label] = addr
                continue
            op, raw_operands = self._split(line)
            size = 1 + sum(
                _operand_size(self._parse_operand(tok, labels, resolve=False))
                for tok in raw_operands
            )
            pending.append((op, raw_operands, addr, line))
            addr += size
        # Pass 2: resolve labels, encode.
        instructions: list[Instr] = []
        image = bytearray()
        for op, raw_operands, insn_addr, line in pending:
            operands = tuple(
                self._parse_operand(tok, labels, resolve=True) for tok in raw_operands
            )
            self._validate(op, operands, line)
            encoded = bytes([_OPCODES[op]]) + b"".join(
                _encode_operand(o) for o in operands
            )
            instructions.append(
                Instr(op=op, operands=operands, addr=insn_addr, size=len(encoded), line=line)
            )
            image.extend(encoded)
        return Program(
            instructions=instructions, labels=labels, image=bytes(image), base=self.base
        )

    # -- helpers ------------------------------------------------------------
    @staticmethod
    def _clean(source: str) -> list[str]:
        cleaned = []
        for raw in source.splitlines():
            line = raw.split(";", 1)[0].strip()
            if line:
                cleaned.append(line)
        return cleaned

    @staticmethod
    def _split(line: str) -> tuple[str, list[str]]:
        parts = line.split(None, 1)
        op = parts[0].lower()
        op = _JCC_ALIASES.get(op, op)
        if op not in _OPCODES:
            raise AssemblyError(f"unknown mnemonic {op!r} in {line!r}")
        if len(parts) == 1:
            return op, []
        operands = [tok.strip() for tok in parts[1].split(",")]
        return op, operands

    def _parse_operand(self, token: str, labels: dict[str, int], resolve: bool) -> Operand:
        token = token.strip()
        lowered = token.lower()
        if lowered in GPRS:
            return Reg(lowered)
        if lowered in _CTRL_REGS:
            return CtrlReg(lowered)
        if lowered in ("mode32", "mode64"):
            return Imm(32 if lowered == "mode32" else 64)
        if token.startswith("["):
            match = _MEM_RE.match(lowered)
            if not match:
                raise AssemblyError(f"bad memory operand {token!r}")
            base = match.group("base")
            disp_text = match.group("disp")
            if base is not None and base not in GPRS:
                # "[label]" form: the base is actually a symbol.
                if disp_text is None:
                    return MemRef(None, self._symbol(base, labels, resolve))
                raise AssemblyError(f"bad base register {base!r} in {token!r}")
            disp = _parse_int(disp_text) if disp_text else 0
            if match.group("sign") == "-":
                disp = -disp
            return MemRef(base, disp)
        try:
            return Imm(_parse_int(token))
        except ValueError:
            return Imm(self._symbol(token, labels, resolve))

    @staticmethod
    def _symbol(name: str, labels: dict[str, int], resolve: bool) -> int:
        if not resolve:
            return 0
        if name not in labels:
            raise AssemblyError(f"undefined symbol {name!r}")
        return labels[name]

    @staticmethod
    def _validate(op: str, operands: tuple[Operand, ...], line: str) -> None:
        arity = {
            "mov": 2, "add": 2, "sub": 2, "and": 2, "or": 2, "xor": 2,
            "shl": 2, "shr": 2, "cmp": 2, "test": 2, "out": 2, "in": 2,
            "ljmp": 2, "mul": 2,
            "inc": 1, "dec": 1, "jmp": 1, "je": 1, "jne": 1, "jl": 1,
            "jle": 1, "jg": 1, "jge": 1, "jc": 1, "jnc": 1, "call": 1,
            "push": 1, "pop": 1, "lgdt": 1,
            "ret": 0, "hlt": 0, "cli": 0, "sti": 0, "wrmsr": 0,
            "rdmsr": 0, "stos64": 0, "nop": 0,
        }[op]
        if len(operands) != arity:
            raise AssemblyError(f"{op} expects {arity} operand(s): {line!r}")


# --------------------------------------------------------------------------
# VM exits raised by the interpreter
# --------------------------------------------------------------------------


class GuestExit(Exception):
    """Base class for events that return control to the hypervisor."""


class HaltExit(GuestExit):
    """The guest executed ``hlt``."""


@dataclass
class IOOutExit(GuestExit):
    """The guest executed ``out port, reg`` (a hypercall)."""

    port: int
    value: int

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"out(port={self.port:#x}, value={self.value:#x})"


@dataclass
class IOInExit(GuestExit):
    """The guest executed ``in reg, port`` and awaits a value."""

    port: int
    dest: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"in(port={self.port:#x} -> {self.dest})"


class TripleFault(GuestExit):
    """An unrecoverable guest fault (shuts the context down)."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


# --------------------------------------------------------------------------
# Interpreter
# --------------------------------------------------------------------------

#: ALU semantics, looked up once per instruction (or once at predecode);
#: only the selected operation is ever evaluated.
_ALU_OPS: dict[str, Callable[[int, int], int]] = {
    "add": lambda lhs, rhs: lhs + rhs,
    "sub": lambda lhs, rhs: lhs - rhs,
    "and": lambda lhs, rhs: lhs & rhs,
    "or": lambda lhs, rhs: lhs | rhs,
    "xor": lambda lhs, rhs: lhs ^ rhs,
    "shl": lambda lhs, rhs: lhs << (rhs & 63),
    "shr": lambda lhs, rhs: lhs >> (rhs & 63),
    "mul": lambda lhs, rhs: lhs * rhs,
}

#: Conditional-jump predicates over the flags register.
_JCC: dict[str, Callable[..., bool]] = {
    "je": lambda f: f.zero,
    "jne": lambda f: not f.zero,
    "jl": lambda f: f.sign,
    "jle": lambda f: f.sign or f.zero,
    "jg": lambda f: not f.sign and not f.zero,
    "jge": lambda f: not f.sign,
    "jc": lambda f: f.carry,
    "jnc": lambda f: not f.carry,
}


#: Interpreter engines, by the labels every ``BENCH_*.json`` records: the
#: reference interpreter (the oracle the others are verified against),
#: the fast path (software TLB, predecoded dispatch, bulk restores), and
#: the superblock JIT on top of the fast path (the default).  Simulated
#: cycles are identical under all three.
ENGINES = ("reference", "fast", "fast+jit")


def check_engine(engine: str) -> str:
    """Return ``engine`` if it is one of :data:`ENGINES`, else raise."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r} (use one of {ENGINES})")
    return engine


_M64 = 0xFFFFFFFFFFFFFFFF

#: A predecoded instruction: ``handler(interp)`` executes it on ``interp``.
Handler = Callable[["Interpreter"], None]


# -- predecode (fast-path dispatch) --------------------------------------------
# Handlers are built once per (program, cost model) and shared by every
# interpreter that attaches the program (see Program.handlers), so they
# hold no machine state: each takes the interpreter and reads its CPU,
# clock and memory accessors when it runs.  Only the instruction's
# operands, its fall-through RIP and its cost-model charges are baked in.

def _compile_read(operand: Operand,
                  costs: CostModel) -> Callable[["Interpreter"], int]:
    """Resolve one operand to a reader ``read(interp) -> int``.

    Charges and masking match ``Interpreter._read_operand`` exactly; the
    operand type test and name lookups happen here, once per image,
    instead of per step.
    """
    if type(operand) is Reg:
        name = operand.name

        def read_reg(I: "Interpreter") -> int:
            cpu = I.cpu
            return cpu.regs[name] & cpu.mask

        return read_reg
    if type(operand) is CtrlReg:
        name = operand.name
        return lambda I: I.cpu.read_cr(name)
    if type(operand) is Imm:
        value = operand.value
        return lambda I: value & I.cpu.mask
    charge = costs.INSN_MEM
    disp = operand.disp
    if operand.base is None:
        addr = disp & _M64

        def read_mem_abs(I: "Interpreter") -> int:
            I.clock.advance(charge)
            return I._load(addr, I.cpu.nbytes)

        return read_mem_abs
    base = operand.base

    def read_mem(I: "Interpreter") -> int:
        I.clock.advance(charge)
        cpu = I.cpu
        return I._load(((cpu.regs[base] & cpu.mask) + disp) & _M64,
                       cpu.nbytes)

    return read_mem


def _compile_write(operand: Operand,
                   costs: CostModel) -> Callable[["Interpreter", int], None]:
    """Resolve one operand to a writer ``write(interp, value)``."""
    if type(operand) is Reg:
        name = operand.name

        def write_reg(I: "Interpreter", value: int) -> None:
            cpu = I.cpu
            cpu.regs[name] = value & cpu.mask

        return write_reg
    if type(operand) is CtrlReg:
        name = operand.name
        return lambda I, value: I._write_ctrl(name, value)
    if type(operand) is Imm:
        def write_imm(I: "Interpreter", value: int) -> None:
            raise ExecutionError("cannot write to an immediate")

        return write_imm
    charge = costs.INSN_MEM + costs.STORE8
    disp = operand.disp
    if operand.base is None:
        addr = disp & _M64

        def write_mem_abs(I: "Interpreter", value: int) -> None:
            I.clock.advance(charge)
            cpu = I.cpu
            I._store(addr, value & cpu.mask, cpu.nbytes)

        return write_mem_abs
    base = operand.base

    def write_mem(I: "Interpreter", value: int) -> None:
        I.clock.advance(charge)
        cpu = I.cpu
        I._store(((cpu.regs[base] & cpu.mask) + disp) & _M64,
                 value & cpu.mask, cpu.nbytes)

    return write_mem


def _compile(insn: Instr, costs: CostModel) -> Handler:
    """Specialize one instruction into a handler ``h(interp)``.

    Every handler first sets RIP to the fall-through address (control
    flow then overwrites it) and charges ``INSN_BASE`` itself -- merged
    into its first fixed charge, so the run loop pays one ``advance``
    per instruction instead of two.  No trace or component event can
    fire between the merged charges, so cumulative cycles at every
    observable point match ``Interpreter._dispatch`` exactly.
    """
    op = insn.op
    ops = insn.operands
    base = costs.INSN_BASE
    next_rip = insn.addr + insn.size

    if op == "nop":
        def h_nop(I: "Interpreter") -> None:
            I.cpu.rip = next_rip
            I.clock.advance(base)

        return h_nop
    if op == "mov":
        # Reg <- Reg/Imm moves (the bulk of any instruction stream)
        # collapse to a single dict store; charges are just INSN_BASE
        # either way, so the specialization is cycle-invisible.
        if type(ops[0]) is Reg and type(ops[1]) in (Reg, Imm):
            dname = ops[0].name
            if type(ops[1]) is Imm:
                const = ops[1].value

                def h_mov_ri(I: "Interpreter") -> None:
                    cpu = I.cpu
                    cpu.rip = next_rip
                    I.clock.advance(base)
                    cpu.regs[dname] = const & cpu.mask

                return h_mov_ri
            sname = ops[1].name

            def h_mov_rr(I: "Interpreter") -> None:
                cpu = I.cpu
                cpu.rip = next_rip
                I.clock.advance(base)
                regs = cpu.regs
                regs[dname] = regs[sname] & cpu.mask

            return h_mov_rr
        write = _compile_write(ops[0], costs)
        read = _compile_read(ops[1], costs)

        def h_mov(I: "Interpreter") -> None:
            I.cpu.rip = next_rip
            I.clock.advance(base)
            write(I, read(I))

        return h_mov
    alu = _ALU_OPS.get(op)
    if alu is not None:
        if type(ops[0]) is Reg and type(ops[1]) in (Reg, Imm):
            dname = ops[0].name
            if type(ops[1]) is Imm:
                const = ops[1].value

                def h_alu_ri(I: "Interpreter") -> None:
                    cpu = I.cpu
                    cpu.rip = next_rip
                    I.clock.advance(base)
                    regs = cpu.regs
                    mask = cpu.mask
                    result = alu(regs[dname] & mask, const & mask)
                    cpu.flags.set_from_result(result, mask)
                    regs[dname] = result & mask

                return h_alu_ri
            sname = ops[1].name

            def h_alu_rr(I: "Interpreter") -> None:
                cpu = I.cpu
                cpu.rip = next_rip
                I.clock.advance(base)
                regs = cpu.regs
                mask = cpu.mask
                result = alu(regs[dname] & mask, regs[sname] & mask)
                cpu.flags.set_from_result(result, mask)
                regs[dname] = result & mask

            return h_alu_rr
        read_dst = _compile_read(ops[0], costs)
        read_src = _compile_read(ops[1], costs)
        write_dst = _compile_write(ops[0], costs)

        def h_alu(I: "Interpreter") -> None:
            cpu = I.cpu
            cpu.rip = next_rip
            I.clock.advance(base)
            result = alu(read_dst(I), read_src(I))
            cpu.flags.set_from_result(result, cpu.mask)
            write_dst(I, result & cpu.mask)

        return h_alu
    if op in ("inc", "dec"):
        delta = 1 if op == "inc" else -1
        if type(ops[0]) is Reg:
            rname = ops[0].name

            def h_step_r(I: "Interpreter") -> None:
                cpu = I.cpu
                cpu.rip = next_rip
                I.clock.advance(base)
                regs = cpu.regs
                mask = cpu.mask
                result = (regs[rname] & mask) + delta
                cpu.flags.set_from_result(result, mask)
                regs[rname] = result & mask

            return h_step_r
        read = _compile_read(ops[0], costs)
        write = _compile_write(ops[0], costs)

        def h_step(I: "Interpreter") -> None:
            cpu = I.cpu
            cpu.rip = next_rip
            I.clock.advance(base)
            result = read(I) + delta
            cpu.flags.set_from_result(result, cpu.mask)
            write(I, result & cpu.mask)

        return h_step
    if op == "cmp":
        # Reg vs Reg/Imm comparisons inline the signed interpretation
        # (_signed) as well; flag results are bit-identical.
        if type(ops[0]) is Reg and type(ops[1]) in (Reg, Imm):
            lname = ops[0].name
            if type(ops[1]) is Imm:
                const = ops[1].value

                def h_cmp_ri(I: "Interpreter") -> None:
                    cpu = I.cpu
                    cpu.rip = next_rip
                    I.clock.advance(base)
                    mask = cpu.mask
                    lhs = cpu.regs[lname] & mask
                    rhs = const & mask
                    flags = cpu.flags
                    flags.set_from_result(lhs - rhs, mask)
                    half = (mask + 1) >> 1
                    slhs = lhs - mask - 1 if lhs & half else lhs
                    srhs = rhs - mask - 1 if rhs & half else rhs
                    flags.sign = slhs - srhs < 0

                return h_cmp_ri
            rname = ops[1].name

            def h_cmp_rr(I: "Interpreter") -> None:
                cpu = I.cpu
                cpu.rip = next_rip
                I.clock.advance(base)
                regs = cpu.regs
                mask = cpu.mask
                lhs = regs[lname] & mask
                rhs = regs[rname] & mask
                flags = cpu.flags
                flags.set_from_result(lhs - rhs, mask)
                half = (mask + 1) >> 1
                slhs = lhs - mask - 1 if lhs & half else lhs
                srhs = rhs - mask - 1 if rhs & half else rhs
                flags.sign = slhs - srhs < 0

            return h_cmp_rr
        read_lhs = _compile_read(ops[0], costs)
        read_rhs = _compile_read(ops[1], costs)

        def h_cmp(I: "Interpreter") -> None:
            cpu = I.cpu
            cpu.rip = next_rip
            I.clock.advance(base)
            lhs = read_lhs(I)
            rhs = read_rhs(I)
            cpu.flags.set_from_result(lhs - rhs, cpu.mask)
            cpu.flags.sign = I._signed(lhs) - I._signed(rhs) < 0

        return h_cmp
    if op == "test":
        read_lhs = _compile_read(ops[0], costs)
        read_rhs = _compile_read(ops[1], costs)

        def h_test(I: "Interpreter") -> None:
            cpu = I.cpu
            cpu.rip = next_rip
            I.clock.advance(base)
            cpu.flags.set_from_result(read_lhs(I) & read_rhs(I), cpu.mask)

        return h_test
    if op == "jmp":
        if type(ops[0]) is Imm:
            tconst = ops[0].value

            def h_jmp_c(I: "Interpreter") -> None:
                I.clock.advance(base)
                cpu = I.cpu
                cpu.rip = tconst & cpu.mask

            return h_jmp_c
        read = _compile_read(ops[0], costs)

        def h_jmp(I: "Interpreter") -> None:
            cpu = I.cpu
            cpu.rip = next_rip
            I.clock.advance(base)
            cpu.rip = read(I)

        return h_jmp
    jcc = _JCC.get(op)
    if jcc is not None:
        if type(ops[0]) is Imm:
            tconst = ops[0].value

            def h_jcc_c(I: "Interpreter") -> None:
                cpu = I.cpu
                cpu.rip = next_rip
                I.clock.advance(base)
                if jcc(cpu.flags):
                    cpu.rip = tconst & cpu.mask

            return h_jcc_c
        read = _compile_read(ops[0], costs)

        def h_jcc(I: "Interpreter") -> None:
            cpu = I.cpu
            cpu.rip = next_rip
            I.clock.advance(base)
            if jcc(cpu.flags):
                cpu.rip = read(I)

        return h_jcc
    # The stack ops inline _push/_pop with the width taken from
    # cpu.nbytes (== STACK_WIDTH[mode]: 2/4/8), masking unchanged.
    if op == "call":
        read = _compile_read(ops[0], costs)
        if type(ops[0]) is MemRef:
            # A memory target charges (and can fault) during read(),
            # so the push charge must stay on its own side of it.
            pre = base + costs.INSN_CALL
            post = costs.INSN_MEM + costs.STORE8

            def h_call_mem(I: "Interpreter") -> None:
                cpu = I.cpu
                cpu.rip = next_rip
                I.clock.advance(pre)
                target = read(I)
                I.clock.advance(post)
                regs = cpu.regs
                mask = cpu.mask
                width = cpu.nbytes
                sp = ((regs["sp"] & mask) - width) & mask
                regs["sp"] = sp
                I._store(sp, next_rip & mask, width)
                cpu.rip = target

            return h_call_mem
        charge = base + costs.INSN_CALL + costs.INSN_MEM + costs.STORE8
        if type(ops[0]) is Imm:
            tconst = ops[0].value

            def h_call_c(I: "Interpreter") -> None:
                cpu = I.cpu
                cpu.rip = next_rip
                I.clock.advance(charge)
                regs = cpu.regs
                mask = cpu.mask
                width = cpu.nbytes
                sp = ((regs["sp"] & mask) - width) & mask
                regs["sp"] = sp
                I._store(sp, next_rip & mask, width)
                cpu.rip = tconst & mask

            return h_call_c

        def h_call(I: "Interpreter") -> None:
            cpu = I.cpu
            cpu.rip = next_rip
            I.clock.advance(charge)
            target = read(I)
            regs = cpu.regs
            mask = cpu.mask
            width = cpu.nbytes
            sp = ((regs["sp"] & mask) - width) & mask
            regs["sp"] = sp
            I._store(sp, next_rip & mask, width)
            cpu.rip = target

        return h_call
    if op == "ret":
        charge = base + costs.INSN_CALL + costs.INSN_MEM

        def h_ret(I: "Interpreter") -> None:
            cpu = I.cpu
            cpu.rip = next_rip
            I.clock.advance(charge)
            regs = cpu.regs
            mask = cpu.mask
            width = cpu.nbytes
            sp = regs["sp"] & mask
            value = I._load(sp, width)
            regs["sp"] = (sp + width) & mask
            cpu.rip = value

        return h_ret
    if op == "push":
        read = _compile_read(ops[0], costs)
        if type(ops[0]) is MemRef:
            # As with call: the source read charges (and can fault),
            # so only INSN_BASE may be hoisted ahead of it.
            push_charge = costs.INSN_MEM + costs.STORE8

            def h_push_mem(I: "Interpreter") -> None:
                cpu = I.cpu
                cpu.rip = next_rip
                I.clock.advance(base)
                value = read(I)
                I.clock.advance(push_charge)
                regs = cpu.regs
                mask = cpu.mask
                width = cpu.nbytes
                sp = ((regs["sp"] & mask) - width) & mask
                regs["sp"] = sp
                I._store(sp, value & mask, width)

            return h_push_mem
        charge = base + costs.INSN_MEM + costs.STORE8
        if type(ops[0]) is Reg:
            sname = ops[0].name

            def h_push_r(I: "Interpreter") -> None:
                cpu = I.cpu
                cpu.rip = next_rip
                I.clock.advance(charge)
                regs = cpu.regs
                mask = cpu.mask
                width = cpu.nbytes
                sp = ((regs["sp"] & mask) - width) & mask
                regs["sp"] = sp
                I._store(sp, regs[sname] & mask, width)

            return h_push_r

        def h_push(I: "Interpreter") -> None:
            cpu = I.cpu
            cpu.rip = next_rip
            I.clock.advance(charge)
            value = read(I)
            regs = cpu.regs
            mask = cpu.mask
            width = cpu.nbytes
            sp = ((regs["sp"] & mask) - width) & mask
            regs["sp"] = sp
            I._store(sp, value & mask, width)

        return h_push
    if op == "pop":
        if not isinstance(ops[0], Reg):
            def h_pop_bad(I: "Interpreter") -> None:
                I.cpu.rip = next_rip
                I.clock.advance(base)
                raise ExecutionError("pop requires a register operand")

            return h_pop_bad
        name = ops[0].name
        charge = base + costs.INSN_MEM

        def h_pop(I: "Interpreter") -> None:
            cpu = I.cpu
            cpu.rip = next_rip
            I.clock.advance(charge)
            regs = cpu.regs
            mask = cpu.mask
            width = cpu.nbytes
            sp = regs["sp"] & mask
            value = I._load(sp, width)
            regs["sp"] = (sp + width) & mask
            regs[name] = value & mask

        return h_pop
    if op == "hlt":
        def h_hlt(I: "Interpreter") -> None:
            cpu = I.cpu
            cpu.rip = next_rip
            I.clock.advance(base)
            cpu.halted = True
            raise HaltExit()

        return h_hlt
    if op == "out":
        read_port = _compile_read(ops[0], costs)
        read_value = _compile_read(ops[1], costs)

        def h_out(I: "Interpreter") -> None:
            I.cpu.rip = next_rip
            I.clock.advance(base)
            raise IOOutExit(port=read_port(I), value=read_value(I))

        return h_out
    if op == "in":
        if not isinstance(ops[0], Reg):
            def h_in_bad(I: "Interpreter") -> None:
                I.cpu.rip = next_rip
                I.clock.advance(base)
                raise ExecutionError("in requires a register destination")

            return h_in_bad
        dest = ops[0].name
        read_port = _compile_read(ops[1], costs)

        def h_in(I: "Interpreter") -> None:
            I.cpu.rip = next_rip
            I.clock.advance(base)
            raise IOInExit(port=read_port(I), dest=dest)

        return h_in
    if op in ("cli", "sti"):
        enable = op == "sti"

        def h_intr(I: "Interpreter") -> None:
            cpu = I.cpu
            cpu.rip = next_rip
            I.clock.advance(base)
            cpu.flags.interrupts = enable

        return h_intr
    if op == "lgdt":
        read = _compile_read(ops[0], costs)
        lgdt_real = costs.LGDT_REAL
        lgdt_prot = costs.LGDT_PROTECTED

        def h_lgdt(I: "Interpreter") -> None:
            cpu = I.cpu
            cpu.rip = next_rip
            I.clock.advance(base)
            gdt_base = read(I)
            if cpu.mode is Mode.REAL16:
                I._charge_component("load 32-bit gdt (lgdt)", lgdt_real)
            else:
                I._charge_component("long transition (lgdt)", lgdt_prot)
            gdtr = cpu.gdtr
            gdtr.base = gdt_base
            gdtr.limit = 0xFFFF
            gdtr.loaded = True

        return h_lgdt
    if op == "ljmp":
        read_bits = _compile_read(ops[0], costs)
        target = ops[1]
        # ljmp takes the raw Imm target (no mode masking) like _dispatch.
        const_target = target.value if isinstance(target, Imm) else None
        read_target = (None if isinstance(target, Imm)
                       else _compile_read(target, costs))

        def h_ljmp(I: "Interpreter") -> None:
            cpu = I.cpu
            cpu.rip = next_rip
            I.clock.advance(base)
            bits = read_bits(I)
            addr = const_target if read_target is None else read_target(I)
            if bits == 32:
                I._charge_component("jump to 32-bit (ljmp)", costs.LJMP_TO_32)
                cpu.far_jump(Mode.PROT32, addr)
                if I.tracer.enabled:
                    I.tracer.instant("cpu.mode:PROT32", Category.BOOT)
            elif bits == 64:
                I._charge_component("jump to 64-bit (ljmp)", costs.LJMP_TO_64)
                cpu.far_jump(Mode.LONG64, addr)
                if I.tracer.enabled:
                    I.tracer.instant("cpu.mode:LONG64", Category.BOOT)
            else:
                raise ExecutionError(f"ljmp to unsupported width {bits}")

        return h_ljmp
    if op == "wrmsr":
        charge = base + costs.CR_WRITE

        def h_wrmsr(I: "Interpreter") -> None:
            cpu = I.cpu
            cpu.rip = next_rip
            I.clock.advance(charge)
            regs = cpu.regs
            msr = (regs["cx"] & cpu.mask if cpu.mode is not Mode.REAL16
                   else regs["cx"])
            value = (regs["dx"] << 32) | (regs["ax"] & 0xFFFFFFFF)
            cpu.wrmsr(msr if msr else MSR_EFER, value)
            I.tlb_flush()

        return h_wrmsr
    if op == "rdmsr":
        charge = base + costs.CR_WRITE

        def h_rdmsr(I: "Interpreter") -> None:
            cpu = I.cpu
            cpu.rip = next_rip
            I.clock.advance(charge)
            regs = cpu.regs
            msr = regs["cx"] or MSR_EFER
            value = cpu.rdmsr(msr)
            regs["ax"] = value & 0xFFFFFFFF
            regs["dx"] = value >> 32

        return h_rdmsr
    if op == "stos64":
        charge = base + costs.INSN_MEM + costs.STORE8

        def h_stos64(I: "Interpreter") -> None:
            cpu = I.cpu
            cpu.rip = next_rip
            regs = cpu.regs
            di = regs["di"] & cpu.mask
            I.clock.advance(charge)
            I._store(di, regs["ax"], 8)
            regs["di"] = (di + 8) & cpu.mask

        return h_stos64

    def h_unknown(I: "Interpreter") -> None:  # pragma: no cover - assembler validates ops
        I.cpu.rip = next_rip
        I.clock.advance(base)
        raise ExecutionError(f"unimplemented op {op!r}")

    return h_unknown


class Interpreter:
    """Executes an assembled :class:`Program` against CPU + memory.

    Each step charges cycles on the shared clock according to the cost
    model; mode transitions charge the Table 1 component costs.  Component
    costs are additionally tallied into :attr:`component_cycles` keyed by
    the Table 1 row names, which is how the boot-breakdown benchmark
    recovers the per-component numbers.
    """

    STACK_WIDTH = {Mode.REAL16: 2, Mode.PROT32: 4, Mode.LONG64: 8}

    def __init__(
        self,
        cpu: CPU,
        memory: GuestMemory,
        clock: Clock,
        costs: CostModel = COSTS,
        *,
        engine: str = "fast+jit",
        jit_domain: JitDomain | None = None,
    ) -> None:
        self.cpu = cpu
        self.memory = memory
        self.clock = clock
        self.costs = costs
        #: The clock domain's cycle tracer (never charges cycles).
        self.tracer = clock.tracer
        #: ``False`` under the ``reference`` engine: no software TLB and no
        #: predecoded dispatch.  Simulated cycles are identical either way
        #: (the golden-equivalence test enforces this).
        self._fast = check_engine(engine) != "reference"
        self.program: Program | None = None
        self._by_addr: dict[int, Instr] = {}
        #: The attached program's shared handler table (fast engines).
        self._decoded: dict[int, Handler] = {}
        self.instructions_retired = 0
        self.component_cycles: dict[str, int] = {}
        #: Optional component-charge observer ``(name, cycles) -> None``
        #: (the boundary recorder's in-guest attribution tap).
        self.on_component: Callable[[str, int], None] | None = None
        self._first_instruction_pending = True
        self._trace: "deque[str] | None" = None
        # Width -> preresolved memory accessors (hoisted out of _load/_store).
        self._mem_read = {1: memory.read_u8, 2: memory.read_u16,
                          4: memory.read_u32, 8: memory.read_u64}
        self._mem_write = {1: memory.write_u8, 2: memory.write_u16,
                           4: memory.write_u32, 8: memory.write_u64}
        # Software TLB: virtual page -> physical frame.  The memory clears
        # it directly (push invalidation) whenever a watched page-table
        # page is written or a bulk mutation rewrites memory, so lookups
        # need no validity check.
        self._tlb: dict[int, int] | None = {} if self._fast else None
        if self._tlb is not None:
            memory.register_tlb(self._tlb)
        self.tlb_hits = 0
        self.tlb_misses = 0
        self.tlb_flushes = 0
        #: Instructions completed before the exception in the last
        #: :meth:`run_steps` call (exact step-budget accounting for the VM).
        self.last_run_steps = 0
        #: Superblock JIT (DESIGN.md SS15): on only under the ``fast+jit``
        #: engine -- the JIT builds on the fast path, and the reference
        #: path is the thing both are verified against.
        # Generated superblocks advance the clock by mutating
        # ``clock.cycles`` directly (no bound-method call per flush),
        # which is only equivalent while ``advance`` is the base class's
        # pure accumulator -- a subclass that overrides it (observing or
        # transforming advances) silently falls back to the interpreter.
        self.jit = (engine == "fast+jit"
                    and type(clock).advance is Clock.advance)
        self._jit_domain: JitDomain | None = None
        self._jit_cache = None
        self._jit_blocks: dict[int, object] = {}
        self._jit_counts: dict[int, int] = {}
        self._jit_exits: dict[str, int] = {}
        #: Instructions fully completed inside the currently-running
        #: superblock before a raising operation; ``-1`` outside blocks.
        #: The run loop folds it into exact step accounting on exits.
        self._sb_steps = -1
        if self.jit:
            self._jit_domain = (jit_domain if jit_domain is not None
                                else JitDomain())
            self._jit_exits = self._jit_domain.side_exits
            memory.add_code_watch_listener(self._jit_invalidate_page)
            # Superblock prologue context: one tuple unpack binds every
            # per-interpreter object the generated code needs.  All of
            # these are identity-stable for the interpreter's lifetime
            # (cpu.regs is updated in place by reset()/load_state();
            # cpu.flags is NOT in here because those paths replace it),
            # and none refers back to the interpreter.
            self._sb_ctx = (cpu, cpu.regs, clock,
                            self._tlb.get if self._tlb is not None else None,
                            self._mem_read, self._mem_write, memory)

    # -- program management ---------------------------------------------------
    def load_program(self, program: Program) -> None:
        """Attach ``program`` and write its image into guest memory."""
        self.memory.load_bytes(program.image, program.base)
        self.attach_program(program)

    def attach_program(self, program: Program, reset_rip: bool = True) -> None:
        """Attach ``program`` without rewriting memory (snapshot resume)."""
        self.program = program
        self._by_addr = program.by_addr
        self._decoded = program.handlers(self.costs) if self._fast else {}
        if self.jit and self._decoded:
            # Bind the per-image compiled-block cache (content-hash keyed,
            # shared across every shell of the image in this domain):
            # pooled and COW-restored shells re-attach here and start
            # with whatever superblocks previous launches compiled.
            cache = self._jit_domain.image_cache(program, self.costs)
            cache.note_attach()
            self._jit_cache = cache
            self._jit_blocks = cache.blocks
            self._jit_counts = cache.counts
            pages = cache.watched_pages()
            if pages:
                self.memory.watch_code_pages(pages)
        else:
            self._jit_cache = None
            self._jit_blocks = {}
            self._jit_counts = {}
        if reset_rip:
            self.cpu.rip = program.entry()
        self._first_instruction_pending = True
        self.tlb_flush()

    def _jit_invalidate_page(self, page: int) -> None:
        """Push invalidation: a guest store touched a compiled code page."""
        cache = self._jit_cache
        if cache is not None:
            cache.invalidate_page(page)

    def mark_entry(self) -> None:
        """Charge the first-instruction fetch cost on the next step."""
        self._first_instruction_pending = True
        self.tlb_flush()

    # -- execution tracing (debugging aid) -------------------------------------
    def enable_trace(self, depth: int = 32) -> None:
        """Keep a ring buffer of the last ``depth`` executed instructions.

        The trace is what you want when a guest triple-faults: the last
        few instructions before the bad fetch.  Disabled by default (it
        costs Python time, never simulated cycles).
        """
        if depth <= 0:
            raise ValueError("trace depth must be positive")
        self._trace = deque(maxlen=depth)

    def disable_trace(self) -> None:
        self._trace = None

    def trace(self) -> list[str]:
        """The recorded instruction history, oldest first."""
        return list(self._trace) if self._trace is not None else []

    # -- address translation -----------------------------------------------------
    def tlb_flush(self) -> None:
        """Drop every cached translation.

        Called on CR0/CR3/CR4 writes, EFER updates (``wrmsr``), program
        (re)attachment, and shell re-entry -- a superset of the
        architectural invalidation points, which is always safe (a flush
        never changes simulated cycles; translations are free either way).
        """
        if self._tlb:
            self._tlb.clear()
            self.tlb_flushes += 1
        self.memory.clear_translation_watch()

    def _phys(self, vaddr: int) -> int:
        cpu = self.cpu
        if not cpu.cr0 & CR0_PG:
            return vaddr
        tlb = self._tlb
        if tlb is None:
            try:
                return translate(self.memory, cpu.cr3, vaddr)
            except PageFault as fault:
                raise TripleFault(str(fault)) from fault
        frame = tlb.get(vaddr >> 12)
        if frame is not None:
            self.tlb_hits += 1
            return frame | (vaddr & 0xFFF)
        self.tlb_misses += 1
        try:
            phys = translate_watched(self.memory, cpu.cr3, vaddr)
        except PageFault as fault:
            raise TripleFault(str(fault)) from fault
        # Low 12 bits of the translation track the virtual offset for both
        # 4 KB and 2 MB mappings, so caching the 4 KB frame is exact.
        tlb[vaddr >> 12] = phys & ~0xFFF
        return phys

    # The TLB hit path is inlined into both accessors (one call layer
    # fewer per guest memory access); a miss, or the TLB-less reference
    # engine, takes _phys, which walks, caches, counts and wraps faults.
    def _load(self, vaddr: int, width: int) -> int:
        if self.cpu.cr0 & CR0_PG:
            tlb = self._tlb
            frame = None if tlb is None else tlb.get(vaddr >> 12)
            if frame is None:
                vaddr = self._phys(vaddr)
            else:
                self.tlb_hits += 1
                vaddr = frame | (vaddr & 0xFFF)
        return self._mem_read[width](vaddr)

    def _store(self, vaddr: int, value: int, width: int) -> None:
        if self.cpu.cr0 & CR0_PG:
            tlb = self._tlb
            frame = None if tlb is None else tlb.get(vaddr >> 12)
            if frame is None:
                vaddr = self._phys(vaddr)
            else:
                self.tlb_hits += 1
                vaddr = frame | (vaddr & 0xFFF)
        self._mem_write[width](vaddr, value)

    # -- operand evaluation --------------------------------------------------------
    def _effective_addr(self, ref: MemRef) -> int:
        base = self.cpu.read_reg(ref.base) if ref.base else 0
        return (base + ref.disp) & 0xFFFFFFFFFFFFFFFF

    def _read_operand(self, operand: Operand) -> int:
        if isinstance(operand, Reg):
            return self.cpu.read_reg(operand.name)
        if isinstance(operand, CtrlReg):
            return self.cpu.read_cr(operand.name)
        if isinstance(operand, Imm):
            return operand.value & self.cpu.mode.mask
        self.clock.advance(self.costs.INSN_MEM)
        width = self.cpu.mode.value // 8
        return self._load(self._effective_addr(operand), width)

    def _write_operand(self, operand: Operand, value: int) -> None:
        if isinstance(operand, Reg):
            self.cpu.write_reg(operand.name, value)
            return
        if isinstance(operand, CtrlReg):
            self._write_ctrl(operand.name, value)
            return
        if isinstance(operand, Imm):
            raise ExecutionError("cannot write to an immediate")
        self.clock.advance(self.costs.INSN_MEM + self.costs.STORE8)
        width = self.cpu.mode.value // 8
        self._store(self._effective_addr(operand), value & self.cpu.mode.mask, width)

    def _write_ctrl(self, name: str, value: int) -> None:
        costs = self.costs
        events = self.cpu.write_cr(name, value)
        # Any control-register write is a TLB invalidation point (CR3
        # reload, CR0.PG flip, CR4.PAE change).
        self.tlb_flush()
        if name == "cr3":
            self._charge_component("cr3 load", costs.CR3_LOAD)
        else:
            self.clock.advance(costs.CR_WRITE)
        if events.get("pe_set"):
            self._charge_component("protected transition", costs.CR0_PE_FLIP)
        if events.get("pg_set"):
            self._charge_component("paging enable", costs.CR0_PG_FLIP)

    def _charge_component(self, component: str, cycles: int) -> None:
        self.clock.advance(cycles)
        self.component_cycles[component] = (
            self.component_cycles.get(component, 0) + cycles
        )
        if self.on_component is not None:
            self.on_component(component, cycles)
        if self.tracer.enabled:
            self.tracer.component(component, cycles)

    # -- stack ---------------------------------------------------------------------
    def _push(self, value: int) -> None:
        width = self.STACK_WIDTH[self.cpu.mode]
        sp = (self.cpu.read_reg("sp") - width) & self.cpu.mode.mask
        self.cpu.write_reg("sp", sp)
        self.clock.advance(self.costs.INSN_MEM + self.costs.STORE8)
        self._store(sp, value & self.cpu.mode.mask, width)

    def _pop(self) -> int:
        width = self.STACK_WIDTH[self.cpu.mode]
        sp = self.cpu.read_reg("sp")
        self.clock.advance(self.costs.INSN_MEM)
        value = self._load(sp, width)
        self.cpu.write_reg("sp", (sp + width) & self.cpu.mode.mask)
        return value

    # -- signed helpers -----------------------------------------------------------
    def _signed(self, value: int) -> int:
        mask = self.cpu.mask
        sign_bit = (mask + 1) >> 1
        return value - (mask + 1) if value & sign_bit else value

    # -- execution --------------------------------------------------------------------
    def step(self) -> None:
        """Execute one instruction (raises a :class:`GuestExit` on exits)."""
        if self.program is None:
            raise ExecutionError("no program loaded")
        cpu = self.cpu
        if cpu.halted:
            raise HaltExit()
        if self._trace is None and self._decoded:
            # Fast path: the handler carries the operand accessors and
            # the fall-through RIP, and charges INSN_BASE itself; charges
            # are identical to _dispatch.
            handler = self._decoded.get(cpu.rip)
            if handler is None:
                raise TripleFault(
                    f"instruction fetch from unmapped rip {cpu.rip:#x}")
            if self._first_instruction_pending:
                self._first_instruction_pending = False
                self._charge_component("first instruction",
                                       self.costs.FIRST_INSTRUCTION)
            self.instructions_retired += 1
            handler(self)
            return
        insn = self._by_addr.get(cpu.rip)
        if insn is None:
            raise TripleFault(f"instruction fetch from unmapped rip {cpu.rip:#x}")
        if self._first_instruction_pending:
            self._first_instruction_pending = False
            self._charge_component("first instruction", self.costs.FIRST_INSTRUCTION)
        if self._trace is not None:
            self._trace.append(f"{insn.addr:#06x}: {insn.line or insn.op}")
        self.clock.advance(self.costs.INSN_BASE)
        self.instructions_retired += 1
        next_rip = insn.addr + insn.size
        cpu.rip = next_rip  # may be overwritten by control flow
        self._dispatch(insn)

    def _dispatch(self, insn: Instr) -> None:
        op = insn.op
        ops = insn.operands
        cpu = self.cpu
        costs = self.costs

        if op == "nop":
            return
        if op == "mov":
            self._write_operand(ops[0], self._read_operand(ops[1]))
            return
        alu = _ALU_OPS.get(op)
        if alu is not None:
            lhs = self._read_operand(ops[0])
            rhs = self._read_operand(ops[1])
            result = alu(lhs, rhs)
            cpu.flags.set_from_result(result, cpu.mode.mask)
            self._write_operand(ops[0], result & cpu.mode.mask)
            return
        if op in ("inc", "dec"):
            value = self._read_operand(ops[0])
            result = value + 1 if op == "inc" else value - 1
            cpu.flags.set_from_result(result, cpu.mode.mask)
            self._write_operand(ops[0], result & cpu.mode.mask)
            return
        if op == "cmp":
            lhs = self._read_operand(ops[0])
            rhs = self._read_operand(ops[1])
            cpu.flags.set_from_result(lhs - rhs, cpu.mode.mask)
            cpu.flags.sign = self._signed(lhs) - self._signed(rhs) < 0
            return
        if op == "test":
            lhs = self._read_operand(ops[0])
            rhs = self._read_operand(ops[1])
            cpu.flags.set_from_result(lhs & rhs, cpu.mode.mask)
            return
        if op == "jmp":
            cpu.rip = self._read_operand(ops[0])
            return
        jcc = _JCC.get(op)
        if jcc is not None:
            if jcc(cpu.flags):
                cpu.rip = self._read_operand(ops[0])
            return
        if op == "call":
            self.clock.advance(costs.INSN_CALL)
            target = self._read_operand(ops[0])
            self._push(cpu.rip)
            cpu.rip = target
            return
        if op == "ret":
            self.clock.advance(costs.INSN_CALL)
            cpu.rip = self._pop()
            return
        if op == "push":
            self._push(self._read_operand(ops[0]))
            return
        if op == "pop":
            if not isinstance(ops[0], Reg):
                raise ExecutionError("pop requires a register operand")
            cpu.write_reg(ops[0].name, self._pop())
            return
        if op == "hlt":
            cpu.halted = True
            raise HaltExit()
        if op == "out":
            port = self._read_operand(ops[0])
            value = self._read_operand(ops[1])
            raise IOOutExit(port=port, value=value)
        if op == "in":
            if not isinstance(ops[0], Reg):
                raise ExecutionError("in requires a register destination")
            port = self._read_operand(ops[1])
            raise IOInExit(port=port, dest=ops[0].name)
        if op == "cli":
            cpu.flags.interrupts = False
            return
        if op == "sti":
            cpu.flags.interrupts = True
            return
        if op == "lgdt":
            base = self._read_operand(ops[0])
            cost = costs.LGDT_REAL if cpu.mode is Mode.REAL16 else costs.LGDT_PROTECTED
            label = (
                "load 32-bit gdt (lgdt)"
                if cpu.mode is Mode.REAL16
                else "long transition (lgdt)"
            )
            self._charge_component(label, cost)
            cpu.gdtr.base = base
            cpu.gdtr.limit = 0xFFFF
            cpu.gdtr.loaded = True
            return
        if op == "ljmp":
            bits = self._read_operand(ops[0])
            target = ops[1]
            target_addr = (
                target.value if isinstance(target, Imm) else self._read_operand(target)
            )
            if bits == 32:
                self._charge_component("jump to 32-bit (ljmp)", costs.LJMP_TO_32)
                cpu.far_jump(Mode.PROT32, target_addr)
                if self.tracer.enabled:
                    self.tracer.instant("cpu.mode:PROT32", Category.BOOT)
            elif bits == 64:
                self._charge_component("jump to 64-bit (ljmp)", costs.LJMP_TO_64)
                cpu.far_jump(Mode.LONG64, target_addr)
                if self.tracer.enabled:
                    self.tracer.instant("cpu.mode:LONG64", Category.BOOT)
            else:
                raise ExecutionError(f"ljmp to unsupported width {bits}")
            return
        if op == "wrmsr":
            self.clock.advance(costs.CR_WRITE)
            msr = cpu.read_reg("cx") if cpu.mode is not Mode.REAL16 else cpu.regs["cx"]
            value = (cpu.regs["dx"] << 32) | (cpu.regs["ax"] & 0xFFFFFFFF)
            cpu.wrmsr(msr if msr else MSR_EFER, value)
            self.tlb_flush()  # EFER.LME transitions invalidate translations
            return
        if op == "rdmsr":
            self.clock.advance(costs.CR_WRITE)
            msr = cpu.regs["cx"] or MSR_EFER
            value = cpu.rdmsr(msr)
            cpu.regs["ax"] = value & 0xFFFFFFFF
            cpu.regs["dx"] = value >> 32
            return
        if op == "stos64":
            di = cpu.read_reg("di")
            self.clock.advance(costs.INSN_MEM + costs.STORE8)
            self._store(di, cpu.regs["ax"], 8)
            cpu.write_reg("di", di + 8)
            return
        raise ExecutionError(f"unimplemented op {op!r}")  # pragma: no cover

    def run_steps(self, budget: int) -> int:
        """Execute up to ``budget`` instructions; the VM's inner run loop.

        Returns ``budget`` when the step budget is exhausted; otherwise a
        :class:`GuestExit` propagates exactly as from :meth:`step`.  After
        any exception, :attr:`last_run_steps` holds the number of
        instructions completed *before* the raising one -- the VM's step
        accounting never counts the exiting instruction.
        """
        if budget <= 0:
            self.last_run_steps = 0
            return 0
        if self._trace is not None or not self._decoded:
            # Reference path: per-step dispatch keeps step()'s semantics
            # (and the debug ring buffer) intact.
            completed = 0
            self.last_run_steps = 0
            while completed < budget:
                self.step()
                completed += 1
                self.last_run_steps = completed
            return completed
        cpu = self.cpu
        if cpu.halted:
            self.last_run_steps = 0
            raise HaltExit()
        if self._first_instruction_pending:
            # Fetch is checked before the charge (a bad entry RIP leaves
            # the charge pending), after which the flag stays False for
            # the rest of the run -- so the loop below can skip it.
            if self._decoded.get(cpu.rip) is None:
                self.last_run_steps = 0
                raise TripleFault(
                    f"instruction fetch from unmapped rip {cpu.rip:#x}")
            self._first_instruction_pending = False
            self._charge_component("first instruction",
                                   self.costs.FIRST_INSTRUCTION)
        decoded_get = self._decoded.get
        executed = 0
        fetch_fault = False
        cache = self._jit_cache
        if cache is not None:
            # Superblock dispatch (DESIGN.md SS15): compiled blocks run
            # when their entry guards hold (mode/paging unchanged since
            # compile, remaining budget covers the block); otherwise the
            # per-instruction handler path below takes over for this
            # step.  Cold PCs are profiled; crossing the hotness
            # threshold triggers compilation inline.
            blocks_get = self._jit_blocks.get
            counts = self._jit_counts
            domain = self._jit_domain
            dom_counters = domain.counters
            exits = self._jit_exits
            threshold = domain.threshold
            blacklist = cache.blacklist
            self._sb_steps = -1
            # Mode guards hoisted out of the dispatch loop: only the
            # excluded (per-instruction) ops can change mode or paging,
            # so they are recomputed after each handler() call only.
            mask = cpu.mask
            paging = cpu.cr0 & CR0_PG != 0
            runs = 0
            insns = 0
            try:
                while executed < budget:
                    rip = cpu.rip
                    entry = blocks_get(rip)
                    if entry is not None:
                        fn, length, bmask, bpaging, seg = entry
                        if bmask == mask and bpaging == paging:
                            left = budget - executed
                            if left >= length:
                                ran = fn(self, left, seg)
                                if ran >= 0:
                                    executed += ran
                                    runs += 1
                                    insns += ran
                                    continue
                                # Wide-register guard refused entry.
                                exits["mode_guard"] += 1
                            else:
                                exits["budget_guard"] += 1
                        else:
                            exits["mode_guard"] += 1
                    else:
                        count = counts.get(rip, 0) + 1
                        counts[rip] = count
                        if count == threshold and rip not in blacklist:
                            blks = compile_block(self, rip)
                            if blks is None:
                                blacklist.add(rip)
                            else:
                                for blk in blks:
                                    cache.register(blk)
                                self.memory.watch_code_pages(blks[0].pages)
                                continue  # dispatch it on this same rip
                    handler = decoded_get(rip)
                    if handler is None:
                        fetch_fault = True
                        break
                    executed += 1
                    handler(self)
                    mask = cpu.mask
                    paging = cpu.cr0 & CR0_PG != 0
            except BaseException as exc:
                steps = self._sb_steps
                if steps >= 0:
                    # The exception left a superblock mid-flight: fold in
                    # the instructions it completed, plus the raising one
                    # (accounted exactly like the handler path below), and
                    # count the dispatch itself -- a block whose trace
                    # ends in hlt/out always exits by raising.
                    executed += steps + 1
                    runs += 1
                    insns += steps + 1
                    self._sb_steps = -1
                    if isinstance(exc, HaltExit):
                        exits["halt"] += 1
                    elif isinstance(exc, (IOOutExit, IOInExit)):
                        exits["io"] += 1
                    else:
                        exits["fault"] += 1
                if runs:
                    dom_counters["block_runs"] += runs
                    dom_counters["block_instructions"] += insns
                self.instructions_retired += executed
                self.last_run_steps = executed - 1
                raise
            if runs:
                dom_counters["block_runs"] += runs
                dom_counters["block_instructions"] += insns
            self.instructions_retired += executed
            self.last_run_steps = executed
            if fetch_fault:
                raise TripleFault(
                    f"instruction fetch from unmapped rip {cpu.rip:#x}")
            return executed
        try:
            while executed < budget:
                handler = decoded_get(cpu.rip)
                if handler is None:
                    fetch_fault = True
                    break
                executed += 1
                handler(self)
        except BaseException:
            # The raising instruction retired but does not count toward
            # the VM's step budget (mirrors the per-step loop this
            # replaces, where step() raised before the budget increment).
            self.instructions_retired += executed
            self.last_run_steps = executed - 1
            raise
        self.instructions_retired += executed
        self.last_run_steps = executed
        if fetch_fault:
            raise TripleFault(
                f"instruction fetch from unmapped rip {cpu.rip:#x}")
        return executed

    def run(self, max_steps: int = 50_000_000) -> GuestExit:
        """Run until the guest exits; returns the exit event."""
        for _ in range(max_steps):
            try:
                self.step()
            except GuestExit as exit_event:
                return exit_event
        raise ExecutionError(f"guest did not exit within {max_steps} steps")

    def resume_with_input(self, dest: str, value: int) -> None:
        """Complete a pending ``in`` by writing the port value to ``dest``."""
        self.cpu.write_reg(dest, value)
