"""Guest boot code, in the mini-ISA assembly dialect.

This is the analogue of the paper's "roughly 160 lines of assembly" that
"closely mirrors the boot sequence of a classic OS kernel: it configures
protected mode, a GDT, paging, and finally jumps to 64-bit code"
(Section 4.2).  The sources are generated as text and assembled by
:class:`repro.hw.isa.Assembler`, so every boot cost in Table 1 emerges
from executed instructions:

* ``lgdt`` from real mode        -> "Load 32-bit GDT"
* CR0.PE flip                    -> "Protected transition"
* ``ljmp`` into 32-bit code      -> "Jump to 32-bit"
* 514 page-table entry stores + 3 first-touch EPT faults
                                 -> "Paging identity mapping"
  (each store is charged its cycles one by one, even where the
  superblock JIT retires ``pd_loop`` in bulk on the host)
* ``lgdt`` from protected mode   -> "Long transition"
* ``ljmp`` into 64-bit code      -> "Jump to 64-bit"

Milestone markers (outs to the zero-cost debug port) bracket each
component so the Table 1 benchmark can recover per-component deltas, just
as the artifact's guest-side ``rdtsc`` instrumentation does.
"""

from __future__ import annotations

from repro.hw.cpu import Mode
from repro.hw.isa import MAIN_ENTRY_MARKER

#: Where Wasp loads virtine binaries (Section 5.1).
IMAGE_BASE = 0x8000
#: Static GDT location (below the image).
GDT_ADDR = 0x6000
#: Base of the three identity-map table pages (PML4, PDPT, PD).
PAGE_TABLE_BASE = 0x100000
#: Real-mode stack top.
REAL_STACK = 0x7000
#: Protected/long-mode stack top.
HIGH_STACK = 0x200000

# Milestone markers recorded via the debug port.
MS_BOOT_START = 0
MS_AFTER_LGDT32 = 1
MS_AFTER_PE = 2
MS_IN_PROT32 = 3
MS_AFTER_IDENT_MAP = 4
MS_PAGING_ON = 5
MS_AFTER_LGDT64 = 6
MS_IN_LONG64 = 7
MS_MAIN_ENTRY = MAIN_ENTRY_MARKER

_PTE_FLAGS = 0x3  # PRESENT | WRITABLE
_PDE_LARGE_FLAGS = 0x83  # PRESENT | WRITABLE | LARGE


def _prologue_real() -> str:
    """Real-mode entry: disable interrupts, set a stack."""
    return f"""
_start:
    cli
    mov sp, {REAL_STACK:#x}
    out 0xE9, {MS_BOOT_START}
"""


def _to_protected() -> str:
    """Real -> protected: load GDT, flip CR0.PE, far jump."""
    return f"""
    lgdt {GDT_ADDR:#x}
    out 0xE9, {MS_AFTER_LGDT32}
    mov bx, cr0
    or bx, 1
    mov cr0, bx
    out 0xE9, {MS_AFTER_PE}
    ljmp mode32, prot_entry
prot_entry:
    out 0xE9, {MS_IN_PROT32}
    mov sp, {HIGH_STACK:#x}
"""


def _build_identity_map() -> str:
    """Protected-mode construction of the 1 GB identity map.

    One PML4 entry, one PDPT entry, and 512 2 MB PD entries: 514 64-bit
    stores touching three previously-untouched table pages ("12 KB of
    memory references", Section 4.2).
    """
    pml4 = PAGE_TABLE_BASE
    pdpt = PAGE_TABLE_BASE + 0x1000
    pd = PAGE_TABLE_BASE + 0x2000
    return f"""
    mov di, {pml4:#x}
    mov ax, {pdpt | _PTE_FLAGS:#x}
    stos64
    mov di, {pdpt:#x}
    mov ax, {pd | _PTE_FLAGS:#x}
    stos64
    mov di, {pd:#x}
    mov ax, {_PDE_LARGE_FLAGS:#x}
    mov cx, 512
pd_loop:
    stos64
    add ax, 0x200000
    dec cx
    jnz pd_loop
    out 0xE9, {MS_AFTER_IDENT_MAP}
"""


def _to_long() -> str:
    """Protected -> long: PAE, CR3, EFER.LME, CR0.PG, GDT, far jump."""
    return f"""
    mov bx, cr4
    or bx, 0x20
    mov cr4, bx
    mov bx, {PAGE_TABLE_BASE:#x}
    mov cr3, bx
    mov cx, 0xC0000080
    mov ax, 0x100
    mov dx, 0
    wrmsr
    mov bx, cr0
    or bx, 0x80000000
    mov cr0, bx
    out 0xE9, {MS_PAGING_ON}
    lgdt {GDT_ADDR:#x}
    out 0xE9, {MS_AFTER_LGDT64}
    ljmp mode64, long_entry
long_entry:
    out 0xE9, {MS_IN_LONG64}
    mov sp, {HIGH_STACK:#x}
"""


def boot_source(mode: Mode, body: str = "    hlt") -> str:
    """Full boot source bringing the machine up to ``mode``, then ``body``.

    ``body`` runs in the target mode; it should end with ``hlt`` or a
    hypercall.  The default body simply halts, which is the minimal
    virtine used by the image-size experiment (Figure 12).
    """
    parts = [_prologue_real()]
    if mode in (Mode.PROT32, Mode.LONG64):
        parts.append(_to_protected())
    if mode is Mode.LONG64:
        parts.append(_build_identity_map())
        parts.append(_to_long())
    parts.append(f"    out 0xE9, {MS_MAIN_ENTRY}\n")
    parts.append(body if body.endswith("\n") else body + "\n")
    return "".join(parts)


def fib_source(mode: Mode, n: int) -> str:
    """Boot to ``mode`` and run a recursive ``fib(n)`` (Figure 3's workload).

    The argument is placed in ``ax``; the result is left in ``ax`` when
    the guest halts (the hypervisor reads it from the vCPU).
    """
    if n < 0:
        raise ValueError("fib argument must be non-negative")
    body = f"""
    mov ax, {n}
    call fib
    hlt
fib:
    cmp ax, 2
    jl fib_done
    push ax
    dec ax
    call fib
    pop bx
    push ax
    mov ax, bx
    sub ax, 2
    call fib
    pop bx
    add ax, bx
fib_done:
    ret
"""
    return boot_source(mode, body)


def echo_guest_source(
    mode: Mode = Mode.PROT32,
    buffer_addr: int = 0x40000,
    max_len: int = 2048,
    conn_handle: int = 0,
) -> str:
    """A *pure assembly* echo server guest (no hosted Python at all).

    Uses the register hypercall ABI: receive into ``buffer_addr`` from
    the granted connection, send the same bytes back, exit.  Port 0x200
    is :data:`repro.wasp.hypercall.HCALL_PORT`; the numbers are the
    :class:`~repro.wasp.hypercall.Hypercall` values (RECV=7, SEND=6,
    EXIT=0).
    """
    body = f"""
    mov bx, {conn_handle}
    mov cx, {buffer_addr:#x}
    mov dx, {max_len}
    out 0x200, 7
    mov dx, ax
    mov bx, {conn_handle}
    mov cx, {buffer_addr:#x}
    out 0x200, 6
    mov bx, 0
    out 0x200, 0
"""
    return boot_source(mode, body)


def hosted_trampoline_source(mode: Mode, enter_port: int) -> str:
    """Boot to ``mode`` and transfer control to the hosted runtime.

    Application-level virtines (the C-extension POSIX environment, the
    JS engine, the HTTP handlers) boot through the same assembly bring-up
    as everything else, then issue an ``out`` on ``enter_port``; the
    hypervisor runs the image's hosted entry function in response (see
    :mod:`repro.wasp.hypervisor`).  When the hosted function finishes,
    execution resumes here and the guest halts.
    """
    body = f"""
    out {enter_port:#x}, 0
    hlt
"""
    return boot_source(mode, body)
