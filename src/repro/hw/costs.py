"""The calibrated cycle-cost model.

Every cycle charged anywhere in the simulation traces back to a constant in
this module.  The constants are calibrated against the numbers the paper
reports for its primary testbed *tinker* (AMD EPYC 7281, 2.69 GHz,
Linux 5.9.12 with KVM):

=============================  =====================  =======================
Paper source                   Reported value         Constant(s) here
=============================  =====================  =======================
Table 1, ident-map paging      28,109 cycles          emerges from
                                                      ``EPT_FIRST_TOUCH_FAULT``
                                                      + per-store costs in the
                                                      boot code (3 table pages
                                                      zeroed + 514 entries)
Table 1, protected transition  3,217 cycles           ``CR0_PE_FLIP``
Table 1, long transition       681 cycles             ``LGDT_PROTECTED``
Table 1, jump to 32-bit        175 cycles             ``LJMP_TO_32``
Table 1, jump to 64-bit        190 cycles             ``LJMP_TO_64``
Table 1, load 32-bit GDT       4,118 cycles           ``LGDT_REAL``
Table 1, first instruction     74 cycles              ``FIRST_INSTRUCTION``
Fig. 2 "function"              ~30 cycles             ``FUNCTION_CALL``
Fig. 2 "vmrun"                 few thousand cycles    ``VMRUN_ENTRY`` +
                                                      ``VMRUN_EXIT`` +
                                                      ``IOCTL_OVERHEAD``
Fig. 2 "Linux pthread"         tens of thousands      ``PTHREAD_CREATE_JOIN``
Fig. 2 "KVM" (create + hlt)    hundreds of thousands  ``KVM_CREATE_VM_BASE``…
Fig. 8 "Linux process"         ~1 ms                  ``PROCESS_SPAWN``
Fig. 8 "SGX Create"/"ECALL"    ms / ~10 K cycles      ``SGX_CREATE``,
                                                      ``SGX_ECALL``
Sec. 6.2 memcpy bandwidth      6.7 GB/s               ``MEMCPY_CYCLES_PER_BYTE``
Sec. 6.3 hypercall exits       "doubly expensive"     ``RING_TRANSITION``
                               (ring transitions)     charged twice per
                                                      hypercall round trip
=============================  =====================  =======================

The higher-level results (pool hit latency within 4 % of vmrun, the 100 us
amortisation point, the 1-2 MB memcpy knee, HTTP/JS slowdowns, serverless
tail behaviour) are *not* constants -- they emerge from executing the real
Wasp code paths against this table.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.units import gb_per_s_to_cycles_per_byte, us_to_cycles


@dataclass(frozen=True)
class CostModel:
    """Cycle costs for the simulated platform (immutable).

    A single shared instance (:data:`COSTS`) is used throughout; tests may
    construct modified copies with :func:`dataclasses.replace` to explore
    sensitivity (e.g. the ablation benchmarks).

    Construction checks that every ``int`` field holds a non-negative
    ``int`` and every ``float`` rate a non-negative number.  So a charge
    built from ``int`` fields (a sum, or :meth:`memcpy` and the other
    helpers, which truncate) is a non-negative ``int``, and hot paths add
    it to :attr:`Clock.cycles <repro.hw.clock.Clock.cycles>` directly
    instead of going through :meth:`Clock.advance
    <repro.hw.clock.Clock.advance>`: the clock still never runs
    backwards, and stays an ``int``.
    """

    # --- plain instruction execution -------------------------------------
    #: Base cost of one simple ALU/branch instruction.
    INSN_BASE: int = 1
    #: Extra cost of an instruction with a memory operand.
    INSN_MEM: int = 4
    #: Extra cost of a call/ret pair's stack traffic (each side).
    INSN_CALL: int = 5
    #: Cost of a null function call + return on the host ("function" in
    #: Figure 2).
    FUNCTION_CALL: int = 30

    # --- mode transitions (Table 1) ---------------------------------------
    #: ``mov cr0`` flipping CR0.PE (protected-mode transition).
    CR0_PE_FLIP: int = 3217
    #: ``lgdt`` executed from real mode (emulated slowly; "Load 32-bit GDT").
    LGDT_REAL: int = 4118
    #: ``lgdt`` executed from protected/long mode ("Long transition").
    LGDT_PROTECTED: int = 681
    #: Far jump that completes the switch into 32-bit protected mode.
    LJMP_TO_32: int = 175
    #: Far jump that completes the switch into 64-bit long mode.
    LJMP_TO_64: int = 190
    #: Cost to fetch/decode the very first instruction after VM entry.
    FIRST_INSTRUCTION: int = 74
    #: ``mov cr3`` (page-table base install, includes TLB flush).
    CR3_LOAD: int = 350
    #: ``mov cr4`` / ``wrmsr EFER`` style control-register writes.
    CR_WRITE: int = 120
    #: Enabling CR0.PG (paging on; the walk of the first mapping).
    CR0_PG_FLIP: int = 450

    # --- memory system -----------------------------------------------------
    #: First-touch cost of a guest page: EPT violation exit, host-side
    #: allocation, and EPT entry construction inside KVM.  Three page-table
    #: pages are touched while building the identity map, so this constant
    #: dominates Table 1's 28,109-cycle "Paging identity mapping" row.
    EPT_FIRST_TOUCH_FAULT: int = 7265
    #: Cost of an 8-byte guest store (beyond INSN_BASE/INSN_MEM).
    STORE8: int = 2
    #: memcpy/memset cost per byte (tinker measures 6.7 GB/s, Section 6.2).
    MEMCPY_CYCLES_PER_BYTE: float = gb_per_s_to_cycles_per_byte(6.7)
    #: Copy-on-write restore: establishing one shared, read-only mapping
    #: to a snapshot page (page-table entry write + bookkeeping).
    COW_MAP_PER_PAGE: int = 110
    #: Copy-on-write break: the write-protection fault taken on the
    #: first store to a shared page (the 4 KB copy is charged on top).
    COW_BREAK_FAULT: int = 2200
    #: Integrity-checksum cost per byte (hardware ``crc32`` sustains
    #: ~8 bytes/cycle; snapshot verification before restore).
    CHECKSUM_CYCLES_PER_BYTE: float = 0.125

    # --- host kernel -------------------------------------------------------
    #: User->kernel->user ring transition pair for one syscall.
    RING_TRANSITION: int = 700
    #: Fixed in-kernel dispatch overhead of an ioctl beyond the ring cost.
    IOCTL_OVERHEAD: int = 400
    #: In-kernel work for an ordinary syscall (read/write/stat/...).
    SYSCALL_BODY: int = 600
    #: pthread_create + pthread_join round trip ("Linux pthread", Fig. 2).
    PTHREAD_CREATE_JOIN: int = 27000
    #: fork+exec of a minimal process ("Linux process", Fig. 8).
    PROCESS_SPAWN: int = us_to_cycles(380.0)
    #: Container creation on top of a process (namespaces, cgroups, rootfs).
    CONTAINER_EXTRA: int = us_to_cycles(120_000.0)  # ~120 ms cold start

    # --- hardware virtualization -------------------------------------------
    #: Host-side KVM_CREATE_VM: VM file descriptor, VMCB/VMCS allocation.
    KVM_CREATE_VM_BASE: int = 180_000
    #: KVM_CREATE_VCPU: vCPU state allocation.
    KVM_CREATE_VCPU: int = 65_000
    #: KVM_SET_USER_MEMORY_REGION: memslot registration.
    KVM_SET_MEMORY_REGION: int = 30_000
    #: Hardware ``vmrun``/VMLAUNCH world switch into the guest.
    VMRUN_ENTRY: int = 1000
    #: Hardware ``#VMEXIT`` world switch back to the host.
    VMRUN_EXIT: int = 1100
    #: KVM sanity checks on the KVM_RUN path before vmrun.
    KVM_RUN_CHECKS: int = 400
    #: Wasp-side bookkeeping to pop/push a shell on the pool free list.
    #: Small by design: this is what keeps "Wasp+CA" within 4 % of a bare
    #: vmrun (Section 5.2).
    POOL_BOOKKEEPING: int = 60

    # --- isolation-backend cost classes (Table 2 spectrum) -----------------
    # Per the timing-simulation argument (Mhatre & Chandran, PAPERS.md),
    # each mechanism's boundary crossings get their own calibrated cost
    # classes rather than sharing one generic "switch" constant.
    #: Scheduler context switch between host threads/processes (dequeue,
    #: state save/restore, wakeup latency) -- one direction.
    CONTEXT_SWITCH: int = 6000
    #: ``prctl(PR_SET_SYSCALL_USER_DISPATCH, ...)`` registration: one
    #: syscall plus the kernel-side selector bookkeeping.  This is the
    #: whole creation cost of an in-process SUD context -- near zero.
    PRCTL_SUD_SETUP: int = 900
    #: A store to the per-thread SUD selector byte (allow <-> block).
    SUD_SELECTOR_WRITE: int = 6
    #: SIGSYS delivery for a syscall trapped by Syscall User Dispatch:
    #: kernel signal frame setup + handler entry.
    SIGSYS_TRAP: int = 3600
    #: ``sigreturn`` back out of the trap handler.
    SIGRETURN: int = 1400
    #: One ``mprotect`` call over a privileged region (syscall + page
    #: table update + TLB shootdown).
    MPROTECT_REGION: int = 1800
    #: Userland scheduler decision after a trap bounces control back
    #: (the vk_isolate-style "hand control to a scheduler callback").
    SCHED_BOUNCE: int = 250
    #: ``unshare``/``clone`` flags for one namespace (mnt/pid/net/ipc/uts).
    NAMESPACE_CLONE: int = us_to_cycles(180.0)
    #: cgroup hierarchy setup for a fresh sandbox.
    CGROUP_SETUP: int = us_to_cycles(350.0)
    #: ``pivot_root`` + minimal rootfs bind mounts.
    ROOTFS_PIVOT: int = us_to_cycles(600.0)
    #: Installing one seccomp-BPF filter rule (load-time, per rule).
    SECCOMP_LOAD_PER_RULE: int = 320
    #: Evaluating one rule of the seccomp filter chain (per syscall).
    SECCOMP_EVAL_PER_RULE: int = 18
    #: Fixed per-syscall seccomp entry overhead before the chain walks.
    SECCOMP_EVAL_BASE: int = 260

    # --- SGX comparison (Fig. 8, measured on the Comet Lake machine) -------
    #: ECREATE/EADD/EINIT for a minimal enclave.
    SGX_CREATE: int = us_to_cycles(5600.0)
    #: One ECALL into an existing enclave.
    SGX_ECALL: int = 14_000

    # --- guest application cost model ---------------------------------------
    #: Cycles charged per *hosted-guest* Python-level call.  Chosen so a
    #: recursive ``fib(20)`` costs ~100 us of guest work, matching the knee
    #: of Figure 11 (virtine overheads amortised by ~100 us of work).
    GUEST_CALL: int = 12
    #: Cycles charged per byte processed by bulk guest compute loops
    #: (cipher rounds, base64, string handling), beyond explicit charges.
    GUEST_BYTE: float = 0.5
    #: One-time initialisation of the guest libc (the newlib-analog's
    #: startup: heap setup, stdio structures, reentrancy state).  This is
    #: the work snapshotting elides for C-extension virtines (Figure 7).
    GUEST_LIBC_INIT: int = 15_000
    #: Per-argument marshalling bookkeeping on top of the byte copies.
    MARSHAL_PER_ARG: int = 80

    # --- network loopback model ---------------------------------------------
    #: One-way latency for a loopback packet beyond the syscall costs
    #: (kernel network stack traversal, softirq delivery, wakeup).  Sized
    #: to a realistic localhost TCP hop so the HTTP experiments' fixed
    #: virtine overhead sits in the paper's proportion of a request.
    LOOPBACK_LATENCY: int = us_to_cycles(55.0)

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if field.type == "int":
                valid = type(value) is int and value >= 0
            else:
                valid = type(value) in (int, float) and value >= 0
            if not valid:
                raise ValueError(f"cost {field.name} must be a non-negative "
                                 f"{field.type}, got {value!r}")

    # Derived helpers --------------------------------------------------------
    def memcpy(self, nbytes: int) -> int:
        """Cycles to copy ``nbytes`` at tinker's memcpy bandwidth."""
        return int(nbytes * self.MEMCPY_CYCLES_PER_BYTE)

    def memset(self, nbytes: int) -> int:
        """Cycles to clear ``nbytes`` (same bandwidth as memcpy)."""
        return int(nbytes * self.MEMCPY_CYCLES_PER_BYTE)

    def checksum(self, nbytes: int) -> int:
        """Cycles to checksum ``nbytes`` (snapshot integrity checks)."""
        return int(nbytes * self.CHECKSUM_CYCLES_PER_BYTE)

    def syscall(self) -> int:
        """Cycles for one ordinary host syscall round trip."""
        return self.RING_TRANSITION + self.SYSCALL_BODY

    def ioctl(self) -> int:
        """Cycles for one ioctl round trip (excluding in-kernel work)."""
        return self.RING_TRANSITION + self.IOCTL_OVERHEAD

    def vmrun_roundtrip(self) -> int:
        """The "hardware limit": KVM_RUN ioctl + vmrun + immediate exit.

        This is the "vmrun" series of Figures 2 and 8 -- entering an
        already-constructed virtual context and exiting immediately.
        """
        return (
            self.ioctl() + self.KVM_RUN_CHECKS + self.VMRUN_ENTRY + self.VMRUN_EXIT
        )


#: The shared, calibrated cost model instance.
COSTS = CostModel()
