"""Syscall-User-Dispatch gated in-process virtines (the vk_isolate point).

Models mnvkd's ``vk_isolate`` design (SNIPPETS.md): the isolated
function runs *in the host process*, with

* a ``prctl(PR_SET_SYSCALL_USER_DISPATCH)``-registered selector byte
  deciding whether syscalls pass through or trap as SIGSYS,
* privileged memory (the scheduler's own pages) masked ``PROT_NONE``
  with ``mprotect`` while guest code runs, and
* every trapped syscall bouncing through a userland scheduler: SIGSYS
  handler re-enables syscalls, unmasks the privileged pages, hands
  control to the scheduler callback, then re-arms the gate on the way
  back in.

Creation is near zero (one prctl + one mprotect) -- this is the point of
the mechanism -- but *every* host interaction pays the trap/bounce/
sigreturn tax, the exact inverse of the virtine trade (expensive-ish
creation amortised by cheap crossings).  The gate is an explicit state
machine whose transitions *return* their cycle costs (the caller
charges the clock), so the live dispatch path and the Hypothesis suite
drive the very same object: re-enable-on-trap must never leave the gate
open after the bounce completes.
"""

from __future__ import annotations

import enum

from repro.host.backend import BackendCaps, BackendViolation, IsolationBackend, IsolationContext
from repro.hw.costs import CostModel
from repro.wasp.hypercall import Hypercall
from repro.wasp.virtine import Virtine


class SudViolation(BackendViolation):
    """Guest code broke the SUD contract (touched a masked privileged
    page, re-entered the trap handler, issued a syscall with the gate in
    an impossible state).  Maps to a GuestFault."""


class GateState(enum.Enum):
    """The per-thread SUD selector byte."""

    #: ``SYSCALL_USER_DISPATCH_BLOCK``: guest code is running; any
    #: syscall outside the allowed region traps as SIGSYS.
    BLOCK = "block"
    #: ``SYSCALL_USER_DISPATCH_ALLOW``: the scheduler/handler is running;
    #: syscalls pass straight through to the kernel.
    ALLOW = "allow"


class SudGate:
    """The selector-byte state machine, with privileged-page masking.

    One instance per context.  Every transition returns the cycles it
    costs (the caller advances the clock), keeping the state machine
    pure enough for property testing while the dispatch path charges
    the identical amounts.  The invariant the property tests pin: every
    completed transition leaves :attr:`open_for_guest_syscalls` False --
    a crash mid-bounce must not leave a window where guest code runs
    with syscalls enabled.
    """

    def __init__(self, costs: CostModel) -> None:
        self.costs = costs
        self.state = GateState.ALLOW
        self.privileged_masked = False
        self.traps = 0
        self.violations = 0

    # -- lifecycle ---------------------------------------------------------
    def enter_guest(self) -> int:
        """Mask privileged pages, flip the selector, run guest code."""
        if self.state is not GateState.ALLOW:
            self.violations += 1
            raise SudViolation("enter_guest with the gate already blocked")
        self.privileged_masked = True
        self.state = GateState.BLOCK
        return self.costs.MPROTECT_REGION + self.costs.SUD_SELECTOR_WRITE

    def trap_syscall(self) -> int:
        """A guest syscall hit the gate: SIGSYS, re-enable, unmask, bounce.

        This is the vk_isolate "signal handler re-enables syscalls ...
        and hands control over to a scheduler callback" sequence; the
        cost is the per-interaction tax of the whole mechanism.
        """
        if self.state is not GateState.BLOCK:
            # A SIGSYS with syscalls already allowed means the handler
            # re-entered itself: the gate was left open.
            self.violations += 1
            raise SudViolation("SIGSYS trap with the gate already open")
        self.traps += 1
        self.state = GateState.ALLOW
        self.privileged_masked = False
        return (self.costs.SIGSYS_TRAP + self.costs.SUD_SELECTOR_WRITE
                + self.costs.MPROTECT_REGION + self.costs.SCHED_BOUNCE)

    def resume_guest(self) -> int:
        """Scheduler hands control back: re-mask, re-arm, sigreturn."""
        if self.state is not GateState.ALLOW:
            self.violations += 1
            raise SudViolation("resume_guest without a completed bounce")
        self.privileged_masked = True
        self.state = GateState.BLOCK
        return (self.costs.MPROTECT_REGION + self.costs.SUD_SELECTOR_WRITE
                + self.costs.SIGRETURN)

    def exit_guest(self) -> int:
        """Guest code finished: unmask and leave the gate open."""
        cycles = 0
        if self.state is GateState.BLOCK:
            cycles += self.costs.SUD_SELECTOR_WRITE
            self.state = GateState.ALLOW
        if self.privileged_masked:
            cycles += self.costs.MPROTECT_REGION
            self.privileged_masked = False
        return cycles

    def touch_privileged(self) -> None:
        """Guest code dereferenced a masked privileged page: SIGSEGV."""
        self.violations += 1
        raise SudViolation("guest touched a PROT_NONE privileged page")

    @property
    def open_for_guest_syscalls(self) -> bool:
        """True when guest code could issue an unmediated syscall -- the
        property tests assert this is never observable after a bounce."""
        return self.state is GateState.ALLOW and self.privileged_masked


class SudBackend(IsolationBackend):
    """In-process SUD-gated contexts: near-zero creation, taxed crossings."""

    name = "sud"
    caps = BackendCaps(snapshot=False, pooled=False, in_process=True,
                       kill_on_violation=False)

    def creation_cycles(self) -> int:
        # prctl registration + the initial privileged-region mprotect.
        return self.costs.PRCTL_SUD_SETUP + self.costs.MPROTECT_REGION

    def teardown_cycles(self) -> int:
        # Dropping the dispatch registration is another prctl.
        return self.costs.PRCTL_SUD_SETUP

    def enter_cycles(self) -> int:
        return (self.costs.MPROTECT_REGION + self.costs.SUD_SELECTOR_WRITE
                + self.costs.SCHED_BOUNCE)

    def exit_cycles(self) -> int:
        return self.costs.SUD_SELECTOR_WRITE + self.costs.MPROTECT_REGION

    def gate_out_cycles(self, virtine: Virtine, nr: Hypercall) -> int:
        # The live gate performs the SIGSYS bounce; the returned cost is
        # what the dispatch path charges.
        gate = self._gate_of(virtine)
        if gate is None:
            return (self.costs.SIGSYS_TRAP + self.costs.SUD_SELECTOR_WRITE
                    + self.costs.MPROTECT_REGION + self.costs.SCHED_BOUNCE)
        return gate.trap_syscall()

    def gate_back_cycles(self, virtine: Virtine, nr: Hypercall) -> int:
        gate = self._gate_of(virtine)
        if gate is None:
            return (self.costs.MPROTECT_REGION + self.costs.SUD_SELECTOR_WRITE
                    + self.costs.SIGRETURN)
        return gate.resume_guest()

    @staticmethod
    def _gate_of(virtine: Virtine) -> SudGate | None:
        state = getattr(virtine.shell, "state", None)
        return state.get("gate") if state is not None else None

    # -- lifecycle ---------------------------------------------------------
    def create(self, memory_size: int = 4 * 1024 * 1024) -> IsolationContext:
        ctx = super().create(memory_size)
        # The prctl registration is already inside creation_cycles(), so
        # the gate is built armed rather than charged twice.
        ctx.state["gate"] = SudGate(self.costs)
        return ctx

    def prepare_launch(self, virtine: Virtine) -> None:
        gate = virtine.shell.state["gate"]
        gate.state = GateState.ALLOW
        gate.privileged_masked = False
        # The host charges enter_cycles() right after this hook; the
        # gate transition here arms the selector without double-charging.
        gate.enter_guest()
