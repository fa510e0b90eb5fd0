"""Hardware virtualization: the virtual-machine control structure and
world switches.

A :class:`VirtualMachine` bundles a vCPU, guest physical memory, and an
interpreter, and implements the ``vmrun``/``#VMEXIT`` world switches with
their cycle costs.  First-touch EPT faults are charged here: the first
guest store to a previously-untouched page costs
``EPT_FIRST_TOUCH_FAULT`` (modelling the EPT-violation exit and host-side
EPT construction inside KVM), which is the dominant component of the
paper's "Paging identity mapping" row in Table 1.

A zero-cost *debug port* (:data:`DEBUG_PORT`) lets guest code record
milestone timestamps without perturbing the measurement -- the moral
equivalent of the guest-side ``rdtsc`` instrumentation the paper uses for
Table 1 and Figure 4.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.hw.clock import Clock
from repro.hw.costs import COSTS, CostModel
from repro.hw.cpu import CPU
from repro.hw.isa import (
    HaltExit,
    Interpreter,
    IOInExit,
    IOOutExit,
    Program,
    TripleFault,
)
from repro.hw.memory import GuestMemory
from repro.replay.stream import NO_RECORD, InterfaceRecorder
from repro.trace.tracer import NO_TRACE, Category, Tracer

#: Magic, zero-cost instrumentation port (simulation-only; see module doc).
DEBUG_PORT = 0xE9

#: ``ExitInfo.detail`` value when a run exhausted its step budget.  The
#: hypervisor promotes this to a typed ``VirtineTimeout`` so a runaway
#: guest is distinguishable from a clean halt.
STEP_BUDGET_EXHAUSTED = "step budget exhausted"


class ExitReason(enum.Enum):
    """Why control returned to the hypervisor."""

    HLT = "hlt"
    IO_OUT = "io_out"
    IO_IN = "io_in"
    SHUTDOWN = "shutdown"


@dataclass
class ExitInfo:
    """Description of one VM exit."""

    reason: ExitReason
    port: int = 0
    value: int = 0
    in_dest: str = ""
    detail: str = ""
    #: Interpreter steps executed during this run (timeout accounting).
    steps: int = 0


@dataclass
class Milestone:
    """A guest-recorded timestamp (via the debug port)."""

    marker: int
    cycles: int


class VirtualMachine:
    """One hardware virtual context (VMCB/VMCS + vCPU + guest memory)."""

    def __init__(
        self,
        memory_size: int,
        clock: Clock,
        costs: CostModel = COSTS,
        tracer: Tracer | None = None,
        recorder: InterfaceRecorder | None = None,
        *,
        engine: str = "fast+jit",
        jit_domain=None,
    ) -> None:
        self.clock = clock
        self.costs = costs
        #: Cycle tracer (disabled by default; charges nothing, ever).
        self.tracer = tracer if tracer is not None else NO_TRACE
        #: Boundary-stream recorder (disabled by default; records nothing).
        self.recorder = recorder if recorder is not None else NO_RECORD
        #: Interpreter engine and JIT domain, consumed by
        #: :meth:`_make_interpreter`.
        self.engine = engine
        self.jit_domain = jit_domain
        self.cpu = CPU()
        self.memory = self._make_memory(memory_size)
        self.memory.on_first_touch = self._ept_fault
        self.memory.on_cow_break = self._cow_break
        self.interp = self._make_interpreter()
        if self.recorder.enabled and self.interp is not None:
            self.interp.on_component = self._record_component
        self.milestones: list[Milestone] = []
        self.ept_faults = 0
        self.ept_fault_cycles = 0
        self.cow_breaks = 0
        self._in_guest = False

    # Factory hooks so the replay substrate can substitute a stream-fed
    # memory and an interpreter-free guest (see repro.replay.substrate).
    def _make_memory(self, size: int) -> GuestMemory:
        return GuestMemory(size)

    def _make_interpreter(self) -> Interpreter:
        return Interpreter(self.cpu, self.memory, self.clock, self.costs,
                           tracer=self.tracer, engine=self.engine,
                           jit_domain=self.jit_domain)

    def _record_component(self, name: str, cycles: int) -> None:
        self.recorder.segment_component(name, cycles, Category.BOOT.value,
                                        self.clock.cycles)

    # -- EPT model -------------------------------------------------------------
    def _ept_fault(self, page: int) -> None:
        # Host-side writes (image loads, snapshot restores) are performed
        # through load_bytes()/copy_from() which bypass touch tracking, so
        # only *guest* stores land here.
        if not self._in_guest:
            return
        self.clock.advance(self.costs.EPT_FIRST_TOUCH_FAULT)
        self.ept_faults += 1
        self.ept_fault_cycles += self.costs.EPT_FIRST_TOUCH_FAULT
        comp = self.interp.component_cycles
        comp["ept faults"] = comp.get("ept faults", 0) + self.costs.EPT_FIRST_TOUCH_FAULT
        self.tracer.component("ept faults", self.costs.EPT_FIRST_TOUCH_FAULT,
                              Category.VMM)
        self.recorder.segment_component("ept faults",
                                        self.costs.EPT_FIRST_TOUCH_FAULT,
                                        Category.VMM.value, self.clock.cycles)

    def _cow_break(self, page: int) -> None:
        # First write to a page restored copy-on-write: take the
        # write-protection fault and copy the 4 KB page.  Charged whether
        # the writer is the guest or a host-side marshalling copy (both
        # materialise the private page).
        cost = self.costs.COW_BREAK_FAULT + self.costs.memcpy(4096)
        self.clock.advance(cost)
        self.cow_breaks += 1
        self.tracer.component("cow break", int(cost), Category.VMM)
        self.recorder.segment_component("cow break", int(cost),
                                        Category.VMM.value, self.clock.cycles)

    # -- program management -------------------------------------------------------
    def load_program(self, program: Program) -> None:
        """Load a program image into guest memory and point RIP at it."""
        self.interp.load_program(program)

    # -- world switches ----------------------------------------------------------------
    def vmrun(self, max_steps: int = 50_000_000) -> ExitInfo:
        """Enter the guest (``vmrun``) and run until the next ``#VMEXIT``.

        The entry and exit world-switch costs are charged here; the KVM
        layer adds its ioctl/ring costs on top.
        """
        span = self.tracer.begin("vmrun", Category.VMM)
        self.clock.advance(self.costs.VMRUN_ENTRY)
        self.recorder.vmexit_begin(self.clock.cycles)
        self._in_guest = True
        try:
            info = self._run_until_exit(max_steps)
            self.recorder.vmexit_end(self.clock.cycles, info, self.cpu)
            span.annotate(exit_reason=info.reason.value, steps=info.steps)
            return info
        finally:
            self._in_guest = False
            self.clock.advance(self.costs.VMRUN_EXIT)
            self.tracer.end(span)

    def _run_until_exit(self, max_steps: int) -> ExitInfo:
        # The interpreter runs the hot loop in bulk (run_steps); exits
        # surface as exceptions whose completed-step count is read back
        # from last_run_steps, which -- like the per-step loop this
        # replaces -- never counts the exiting instruction itself.
        interp = self.interp
        steps = 0
        while steps < max_steps:
            try:
                steps += interp.run_steps(max_steps - steps)
            except HaltExit:
                return ExitInfo(reason=ExitReason.HLT,
                                steps=steps + interp.last_run_steps)
            except IOOutExit as io:
                steps += interp.last_run_steps
                if io.port == DEBUG_PORT:
                    self.milestones.append(
                        Milestone(marker=io.value, cycles=self.clock.cycles))
                    self.tracer.instant(f"milestone:{io.value}", Category.GUEST,
                                        marker=io.value)
                    self.recorder.segment_milestone(io.value, self.clock.cycles)
                    continue
                return ExitInfo(reason=ExitReason.IO_OUT, port=io.port,
                                value=io.value, steps=steps)
            except IOInExit as io:
                return ExitInfo(reason=ExitReason.IO_IN, port=io.port,
                                in_dest=io.dest,
                                steps=steps + interp.last_run_steps)
            except TripleFault as fault:
                return ExitInfo(reason=ExitReason.SHUTDOWN, detail=fault.reason,
                                steps=steps + interp.last_run_steps)
        return ExitInfo(reason=ExitReason.SHUTDOWN, detail=STEP_BUDGET_EXHAUSTED, steps=steps)

    def complete_io_in(self, dest: str, value: int) -> None:
        """Provide the value for a pending ``in`` before re-entering."""
        self.interp.resume_with_input(dest, value)

    # -- lifecycle ---------------------------------------------------------------------
    def reset(self) -> None:
        """Architectural reset (registers + mode); memory is left intact."""
        self.cpu.reset()
        self.interp.mark_entry()
        self.milestones.clear()

    def clear_memory(self) -> int:
        """Zero the guest's dirty pages; returns the memset's cycle cost.

        Only pages the previous occupant wrote need clearing, so the cost
        scales with the working set rather than the full guest memory.
        The EPT (touch tracking) survives: the virtual context keeps its
        host-side mappings, which is precisely why recycled shells are
        cheap (Section 5.2).
        """
        cleared = self.memory.clear_dirty()
        self.recorder.mem_clear(cleared)
        return self.costs.memset(cleared)

    def milestone_deltas(self) -> dict[int, int]:
        """Map marker id -> cycles elapsed since the previous milestone."""
        deltas: dict[int, int] = {}
        prev: int | None = None
        for milestone in self.milestones:
            if prev is not None:
                deltas[milestone.marker] = milestone.cycles - prev
            prev = milestone.cycles
        return deltas
