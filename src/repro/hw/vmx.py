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

Under the ``fast+jit`` engine an unobserved boot -- from the power-on
state to the main-entry milestone -- is recorded once per image as a
:class:`BootRecord` and then applied instead of executed; the guest
runs live from main entry (DESIGN.md SS15, "Boot replay").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from repro.hw.clock import Clock
from repro.hw.costs import COSTS, CostModel
from repro.hw.cpu import CPU, GDTR, Flags, Mode
from repro.hw.isa import (
    DEBUG_PORT,
    HaltExit,
    Interpreter,
    IOInExit,
    IOOutExit,
    Program,
    TripleFault,
)
from repro.hw.jit import MAX_BLOCK_INSNS
from repro.hw.memory import PAGE_SHIFT, PAGE_SIZE, GuestMemory
from repro.replay.stream import NO_RECORD, InterfaceRecorder
from repro.trace.tracer import NO_TRACE, Category, Tracer

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


class BootRecord(NamedTuple):
    """Every effect of one boot, from power-on to the main-entry
    milestone, as deltas (see ``VirtualMachine._run_until_exit``)."""

    #: The stored-to pages were all touched before the boot (a recycled
    #: shell: no EPT faults); otherwise none was (a fresh one).
    touched: bool
    #: Step-budget steps and clock cycles the boot took.
    steps: int
    cycles: int
    #: Least step budget that cannot bind (see _boot_budget).
    budget: int
    #: ``(marker, cycle offset)`` of each milestone.
    milestones: tuple[tuple[int, int], ...]
    #: ``component_cycles`` deltas, in first-charge order.
    components: tuple[tuple[str, int], ...]
    ept_faults: int
    ept_fault_cycles: int
    instructions: int
    #: TLB hit, miss and flush counts.
    tlb: tuple[int, int, int]
    #: ``CPU.save_state()`` at main entry.
    cpu: dict
    #: Every page the boot stored to, with its bytes at main entry.
    pages: dict[int, bytes]
    #: Pages the boot left quiet.
    quiet: frozenset[int]
    #: JIT domain counter and side-exit deltas, and hotness increments.
    counters: tuple[tuple[str, int], ...]
    side_exits: tuple[tuple[str, int], ...]
    counts: tuple[tuple[int, int], ...]


#: Flags and descriptor-table register as ``CPU.reset()`` leaves them.
_POWER_ON_FLAGS = Flags()
_POWER_ON_GDTR = GDTR()


def _boot_budget(steps: int, cycles: int) -> int:
    """The least step budget a boot of ``steps`` steps and ``cycles``
    cycles cannot feel.  With ``steps + MAX_BLOCK_INSNS`` left at every
    point, no superblock guard refuses entry and no counted store loop
    is cut short, so the JIT takes the same path as when recorded.  The
    ``cycles`` term sends deadline-sliced boots live: a budget sliced to
    a deadline (one step per cycle left, see ``Wasp._deadline_slice``)
    clears it only when the deadline falls within the entry crossing's
    cycles of the boot's end or later, where replaying ends the same."""
    return max(steps + MAX_BLOCK_INSNS, cycles) + 1


def _deltas(after: dict, before: dict) -> tuple:
    return tuple((key, value - before.get(key, 0))
                 for key, value in after.items()
                 if value != before.get(key, 0))


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
        # through load_bytes() and the restore_* methods, which bypass
        # touch tracking, so only *guest* stores land here.
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
        # Boot replay (DESIGN.md SS15): under fast+jit, a boot from the
        # power-on state to the main-entry milestone is a pure function
        # of the image, the cost model and the JIT cache, so once the
        # cache is quiescent it is recorded once and then applied, and
        # the guest runs live from main entry.
        interp = self.interp
        cache = interp._jit_cache
        if cache is None or not interp._first_instruction_pending:
            return self._run(max_steps, 0)
        end = self._boot_prefix_end()
        if end is None:
            return self._run(max_steps, 0)
        for record in cache.boots.values():
            if (max_steps >= record.budget
                    and self.memory.replayable(record.pages, record.touched)):
                self._replay_boot(record)
                cache.replays += 1
                return self._run(max_steps, record.steps)
        # Record only once the previous boot changed nothing in the
        # cache and the entry is past its warm-up: a recording fails
        # unless every PC the boot counts is, and these cheap checks
        # keep the failing attempts off the warm-up boots.
        entry = self.cpu.rip
        quiescent = (cache.boot_mark == cache.epoch
                     and (entry in cache.blocks or cache.counts.get(entry, 0)
                          >= interp._jit_domain.threshold))
        cache.boot_mark = cache.epoch
        if not quiescent:
            return self._run(max_steps, 0)
        return self._record_boot(cache, end, max_steps)

    def _boot_prefix_end(self) -> int | None:
        """RIP at main entry, if this run is a boot that may be recorded
        or replayed: nothing observes it (no tracer, recorder, component
        tap or debug ring), the vCPU is in its power-on state at the
        program's entry, no translation is cached, and the program's
        boot prefix is load-free (``Program.boot_prefix_end``)."""
        interp = self.interp
        cpu = self.cpu
        program = interp.program
        if (self.tracer.enabled or self.recorder.enabled
                or interp.on_component is not None
                or interp._trace is not None or interp._tlb
                or not self.memory.boot_ready()
                or cpu.rip != program.entry() or cpu.mode is not Mode.REAL16
                or cpu.cr0 or cpu.cr3 or cpu.cr4 or cpu.efer or cpu.halted
                or cpu.flags != _POWER_ON_FLAGS
                or cpu.gdtr != _POWER_ON_GDTR or any(cpu.regs.values())):
            return None
        return program.boot_prefix_end

    def _record_boot(self, cache, end: int, max_steps: int) -> ExitInfo:
        """Run the boot live and, if it left the cache untouched, keep
        its effects on ``cache`` as a :class:`BootRecord`."""
        interp = self.interp
        memory = self.memory
        domain = interp._jit_domain
        counts = cache.counts
        counts_before = dict(counts)
        counters_before = dict(domain.counters)
        exits_before = dict(domain.side_exits)
        epoch = cache.epoch
        start = self.clock.cycles
        first_milestone = len(self.milestones)
        ept_faults, ept_fault_cycles = self.ept_faults, self.ept_fault_cycles
        cow_breaks = self.cow_breaks
        retired = interp.instructions_retired
        tlb = (interp.tlb_hits, interp.tlb_misses, interp.tlb_flushes)
        version = memory.translation_version
        # Fresh component and dirty sets make the boot's own charges and
        # stores visible in first-charge order; both merge back below.
        components = interp.component_cycles
        interp.component_cycles = {}
        log = memory.log_stores()
        try:
            steps = self._run(max_steps, 0, until=end)
        finally:
            charged = interp.component_cycles
            interp.component_cycles = components
            for name, cycles in charged.items():
                components[name] = components.get(name, 0) + cycles
            pages, quiet = memory.end_store_log(log)
        if isinstance(steps, ExitInfo):
            return steps
        faults = self.ept_faults - ept_faults
        cycles = self.clock.cycles - start
        budget = _boot_budget(steps, cycles)
        threshold = domain.threshold
        if (cache.epoch == epoch and self.cow_breaks == cow_breaks
                and memory.translation_version == version
                and not interp._tlb and log.zeroed
                and faults in (0, len(pages)) and max_steps >= budget):
            bumped = _deltas(counts, counts_before)
            if all(counts_before.get(pc, 0) >= threshold
                   for pc, _ in bumped):
                data = memory.read
                cache.boots[not faults] = BootRecord(
                    touched=not faults, steps=steps, cycles=cycles,
                    budget=budget,
                    milestones=tuple(
                        (m.marker, m.cycles - start)
                        for m in self.milestones[first_milestone:]),
                    components=tuple(charged.items()),
                    ept_faults=faults,
                    ept_fault_cycles=self.ept_fault_cycles - ept_fault_cycles,
                    instructions=interp.instructions_retired - retired,
                    tlb=(interp.tlb_hits - tlb[0], interp.tlb_misses - tlb[1],
                         interp.tlb_flushes - tlb[2]),
                    cpu=self.cpu.save_state(),
                    pages={page: data(page << PAGE_SHIFT, PAGE_SIZE)
                           for page in sorted(pages)},
                    quiet=quiet,
                    counters=_deltas(domain.counters, counters_before),
                    side_exits=_deltas(domain.side_exits, exits_before),
                    counts=bumped)
        return self._run(max_steps, steps)

    def _replay_boot(self, record: BootRecord) -> None:
        """Apply ``record``: the state the live boot would reach."""
        interp = self.interp
        start = self.clock.cycles
        self.clock.advance(record.cycles)
        self.milestones.extend(Milestone(marker=marker, cycles=start + offset)
                               for marker, offset in record.milestones)
        components = interp.component_cycles
        for name, cycles in record.components:
            components[name] = components.get(name, 0) + cycles
        self.ept_faults += record.ept_faults
        self.ept_fault_cycles += record.ept_fault_cycles
        interp.instructions_retired += record.instructions
        hits, misses, flushes = record.tlb
        interp.tlb_hits += hits
        interp.tlb_misses += misses
        interp.tlb_flushes += flushes
        interp._first_instruction_pending = False
        self.cpu.load_state(record.cpu)
        self.memory.replay_stores(record.pages, record.quiet)
        domain = interp._jit_domain
        for name, delta in record.counters:
            domain.counters[name] += delta
        for reason, delta in record.side_exits:
            domain.side_exits[reason] += delta
        counts = interp._jit_counts
        for pc, delta in record.counts:
            counts[pc] += delta

    def _run(self, max_steps: int, steps: int,
             until: int | None = None) -> ExitInfo | int:
        """Run from ``steps`` steps taken until the next exit; with
        ``until``, return the steps taken instead as soon as a debug-port
        milestone leaves RIP there (the end of a recorded boot)."""
        # The interpreter runs the hot loop in bulk (run_steps); exits
        # surface as exceptions whose completed-step count is read back
        # from last_run_steps, which -- like the per-step loop this
        # replaces -- never counts the exiting instruction itself.
        interp = self.interp
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
                    if self.cpu.rip == until:
                        return steps
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

    def restore_memory(self, snap, cow: bool) -> None:
        """Install a :class:`~repro.wasp.snapshot.Snapshot`'s pages.

        A host-side copy: no EPT events, and every restored page counts
        as touched.  ``cow`` maps the pages shared until each one's first
        write instead of copying them now.  The ``reference`` engine
        copies page by page, the oracle that the other engines' bulk
        copies of contiguous runs match in every state effect.
        """
        memory = self.memory
        if self.engine == "reference":
            restore = memory.restore_pages_cow if cow else memory.restore_pages
            restore(dict(snap.pages))
        else:
            restore = memory.restore_runs_cow if cow else memory.restore_runs
            restore(snap.page_runs(), snap.pages)
        memory.mark_touched(snap.pages.keys())

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

    def close(self) -> None:
        """Sever the callbacks that point back into this VM.

        Guest memory calls the VM (EPT first touch, CoW break) and the
        interpreter (code-watch invalidation), and a recorder's component
        tap points from the interpreter back to the VM.  Each is a
        reference cycle; severing them on release lets refcounting free
        a closed VM, guest mapping included, without the cyclic GC.
        """
        memory = self.memory
        memory.on_first_touch = memory.on_cow_break = None
        memory.clear_code_watch_listeners()
        self.interp.on_component = None

    def milestone_deltas(self) -> dict[int, int]:
        """Map marker id -> cycles elapsed since the previous milestone."""
        deltas: dict[int, int] = {}
        prev: int | None = None
        for milestone in self.milestones:
            if prev is not None:
                deltas[milestone.marker] = milestone.cycles - prev
            prev = milestone.cycles
        return deltas
