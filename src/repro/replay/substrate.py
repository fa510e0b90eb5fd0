"""The replay substrate: Wasp's handler plane driven by a recorded stream.

The guest interior is replaced wholesale: :class:`ReplayVirtualMachine`
has **no interpreter** -- ``vmrun`` pops the next recorded vmexit,
re-emits its interior attribution segments against the clock/tracer,
applies the recorded register file and guest-written buffers, and hands
the handler plane the exact :class:`~repro.hw.vmx.ExitInfo` the original
guest produced.  Hosted entries are replaced by :class:`ScriptedEntry`,
which re-issues the recorded boundary ops (hypercalls, charges,
snapshots) through a real :class:`~repro.wasp.guestenv.GuestEnv`.

Everything *outside* the guest -- hypercall dispatch, policy gates, the
canned handlers, the host kernel, snapshot capture/restore, pool
scrubbing, the supervisor taxonomy -- is the real production code, which
is the point: replay exercises the handler plane, not the guest.

Two modes, selected by ``ReplaySession(strict=...)``:

* **strict** (regression replay): any disagreement between the stream
  and the handler plane raises :class:`ReplayDivergence`.
* **hostile** (fuzzing): the stream is adversarial; every disagreement
  is treated as guest misbehaviour and raised as a typed
  :class:`~repro.wasp.virtine.GuestFault`, exercising the hostile-guest
  invariant.
"""

from __future__ import annotations

import base64
import binascii
from collections import deque
from typing import Any

from repro.faults import FaultPlan, FaultSite
from repro.hw.cpu import Mode
from repro.hw.memory import PAGE_SHIFT, PAGE_SIZE, GuestMemory, GuestMemoryError, PageSet
from repro.hw.vmx import ExitInfo, ExitReason, Milestone, VirtualMachine
from repro.kvm.device import KVM
from repro.replay.stream import BoundaryStream, ReplayDivergence, decode_value, encode_value
from repro.trace.tracer import Category
from repro.wasp.hypercall import Hypercall, HypercallError
from repro.wasp.virtine import (
    GuestFault,
    HostFault,
    PolicyKill,
    VirtineCrash,
    VirtineTimeout,
)

#: Crash-marker type name -> exception class for scripted re-raise.
#: ``VirtineHang`` maps to its :class:`VirtineTimeout` base (the kind
#: enum is not serialised); unknown names fall back to ``GuestFault``.
_CRASH_CLASSES = {
    "GuestFault": GuestFault,
    "HostFault": HostFault,
    "PolicyKill": PolicyKill,
    "VirtineTimeout": VirtineTimeout,
    "VirtineHang": VirtineTimeout,
    "VirtineCrash": VirtineCrash,
}


def _is_count(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class ReplaySession:
    """Consumable queues over one recorded stream, plus the fail policy.

    The consumed-by-replay event kinds are the ones that *feed* the
    handler plane (vmexits, hosted runs, memory captures/scrubs); the
    rest (launch markers, devcalls, isa verdicts) are re-recorded by the
    replay itself and checked by the engine's stream diff.
    """

    def __init__(self, stream: BoundaryStream, strict: bool = True) -> None:
        self.stream = stream
        self.strict = strict
        events = [e for e in stream.events if isinstance(e, dict)]
        self.vmexits: deque = deque(
            e for e in events if e.get("kind") == "vmexit")
        self.hosted_runs: deque = deque(
            e for e in events if e.get("kind") == "hosted_run")
        self.mem_captures: deque = deque(
            e for e in events if e.get("kind") == "mem_capture")
        self.mem_clears: deque = deque(
            e for e in events if e.get("kind") == "mem_clear")
        #: Mutation-only events arming extra fault injections (see
        #: :meth:`arm`).
        self.fault_arms = [e for e in events if e.get("kind") == "fault_arm"]

    # -- failure policy ------------------------------------------------------
    def fail(self, message: str) -> None:
        """A disagreement between stream and handler plane.

        Strict replay treats it as a regression (:class:`ReplayDivergence`
        is *outside* the crash taxonomy and aborts the run); hostile
        replay treats it as the guest lying about the boundary, which is
        exactly a :class:`GuestFault`.
        """
        if self.strict:
            raise ReplayDivergence(message)
        raise GuestFault(f"hostile boundary stream: {message}")

    # -- queue accessors -----------------------------------------------------
    def next_vmexit(self) -> dict:
        if not self.vmexits:
            self.fail("boundary stream ran out of vmexits")
        return self.vmexits.popleft()

    def next_hosted_run(self) -> dict:
        if not self.hosted_runs:
            self.fail("boundary stream ran out of hosted runs")
        return self.hosted_runs.popleft()

    def next_mem_capture(self) -> dict:
        if not self.mem_captures:
            self.fail("boundary stream ran out of snapshot captures")
        return self.mem_captures.popleft()

    def next_mem_clear(self) -> dict:
        if not self.mem_clears:
            self.fail("boundary stream ran out of memory scrubs")
        return self.mem_clears.popleft()

    def drained(self) -> dict:
        """Events the replay never consumed (all zero on a clean replay)."""
        return {
            "vmexits": len(self.vmexits),
            "hosted_runs": len(self.hosted_runs),
            "mem_captures": len(self.mem_captures),
            "mem_clears": len(self.mem_clears),
        }

    def scripted_entry(self, name: str) -> "ScriptedEntry":
        """Pop the next hosted run as the entry callable for ``name``."""
        return ScriptedEntry(self, self.next_hosted_run())

    # -- fault-plane arming --------------------------------------------------
    def arm(self, plan: FaultPlan) -> None:
        """Merge mutation-injected ``fault_arm`` events into ``plan``.

        ``FaultPlan.fail`` *replaces* a site's spec, so the existing
        rate/schedule is read back and preserved.  Malformed entries are
        ignored: arming happens before the workload's crash containment
        is in place, so hostility belongs in the consumed queues instead
        (the fuzzer only emits well-formed arm events).
        """
        for event in self.fault_arms:
            try:
                site = FaultSite(event.get("site"))
            except (TypeError, ValueError):
                continue
            nth = event.get("nth")
            if not _is_count(nth) or nth < 1:
                continue
            spec = plan._specs.get(site)
            on = set(spec.on_calls) if spec is not None else set()
            on.add(nth)
            plan.fail(site, rate=spec.rate if spec is not None else 0.0, on=on)


class _StubInterpreter:
    """Replay runs no guest code: the handler plane must never step it."""

    def __init__(self, memory: GuestMemory) -> None:
        self.memory = memory
        self.program = None
        self.component_cycles: dict[str, int] = {}
        self.instructions_retired = 0
        self.tlb_hits = 0
        self.tlb_misses = 0
        self.tlb_flushes = 0
        self.last_run_steps = 0
        self.on_component = None

    def load_program(self, program: Any) -> None:
        # Mirrors the real interpreter's host-side image copy; attach is
        # otherwise a no-op (there is nothing to decode).
        self.memory.load_bytes(program.image, program.base)
        self.program = program

    def attach_program(self, program: Any, reset_rip: bool = True) -> None:
        self.program = program

    def mark_entry(self) -> None:
        return None

    def resume_with_input(self, dest: str, value: int) -> None:
        return None

    def run_steps(self, budget: int) -> int:
        raise RuntimeError("the replay substrate has no guest interpreter")


class ReplayGuestMemory(GuestMemory):
    """Guest memory whose capture/scrub boundary is fed by the stream."""

    def __init__(self, size: int, session: ReplaySession) -> None:
        super().__init__(size)
        self.session = session

    def apply_recorded(self, addr: int, data: bytes) -> None:
        """Install recorded guest-written bytes.

        Bounds are checked (a hostile stream can claim any address) but
        no touch/CoW callbacks fire and no cost is charged: the original
        guest's store costs are already inside the recorded interior
        cycles.
        """
        try:
            self._check(addr, len(data))
        except GuestMemoryError:
            self.session.fail(
                f"recorded guest buffer [{addr:#x}, +{len(data)}) is outside "
                f"guest memory of size {self.size:#x}")
        self._data[addr:addr + len(data)] = data
        if data:
            first = addr >> PAGE_SHIFT
            last = (addr + len(data) - 1) >> PAGE_SHIFT
            span = range(first, last + 1)
            self._dirty.update(span)
            self._written.update(span)
            self._cow_pending.difference_update(span)

    def capture_dirty(self) -> PageSet:
        event = self.session.next_mem_capture()
        pages = event.get("pages")
        if not isinstance(pages, list):
            self.session.fail("snapshot capture with a malformed page list")
        npages = self.size >> PAGE_SHIFT
        result: dict[int, bytes] = {}
        for page in pages:
            if not _is_count(page) or page >= npages:
                self.session.fail(
                    f"snapshot capture names page {page!r} outside guest "
                    f"memory of {npages} pages")
            start = page << PAGE_SHIFT
            result[page] = bytes(self._data[start:start + PAGE_SIZE])
        return PageSet(result)

    def clear_dirty(self) -> int:
        event = self.session.next_mem_clear()
        nbytes = event.get("bytes")
        if not _is_count(nbytes):
            self.session.fail("memory scrub with a malformed byte count")
        super().clear_dirty()
        return nbytes


class ReplayVirtualMachine(VirtualMachine):
    """A VM whose guest interior is the recorded stream.

    ``vmrun`` never steps an interpreter: it pops the next recorded
    vmexit, replays its interior (clock advance, attribution leaves,
    milestones), applies the recorded register file and guest buffers,
    and returns the recorded :class:`ExitInfo`.
    """

    def __init__(self, session: ReplaySession, **kwargs: Any) -> None:
        self.session = session
        super().__init__(**kwargs)

    # Factory hooks (see VirtualMachine.__init__).
    def _make_memory(self, size: int) -> GuestMemory:
        return ReplayGuestMemory(size, self.session)

    def _make_interpreter(self) -> _StubInterpreter:
        return _StubInterpreter(self.memory)

    def vmrun(self, max_steps: int = 50_000_000) -> ExitInfo:
        span = self.tracer.begin("vmrun", Category.VMM)
        self.clock.advance(self.costs.VMRUN_ENTRY)
        self.recorder.vmexit_begin(self.clock.cycles)
        try:
            info = self._replay_interior(self.session.next_vmexit())
            self.recorder.vmexit_end(self.clock.cycles, info, self.cpu)
            reason = info.reason
            span.annotate(
                exit_reason=(reason.value if isinstance(reason, ExitReason)
                             else str(reason)),
                steps=info.steps,
            )
            return info
        finally:
            self.clock.advance(self.costs.VMRUN_EXIT)
            self.tracer.end(span)

    # -- interior replay -----------------------------------------------------
    def _replay_interior(self, event: dict) -> ExitInfo:
        session = self.session
        begin = self.clock.cycles
        interior = event.get("cycles")
        if not _is_count(interior):
            session.fail("vmexit with a malformed interior cycle count")
        segments = event.get("segments")
        if not isinstance(segments, list):
            session.fail("vmexit with a malformed segment list")
        for segment in segments:
            self._replay_segment(segment, begin, interior)
        residual = begin + interior - self.clock.cycles
        if residual < 0:
            session.fail("vmexit segments overrun the recorded interior")
        self.clock.advance(residual)
        self._apply_cpu(event.get("cpu"))
        self._apply_buffers(event.get("mem"))
        return self._exit_info(event)

    def _replay_segment(self, segment: Any, begin: int, interior: int) -> None:
        session = self.session
        if not isinstance(segment, list) or not segment:
            session.fail("malformed interior segment")
        kind = segment[0]
        if kind == "component":
            if len(segment) != 5:
                session.fail("malformed component segment")
            _, end_off, name, category_value, cost = segment
            if (not _is_count(end_off) or end_off > interior
                    or not _is_count(cost) or cost > end_off):
                session.fail("component segment outside the recorded interior")
            if not isinstance(name, str):
                session.fail("component segment with a non-string name")
            try:
                category = Category(category_value)
            except ValueError:
                session.fail(
                    f"component segment with unknown category {category_value!r}")
            lead = begin + end_off - cost - self.clock.cycles
            if lead < 0:
                session.fail("overlapping interior segments")
            self.clock.advance(lead)
            self.clock.advance(cost)
            self.tracer.component(name, cost, category)
            self.recorder.segment_component(name, cost, category_value,
                                            self.clock.cycles)
        elif kind == "milestone":
            if len(segment) != 3:
                session.fail("malformed milestone segment")
            _, offset, marker = segment
            if not _is_count(offset) or offset > interior or not _is_int(marker):
                session.fail("malformed milestone segment")
            lead = begin + offset - self.clock.cycles
            if lead < 0:
                session.fail("milestone segment out of order")
            self.clock.advance(lead)
            self.milestones.append(
                Milestone(marker=marker, cycles=self.clock.cycles))
            self.tracer.instant(f"milestone:{marker}", Category.GUEST,
                                marker=marker)
            self.recorder.segment_milestone(marker, self.clock.cycles)
        else:
            session.fail(f"unknown interior segment kind {kind!r}")

    def _apply_cpu(self, state: Any) -> None:
        session = self.session
        cpu = self.cpu
        if not isinstance(state, dict):
            session.fail("vmexit with a malformed cpu state")
        regs = state.get("regs")
        if not isinstance(regs, dict):
            session.fail("cpu state with a malformed register file")
        for name, value in regs.items():
            if name not in cpu.regs:
                session.fail(f"cpu state names unknown register {name!r}")
            if not _is_int(value):
                session.fail(f"cpu state register {name!r} is not an integer")
        mode_name = state.get("mode")
        if not isinstance(mode_name, str) or mode_name not in Mode.__members__:
            session.fail(f"cpu state with unknown mode {mode_name!r}")
        flags = state.get("flags")
        if (not isinstance(flags, list) or len(flags) != 4
                or not all(isinstance(flag, bool) for flag in flags)):
            session.fail("cpu state with malformed flags")
        gdtr = state.get("gdtr")
        if (not isinstance(gdtr, list) or len(gdtr) != 3
                or not _is_int(gdtr[0]) or not _is_int(gdtr[1])
                or not isinstance(gdtr[2], bool)):
            session.fail("cpu state with a malformed gdtr")
        for field_name in ("rip", "cr0", "cr3", "cr4", "efer"):
            if not _is_int(state.get(field_name)):
                session.fail(f"cpu state field {field_name!r} is not an integer")
        if not isinstance(state.get("halted"), bool):
            session.fail("cpu state with a malformed halted flag")
        cpu.regs.update(regs)
        cpu.rip = state["rip"]
        cpu_flags = cpu.flags
        (cpu_flags.zero, cpu_flags.sign, cpu_flags.carry,
         cpu_flags.interrupts) = flags
        cpu.mode = Mode[mode_name]
        cpu.cr0 = state["cr0"]
        cpu.cr3 = state["cr3"]
        cpu.cr4 = state["cr4"]
        cpu.efer = state["efer"]
        cpu_gdtr = cpu.gdtr
        cpu_gdtr.base, cpu_gdtr.limit, cpu_gdtr.loaded = gdtr
        cpu.halted = state["halted"]

    def _apply_buffers(self, mem: Any) -> None:
        session = self.session
        if not isinstance(mem, list):
            session.fail("vmexit with a malformed mem list")
        for entry in mem:
            if (not isinstance(entry, list) or len(entry) != 2
                    or not _is_int(entry[0]) or not isinstance(entry[1], str)):
                session.fail("malformed recorded guest buffer")
            try:
                data = base64.b64decode(entry[1].encode("ascii"), validate=True)
            except (binascii.Error, UnicodeEncodeError, ValueError) as error:
                session.fail(f"undecodable recorded guest buffer: {error}")
            self.memory.apply_recorded(entry[0], data)

    def _exit_info(self, event: dict) -> ExitInfo:
        session = self.session
        port = event.get("port")
        value = event.get("value")
        steps = event.get("steps")
        in_dest = event.get("in_dest")
        detail = event.get("detail")
        if not _is_int(port) or not _is_int(value) or not _is_count(steps):
            session.fail("vmexit with malformed port/value/steps")
        if not isinstance(in_dest, str) or not isinstance(detail, str):
            session.fail("vmexit with malformed in_dest/detail")
        raw = event.get("reason")
        try:
            reason = ExitReason(raw)
        except (TypeError, ValueError):
            if session.strict:
                session.fail(f"vmexit with unknown reason {raw!r}")
            # Hostile mode hands the raw reason through so the device
            # plane's fail-closed path (unknown reasons -> GuestFault)
            # gets exercised end to end.
            reason = raw
        return ExitInfo(reason=reason, port=port, value=value,
                        in_dest=in_dest, detail=detail, steps=steps)


class ReplayDevice(KVM):
    """The device plane, on either platform row, building replay VMs
    (handler code unchanged)."""

    def __init__(self, *args: Any, session: ReplaySession, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.session = session

    def _new_vm(self, size: int) -> VirtualMachine:
        return ReplayVirtualMachine(
            self.session, memory_size=size, clock=self.clock, costs=self.costs,
            engine=self.engine,
        )


class ScriptedEntry:
    """A hosted entry standing in for guest code during replay.

    Re-issues every recorded boundary op through the real
    :class:`~repro.wasp.guestenv.GuestEnv` -- so dispatch, policy,
    handlers, marshalling charges, and deadline clamps all re-execute --
    and checks each handler response against the recording.
    """

    def __init__(self, session: ReplaySession, event: dict) -> None:
        self.session = session
        self.event = event

    def __call__(self, env: Any) -> Any:
        session = self.session
        ops = self.event.get("ops")
        if not isinstance(ops, list):
            session.fail("hosted run with a malformed op list")
        for op in ops:
            if not isinstance(op, list) or not op:
                session.fail("malformed hosted op")
            kind = op[0]
            if kind == "hypercall":
                self._replay_hypercall(env, op)
            elif kind == "charge":
                if (len(op) != 2 or isinstance(op[1], bool)
                        or not isinstance(op[1], (int, float))):
                    session.fail("malformed charge op")
                env.charge(op[1])
            elif kind == "milestone":
                if len(op) != 2 or not _is_int(op[1]):
                    session.fail("malformed milestone op")
                env.milestone(op[1])
            elif kind == "snapshot":
                if len(op) != 2:
                    session.fail("malformed snapshot op")
                try:
                    payload = decode_value(op[1])
                except ValueError as error:
                    session.fail(f"snapshot op with undecodable payload: {error}")
                env.snapshot(payload)
            elif kind == "exit":
                if len(op) != 2 or not _is_int(op[1]):
                    session.fail("malformed exit op")
                env.exit(op[1])
            else:
                session.fail(f"unknown hosted op kind {kind!r}")
        return self._finish()

    def _replay_hypercall(self, env: Any, op: list) -> None:
        session = self.session
        if len(op) != 5:
            session.fail("malformed hypercall op")
        _, nr_value, args_enc, outcome, result_enc = op
        try:
            nr = Hypercall(nr_value)
        except (TypeError, ValueError):
            session.fail(f"hypercall op with invalid number {nr_value!r}")
        if not isinstance(args_enc, list):
            session.fail("hypercall op with a malformed argument list")
        try:
            args = [decode_value(arg) for arg in args_enc]
        except ValueError as error:
            session.fail(f"hypercall op with undecodable arguments: {error}")
        if outcome == "error":
            try:
                env.hypercall(nr, *args)
            except HypercallError:
                return
            # Denials and crashes propagate to _run_hosted on their own;
            # a *success* where a failure was recorded is a divergence.
            session.fail(f"hypercall {nr.name} was recorded failing but "
                         f"succeeded on replay")
        result = env.hypercall(nr, *args)
        if outcome == "ok":
            if session.strict and encode_value(result) != result_enc:
                raise ReplayDivergence(
                    f"handler response diverged for {nr.name}: recorded "
                    f"{result_enc!r}, replayed {encode_value(result)!r}")
            return
        if outcome == "denied":
            session.fail(f"hypercall {nr.name} was recorded denied but was "
                         f"allowed on replay")
        if outcome is None:
            session.fail(f"hypercall {nr.name} was recorded aborting "
                         f"mid-dispatch but completed on replay")
        session.fail(f"hypercall op with unknown outcome {outcome!r}")

    def _finish(self) -> Any:
        session = self.session
        end = self.event.get("end")
        if not isinstance(end, list) or not end:
            session.fail("hosted run with no recorded end")
        marker = end[0]
        if marker == "return":
            if len(end) != 2:
                session.fail("malformed return marker")
            try:
                return decode_value(end[1])
            except ValueError as error:
                session.fail(f"undecodable recorded return value: {error}")
        if marker == "exit":
            # A recorded exit carries an exit *op*, whose re-issue raises
            # GuestExitRequested before this marker is reached.
            session.fail("hosted run recorded exiting, but no exit op "
                         "fired on replay")
        if marker == "crash":
            if (len(end) != 3 or not isinstance(end[1], str)
                    or not isinstance(end[2], str)):
                session.fail("malformed crash marker")
            # Boundary-op crashes re-fire from the re-issued ops above;
            # this marker covers crashes that began *outside* the
            # boundary (an exception inside the entry body), re-raised
            # with the recorded class and message so the taxonomy and
            # supervisor verdicts replay identically.
            raise _CRASH_CLASSES.get(end[1], GuestFault)(end[2])
        if marker == "divergence":
            session.fail("hosted run recorded a divergence; the recording "
                         "itself is not replayable")
        session.fail(f"hosted run with unknown end marker {marker!r}")
