"""The hosted-guest execution environment.

Application-level virtines (the C-extension POSIX environment, the JS
engine, the HTTP handlers) run their bodies as Python callables standing
in for compiled guest code.  The callable receives a :class:`GuestEnv`,
its only window onto the world:

* :meth:`GuestEnv.hypercall` -- the *sole* external channel.  Charges the
  full world-switch + ring-transition round trip before dispatching
  through the client's policy and handlers, exactly like an ``out``-port
  hypercall from assembly code.
* :meth:`GuestEnv.charge` / :meth:`charge_call` / :meth:`charge_bytes` --
  the guest compute cost model (guest cycles are simulated cycles too).
* :meth:`GuestEnv.snapshot` -- capture the "reset state" (Section 5.2).
* :attr:`GuestEnv.restored` -- the snapshot payload when this invocation
  started from a snapshot (the init path should be skipped).
* :attr:`GuestEnv.persistent` -- state retained across invocations of a
  :class:`~repro.wasp.hypervisor.VirtineSession` ("no teardown").

The environment deliberately exposes no host objects: data passes only
through hypercalls, preserving the isolation objectives of Section 3.
"""

from __future__ import annotations

from typing import Any, TYPE_CHECKING

from repro.wasp.hypercall import Hypercall, HypercallDenied
from repro.wasp.virtine import Virtine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.wasp.hypervisor import HostedPlane


class GuestExitRequested(Exception):
    """Raised inside a hosted entry when the guest calls ``exit()``."""

    def __init__(self, code: int) -> None:
        super().__init__(f"guest exit({code})")
        self.code = code


class GuestEnv:
    """A hosted guest's view of the machine."""

    def __init__(
        self,
        wasp: "HostedPlane",
        virtine: Virtine,
        args: Any = None,
        restored: Any = None,
        persistent: dict | None = None,
        from_snapshot: bool = False,
    ) -> None:
        self._wasp = wasp
        self._virtine = virtine
        self.args = args
        self.restored = restored
        #: True when this invocation started from a snapshot restore.
        #: Prefer this over ``restored is None`` -- a snapshot may carry a
        #: ``None`` payload.
        self.from_snapshot = from_snapshot
        self.persistent = persistent if persistent is not None else {}

    # -- compute cost model -----------------------------------------------------
    # Every charge is also a preemption point: launches carrying a cycle
    # deadline are killed here with a typed VirtineTimeout once the clock
    # passes it (hosted compute has no instruction stream to interrupt,
    # so the cost-model charges stand in for the timer tick).  Charges go
    # through HostedPlane.charge_guest, which *clamps* at the deadline: a charge
    # that would overrun only consumes the remaining budget before the
    # cancellation fires -- work is cut off mid-compute, not completed on
    # borrowed time and discarded.
    def charge(self, cycles: float) -> None:
        """Charge raw guest compute cycles."""
        self._wasp.charge_guest(self._virtine, cycles)

    def charge_call(self, count: int = 1) -> None:
        """Charge ``count`` guest function calls (GUEST_CALL each)."""
        self._wasp.charge_guest(self._virtine, self._wasp.costs.GUEST_CALL * count)

    def charge_bytes(self, nbytes: int) -> None:
        """Charge bulk data processing (GUEST_BYTE per byte)."""
        self._wasp.charge_guest(self._virtine, self._wasp.costs.GUEST_BYTE * nbytes)

    # -- guest memory -------------------------------------------------------------
    @property
    def memory(self):
        """The virtine's guest physical memory (its own address space)."""
        return self._virtine.shell.vm.memory

    # -- capabilities -------------------------------------------------------------
    @property
    def can_snapshot(self) -> bool:
        """Whether the isolation backend underneath supports snapshots.

        KVM virtines capture full reset states; in-process and container
        backends cannot, and guest bodies that would call
        :meth:`snapshot` should gate on this instead of crashing.
        """
        return self._wasp.caps.snapshot

    # -- instrumentation ------------------------------------------------------------
    def milestone(self, marker: int) -> None:
        """Record a zero-cost guest timestamp (the debug-port analogue;
        used by the Figure 4 start-up milestone measurements)."""
        vm = self._virtine.shell.vm
        from repro.hw.vmx import Milestone

        vm.milestones.append(Milestone(marker=marker, cycles=self._wasp.clock.cycles))
        self._wasp.recorder.hosted_milestone(marker)
        # A milestone is observable progress: it heartbeats the watchdog
        # (long computes can stay alive by checkpointing).
        self._wasp._beat(self._virtine)

    # -- the external channel ---------------------------------------------------------
    def hypercall(self, nr: Hypercall, *args: Any) -> Any:
        """Issue a hypercall: exit the VM, dispatch, re-enter.

        Raises :class:`HypercallDenied` if the client's policy rejects it
        and :class:`~repro.wasp.hypercall.HypercallError` if the handler's
        validation does.
        """
        return self._wasp.dispatch_hosted_hypercall(self._virtine, nr, args)

    def snapshot(self, payload: Any = None) -> None:
        """Capture this virtine's state as the image's reset state.

        Subsequent launches of the same image skip boot and runtime
        initialisation, receiving ``payload`` back via :attr:`restored`.
        Goes through the SNAPSHOT hypercall (and is policy-checked like
        any other hypercall).
        """
        self._wasp.capture_snapshot(self._virtine, payload)

    def exit(self, code: int = 0) -> None:
        """Terminate the virtine (the always-permitted EXIT hypercall).

        Counts as a host interaction -- it is the 7th of the static HTTP
        server's seven hypercalls (Section 6.3) -- but only pays the exit
        half of the round trip (there is no re-entry).
        """
        self._wasp.clock.advance(self._wasp.exit_boundary_cycles())
        self._virtine.hypercall_count += 1
        self._virtine.audit.record(Hypercall.EXIT, allowed=True)
        self._virtine.exit_code = code
        self._wasp.recorder.hosted_exit(code)
        raise GuestExitRequested(code)
