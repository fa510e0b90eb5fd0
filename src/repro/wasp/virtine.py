"""The virtine object and its invocation result.

A :class:`Virtine` is one isolated invocation: an image bound to a
hardware shell, a hypercall policy, a handler table, and the host
resources the client granted it.  It is created by
:class:`repro.wasp.hypervisor.Wasp` and lives for a single launch
(sessions -- the "no teardown" optimisation -- keep one alive across
invocations; see :class:`repro.wasp.hypervisor.VirtineSession`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.runtime.image import VirtineImage
from repro.wasp.hypercall import AuditLog, Hypercall
from repro.wasp.policy import DefaultDenyPolicy, Policy
from repro.wasp.pool import Shell


class VirtineCrash(Exception):
    """The virtine shut down abnormally (triple fault, denied+killed...).

    Subclasses classify the crash for the supervision layer
    (:mod:`repro.wasp.supervisor`): who is at fault decides whether a
    retry can help (host faults and timeouts are transient; guest bugs
    and policy kills are deterministic).
    """


class GuestFault(VirtineCrash):
    """The guest itself faulted: a bug in untrusted code (bad strcpy,
    triple fault, unhandled errno).  Deterministic -- retrying the same
    input reproduces it, so supervisors should open the breaker rather
    than burn retries."""


class HostFault(VirtineCrash):
    """The *host* plane failed under the virtine: a ``KVM_RUN`` abort,
    an EIO from the host filesystem surfacing through a hypercall.
    Transient by nature -- the canonical retry candidate."""


class PolicyKill(VirtineCrash):
    """The client's policy killed the virtine (denied hypercall).
    Never retried: the same policy gives the same answer."""


class VirtineTimeout(VirtineCrash):
    """The virtine exceeded its step budget or cycle deadline.

    Today's alternative -- ``max_steps`` exhaustion falling through as a
    generic stop -- made a runaway guest indistinguishable from a clean
    halt; this carries what the guest consumed before the kill.
    """

    def __init__(self, message: str, steps: int = 0, cycles: int = 0) -> None:
        super().__init__(message)
        #: Interpreter steps executed before the budget ran out (0 for
        #: hosted guests, which are metered in cycles only).
        self.steps = steps
        #: Simulated cycles consumed by the launch before the kill.
        self.cycles = cycles


class HangKind(enum.Enum):
    """How a hung virtine failed to finish (watchdog classification)."""

    #: Silent past the no-progress threshold: no hypercalls, no
    #: milestones -- a wedged guest spinning without host interaction.
    NO_PROGRESS = "no_progress"
    #: Still heartbeating, but alive past the slow-progress threshold:
    #: grinding toward an answer nobody is waiting for any more.
    SLOW_PROGRESS = "slow_progress"


class VirtineHang(VirtineTimeout):
    """The watchdog killed a hung virtine.

    A :class:`VirtineTimeout` subclass so the supervision layer's
    retry/breaker machinery (which already treats timeouts as
    transient) handles watchdog kills with no new wiring; ``kind``
    preserves the hang classification for metrics and triage.
    """

    def __init__(self, message: str, kind: HangKind,
                 steps: int = 0, cycles: int = 0) -> None:
        super().__init__(message, steps=steps, cycles=cycles)
        self.kind = kind


class BackendViolation(Exception):
    """A backend-native isolation violation (mprotect trap, bad gate
    transition...).  The hosted plane maps it into the crash taxonomy
    as a :class:`GuestFault` -- the guest did something its mechanism
    forbids."""


class IsolationKill(BaseException):
    """An *uncatchable* mechanism-delivered kill (seccomp
    ``SECCOMP_RET_KILL_PROCESS`` semantics).

    Deliberately a ``BaseException``: guest code running ``except
    Exception`` cannot swallow it, exactly as a process cannot handle
    the SIGSYS that seccomp's kill action delivers.  The hosted plane
    converts it to the shared :class:`PolicyKill` verdict, so
    kill-on-violation backends classify identically to catch-and-deny
    ones.
    """

    def __init__(self, message: str, nr: Hypercall | None = None) -> None:
        super().__init__(message)
        self.nr = nr


@dataclass(frozen=True)
class BackendCaps:
    """What an isolation mechanism can and cannot do.

    Every launcher carries its flags as ``caps``.  Conformance tests
    gate on these instead of special-casing backend names: a divergence
    must be a *declared capability*, never an accident (the
    observable-divergence argument made testable).
    """

    #: Can capture/restore reset states (KVM only today).
    snapshot: bool = False
    #: Contexts are worth caching in a pool (creation is expensive).
    pooled: bool = True
    #: Shares the host address space (no hardware context of its own).
    in_process: bool = False
    #: A policy violation kills the context uncatchably (seccomp
    #: ``SECCOMP_RET_KILL``) instead of surfacing a catchable denial.
    kill_on_violation: bool = False


KVM_CAPS = BackendCaps(snapshot=True, pooled=True, in_process=False,
                       kill_on_violation=False)


@dataclass
class Virtine:
    """One virtine invocation's state."""

    name: str
    image: VirtineImage
    shell: Shell
    policy: Policy = field(default_factory=DefaultDenyPolicy)
    #: Handler table (hypercall number -> callable); read-only.
    handlers: Mapping[Hypercall, Any] = field(default_factory=dict)
    #: Host resources granted by the client (guest handle -> host object).
    resources: dict[int, Any] = field(default_factory=dict)
    #: Optional path prefixes the canned filesystem handlers permit
    #: (None means any validated path).
    allowed_path_prefixes: tuple[str, ...] | None = None
    #: File descriptors this virtine opened (and may therefore use).
    owned_fds: set[int] = field(default_factory=set)
    audit: AuditLog = field(default_factory=AuditLog)
    #: Key under which this virtine's snapshot is stored/looked up.
    snapshot_key: str = ""
    #: Absolute cycle deadline (None = no deadline).  Checked at every
    #: natural preemption point: hypercall dispatch, vCPU exits, and
    #: hosted-guest compute charges.
    deadline: int | None = None
    #: Clock reading when the launch began (for timeout accounting).
    started_cycles: int = 0
    #: Clock reading of the last observable sign of progress (hypercall
    #: or milestone); the watchdog's heartbeat.
    last_beat_cycles: int = 0
    #: Total heartbeats recorded this launch.
    beats: int = 0
    exit_code: int = 0
    hypercall_count: int = 0
    result: Any = None

    def arm(self, now: int, deadline: Any = None,
            deadline_cycles: int | None = None) -> None:
        """Start the timeout accounting of one launch or invocation.

        ``deadline`` is an absolute request-scoped
        :class:`~repro.wasp.admission.Deadline` and wins over the
        relative ``deadline_cycles`` budget; with neither, no deadline.
        """
        self.started_cycles = now
        self.last_beat_cycles = now
        if deadline is not None:
            self.deadline = int(deadline.expires_at)
        elif deadline_cycles is not None:
            self.deadline = now + deadline_cycles
        else:
            self.deadline = None


@dataclass
class VirtineResult:
    """What a launch returns to the client."""

    value: Any
    exit_code: int
    #: End-to-end latency of the launch, in simulated cycles (includes
    #: provisioning, boot or snapshot restore, execution, hypercalls, and
    #: synchronous cleaning if configured).
    cycles: int
    hypercall_count: int
    audit: AuditLog
    #: True if this launch started from a snapshot.
    from_snapshot: bool
    #: The vCPU ``ax`` register at halt (assembly virtines' return slot).
    ax: int = 0
    #: Guest-recorded milestones (marker, absolute cycle) for this launch.
    milestones: list = field(default_factory=list)
