"""The hypercall ABI.

Hypercalls in Wasp "are not meant to emulate low-level virtual devices,
but are instead designed to provide high-level hypervisor services with
as few exits as possible" (Section 5.1): each one mirrors a POSIX call
(``read``, ``write``, ...) or a co-designed service (``snapshot``,
``get_data``, ``return_data`` for the JS engine of Section 6.5).

Delegation happens over virtual I/O ports: assembly guests execute
``out HCALL_PORT, nr``; hosted guests call
:meth:`repro.wasp.guestenv.GuestEnv.hypercall`, which charges the same
world-switch and ring-transition costs before dispatching.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

#: The I/O port on which guests issue hypercalls.
HCALL_PORT = 0x200


class Hypercall(enum.IntEnum):
    """Hypercall numbers (the bit positions used by policy bitmasks)."""

    EXIT = 0
    READ = 1
    WRITE = 2
    OPEN = 3
    CLOSE = 4
    STAT = 5
    SEND = 6
    RECV = 7
    SNAPSHOT = 8
    GET_DATA = 9
    RETURN_DATA = 10
    #: Multiplexed IDL-defined service calls (see :mod:`repro.lang.idl`).
    INVOKE = 11

    @property
    def bit(self) -> int:
        """The policy-bitmask bit for this hypercall."""
        return 1 << int(self)


#: Per-number constants of the boundary, resolved once here rather than
#: through enum properties on every call: the trace span name, the
#: telemetry label and the wire number.
HYPERCALL_LABELS = {nr: (f"hypercall:{nr.name}", nr.name, nr.value)
                    for nr in Hypercall}


class HypercallDenied(Exception):
    """The virtine client's policy rejected a hypercall."""

    def __init__(self, nr: Hypercall) -> None:
        super().__init__(f"hypercall {nr.name} denied by policy")
        self.nr = nr


class HypercallError(Exception):
    """A handler rejected the hypercall's arguments (validation failure)."""

    def __init__(self, nr: Hypercall, errno_name: str, message: str) -> None:
        super().__init__(f"{nr.name}: {errno_name}: {message}")
        self.nr = nr
        self.errno_name = errno_name


@dataclass(slots=True)
class HypercallRequest:
    """One hypercall as seen by policy checks and handlers."""

    nr: Hypercall
    args: tuple[Any, ...] = ()
    #: The issuing virtine (set by the hypervisor before dispatch).
    virtine: Any = None


@dataclass(slots=True)
class AuditRecord:
    """One entry in the client's hypercall audit log."""

    nr: Hypercall
    allowed: bool
    detail: str = ""


@dataclass
class AuditLog:
    """Chronological record of every hypercall a virtine attempted.

    The default-deny model means denials are expected events, not bugs;
    clients inspect this log to build or debug policies.
    """

    records: list[AuditRecord] = field(default_factory=list)

    def record(self, nr: Hypercall, allowed: bool, detail: str = "") -> None:
        self.records.append(AuditRecord(nr=nr, allowed=allowed, detail=detail))

    def count(self, nr: Hypercall | None = None, allowed: bool | None = None) -> int:
        """Count records, optionally filtered by number and/or outcome."""
        total = 0
        for record in self.records:
            if nr is not None and record.nr != nr:
                continue
            if allowed is not None and record.allowed != allowed:
                continue
            total += 1
        return total


# -- shared dispatch core ----------------------------------------------------
# Every isolation backend interposes on the same external channel with the
# same policy and audit semantics; only the boundary-crossing *costs* and the
# violation *consequences* differ per mechanism.  These two functions are
# that shared core, used by the KVM hypervisor (:class:`repro.wasp.
# hypervisor.Wasp`) and by every :class:`repro.host.backend.BackendHost`.

def policy_gate(virtine: Any, nr: Hypercall) -> None:
    """Consult the virtine's policy and audit the decision.

    Raises :class:`HypercallDenied` on rejection; what a denial *does*
    (catchable error vs. seccomp-style kill) is the caller's business.
    """
    allowed = virtine.policy.allows(nr)
    virtine.audit.records.append(AuditRecord(nr, allowed))
    if not allowed:
        raise HypercallDenied(nr)


def dispatch_handler(virtine: Any, nr: Hypercall, args: tuple) -> Any:
    """Policy-gate a hypercall and run its installed handler."""
    policy_gate(virtine, nr)
    handler = virtine.handlers.get(nr)
    if handler is None:
        raise HypercallError(nr, "ENOSYS", "no handler installed")
    return handler(HypercallRequest(nr, args, virtine))
