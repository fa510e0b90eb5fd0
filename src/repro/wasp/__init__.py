"""Wasp: the embeddable virtine hypervisor (the paper's core system).

Public surface::

    from repro.wasp import Wasp, CleanMode, Hypercall
    from repro.wasp import DefaultDenyPolicy, PermissivePolicy, VirtineConfig

    wasp = Wasp()
    image = ImageBuilder().hosted("job", entry_fn)
    result = wasp.launch(image, policy=PermissivePolicy())
"""

from repro.wasp.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
    AdmissionEvent,
    AdmissionRejected,
    AdmissionTicket,
    AdmissionTrace,
    BoundedQueue,
    BrownoutLevel,
    Deadline,
    QueuedRequest,
    ShedPolicy,
    TokenBucket,
    Watchdog,
)
from repro.wasp.guestenv import GuestEnv, GuestExitRequested
from repro.wasp.handlers import CannedHandlers
from repro.wasp.hypercall import (
    AuditLog,
    HCALL_PORT,
    Hypercall,
    HypercallDenied,
    HypercallError,
    HypercallRequest,
)
from repro.wasp.futures import VirtineExecutor, VirtineFuture
from repro.wasp.hypervisor import VirtineSession, Wasp
from repro.wasp.migration import Cluster, MigrationLink, Node, TransferDropped
from repro.wasp.supervisor import (
    BreakerConfig,
    BreakerOpen,
    BreakerState,
    CircuitBreaker,
    CrashClass,
    RetryPolicy,
    SupervisionEvent,
    Supervisor,
    classify,
)
from repro.wasp.policy import (
    BitmaskPolicy,
    DefaultDenyPolicy,
    DynamicDisablePolicy,
    OneShotPolicy,
    PermissivePolicy,
    Policy,
    VirtineConfig,
)
from repro.wasp.pool import CleanMode, Shell, ShellPool
from repro.wasp.snapshot import RestoreMode, Snapshot, SnapshotStore
from repro.wasp.virtine import (
    GuestFault,
    HangKind,
    HostFault,
    PolicyKill,
    Virtine,
    VirtineCrash,
    VirtineHang,
    VirtineResult,
    VirtineTimeout,
)

__all__ = [
    "Wasp",
    "VirtineSession",
    "VirtineExecutor",
    "VirtineFuture",
    "Cluster",
    "MigrationLink",
    "Node",
    "TransferDropped",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionEvent",
    "AdmissionRejected",
    "AdmissionTicket",
    "AdmissionTrace",
    "BoundedQueue",
    "BrownoutLevel",
    "Deadline",
    "QueuedRequest",
    "ShedPolicy",
    "TokenBucket",
    "Watchdog",
    "Supervisor",
    "SupervisionEvent",
    "RetryPolicy",
    "CircuitBreaker",
    "BreakerConfig",
    "BreakerOpen",
    "BreakerState",
    "CrashClass",
    "classify",
    "RestoreMode",
    "GuestEnv",
    "GuestExitRequested",
    "CannedHandlers",
    "AuditLog",
    "HCALL_PORT",
    "Hypercall",
    "HypercallDenied",
    "HypercallError",
    "HypercallRequest",
    "Policy",
    "DefaultDenyPolicy",
    "PermissivePolicy",
    "BitmaskPolicy",
    "OneShotPolicy",
    "DynamicDisablePolicy",
    "VirtineConfig",
    "CleanMode",
    "Shell",
    "ShellPool",
    "Snapshot",
    "SnapshotStore",
    "Virtine",
    "VirtineCrash",
    "GuestFault",
    "HostFault",
    "PolicyKill",
    "VirtineTimeout",
    "VirtineHang",
    "HangKind",
    "VirtineResult",
]
