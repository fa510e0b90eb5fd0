"""The recordable workloads behind the replay corpus.

Each driver builds a Wasp (optionally wired to an
:class:`~repro.replay.stream.InterfaceRecorder` and/or a
:class:`~repro.replay.substrate.ReplaySession`), runs a small seeded
workload, and returns ``(wasp, stats)``.  The same driver runs in three
contexts:

* **record** -- live guests, recorder attached;
* **replay** -- replay substrate + a fresh recorder, so the engine can
  diff the re-recorded stream against the original;
* **fuzz** -- replay substrate in hostile mode over a mutated stream.

Drivers therefore contain crashes *per request* (the typed taxonomy
plus the supervision layer's shed signals) and keep going -- a hostile
stream may kill any one launch, and the invariant under test is that
the siblings, the host kernel, and the snapshot store stay healthy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.faults import FaultPlan, FaultSite
from repro.host.filesystem import O_RDONLY
from repro.host.network import NetError
from repro.hw.cpu import Mode
from repro.hw.isa import Assembler
from repro.runtime.boot import echo_guest_source
from repro.runtime.image import ImageBuilder, VirtineImage
from repro.trace import attribution
from repro.wasp.admission import AdmissionRejected
from repro.wasp.hypercall import Hypercall
from repro.wasp.hypervisor import Wasp
from repro.wasp.policy import BitmaskPolicy, PermissivePolicy, VirtineConfig
from repro.wasp.supervisor import BreakerOpen, Supervisor
from repro.wasp.virtine import VirtineCrash


@dataclass
class WorkloadContext:
    """What a workload driver needs to build its Wasp."""

    seed: int
    requests: int
    backend: str = "kvm"
    #: Recorder wired into the Wasp (None = no recording).
    recorder: Any = None
    #: Replay session (None = live guests).
    session: Any = None
    #: The Wasp the driver built -- stored eagerly so fuzz harnesses can
    #: inspect kernel/snapshot state even when the driver dies mid-run.
    wasp: Any = None

    def make_wasp(self, fault_plan: FaultPlan | None = None) -> Wasp:
        if self.session is not None and self.session.fault_arms:
            # Mutated streams may arm extra fault injections; they merge
            # into the workload's plan (or a fresh one) before launch.
            if fault_plan is None:
                fault_plan = FaultPlan(seed=self.seed)
            self.session.arm(fault_plan)
        wasp = Wasp(
            backend=self.backend,
            tracer=True,
            fault_plan=fault_plan,
            recorder=self.recorder,
            replay=self.session,
        )
        self.wasp = wasp
        return wasp


def _crash_outcome(crash: BaseException) -> dict:
    return {"crash": type(crash).__name__, "detail": str(crash)}


def _client_io(op: Callable[[], Any]) -> Any:
    """Run one harness-side (client) socket op.

    A hostile stream may have killed the server virtine before it served
    this client, so client-side errors are an expected *outcome* here --
    deterministic data for the stats -- never a harness failure.
    """
    try:
        return op()
    except NetError as error:
        return f"net:{error}"


# -- echo: pure-assembly guest, register hypercall ABI -----------------------

def _drive_echo(ctx: WorkloadContext) -> tuple[Wasp, dict]:
    wasp = ctx.make_wasp()
    kernel = wasp.kernel
    program = Assembler(0x8000).assemble(echo_guest_source())
    image = VirtineImage(name="replay-echo", program=program, mode=Mode.PROT32,
                         size=len(program.image))
    policy_config = VirtineConfig.allowing(Hypercall.RECV, Hypercall.SEND)
    listener = kernel.sys_listen(7000)
    outcomes: list[dict] = []
    for index in range(ctx.requests):
        client = kernel.sys_connect(7000)
        server_sock = kernel.sys_accept(listener)
        kernel.sys_send(client, b"ping %d of seed %d" % (index, ctx.seed))
        outcome: dict = {}
        try:
            result = wasp.launch(
                image,
                policy=BitmaskPolicy(policy_config),
                resources={0: server_sock},
                use_snapshot=False,
            )
            outcome = {
                "exit_code": result.exit_code,
                "hypercalls": result.hypercall_count,
                "ax": result.ax,
                "echoed": _client_io(lambda: len(kernel.sys_recv(client, 4096))),
            }
        except VirtineCrash as crash:
            outcome = _crash_outcome(crash)
        finally:
            _client_io(lambda: kernel.sys_sock_close(client))
            _client_io(lambda: kernel.sys_sock_close(server_sock))
        outcomes.append(outcome)
    return wasp, {"outcomes": outcomes}


# -- http_snapshot: the Figure 13 static server, snapshot isolation ----------

def _drive_http_snapshot(ctx: WorkloadContext) -> tuple[Wasp, dict]:
    from repro.apps.http.server import StaticHttpServer

    wasp = ctx.make_wasp()
    kernel = wasp.kernel
    kernel.fs.add_file("/srv/index.html",
                       b"<html>virtines at the hardware limit</html>")
    server = StaticHttpServer(wasp, port=8080, isolation="snapshot")
    outcomes: list[dict] = []
    for index in range(ctx.requests):
        conn = kernel.sys_connect(8080)
        request = (f"GET /index.html HTTP/1.0\r\nHost: localhost\r\n"
                   f"X-Request: {index}\r\n\r\n")
        kernel.sys_send(conn, request.encode("latin-1"))
        outcome: dict = {}
        try:
            served = server.serve_one()
            outcome = {"status": served.status, "hypercalls": served.hypercalls}
        except VirtineCrash as crash:
            outcome = _crash_outcome(crash)
        except NetError as error:
            # The server's own accept/teardown path hit a dead socket (a
            # hostile stream can strand connections): still a per-request
            # outcome, not a harness failure.
            outcome = {"crash": "NetError", "detail": str(error)}

        def _drain() -> int:
            raw = bytearray()
            while True:
                chunk = kernel.sys_recv(conn, 65536)
                if not chunk:
                    break
                raw.extend(chunk)
                if not conn.pending():
                    break
            return len(raw)

        outcome["response_bytes"] = _client_io(_drain)
        _client_io(lambda: kernel.sys_sock_close(conn))
        outcomes.append(outcome)
    return wasp, {"outcomes": outcomes, "unavailable": server.unavailable}


# -- serverless: supervised hosted guest with explicit snapshotting ----------

BLOB_PATH = "/data/blob"
SERVERLESS_MILESTONE = 42


def _serverless_entry(env: Any) -> int:
    if not env.from_snapshot:
        env.charge(20_000)  # one-time init the snapshot elides
        env.snapshot()
    fd = env.hypercall(Hypercall.OPEN, BLOB_PATH, O_RDONLY)
    data = env.hypercall(Hypercall.READ, fd, 2048)
    env.hypercall(Hypercall.CLOSE, fd)
    env.charge_bytes(len(data))
    env.milestone(SERVERLESS_MILESTONE)
    return len(data)


def _drive_serverless(ctx: WorkloadContext,
                      fault_plan: FaultPlan | None = None) -> tuple[Wasp, dict]:
    wasp = ctx.make_wasp(fault_plan=fault_plan)
    wasp.kernel.fs.add_file(BLOB_PATH, b"r" * 2048)
    supervisor = Supervisor(wasp)
    image = ImageBuilder().hosted(name="replay-serverless",
                                  entry=_serverless_entry)
    outcomes: list[dict] = []
    for _ in range(ctx.requests):
        try:
            result = supervisor.launch(
                image,
                policy=PermissivePolicy(),
                allowed_paths=("/data/",),
                use_snapshot=True,
            )
            outcomes.append({
                "value": result.value,
                "exit_code": result.exit_code,
                "from_snapshot": result.from_snapshot,
                "hypercalls": result.hypercall_count,
                "milestones": [m for m, _ in result.milestones],
            })
        except (BreakerOpen, AdmissionRejected) as shed:
            outcomes.append({"shed": type(shed).__name__})
        except VirtineCrash as crash:
            outcomes.append(_crash_outcome(crash))
    return wasp, {"outcomes": outcomes}


def _drive_faulty(ctx: WorkloadContext) -> tuple[Wasp, dict]:
    plan = (
        FaultPlan(seed=ctx.seed)
        .fail(FaultSite.VCPU_RUN, rate=0.15)
        .fail(FaultSite.HOST_SYSCALL, rate=0.08)
        .fail(FaultSite.SNAPSHOT_RESTORE, on={2})
    )
    return _drive_serverless(ctx, fault_plan=plan)


REPLAY_WORKLOADS: dict[str, Callable[[WorkloadContext], tuple[Wasp, dict]]] = {
    "echo": _drive_echo,
    "http_snapshot": _drive_http_snapshot,
    "serverless": _drive_serverless,
    "faulty": _drive_faulty,
}


def collect_meta(wasp: Wasp, stats: dict) -> dict:
    """The determinism surface a replay must reproduce exactly.

    Everything here is either handler-plane state or trace attribution;
    guest-interior counters (interpreter components, TLB/EPT counts)
    are deliberately absent -- replay runs no interpreter.
    """
    meta = {
        "final_cycles": wasp.clock.cycles,
        "launches": wasp.launches,
        "timeouts": wasp.timeouts,
        "snapshot_fallbacks": wasp.snapshot_fallbacks,
        "snapshot_captures": wasp.snapshots.captures,
        "snapshot_restores": wasp.snapshots.restores,
        "snapshot_integrity_failures": wasp.snapshots.integrity_failures,
        "fault_signature": [list(entry) for entry in wasp.fault_plan.signature()],
        "attribution_by_name": attribution(wasp.tracer, by="name"),
        "attribution_by_category": attribution(wasp.tracer, by="category"),
        "open_fds": wasp.kernel.fs.open_fd_count(),
        "stats": stats,
    }
    if wasp.supervisor is not None:
        meta["supervision"] = [
            [e.seq, e.image, e.attempt,
             e.crash_class.value if e.crash_class is not None else None,
             e.action, e.cycles, e.detail]
            for e in wasp.supervisor.trace
        ]
    return meta
