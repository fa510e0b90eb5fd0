"""HTTP servers: the Figure 4 echo server and the Figure 13 static server.

Echo server (Section 4.2): "a simple HTTP echo server where each request
is handled in a new virtual context employing our minimal environment
... uses hypercall-based I/O to echo HTTP requests back to the sender."
It runs in protected mode without paging ("this example does not
actually require 64-bit mode") and records the paper's three milestones:
reaching main, the return from ``recv()``, and the completion of
``send()``.

Static server (Section 6.3): single-threaded, serves one file per
connection.  The virtine-per-connection variant performs exactly the
paper's seven host interactions: (1) ``recv`` the request, (2) ``stat``
the file, (3) ``open``, (4) ``read``, (5) ``send`` the response,
(6) ``close``, (7) ``exit``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.apps.http.httpmsg import HttpError, build_response, parse_request
from repro.host.filesystem import FsError, O_RDONLY
from repro.host.network import Listener, NetError, Socket
from repro.hw.cpu import Mode
from repro.runtime.image import ImageBuilder
from repro.units import cycles_to_seconds
from repro.wasp.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionRejected,
    AdmissionTicket,
    BrownoutLevel,
    Deadline,
)
from repro.wasp.guestenv import GuestEnv
from repro.wasp.hypercall import Hypercall, HypercallError
from repro.wasp.hypervisor import Wasp
from repro.wasp.policy import BitmaskPolicy, VirtineConfig
from repro.wasp.pool import CleanMode
from repro.wasp.supervisor import BreakerOpen, Supervisor
from repro.wasp.virtine import VirtineCrash, VirtineResult, VirtineTimeout

#: Cycles to parse a request line + headers in guest/native code.
HTTP_PARSE_COST = 900
#: Cycles to format a response head.
HTTP_BUILD_COST = 500

# Milestone markers for the echo server (Figure 4).
MS_MAIN = 100
MS_RECV_DONE = 101
MS_SEND_DONE = 102

#: Guest handle under which the connection socket is granted.
CONN_HANDLE = 0

# Each server's hypercall allow-list, built once: a BitmaskPolicy keeps
# no per-launch state, so every launch can share it.
ECHO_POLICY = BitmaskPolicy(VirtineConfig.allowing(Hypercall.RECV, Hypercall.SEND))
STATIC_POLICY = BitmaskPolicy(VirtineConfig.allowing(
    Hypercall.RECV,
    Hypercall.STAT,
    Hypercall.OPEN,
    Hypercall.READ,
    Hypercall.SEND,
    Hypercall.CLOSE,
    Hypercall.SNAPSHOT,
))

# The static handler's hypercalls and its launches' clean mode, bound
# once per process: reading an enum member off its class runs the enum
# metaclass's ``__getattr__`` hook, seven times a request.
_RECV, _STAT, _OPEN, _READ, _SEND, _CLOSE = (
    Hypercall.RECV, Hypercall.STAT, Hypercall.OPEN, Hypercall.READ,
    Hypercall.SEND, Hypercall.CLOSE)
_ASYNC = CleanMode.ASYNC


class EchoServer:
    """The Figure 4 echo server: one protected-mode virtine per request."""

    def __init__(self, wasp: Wasp, port: int = 8080) -> None:
        self.wasp = wasp
        self.port = port
        self.listener: Listener = wasp.kernel.sys_listen(port)
        self.image = ImageBuilder().hosted(
            name="echo-server",
            entry=self._entry,
            mode=Mode.PROT32,  # no paging: the echo handler never needs it
            metadata={"milestones": (MS_MAIN, MS_RECV_DONE, MS_SEND_DONE)},
        )

    def _entry(self, env: GuestEnv) -> None:
        env.milestone(MS_MAIN)
        request = env.hypercall(Hypercall.RECV, CONN_HANDLE, 4096)
        env.milestone(MS_RECV_DONE)
        env.charge_bytes(len(request))
        response = build_response(body=request, content_type="text/plain")
        env.charge(HTTP_BUILD_COST)
        env.hypercall(Hypercall.SEND, CONN_HANDLE, response)
        env.milestone(MS_SEND_DONE)

    def handle_one(self) -> VirtineResult:
        """Accept one pending connection and echo it from a virtine."""
        conn = self.wasp.kernel.sys_accept(self.listener)
        try:
            return self.wasp.launch(
                self.image,
                policy=ECHO_POLICY,
                resources={CONN_HANDLE: conn},
                use_snapshot=False,
            )
        finally:
            self.wasp.kernel.sys_sock_close(conn)


@dataclass
class ServedRequest:
    """Bookkeeping for one connection served by the static server."""

    path: str
    status: int
    cycles: int
    hypercalls: int


class StaticHttpServer:
    """Single-threaded static-content server (Figure 13).

    ``isolation`` selects the connection-handling strategy:

    * ``"native"``   -- handled in the server process,
    * ``"virtine"``  -- one virtine per connection, no snapshotting,
    * ``"snapshot"`` -- one virtine per connection with snapshotting.
    """

    ISOLATION_MODES = ("native", "virtine", "snapshot")

    def __init__(
        self,
        wasp: Wasp,
        port: int = 8000,
        isolation: str = "native",
        docroot: str = "/srv",
        supervisor: Supervisor | None = None,
        admission: AdmissionController | None = None,
        deadline_cycles: int | None = None,
    ) -> None:
        if isolation not in self.ISOLATION_MODES:
            raise ValueError(f"unknown isolation mode {isolation!r}")
        self.wasp = wasp
        self.kernel = wasp.kernel
        self.port = port
        self.isolation = isolation
        self.docroot = docroot.rstrip("/")
        #: Optional supervision: virtine crashes become 503 responses
        #: (with retries/breaker per the supervisor's policy) instead of
        #: propagating out of :meth:`serve_one` and killing the server.
        self.supervisor = supervisor
        #: Optional overload gate: shed connections are answered 429
        #: (rate-limited -- the client should back off) or 503 (the
        #: server is saturated), both with a Retry-After header, before
        #: any virtine work is provisioned for them.  Attach the
        #: controller here *or* on the supervisor, not both -- double
        #: gating would record every request twice.
        self.admission = admission
        #: Per-request cycle budget minted at accept time when admission
        #: is enabled (time on the backlog counts against it).
        self.deadline_cycles = deadline_cycles
        #: Connections answered 503 because the handler virtine could
        #: not be run to completion.
        self.unavailable = 0
        #: Connections shed with 429 (rate limit) / 503 (overload).
        self.rejected_429 = 0
        self.rejected_503 = 0
        self._last_request_id = 0
        self.listener: Listener = self.kernel.sys_listen(port)
        self.served: list[ServedRequest] = []
        self.image = ImageBuilder().hosted(
            name=f"http-conn-{isolation}",
            entry=self._entry,
            metadata={"hypercalls": 7},
        )

    def _resolve(self, url_path: str) -> str:
        path = url_path.split("?", 1)[0]
        if not path.startswith("/"):
            path = "/" + path
        if path.endswith("/"):
            path += "index.html"
        return self.docroot + path

    # -- native handling -----------------------------------------------------
    def _handle_native(self, conn: Socket) -> ServedRequest:
        clock = self.kernel.clock
        start = clock.cycles
        raw = self.kernel.sys_recv(conn, 4096)
        clock.advance(HTTP_PARSE_COST)
        try:
            request = parse_request(raw)
            file_path = self._resolve(request.path)
            size = self.kernel.sys_stat(file_path).size
            fd = self.kernel.sys_open(file_path, O_RDONLY)
            body = self.kernel.sys_read(fd, size)
            clock.advance(HTTP_BUILD_COST)
            response = build_response(body=body, content_type="text/html")
            status = 200
            self.kernel.sys_send(conn, response)
            self.kernel.sys_close(fd)
        except (FsError, HttpError):
            clock.advance(HTTP_BUILD_COST)
            self.kernel.sys_send(conn, build_response(404, "Not Found", b"not found"))
            status = 404
        return ServedRequest(
            path=getattr(request, "path", "?") if "request" in locals() else "?",
            status=status,
            cycles=clock.cycles - start,
            hypercalls=0,
        )

    # -- virtine handling -----------------------------------------------------------
    def _entry(self, env: GuestEnv) -> int:
        """The annotated connection-handler: seven host interactions."""
        raw = env.hypercall(_RECV, CONN_HANDLE, 4096)  # (1)
        env.charge(HTTP_PARSE_COST)
        request = parse_request(raw)
        file_path = self._resolve(request.path)
        try:
            size = env.hypercall(_STAT, file_path)  # (2)
            fd = env.hypercall(_OPEN, file_path, O_RDONLY)  # (3)
            body = env.hypercall(_READ, fd, size)  # (4)
            env.charge(HTTP_BUILD_COST)
            response = build_response(body=body, content_type="text/html")
            env.hypercall(_SEND, CONN_HANDLE, response)  # (5)
            env.hypercall(_CLOSE, fd)  # (6)
            status = 200
        except HypercallError:
            env.charge(HTTP_BUILD_COST)
            env.hypercall(_SEND, CONN_HANDLE, build_response(404, "Not Found", b"not found"))
            status = 404
        env.exit(status)  # (7)
        return status

    def _handle_virtine(self, conn: Socket, use_snapshot: bool,
                        deadline: Deadline | None = None) -> ServedRequest:
        launch_kwargs = dict(
            policy=STATIC_POLICY,
            handlers=None,
            resources={CONN_HANDLE: conn},
            allowed_paths=(self.docroot + "/",),
            use_snapshot=use_snapshot,
            clean=_ASYNC,
            deadline=deadline,
        )
        if self.supervisor is None:
            start = self.kernel.clock.cycles
            try:
                result = self.wasp.launch(self.image, **launch_kwargs)
            except VirtineTimeout:
                # Cancelled at its deadline: record the overload outcome
                # and degrade, exactly like a supervised crash would.
                if self.admission is not None:
                    self.admission.record_timeout(
                        self.image.name, self.kernel.clock.cycles,
                        request_id=self._last_request_id,
                    )
                return self._serve_unavailable(conn, start)
        else:
            start = self.kernel.clock.cycles
            try:
                result = self.supervisor.launch(self.image, **launch_kwargs)
            except VirtineTimeout:
                if self.admission is not None:
                    # This server's gate admitted the request, so the
                    # supervisor (gate-less) did not record the timeout.
                    self.admission.record_timeout(
                        self.image.name, self.kernel.clock.cycles,
                        request_id=self._last_request_id,
                    )
                return self._serve_unavailable(conn, start)
            except (AdmissionRejected, BreakerOpen, VirtineCrash):
                return self._serve_unavailable(conn, start)
        return ServedRequest(
            path="?",
            status=result.exit_code,
            cycles=result.cycles,
            hypercalls=result.hypercall_count,
        )

    def _serve_unavailable(self, conn: Socket, start: int) -> ServedRequest:
        """Degrade gracefully: answer 503 instead of dropping the server.

        The crashed virtine is already quarantined and accounted; the
        client gets a well-formed response from the host side.  The send
        is best-effort -- the connection may be the thing that failed.
        """
        self.unavailable += 1
        self.kernel.clock.advance(HTTP_BUILD_COST)
        response = build_response(503, "Service Unavailable", b"try again later")
        try:
            self.kernel.sys_send(conn, response)
        except NetError:
            pass
        return ServedRequest(
            path="?",
            status=503,
            cycles=self.kernel.clock.cycles - start,
            hypercalls=0,
        )

    # -- overload plane -----------------------------------------------------------------
    def _retry_after_header(self, retry_after_cycles: float) -> dict:
        """Retry-After in whole seconds (floor 1; unknown horizon -> 60)."""
        if not math.isfinite(retry_after_cycles):
            return {"Retry-After": "60"}
        seconds = max(1, math.ceil(cycles_to_seconds(retry_after_cycles)))
        return {"Retry-After": str(seconds)}

    def _serve_shed(self, conn: Socket, ticket: AdmissionTicket,
                    start: int) -> ServedRequest:
        """Answer a shed connection without provisioning any virtine.

        Rate-limited clients get 429 (their fault: back off); everything
        else (queue full, dead-on-arrival deadline) gets 503 (our fault:
        the server is saturated).  Both carry Retry-After.
        """
        if ticket.decision is AdmissionDecision.SHED_RATE_LIMIT:
            status, reason = 429, "Too Many Requests"
            self.rejected_429 += 1
        else:
            status, reason = 503, "Service Unavailable"
            self.rejected_503 += 1
        self.kernel.clock.advance(HTTP_BUILD_COST)
        response = build_response(
            status, reason, b"overloaded, try again later",
            extra_headers=self._retry_after_header(ticket.retry_after),
        )
        try:
            self.kernel.sys_send(conn, response)
        except NetError:
            pass
        return ServedRequest(
            path="?",
            status=status,
            cycles=self.kernel.clock.cycles - start,
            hypercalls=0,
        )

    def brownout_level(self) -> BrownoutLevel:
        """The gate's current posture (NORMAL without a controller)."""
        if self.admission is None:
            return BrownoutLevel.NORMAL
        return self.admission.brownout_level(queue_depth=self.pending_connections())

    # -- serving loop -------------------------------------------------------------------
    def serve_one(self) -> ServedRequest:
        """Accept and fully serve one pending connection.

        With an admission controller attached, the accepted connection
        passes the overload gate first: the listener backlog is the
        bounded queue, and shed connections are answered 429/503 with
        Retry-After *before* any virtine is provisioned.  Admitted
        connections carry a request-scoped deadline into the launch.
        """
        conn = self.kernel.sys_accept(self.listener)
        try:
            deadline = None
            if self.admission is not None:
                now = self.kernel.clock.cycles
                if self.deadline_cycles is not None:
                    deadline = Deadline.after(now, self.deadline_cycles)
                ticket = self.admission.admit(
                    self.image.name, now,
                    deadline=deadline,
                    queue_depth=self.pending_connections(),
                )
                self._last_request_id = ticket.request_id
                if not ticket.admitted:
                    served = self._serve_shed(conn, ticket, now)
                    self.served.append(served)
                    return served
            if self.isolation == "native":
                served = self._handle_native(conn)
            else:
                served = self._handle_virtine(
                    conn, use_snapshot=self.isolation == "snapshot",
                    deadline=deadline,
                )
        finally:
            self.kernel.sys_sock_close(conn)
        self.served.append(served)
        return served

    def pending_connections(self) -> int:
        return len(self.listener.backlog)
