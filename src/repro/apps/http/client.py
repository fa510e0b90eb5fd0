"""A localhost request generator.

"Requests are generated from localhost using a custom request generator
(which always requests a single static file)" (Section 6.3).  The
generator connects over the loopback model, sends a GET, drives the
server's accept/serve loop (the simulation is cooperative), and reads
the response, timing the whole round trip on the simulated clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.http.httpmsg import HttpResponse, parse_response
from repro.apps.http.server import StaticHttpServer
from repro.host.kernel import HostKernel
from repro.stats import harmonic_mean
from repro.units import cycles_to_seconds, cycles_to_us


@dataclass
class RequestOutcome:
    """One request's end-to-end result."""

    response: HttpResponse
    latency_cycles: int


class RequestGenerator:
    """Drives a :class:`StaticHttpServer` with single-file GETs."""

    def __init__(self, kernel: HostKernel, server: StaticHttpServer, path: str = "/index.html") -> None:
        self.kernel = kernel
        self.server = server
        self.path = path

    def one_request(self) -> RequestOutcome:
        """Issue one GET and wait for the response."""
        clock = self.kernel.clock
        start = clock.cycles
        conn = self.kernel.sys_connect(self.server.port)
        request = f"GET {self.path} HTTP/1.0\r\nHost: localhost\r\n\r\n".encode("latin-1")
        self.kernel.sys_send(conn, request)
        # Cooperative scheduling: the server runs now.
        self.server.serve_one()
        raw = bytearray()
        while True:
            chunk = self.kernel.sys_recv(conn, 65536)
            if not chunk:
                break
            raw.extend(chunk)
            if not conn.pending():
                break
        self.kernel.sys_sock_close(conn)
        return RequestOutcome(
            response=parse_response(bytes(raw)),
            latency_cycles=clock.cycles - start,
        )

    def run(self, count: int) -> "LoadReport":
        """Issue ``count`` sequential requests and aggregate."""
        latencies: list[float] = []
        errors = 0
        start = self.kernel.clock.cycles
        for _ in range(count):
            outcome = self.one_request()
            latencies.append(float(outcome.latency_cycles))
            if outcome.response.status != 200:
                errors += 1
        elapsed = self.kernel.clock.cycles - start
        return LoadReport(latencies_cycles=latencies, elapsed_cycles=elapsed, errors=errors)


@dataclass
class LoadReport:
    """Aggregated latency/throughput for one load run."""

    latencies_cycles: list[float]
    elapsed_cycles: int
    errors: int

    @property
    def mean_latency_us(self) -> float:
        return cycles_to_us(sum(self.latencies_cycles) / len(self.latencies_cycles))

    @property
    def harmonic_mean_rps(self) -> float:
        """Harmonic mean of per-request rates (Figure 13's throughput)."""
        rates = [1.0 / cycles_to_seconds(lat) for lat in self.latencies_cycles if lat > 0]
        return harmonic_mean(rates)
