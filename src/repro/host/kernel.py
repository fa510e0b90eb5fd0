"""The simulated host kernel.

Owns the clock, the filesystem, and the loopback network, and charges
syscall costs for every entry from userspace.  Wasp's hypercall handlers
delegate here after validating guest arguments ("a validated read() will
turn into a read() on the host filesystem", Section 6.3).
"""

from __future__ import annotations

from repro.faults import NO_FAULTS, FaultPlan, FaultSite
from repro.hw.clock import Clock
from repro.hw.costs import COSTS, CostModel
from repro.host.filesystem import FsError, InMemoryFilesystem, O_RDONLY, StatResult
from repro.host.network import Listener, LoopbackNetwork, Socket


class HostKernel:
    """Host kernel: syscall surface + cost accounting."""

    def __init__(
        self,
        clock: Clock | None = None,
        costs: CostModel = COSTS,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.clock = clock if clock is not None else Clock()
        self.costs = costs
        self.fault_plan = fault_plan if fault_plan is not None else NO_FAULTS
        self.fs = InMemoryFilesystem()
        self.net = LoopbackNetwork()
        self.syscall_count = 0

    # -- accounting ---------------------------------------------------------
    def _syscall(self, body_extra: int = 0) -> None:
        self.clock.advance(self.costs.syscall() + body_extra)
        self.syscall_count += 1

    def _maybe_io_fault(self, op: str) -> None:
        """The filesystem-syscall fault injection point (disk EIO).

        A failed syscall still pays its ring transitions: the fault
        charges one ordinary syscall round trip before surfacing.
        """
        if self.fault_plan.draw(FaultSite.HOST_SYSCALL, op):
            self._syscall()
            raise FsError("EIO", f"injected host I/O fault during {op}")

    # -- filesystem syscalls ---------------------------------------------------
    def sys_open(self, path: str, flags: int = O_RDONLY) -> int:
        self._maybe_io_fault("open")
        self._syscall()
        return self.fs.open(path, flags)

    def sys_read(self, fd: int, count: int) -> bytes:
        self._maybe_io_fault("read")
        data = self.fs.read(fd, count)
        # Copy-out cost scales with the transfer size.
        self._syscall(self.costs.memcpy(len(data)))
        return data

    def sys_write(self, fd: int, data: bytes) -> int:
        self._maybe_io_fault("write")
        self._syscall(self.costs.memcpy(len(data)))
        return self.fs.write(fd, data)

    def sys_stat(self, path: str) -> StatResult:
        self._maybe_io_fault("stat")
        self._syscall()
        return self.fs.stat(path)

    def sys_close(self, fd: int) -> None:
        self._syscall()
        self.fs.close(fd)

    # -- network syscalls ----------------------------------------------------------
    def sys_listen(self, port: int) -> Listener:
        self._syscall()
        return self.net.listen(port)

    def sys_accept(self, listener: Listener) -> Socket:
        self._syscall()
        return self.net.accept(listener)

    def sys_connect(self, port: int) -> Socket:
        self._syscall(self.costs.LOOPBACK_LATENCY)
        return self.net.connect(port)

    def sys_send(self, sock: Socket, data: bytes) -> int:
        self._syscall(self.costs.memcpy(len(data)) + self.costs.LOOPBACK_LATENCY)
        return sock.send(data)

    def sys_recv(self, sock: Socket, max_bytes: int) -> bytes:
        data = sock.recv(max_bytes)
        self._syscall(self.costs.memcpy(len(data)))
        return data

    def sys_sock_close(self, sock: Socket) -> None:
        self._syscall()
        sock.close()
