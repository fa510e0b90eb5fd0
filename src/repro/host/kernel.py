"""The simulated host kernel.

Owns the clock, the filesystem, and the loopback network, and charges
syscall costs for every entry from userspace.  Wasp's hypercall handlers
delegate here after validating guest arguments ("a validated read() will
turn into a read() on the host filesystem", Section 6.3).
"""

from __future__ import annotations

from repro.faults import FaultSite
from repro.hw.clock import Clock
from repro.hw.costs import COSTS, CostModel
from repro.host.filesystem import FsError, InMemoryFilesystem, O_RDONLY, StatResult
from repro.host.network import Listener, LoopbackNetwork, Socket

#: Bound once: reading an enum member off its class runs the enum
#: metaclass's ``__getattr__`` hook.
_HOST_SYSCALL = FaultSite.HOST_SYSCALL


class HostKernel:
    """Host kernel: syscall surface + cost accounting."""

    def __init__(
        self,
        clock: Clock | None = None,
        costs: CostModel = COSTS,
    ) -> None:
        self.clock = clock if clock is not None else Clock()
        self.costs = costs
        self.fs = InMemoryFilesystem()
        self.net = LoopbackNetwork()
        self.syscall_count = 0
        #: One ordinary syscall round trip, priced once.
        self._syscall_cycles = costs.syscall()

    # -- accounting ---------------------------------------------------------
    # Every sys_* charges its own entry: one ordinary syscall round trip
    # (``_syscall_cycles``, priced once) plus its body's extra work, and
    # counts itself.  Both are non-negative ints of the validated cost
    # model, so the charge is a direct add to the clock.  The file
    # syscalls test the clock's fault plan first (read per call, as a
    # kernel can be built before its plane, and a plan armed later).
    def _io_fault(self, op: str) -> FsError:
        """An injected disk EIO (the filesystem-syscall fault injection
        point).  A failed syscall still pays its ring transitions: the
        fault charges one ordinary syscall round trip before surfacing."""
        self.clock.cycles += self._syscall_cycles
        self.syscall_count += 1
        return FsError("EIO", f"injected host I/O fault during {op}")

    # -- filesystem syscalls ---------------------------------------------------
    def sys_open(self, path: str, flags: int = O_RDONLY) -> int:
        plan = self.clock.fault_plan
        if plan.enabled and plan.draw(_HOST_SYSCALL, "open"):
            raise self._io_fault("open")
        self.clock.cycles += self._syscall_cycles
        self.syscall_count += 1
        return self.fs.open(path, flags)

    def sys_read(self, fd: int, count: int) -> bytes:
        plan = self.clock.fault_plan
        if plan.enabled and plan.draw(_HOST_SYSCALL, "read"):
            raise self._io_fault("read")
        data = self.fs.read(fd, count)
        # Copy-out cost scales with the transfer size.
        self.clock.cycles += self._syscall_cycles + self.costs.memcpy(len(data))
        self.syscall_count += 1
        return data

    def sys_write(self, fd: int, data: bytes) -> int:
        plan = self.clock.fault_plan
        if plan.enabled and plan.draw(_HOST_SYSCALL, "write"):
            raise self._io_fault("write")
        self.clock.cycles += self._syscall_cycles + self.costs.memcpy(len(data))
        self.syscall_count += 1
        return self.fs.write(fd, data)

    def sys_stat(self, path: str) -> StatResult:
        plan = self.clock.fault_plan
        if plan.enabled and plan.draw(_HOST_SYSCALL, "stat"):
            raise self._io_fault("stat")
        self.clock.cycles += self._syscall_cycles
        self.syscall_count += 1
        return self.fs.stat(path)

    def sys_close(self, fd: int) -> None:
        self.clock.cycles += self._syscall_cycles
        self.syscall_count += 1
        self.fs.close(fd)

    # -- network syscalls ----------------------------------------------------------
    def sys_listen(self, port: int) -> Listener:
        self.clock.cycles += self._syscall_cycles
        self.syscall_count += 1
        return self.net.listen(port)

    def sys_accept(self, listener: Listener) -> Socket:
        self.clock.cycles += self._syscall_cycles
        self.syscall_count += 1
        return self.net.accept(listener)

    def sys_connect(self, port: int) -> Socket:
        self.clock.cycles += self._syscall_cycles + self.costs.LOOPBACK_LATENCY
        self.syscall_count += 1
        return self.net.connect(port)

    def sys_send(self, sock: Socket, data: bytes) -> int:
        costs = self.costs
        self.clock.cycles += (self._syscall_cycles + costs.memcpy(len(data))
                              + costs.LOOPBACK_LATENCY)
        self.syscall_count += 1
        return sock.send(data)

    def sys_recv(self, sock: Socket, max_bytes: int) -> bytes:
        data = sock.recv(max_bytes)
        self.clock.cycles += self._syscall_cycles + self.costs.memcpy(len(data))
        self.syscall_count += 1
        return data

    def sys_sock_close(self, sock: Socket) -> None:
        self.clock.cycles += self._syscall_cycles
        self.syscall_count += 1
        sock.close()
