"""Canned hypercall handlers.

Virtine clients "can also choose from a variety of general-purpose
handlers that Wasp provides out-of-the-box" (Section 5.1).  These are
those handlers: each validates its arguments under the adversarial
assumptions of Section 3.2 (inputs may be manipulated; memory bounds and
handles must be checked) and then re-creates the call on the host kernel,
exactly as the paper's HTTP experiment describes ("a validated read()
will turn into a read() on the host filesystem", Section 6.3).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.host.filesystem import FsError
from repro.host.kernel import HostKernel
from repro.host.network import NetError, Socket
from repro.wasp.hypercall import Hypercall, HypercallError, HypercallRequest

#: Upper bound on a single hypercall transfer; larger requests are
#: rejected rather than trusted (guest-supplied sizes are adversarial).
MAX_TRANSFER = 1 << 20

Handler = Callable[[HypercallRequest], Any]


# Each check raises before it builds its message: validation runs on
# every hypercall, and the message only matters on rejection.  The
# handlers check arity inline, argument by argument, before each
# argument's own check (adversarial guests may pass any arity).

def _missing(request: HypercallRequest) -> HypercallError:
    """The rejection of a short argument list: the first absent index
    is the number supplied."""
    supplied = len(request.args)
    return HypercallError(request.nr, "EINVAL",
                          f"missing argument {supplied} ({supplied} supplied)")


def _checked_path(request: HypercallRequest, path: Any) -> str:
    if not isinstance(path, str):
        raise HypercallError(request.nr, "EINVAL", "path must be a string")
    if len(path) >= 4096:
        raise HypercallError(request.nr, "ENAMETOOLONG", "path too long")
    if ".." in path.split("/"):
        raise HypercallError(request.nr, "EACCES", "path traversal rejected")
    allowed_roots = request.virtine.allowed_path_prefixes
    if allowed_roots is not None and not path.startswith(tuple(allowed_roots)):
        raise HypercallError(request.nr, "EACCES",
                             f"path {path!r} outside permitted roots")
    return path


def _checked_count(request: HypercallRequest, count: Any) -> int:
    if not isinstance(count, int):
        raise HypercallError(request.nr, "EINVAL", "count must be an int")
    if not 0 <= count <= MAX_TRANSFER:
        raise HypercallError(request.nr, "EINVAL", f"count {count} out of bounds")
    return count


def _checked_data(request: HypercallRequest, data: Any) -> bytes:
    if not isinstance(data, (bytes, bytearray)):
        raise HypercallError(request.nr, "EINVAL", "data must be bytes")
    if len(data) > MAX_TRANSFER:
        raise HypercallError(request.nr, "EINVAL", "transfer too large")
    return bytes(data)


def _owned_fd(request: HypercallRequest, fd: Any) -> int:
    if not isinstance(fd, int):
        raise HypercallError(request.nr, "EINVAL", "fd must be an int")
    if fd not in request.virtine.owned_fds:
        raise HypercallError(request.nr, "EBADF", f"fd {fd} not owned by virtine")
    return fd


def _socket_resource(request: HypercallRequest, handle: Any) -> Socket:
    if not isinstance(handle, int):
        raise HypercallError(request.nr, "EINVAL", "handle must be an int")
    resource = request.virtine.resources.get(handle)
    if resource is None:
        raise HypercallError(request.nr, "EBADF", f"no resource with handle {handle}")
    if not isinstance(resource, Socket):
        raise HypercallError(request.nr, "ENOTSOCK", f"handle {handle} is not a socket")
    return resource


class CannedHandlers:
    """The out-of-the-box POSIX-like handler set, bound to a host kernel."""

    def __init__(self, kernel: HostKernel) -> None:
        self.kernel = kernel

    def table(self) -> dict[Hypercall, Handler]:
        """The handler table a client installs into Wasp."""
        return {
            Hypercall.EXIT: self.hc_exit,
            Hypercall.OPEN: self.hc_open,
            Hypercall.READ: self.hc_read,
            Hypercall.WRITE: self.hc_write,
            Hypercall.STAT: self.hc_stat,
            Hypercall.CLOSE: self.hc_close,
            Hypercall.SEND: self.hc_send,
            Hypercall.RECV: self.hc_recv,
        }

    # -- handlers ---------------------------------------------------------------
    def hc_exit(self, request: HypercallRequest) -> int:
        code = request.args[0] if request.args else 0
        if not isinstance(code, int):
            raise HypercallError(request.nr, "EINVAL", "exit code must be an int")
        request.virtine.exit_code = code
        return 0

    def hc_open(self, request: HypercallRequest) -> int:
        args = request.args
        if not args:
            raise _missing(request)
        path = _checked_path(request, args[0])
        flags = args[1] if len(args) > 1 else 0
        if not isinstance(flags, int):
            raise HypercallError(request.nr, "EINVAL", "flags must be an int")
        try:
            fd = self.kernel.sys_open(path, flags)
        except FsError as error:
            raise HypercallError(request.nr, error.errno_name, path) from error
        request.virtine.owned_fds.add(fd)
        return fd

    def hc_read(self, request: HypercallRequest) -> bytes:
        args = request.args
        if not args:
            raise _missing(request)
        fd = _owned_fd(request, args[0])
        if len(args) < 2:
            raise _missing(request)
        count = _checked_count(request, args[1])
        try:
            return self.kernel.sys_read(fd, count)
        except FsError as error:
            raise HypercallError(request.nr, error.errno_name, f"fd {fd}") from error

    def hc_write(self, request: HypercallRequest) -> int:
        args = request.args
        if not args:
            raise _missing(request)
        fd = _owned_fd(request, args[0])
        if len(args) < 2:
            raise _missing(request)
        data = _checked_data(request, args[1])
        try:
            return self.kernel.sys_write(fd, data)
        except FsError as error:
            raise HypercallError(request.nr, error.errno_name, f"fd {fd}") from error

    def hc_stat(self, request: HypercallRequest) -> int:
        if not request.args:
            raise _missing(request)
        path = _checked_path(request, request.args[0])
        try:
            return self.kernel.sys_stat(path).size
        except FsError as error:
            raise HypercallError(request.nr, error.errno_name, path) from error

    def hc_close(self, request: HypercallRequest) -> int:
        if not request.args:
            raise _missing(request)
        fd = _owned_fd(request, request.args[0])
        try:
            self.kernel.sys_close(fd)
        except FsError as error:
            raise HypercallError(request.nr, error.errno_name, f"fd {fd}") from error
        request.virtine.owned_fds.discard(fd)
        return 0

    def hc_send(self, request: HypercallRequest) -> int:
        args = request.args
        if not args:
            raise _missing(request)
        sock = _socket_resource(request, args[0])
        if len(args) < 2:
            raise _missing(request)
        data = _checked_data(request, args[1])
        try:
            return self.kernel.sys_send(sock, data)
        except NetError as error:
            raise HypercallError(request.nr, error.errno_name, "send") from error

    def hc_recv(self, request: HypercallRequest) -> bytes:
        args = request.args
        if not args:
            raise _missing(request)
        sock = _socket_resource(request, args[0])
        if len(args) < 2:
            raise _missing(request)
        count = _checked_count(request, args[1])
        try:
            return self.kernel.sys_recv(sock, count)
        except NetError as error:
            raise HypercallError(request.nr, error.errno_name, "recv") from error
