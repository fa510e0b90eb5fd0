"""Canned-handler validation tests: the adversarial-input checks of
Section 3.2 (bounds, handles, path confinement)."""

import pytest

from repro.host.filesystem import O_CREAT, O_RDWR, O_WRONLY
from repro.host.kernel import HostKernel
from repro.runtime.image import ImageBuilder
from repro.wasp.handlers import CannedHandlers, MAX_TRANSFER
from repro.wasp.hypercall import Hypercall, HypercallError, HypercallRequest
from repro.wasp.pool import Shell
from repro.wasp.virtine import Virtine


@pytest.fixture
def world():
    kernel = HostKernel()
    kernel.fs.add_file("/srv/file.txt", b"content here")
    kernel.fs.add_file("/etc/shadow", b"secret")
    handlers = CannedHandlers(kernel)

    # A minimal virtine stand-in (no VM needed for handler validation).
    class FakeShell:
        pass

    virtine = Virtine(
        name="t",
        image=ImageBuilder().minimal(),
        shell=FakeShell(),
        allowed_path_prefixes=("/srv/",),
    )
    return kernel, handlers, virtine


def request(virtine, nr, *args):
    return HypercallRequest(nr=nr, args=args, virtine=virtine)


class TestOpenValidation:
    def test_open_allowed_path(self, world):
        kernel, handlers, virtine = world
        fd = handlers.hc_open(request(virtine, Hypercall.OPEN, "/srv/file.txt"))
        assert fd in virtine.owned_fds

    def test_path_traversal_rejected(self, world):
        _, handlers, virtine = world
        with pytest.raises(HypercallError) as excinfo:
            handlers.hc_open(request(virtine, Hypercall.OPEN, "/srv/../etc/shadow"))
        assert excinfo.value.errno_name == "EACCES"

    def test_outside_root_rejected(self, world):
        _, handlers, virtine = world
        with pytest.raises(HypercallError) as excinfo:
            handlers.hc_open(request(virtine, Hypercall.OPEN, "/etc/shadow"))
        assert excinfo.value.errno_name == "EACCES"

    def test_non_string_path_rejected(self, world):
        _, handlers, virtine = world
        with pytest.raises(HypercallError) as excinfo:
            handlers.hc_open(request(virtine, Hypercall.OPEN, 1234))
        assert excinfo.value.errno_name == "EINVAL"

    def test_huge_path_rejected(self, world):
        _, handlers, virtine = world
        with pytest.raises(HypercallError) as excinfo:
            handlers.hc_open(request(virtine, Hypercall.OPEN, "/srv/" + "a" * 5000))
        assert excinfo.value.errno_name == "ENAMETOOLONG"

    def test_missing_file_maps_enoent(self, world):
        _, handlers, virtine = world
        with pytest.raises(HypercallError) as excinfo:
            handlers.hc_open(request(virtine, Hypercall.OPEN, "/srv/none.txt"))
        assert excinfo.value.errno_name == "ENOENT"

    def test_no_prefix_restriction_allows_any_valid_path(self, world):
        kernel, handlers, virtine = world
        virtine.allowed_path_prefixes = None
        handlers.hc_open(request(virtine, Hypercall.OPEN, "/etc/shadow"))


class TestFdOwnership:
    def test_read_own_fd(self, world):
        _, handlers, virtine = world
        fd = handlers.hc_open(request(virtine, Hypercall.OPEN, "/srv/file.txt"))
        data = handlers.hc_read(request(virtine, Hypercall.READ, fd, 7))
        assert data == b"content"

    def test_read_foreign_fd_rejected(self, world):
        """A virtine guessing another context's fd must be stopped."""
        kernel, handlers, virtine = world
        foreign_fd = kernel.sys_open("/etc/shadow")
        with pytest.raises(HypercallError) as excinfo:
            handlers.hc_read(request(virtine, Hypercall.READ, foreign_fd, 100))
        assert excinfo.value.errno_name == "EBADF"

    def test_negative_count_rejected(self, world):
        _, handlers, virtine = world
        fd = handlers.hc_open(request(virtine, Hypercall.OPEN, "/srv/file.txt"))
        with pytest.raises(HypercallError):
            handlers.hc_read(request(virtine, Hypercall.READ, fd, -1))

    def test_oversized_count_rejected(self, world):
        _, handlers, virtine = world
        fd = handlers.hc_open(request(virtine, Hypercall.OPEN, "/srv/file.txt"))
        with pytest.raises(HypercallError):
            handlers.hc_read(request(virtine, Hypercall.READ, fd, MAX_TRANSFER + 1))

    def test_close_removes_ownership(self, world):
        _, handlers, virtine = world
        fd = handlers.hc_open(request(virtine, Hypercall.OPEN, "/srv/file.txt"))
        handlers.hc_close(request(virtine, Hypercall.CLOSE, fd))
        assert fd not in virtine.owned_fds
        with pytest.raises(HypercallError):
            handlers.hc_read(request(virtine, Hypercall.READ, fd, 1))

    def test_stat_respects_roots(self, world):
        _, handlers, virtine = world
        assert handlers.hc_stat(request(virtine, Hypercall.STAT, "/srv/file.txt")) == 12
        with pytest.raises(HypercallError):
            handlers.hc_stat(request(virtine, Hypercall.STAT, "/etc/shadow"))


class TestWrite:
    """``WRITE`` takes the same fd-ownership and transfer-bound checks as
    ``READ``, then lands on the host file through ``sys_write``."""

    def test_write_own_fd_reaches_host_file(self, world):
        kernel, handlers, virtine = world
        fd = handlers.hc_open(request(virtine, Hypercall.OPEN, "/srv/file.txt", O_RDWR))
        written = handlers.hc_write(request(virtine, Hypercall.WRITE, fd, b"CONTENT"))
        assert written == 7
        assert kernel.fs.file_bytes("/srv/file.txt") == b"CONTENT here"

    def test_write_creates_and_charges_copy(self, world):
        kernel, handlers, virtine = world
        fd = handlers.hc_open(
            request(virtine, Hypercall.OPEN, "/srv/new.log", O_WRONLY | O_CREAT))
        before = kernel.clock.cycles, kernel.syscall_count
        handlers.hc_write(request(virtine, Hypercall.WRITE, fd, b"x" * 4096))
        assert kernel.fs.file_bytes("/srv/new.log") == b"x" * 4096
        assert kernel.syscall_count == before[1] + 1
        assert kernel.clock.cycles - before[0] == (
            kernel.costs.syscall() + kernel.costs.memcpy(4096))

    def test_write_foreign_fd_rejected(self, world):
        """A virtine guessing another context's writable fd must be stopped."""
        kernel, handlers, virtine = world
        foreign_fd = kernel.sys_open("/etc/shadow", O_WRONLY)
        with pytest.raises(HypercallError) as excinfo:
            handlers.hc_write(request(virtine, Hypercall.WRITE, foreign_fd, b"pwned"))
        assert str(excinfo.value) == f"WRITE: EBADF: fd {foreign_fd} not owned by virtine"
        assert kernel.fs.file_bytes("/etc/shadow") == b"secret"

    def test_write_read_only_fd_maps_ebadf(self, world):
        kernel, handlers, virtine = world
        fd = handlers.hc_open(request(virtine, Hypercall.OPEN, "/srv/file.txt"))
        with pytest.raises(HypercallError) as excinfo:
            handlers.hc_write(request(virtine, Hypercall.WRITE, fd, b"x"))
        assert str(excinfo.value) == f"WRITE: EBADF: fd {fd}"
        assert kernel.fs.file_bytes("/srv/file.txt") == b"content here"

    def test_write_after_close_rejected(self, world):
        _, handlers, virtine = world
        fd = handlers.hc_open(request(virtine, Hypercall.OPEN, "/srv/file.txt", O_RDWR))
        handlers.hc_close(request(virtine, Hypercall.CLOSE, fd))
        with pytest.raises(HypercallError) as excinfo:
            handlers.hc_write(request(virtine, Hypercall.WRITE, fd, b"x"))
        assert excinfo.value.errno_name == "EBADF"

    @pytest.mark.parametrize("args, message", [
        ((), "WRITE: EINVAL: missing argument 0 (0 supplied)"),
        (("3", b"x"), "WRITE: EINVAL: fd must be an int"),
        ((None,), "WRITE: EINVAL: missing argument 1 (1 supplied)"),
        ((None, "a string"), "WRITE: EINVAL: data must be bytes"),
        ((None, b"x" * (MAX_TRANSFER + 1)), "WRITE: EINVAL: transfer too large"),
    ])
    def test_argument_rejections(self, world, args, message):
        kernel, handlers, virtine = world
        fd = handlers.hc_open(request(virtine, Hypercall.OPEN, "/srv/file.txt", O_RDWR))
        args = tuple(fd if arg is None else arg for arg in args)
        with pytest.raises(HypercallError) as excinfo:
            handlers.hc_write(request(virtine, Hypercall.WRITE, *args))
        assert str(excinfo.value) == message
        assert kernel.fs.file_bytes("/srv/file.txt") == b"content here"


class TestSockets:
    def test_send_recv_on_granted_socket(self, world):
        kernel, handlers, virtine = world
        kernel.sys_listen(80)
        client = kernel.sys_connect(80)
        server = kernel.net.accept(kernel.net._listeners[80])
        virtine.resources[0] = server
        client.send(b"hello")
        data = handlers.hc_recv(request(virtine, Hypercall.RECV, 0, 64))
        assert data == b"hello"
        handlers.hc_send(request(virtine, Hypercall.SEND, 0, b"world"))
        assert client.recv(64) == b"world"

    def test_unknown_handle_rejected(self, world):
        _, handlers, virtine = world
        with pytest.raises(HypercallError) as excinfo:
            handlers.hc_send(request(virtine, Hypercall.SEND, 42, b"x"))
        assert excinfo.value.errno_name == "EBADF"

    def test_non_socket_resource_rejected(self, world):
        _, handlers, virtine = world
        virtine.resources[1] = "not a socket"
        with pytest.raises(HypercallError) as excinfo:
            handlers.hc_send(request(virtine, Hypercall.SEND, 1, b"x"))
        assert excinfo.value.errno_name == "ENOTSOCK"

    def test_non_bytes_data_rejected(self, world):
        kernel, handlers, virtine = world
        kernel.sys_listen(80)
        kernel.sys_connect(80)
        virtine.resources[0] = kernel.net.accept(kernel.net._listeners[80])
        with pytest.raises(HypercallError):
            handlers.hc_send(request(virtine, Hypercall.SEND, 0, "a string"))


class TestExit:
    def test_exit_records_code(self, world):
        _, handlers, virtine = world
        handlers.hc_exit(request(virtine, Hypercall.EXIT, 3))
        assert virtine.exit_code == 3

    def test_exit_default_zero(self, world):
        _, handlers, virtine = world
        handlers.hc_exit(request(virtine, Hypercall.EXIT))
        assert virtine.exit_code == 0

    def test_exit_non_int_rejected(self, world):
        _, handlers, virtine = world
        with pytest.raises(HypercallError):
            handlers.hc_exit(request(virtine, Hypercall.EXIT, "oops"))


def test_table_covers_posix_surface(world):
    _, handlers, _ = world
    table = handlers.table()
    for nr in (Hypercall.EXIT, Hypercall.OPEN, Hypercall.READ, Hypercall.WRITE,
               Hypercall.STAT, Hypercall.CLOSE, Hypercall.SEND, Hypercall.RECV):
        assert nr in table


def _socket_world(world):
    kernel, handlers, virtine = world
    kernel.sys_listen(80)
    kernel.sys_connect(80)
    virtine.resources[0] = kernel.net.accept(kernel.net._listeners[80])
    return handlers, virtine


class TestRejectionMessages:
    """Each rejection's full message, not only its errno: replay streams
    record ``str(error)``, so the text is observable behaviour."""

    @pytest.mark.parametrize("hc, nr, args, message", [
        ("hc_read", Hypercall.READ, (), "READ: EINVAL: missing argument 0 (0 supplied)"),
        ("hc_open", Hypercall.OPEN, (1234,), "OPEN: EINVAL: path must be a string"),
        ("hc_open", Hypercall.OPEN, ("/srv/" + "a" * 5000,),
         "OPEN: ENAMETOOLONG: path too long"),
        ("hc_stat", Hypercall.STAT, ("/srv/../etc/shadow",),
         "STAT: EACCES: path traversal rejected"),
        ("hc_open", Hypercall.OPEN, ("/etc/shadow",),
         "OPEN: EACCES: path '/etc/shadow' outside permitted roots"),
        ("hc_open", Hypercall.OPEN, ("/srv/file.txt", "r"),
         "OPEN: EINVAL: flags must be an int"),
        ("hc_close", Hypercall.CLOSE, ("3",), "CLOSE: EINVAL: fd must be an int"),
        ("hc_send", Hypercall.SEND, (42, b"x"), "SEND: EBADF: no resource with handle 42"),
        ("hc_recv", Hypercall.RECV, (None, 1), "RECV: EINVAL: handle must be an int"),
        ("hc_exit", Hypercall.EXIT, ("oops",), "EXIT: EINVAL: exit code must be an int"),
        # Arity is checked argument by argument, each just before its
        # own check: a bad first argument is reported ahead of a missing
        # second one.
        ("hc_read", Hypercall.READ, ("3",), "READ: EINVAL: fd must be an int"),
        ("hc_write", Hypercall.WRITE, (99,), "WRITE: EBADF: fd 99 not owned by virtine"),
        ("hc_send", Hypercall.SEND, (42,), "SEND: EBADF: no resource with handle 42"),
        ("hc_open", Hypercall.OPEN, (), "OPEN: EINVAL: missing argument 0 (0 supplied)"),
        ("hc_stat", Hypercall.STAT, (), "STAT: EINVAL: missing argument 0 (0 supplied)"),
        ("hc_close", Hypercall.CLOSE, (), "CLOSE: EINVAL: missing argument 0 (0 supplied)"),
    ])
    def test_argument_rejections(self, world, hc, nr, args, message):
        _, handlers, virtine = world
        with pytest.raises(HypercallError) as excinfo:
            getattr(handlers, hc)(request(virtine, nr, *args))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("count, message", [
        (-1, "READ: EINVAL: count -1 out of bounds"),
        (MAX_TRANSFER + 1, f"READ: EINVAL: count {MAX_TRANSFER + 1} out of bounds"),
        (1.5, "READ: EINVAL: count must be an int"),
    ])
    def test_bad_count(self, world, count, message):
        _, handlers, virtine = world
        fd = handlers.hc_open(request(virtine, Hypercall.OPEN, "/srv/file.txt"))
        with pytest.raises(HypercallError) as excinfo:
            handlers.hc_read(request(virtine, Hypercall.READ, fd, count))
        assert str(excinfo.value) == message

    def test_foreign_fd(self, world):
        kernel, handlers, virtine = world
        foreign_fd = kernel.sys_open("/etc/shadow")
        with pytest.raises(HypercallError) as excinfo:
            handlers.hc_read(request(virtine, Hypercall.READ, foreign_fd, 100))
        assert str(excinfo.value) == f"READ: EBADF: fd {foreign_fd} not owned by virtine"

    @pytest.mark.parametrize("data, message", [
        ("a string", "SEND: EINVAL: data must be bytes"),
        (b"x" * (MAX_TRANSFER + 1), "SEND: EINVAL: transfer too large"),
    ])
    def test_bad_data(self, world, data, message):
        handlers, virtine = _socket_world(world)
        with pytest.raises(HypercallError) as excinfo:
            handlers.hc_send(request(virtine, Hypercall.SEND, 0, data))
        assert str(excinfo.value) == message

    def test_non_socket_handle(self, world):
        _, handlers, virtine = world
        virtine.resources[1] = "not a socket"
        with pytest.raises(HypercallError) as excinfo:
            handlers.hc_send(request(virtine, Hypercall.SEND, 1, b"x"))
        assert str(excinfo.value) == "SEND: ENOTSOCK: handle 1 is not a socket"
