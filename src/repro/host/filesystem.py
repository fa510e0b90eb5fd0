"""An in-memory host filesystem.

Backs the POSIX-like hypercalls (``open``/``read``/``write``/``stat``/
``close``) that the static-content HTTP server of Section 6.3 exercises.
State only -- cycle costs are charged by the kernel's syscall layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

O_RDONLY = 0
O_WRONLY = 1
O_RDWR = 2
O_CREAT = 0o100


class FsError(Exception):
    """A filesystem error, carrying an errno-style name."""

    def __init__(self, errno_name: str, message: str) -> None:
        super().__init__(f"{errno_name}: {message}")
        self.errno_name = errno_name


@dataclass
class StatResult:
    """The subset of ``struct stat`` the virtine handlers use."""

    size: int
    is_file: bool = True


@dataclass
class OpenFile:
    """An open file description (shared offset semantics not needed)."""

    path: str
    flags: int
    offset: int = 0


class InMemoryFilesystem:
    """A flat, path-keyed in-memory filesystem with a per-process fd table."""

    def __init__(self) -> None:
        self._files: dict[str, bytearray] = {}
        self._fds: dict[int, OpenFile] = {}
        self._next_fd = 3  # 0/1/2 reserved, as on a real host

    # -- population helpers --------------------------------------------------
    def add_file(self, path: str, contents: bytes) -> None:
        """Create or replace ``path`` with ``contents``."""
        self._files[path] = bytearray(contents)

    def file_bytes(self, path: str) -> bytes:
        """Direct read of a whole file (host-side convenience)."""
        if path not in self._files:
            raise FsError("ENOENT", path)
        return bytes(self._files[path])

    # -- POSIX-like surface -------------------------------------------------------
    def open(self, path: str, flags: int = O_RDONLY) -> int:
        if path not in self._files:
            if flags & O_CREAT:
                self._files[path] = bytearray()
            else:
                raise FsError("ENOENT", path)
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = OpenFile(path=path, flags=flags)
        return fd

    def read(self, fd: int, count: int) -> bytes:
        open_file = self._lookup(fd)
        data = self._files[open_file.path]
        chunk = bytes(data[open_file.offset : open_file.offset + count])
        open_file.offset += len(chunk)
        return chunk

    def write(self, fd: int, data: bytes) -> int:
        open_file = self._lookup(fd)
        if open_file.flags & (O_WRONLY | O_RDWR) == 0:
            raise FsError("EBADF", f"fd {fd} not open for writing")
        contents = self._files[open_file.path]
        end = open_file.offset + len(data)
        if end > len(contents):
            contents.extend(b"\x00" * (end - len(contents)))
        contents[open_file.offset : end] = data
        open_file.offset = end
        return len(data)

    def stat(self, path: str) -> StatResult:
        if path not in self._files:
            raise FsError("ENOENT", path)
        return StatResult(size=len(self._files[path]))

    def close(self, fd: int) -> None:
        self._lookup(fd)
        del self._fds[fd]

    def open_fd_count(self) -> int:
        """Number of currently open descriptors (leak checking in tests)."""
        return len(self._fds)

    def _lookup(self, fd: int) -> OpenFile:
        if fd not in self._fds:
            raise FsError("EBADF", f"fd {fd} is not open")
        return self._fds[fd]
