"""Virtine snapshotting (Section 5.2).

"The first execution of a virtine must still go through the
initialization process ... The virtine then takes a snapshot of its
state, and continues executing.  Subsequent executions of the same
virtine can then begin execution at the snapshot point and skip the
initialization process."

A snapshot captures the virtine's dirty pages (page-granular, so the
restore cost scales with the *image working set* rather than the full
guest memory -- this is the memcpy cost that dominates Figure 12), the
architectural vCPU state, and -- for hosted runtimes -- an opaque payload
(e.g. an initialised JS engine context).

Security note from the paper: "by snapshotting a virtine's private
state, that state is exposed to all future virtines that are created
using that 'reset state'" -- which is why snapshots are keyed per image
and never shared across images.
"""

from __future__ import annotations

import copy
import enum
import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.hw.memory import PAGE_SHIFT, PAGE_SIZE


class SnapshotGone(Exception):
    """The requested snapshot was garbage-collected underneath the reader.

    Raised by :class:`repro.store.cas.DurableSnapshotStore` when the
    collector wins the race between pool acquire and snapshot
    materialization.  The launch path converts it into a
    quarantine-and-cold-boot, never a crash.
    """

    def __init__(self, key: str, detail: str = "") -> None:
        message = f"snapshot {key!r} was garbage-collected"
        if detail:
            message += f" ({detail})"
        super().__init__(message)
        self.key = key


class RestoreMode(enum.Enum):
    """How a snapshot is installed into a shell.

    * ``EAGER`` -- memcpy every captured page up front (the paper's
      prototype; restore cost scales with image size, Figure 12).
    * ``COW``   -- map pages shared/read-only and copy each page on its
      first write (the SEUSS-style mechanism Section 7.2 anticipates;
      restore cost scales with the *written* working set).
    """

    EAGER = "eager"
    COW = "cow"


@dataclass
class Snapshot:
    """One captured "reset state" for a virtine image."""

    image_name: str
    #: Dirty page contents at capture time (page number -> 4 KB bytes).
    pages: dict[int, bytes]
    #: Architectural vCPU state (from :meth:`repro.hw.cpu.CPU.save_state`).
    cpu_state: dict
    #: Opaque hosted-runtime payload (deep-copied on capture and on every
    #: restore, so no state leaks *between* restored virtines).
    hosted_payload: Any = None
    #: Whether the snapshot was taken inside a hosted entry function.
    hosted: bool = False
    #: Integrity tag over the pages and vCPU state, computed at capture.
    #: A restore whose recomputed checksum mismatches falls back to a
    #: cold boot instead of installing rotted state.
    checksum: int = field(default=-1)

    def __post_init__(self) -> None:
        self._sorted_pages: tuple[int, ...] | None = None
        self._runs: tuple[tuple[int, bytes], ...] | None = None
        if self.checksum == -1:
            self.checksum = self.compute_checksum()

    @property
    def copy_size(self) -> int:
        """Bytes a restore must copy (what the restore memcpy is charged)."""
        return len(self.pages) * PAGE_SIZE

    def payload_copy(self) -> Any:
        """A private deep copy of the hosted payload for one restore."""
        if self.hosted_payload is None:
            return None
        return copy.deepcopy(self.hosted_payload)

    # -- cached page views ---------------------------------------------------
    def sorted_pages(self) -> tuple[int, ...]:
        """Captured page numbers in ascending order (cached; the page set
        is fixed at capture, only :meth:`corrupt` mutates contents)."""
        if self._sorted_pages is None:
            self._sorted_pages = tuple(sorted(self.pages))
        return self._sorted_pages

    def page_runs(self) -> tuple[tuple[int, bytes], ...]:
        """Contiguous ``(start_addr, contents)`` runs of the captured pages.

        Adjacent pages are pre-joined so a restore is one slice copy per
        run (see :meth:`repro.hw.memory.GuestMemory.restore_runs`).
        """
        if self._runs is None:
            runs: list[tuple[int, bytes]] = []
            chunk: list[bytes] = []
            run_start = prev = -2
            for page in self.sorted_pages():
                if page == prev + 1:
                    chunk.append(self.pages[page])
                else:
                    if chunk:
                        runs.append((run_start << PAGE_SHIFT, b"".join(chunk)))
                    run_start = page
                    chunk = [self.pages[page]]
                prev = page
            if chunk:
                runs.append((run_start << PAGE_SHIFT, b"".join(chunk)))
            self._runs = tuple(runs)
        return self._runs

    def _invalidate_caches(self) -> None:
        self._sorted_pages = None
        self._runs = None

    # -- integrity ----------------------------------------------------------
    def compute_checksum(self) -> int:
        """CRC over the captured pages and architectural vCPU state.

        The hosted payload is excluded: it is an opaque host object whose
        representation need not be stable, and it is deep-copied (never
        shared) on both capture and restore.
        """
        crc = 0
        pages = self.pages
        for page in self.sorted_pages():
            crc = zlib.crc32(pages[page], crc)
            crc = zlib.crc32(page.to_bytes(8, "little"), crc)
        crc = zlib.crc32(repr(sorted(self.cpu_state.items())).encode(), crc)
        return crc

    def verify(self) -> bool:
        """True if the stored checksum still matches the contents."""
        return self.compute_checksum() == self.checksum

    def corrupt(self) -> None:
        """Flip one stored bit (the fault-injection plane's bit rot)."""
        self._invalidate_caches()
        if self.pages:
            page = min(self.pages)
            data = bytearray(self.pages[page])
            if data:
                data[0] ^= 0x01
                self.pages[page] = bytes(data)
                return
        # No page bytes to rot: corrupt the tag itself (same detection
        # path -- the recomputed CRC no longer matches the stored one).
        self.checksum ^= 0x1


class SnapshotStore:
    """Per-image snapshot registry owned by a Wasp instance.

    The in-memory baseline.  :class:`repro.store.cas.DurableSnapshotStore`
    presents the same surface over a journaled content-addressed medium
    and can be swapped in via ``Wasp(snapshot_store=...)``.
    """

    backend = "memory"

    def __init__(self) -> None:
        self._snapshots: dict[str, Snapshot] = {}
        self.captures = 0
        self.restores = 0
        #: Restores that failed checksum verification (fell back cold).
        self.integrity_failures = 0

    def get(self, key: str) -> Snapshot | None:
        return self._snapshots.get(key)

    def put(self, key: str, snapshot: Snapshot) -> None:
        self._snapshots[key] = snapshot
        self.captures += 1

    def drop(self, key: str) -> None:
        self._snapshots.pop(key, None)

    def note_restore(self) -> None:
        self.restores += 1

    def counters(self) -> dict:
        """The store's metric surface (durable stores report more)."""
        return {
            "backend": self.backend,
            "snapshots": len(self._snapshots),
            "captures": self.captures,
            "restores": self.restores,
            "integrity_failures": self.integrity_failures,
        }
