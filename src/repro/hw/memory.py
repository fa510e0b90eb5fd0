"""Guest physical memory.

A :class:`GuestMemory` is a flat, lazily-zeroed anonymous mapping with
4 KB page-granular first-touch tracking.  First-touch tracking is what
makes the paper's "Paging identity mapping" cost (Table 1) *emerge*
rather than being a canned constant: the first store to each
previously-untouched guest page raises an EPT-violation event, and the
attached machine charges ``EPT_FIRST_TOUCH_FAULT`` for it (see
:mod:`repro.hw.vmx`).

The backing store is an ``mmap`` of anonymous private memory, so the
host kernel hands out zero pages on first access: creating a guest
costs no memset.  To keep host time proportional to the pages a guest
actually uses, every mutator keeps two invariants, which bulk
operations rely on instead of rewriting memory wholesale:

    **Zero-page invariant.**  A page outside ``_dirty``, the pending
    install span and ``_cow_pending`` reads as all zeros.

    **Written-page invariant.**  A page outside ``_written`` reads as
    all zeros.

The guest-visible dirty set (charged and scrubbed, and it includes an
image's zero padding) is ``_dirty`` together with the pending install
span: :meth:`load_bytes` keeps the page span of the image it installs
as one cached frozenset beside ``_dirty`` instead of merging it, and
only what reads the dirty set (:meth:`clear_dirty`,
:meth:`capture_dirty`, :attr:`dirty_pages`, :attr:`dirty_bytes`,
:meth:`log_stores`, :meth:`replayable`) takes it into account, so a
scratch guest that is released unread never merges its image's span.
``_written`` is the host-side set of pages whose bytes were physically
stored to, a subset of the dirty set.  Guest and host-side writes mark
their pages dirty and written, CoW installs mark theirs pending and
written, and the operations that forget a page (:meth:`clear_dirty`,
:meth:`fill`) zero the written pages first.  :meth:`load_bytes` uses the
invariants to install a zero-padded image by writing only its code bytes
plus the padding over pages that may hold stale data.

Freeing a guest (:meth:`GuestMemory.release`) zeroes its written pages
and hands the mapping to a small per-size free list, so the next guest
of that size starts on pages the host kernel has already materialised:
its first writes take no host page fault.
"""

from __future__ import annotations

import functools
import itertools
import mmap
import struct
import sys
from collections import defaultdict
from collections.abc import Mapping
from typing import Callable, Collection, Iterable

PAGE_SIZE = 4096
PAGE_SHIFT = 12

# Preresolved codecs for the integer helpers: ``unpack_from``/``pack_into``
# operate on the backing mapping directly, with no intermediate ``bytes``
# copy per access.
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

# Guest memory is little-endian, and the word views (see
# :meth:`GuestMemory.word_views`) read and write it in the host's native
# order, so only a little-endian host with 4-byte "I" and 8-byte "Q"
# items can run guests.  Checked once here; there is no fallback path.
if (sys.byteorder != "little" or struct.calcsize("I") != 4
        or struct.calcsize("Q") != 8):
    raise ImportError("repro.hw.memory needs a little-endian host with "
                      "4-byte 'I' and 8-byte 'Q' items")

_ZERO_PAGE = bytes(PAGE_SIZE)
#: Why an install refuses a page set that is not ``whole``.
_NOT_WHOLE = f"a page set to install holds a page not {PAGE_SIZE} bytes long"


#: Mappings of released guests, all zeros, keyed by size.  Each list
#: holds at most :data:`_FREE_PER_SIZE`; a mapping past the bound is
#: unmapped when its last reference goes.
_free: defaultdict[int, list[mmap.mmap]] = defaultdict(list)
_FREE_PER_SIZE = 4


def _anonymous(size: int) -> mmap.mmap:
    """A zero-filled private mapping of ``size`` bytes.

    A released guest's mapping is reused when one of this size is free:
    :meth:`GuestMemory.release` zeroed it, and the pages earlier guests
    wrote stay materialised, so writing them again takes no host page
    fault.  Otherwise a fresh anonymous region is mapped, whose pages the
    host kernel materialises on first access: an untouched guest page
    costs neither host memory nor a memset.
    """
    try:
        return _free[size].pop()
    except IndexError:
        return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)


@functools.lru_cache(maxsize=64)
def _span(first: int, last: int) -> frozenset[int]:
    """Pages ``first`` to ``last`` inclusive.

    Cached because images install over the same spans again and again,
    and a set merges a frozenset by its stored hashes: for a 4 MB image
    that is several times faster than hashing 1,024 ints from a range.
    """
    return frozenset(range(first, last + 1))


#: ``GuestMemory._pending_span`` while a store log is open: empty, so no
#: reader merges it, and not ``None``, so an install's span goes straight
#: into the log like every other page set (see :meth:`GuestMemory.load_bytes`).
_LOGGING: frozenset[int] = frozenset()


class PageSet(Mapping):
    """An immutable set of guest pages: page number -> page bytes.

    Built once, where the pages are captured (a snapshot's dirty pages,
    a recorded boot's stored-to pages), and read in ascending page order
    by everything downstream: iteration, ``items()`` and ``values()``
    follow :attr:`numbers`, and :attr:`runs` joins adjacent pages so an
    install (:meth:`GuestMemory.restore_runs`) is one slice copy per run.
    """

    __slots__ = ("numbers", "runs", "whole", "_bytes")

    def __init__(self, pages: Mapping[int, bytes]) -> None:
        #: The page numbers, ascending.
        self.numbers: tuple[int, ...] = tuple(sorted(pages))
        self._bytes = {page: pages[page] for page in self.numbers}
        runs = []
        # Consecutive pages share one ``page - index`` key.
        for _, group in itertools.groupby(enumerate(self.numbers),
                                          lambda item: item[1] - item[0]):
            run = [page for _, page in group]
            runs.append((run[0] << PAGE_SHIFT,
                         b"".join(map(self._bytes.__getitem__, run))))
        #: ``(start address, contents)`` of each run of adjacent pages.
        self.runs: tuple[tuple[int, bytes], ...] = tuple(runs)
        #: Every page is :data:`PAGE_SIZE` long (checked once, here).
        self.whole = all(len(page) == PAGE_SIZE for page in self._bytes.values())

    def __getitem__(self, page: int) -> bytes:
        return self._bytes[page]

    def __iter__(self):
        return iter(self.numbers)

    def __len__(self) -> int:
        return len(self.numbers)

    def items(self):
        return self._bytes.items()


class _StoreLog(set):
    """Stand-in dirty set while :meth:`GuestMemory.log_stores` runs.

    Every page a store touches passes through ``add`` before its bytes
    change (``_touch_page`` runs ahead of the write), so the log is the
    exact set of pages stored to -- including pages that were already
    dirty, which a diff of the dirty set would miss -- and it notes
    whether each of them read as zeros before its first store.
    """

    def __init__(self, memory: "GuestMemory") -> None:
        super().__init__()
        self.memory = memory
        self.dirty = memory._dirty
        #: Every logged page read as all zeros before its first store.
        self.zeroed = True

    def add(self, page: int) -> None:
        if page not in self:
            memory = self.memory
            # The zero-page invariant spares the read for clean pages.
            if self.zeroed and (page in self.dirty
                                or page in memory._cow_pending):
                start = page << PAGE_SHIFT
                self.zeroed = (memory._data[start : start + PAGE_SIZE]
                               == _ZERO_PAGE)
            set.add(self, page)


class GuestMemoryError(Exception):
    """An out-of-range guest physical access."""


class GuestMemory:
    """Flat guest physical memory with first-touch page tracking."""

    def __init__(self, size: int) -> None:
        if size <= 0 or size % PAGE_SIZE != 0:
            raise ValueError(f"memory size must be a positive multiple of 4096, got {size}")
        self.size = size
        #: The backing mapping, bound for the memory's life; ``None``
        #: once :meth:`release` has handed it on.
        self._data: mmap.mmap | None = _anonymous(size)
        #: ``(u32 view, u64 view)`` of ``_data``, built by
        #: :meth:`word_views` on first use and released with the mapping.
        self._views: tuple[memoryview, memoryview] | None = None
        self._touched: set[int] = set()
        self._dirty: set[int] = set()
        #: The page span of an image install not yet merged into
        #: ``_dirty`` (see the module docstring): a cached :func:`_span`,
        #: or ``None`` when nothing is pending.
        self._pending_span: frozenset[int] | None = None
        #: Pages whose bytes the host stored to since they were last
        #: zeroed (the written-page invariant; see the module docstring).
        #: Every raw write records its pages here.  Compiled-code stores
        #: (word views, ``pack_into``, the closed-form store loop) need
        #: no record: they are gated on ``_quiet``, and a quiet page got
        #: there through :meth:`_touch_page` or a boot replay's install,
        #: which both record it.
        self._written: set[int] = set()
        self._cow_pending: set[int] = set()
        #: Optional callback invoked with the page number on first touch.
        self.on_first_touch: Callable[[int], None] | None = None
        #: Optional callback invoked when a copy-on-write page is first
        #: written after a CoW snapshot restore.
        self.on_cow_break: Callable[[int], None] | None = None
        #: Bumped whenever a page backing a cached address translation is
        #: written (guest store to a live page table) or any bulk host-side
        #: mutation rewrites memory wholesale.  Registered software TLBs
        #: (see :meth:`register_tlb`) are cleared in the same event, so
        #: cached translations can never go stale relative to the
        #: always-rewalking slow path -- without a per-access version check.
        self.translation_version = 0
        self._watched_pages: set[int] = set()
        self._registered_tlbs: list[dict[int, int]] = []
        # Guest code pages covered by compiled superblocks.  A *guest
        # store* to one fires the registered listeners (push invalidation
        # for the JIT's per-image compiled-block cache) and un-watches the
        # page -- one-shot, re-armed when the region recompiles.  Host-side
        # bulk mutations (image load, snapshot restore) deliberately do
        # not fire: they re-install the very image the blocks were
        # compiled from, and dropping blocks there would destroy the
        # warm-start property of pooled/restored shells.
        self._code_watch_pages: set[int] = set()
        self._code_watch_listeners: list[Callable[[int], None]] = []
        # Pages where a store needs no bookkeeping at all: already dirty
        # and touched, not CoW-pending, not watched.  Populated by
        # _touch_page, drained by every event that re-arms any of those
        # conditions; lets the write helpers skip the touch chain on the
        # overwhelmingly common repeat store.
        self._quiet: set[int] = set()

    def word_views(self) -> tuple[memoryview, memoryview]:
        """``_data`` as arrays of 4- and 8-byte little-endian words.

        Element ``i`` of the u32 (u64) view is the word at byte
        ``4 * i`` (``8 * i``), so an aligned in-bounds access is one
        index instead of a ``struct`` call.  The views bypass every
        check and callback: the superblock JIT uses them only where its
        inline paths already proved the access in bounds (loads) or the
        page quiet (stores).  They are built on first use and dropped
        wherever ``_data`` is rebound (:meth:`fill`): a view kept past
        that would pin the old mapping and read and write it instead of
        the guest's memory.
        """
        views = self._views
        if views is None:
            raw = memoryview(self._data)
            views = self._views = (raw.cast("I"), raw.cast("Q"))
        return views

    # -- bounds & tracking -------------------------------------------------
    def _check(self, addr: int, length: int) -> None:
        if addr < 0 or length < 0 or addr + length > self.size:
            raise GuestMemoryError(
                f"guest physical access [{addr:#x}, {addr + length:#x}) "
                f"outside memory of size {self.size:#x}"
            )

    def _touch(self, addr: int, length: int) -> None:
        first = addr >> PAGE_SHIFT
        last = (addr + max(length - 1, 0)) >> PAGE_SHIFT
        if first == last:
            self._touch_page(first)
            return
        for page in range(first, last + 1):
            self._touch_page(page)

    def _touch_page(self, page: int) -> None:
        # CoW break fires before the first-touch event (a CoW page was
        # EPT-mapped at restore, so the orders never actually overlap, but
        # the callback ordering is part of the contract).
        self._dirty.add(page)
        self._written.add(page)
        if page in self._cow_pending:
            self._cow_pending.discard(page)
            if self.on_cow_break is not None:
                self.on_cow_break(page)
        if page not in self._touched:
            self._touched.add(page)
            if self.on_first_touch is not None:
                self.on_first_touch(page)
        if page in self._watched_pages:
            self._invalidate_translations()
        if page in self._code_watch_pages:
            # Self-modifying store over a compiled superblock region.
            self._code_watch_pages.discard(page)
            for listener in self._code_watch_listeners:
                listener(page)
        # Every condition above is now settled for this page (a watched
        # page was just un-watched by the invalidation; the next walk
        # re-watches it and discards it from the quiet set again).
        self._quiet.add(page)

    def _merged_dirty(self) -> set[int]:
        """``_dirty`` with the pending install span merged into it."""
        span = self._pending_span
        if span:
            self._dirty.update(span)
            self._pending_span = None
        return self._dirty

    # -- translation caching hooks -------------------------------------------
    def register_tlb(self, tlb: dict[int, int]) -> None:
        """Attach a software TLB to be cleared on translation rot.

        Push invalidation: the TLB owner fills the dict and watches the
        page-table pages each walk traversed; any event that could change
        a translation clears the dict here, so lookups need no version
        check on the hot path.
        """
        self._registered_tlbs.append(tlb)

    def _invalidate_translations(self) -> None:
        self.translation_version += 1
        # Watches are rebuilt by the next page walk; stale ones would only
        # cause spurious (never missed) invalidations.
        self._watched_pages.clear()
        for tlb in self._registered_tlbs:
            tlb.clear()

    def watch_translation_page(self, page: int) -> None:
        """Register ``page`` as backing a cached address translation.

        Any later write to a watched page invalidates every registered
        TLB (and bumps :attr:`translation_version` for observers).
        """
        self._watched_pages.add(page)
        self._quiet.discard(page)

    def clear_translation_watch(self) -> None:
        """Forget all watched pages (called when the TLB is flushed)."""
        self._watched_pages.clear()

    # -- compiled-code watches (superblock JIT) -------------------------------
    def add_code_watch_listener(self, listener: Callable[[int], None]) -> None:
        """Register a callback fired with the page number when a guest
        store touches a watched code page (see :attr:`_code_watch_pages`)."""
        self._code_watch_listeners.append(listener)

    def clear_code_watch_listeners(self) -> None:
        """Drop every code-watch listener (the memory's owner is closing)."""
        self._code_watch_listeners.clear()

    def watch_code_pages(self, pages: Collection[int]) -> None:
        """Arm store-watches on ``pages`` (compiled superblock coverage)."""
        self._code_watch_pages.update(pages)
        # Watched pages must leave the quiet set so the write helpers
        # route their next store through _touch_page.
        self._quiet.difference_update(pages)

    @property
    def touched_pages(self) -> int:
        """Number of guest pages that have ever been written."""
        return len(self._touched)

    def reset_touch_tracking(self) -> None:
        """Forget first-touch history (used when recycling a shell)."""
        self._touched.clear()
        self._quiet.clear()

    def mark_touched(self, pages: Iterable[int]) -> None:
        """Record pages as already EPT-mapped (host-side population)."""
        self._touched.update(pages)

    # -- boot replay (see repro.hw.vmx) ----------------------------------------
    def boot_ready(self) -> bool:
        """No page is quiet or translation-watched, so every guest store
        takes the tracked path: the precondition for recording or
        replaying a boot."""
        return not self._quiet and not self._watched_pages

    def log_stores(self) -> _StoreLog:
        """Start logging which pages guest stores touch; hand the log to
        :meth:`end_store_log` when done."""
        self._merged_dirty()
        log = _StoreLog(self)
        self._dirty = log
        self._pending_span = _LOGGING
        return log

    def end_store_log(self, log: _StoreLog) -> tuple[PageSet,
                                                      frozenset[int]]:
        """Stop logging; returns the pages stored to since
        :meth:`log_stores` (they stay dirty), and those now quiet."""
        self._dirty = log.dirty
        self._dirty.update(log)
        self._pending_span = None
        return self._capture(log), frozenset(self._quiet.intersection(log))

    def replayable(self, pages: PageSet, touched: bool) -> bool:
        """Whether a recorded boot's stores to ``pages`` would run here
        exactly as recorded: each page is in bounds, reads as zeros, is
        touched iff ``touched``, and is neither CoW-pending nor
        code-watched."""
        npages = self.size >> PAGE_SHIFT
        # Read through the pending span: a scratch guest replays its boot
        # right after its image install and never needs it merged.
        dirty, span = self._dirty, self._pending_span or _LOGGING
        for page in pages.numbers:
            if (page >= npages or (page in self._touched) != touched
                    or page in self._cow_pending
                    or page in self._code_watch_pages):
                return False
            if page in dirty or page in span:
                start = page << PAGE_SHIFT
                if self._data[start : start + PAGE_SIZE] != _ZERO_PAGE:
                    return False
        return True

    # -- raw access ----------------------------------------------------------
    def read(self, addr: int, length: int) -> bytes:
        """Read ``length`` bytes at guest physical ``addr``."""
        self._check(addr, length)
        return self._data[addr : addr + length]

    def write(self, addr: int, data: bytes | bytearray) -> None:
        """Write ``data`` at guest physical ``addr``."""
        self._check(addr, len(data))
        self._touch(addr, len(data))
        self._data[addr : addr + len(data)] = data

    # -- integer helpers -------------------------------------------------------
    # Reads decode straight out of the backing mapping; writes pack into
    # it in place.  No per-access bytes copies, same bounds discipline.
    def read_u8(self, addr: int) -> int:
        if addr < 0 or addr + 1 > self.size:
            self._check(addr, 1)
        return self._data[addr]

    def read_u16(self, addr: int) -> int:
        if addr < 0 or addr + 2 > self.size:
            self._check(addr, 2)
        return _U16.unpack_from(self._data, addr)[0]

    def read_u32(self, addr: int) -> int:
        if addr < 0 or addr + 4 > self.size:
            self._check(addr, 4)
        return _U32.unpack_from(self._data, addr)[0]

    def read_u64(self, addr: int) -> int:
        if addr < 0 or addr + 8 > self.size:
            self._check(addr, 8)
        return _U64.unpack_from(self._data, addr)[0]

    def write_u8(self, addr: int, value: int) -> None:
        if addr < 0 or addr + 1 > self.size:
            self._check(addr, 1)
        page = addr >> PAGE_SHIFT
        if page not in self._quiet:
            self._touch_page(page)
        self._data[addr] = value & 0xFF

    def write_u16(self, addr: int, value: int) -> None:
        if addr < 0 or addr + 2 > self.size:
            self._check(addr, 2)
        page = addr >> PAGE_SHIFT
        if page not in self._quiet or (addr + 1) >> PAGE_SHIFT != page:
            self._touch(addr, 2)
        _U16.pack_into(self._data, addr, value & 0xFFFF)

    def write_u32(self, addr: int, value: int) -> None:
        if addr < 0 or addr + 4 > self.size:
            self._check(addr, 4)
        page = addr >> PAGE_SHIFT
        if page not in self._quiet or (addr + 3) >> PAGE_SHIFT != page:
            self._touch(addr, 4)
        _U32.pack_into(self._data, addr, value & 0xFFFFFFFF)

    def write_u64(self, addr: int, value: int) -> None:
        if addr < 0 or addr + 8 > self.size:
            self._check(addr, 8)
        page = addr >> PAGE_SHIFT
        if page not in self._quiet or (addr + 7) >> PAGE_SHIFT != page:
            self._touch(addr, 8)
        _U64.pack_into(self._data, addr, value & 0xFFFFFFFFFFFFFFFF)

    # -- dirty-page tracking ------------------------------------------------------
    @property
    def dirty_pages(self) -> frozenset[int]:
        """Pages written since the last :meth:`clear_dirty`."""
        return frozenset(self._merged_dirty())

    @property
    def dirty_bytes(self) -> int:
        """Bytes that a clean (memset of dirty pages) would touch."""
        return len(self._merged_dirty()) * PAGE_SIZE

    def clear_dirty(self) -> int:
        """Zero every dirty page; returns the number of bytes cleared.

        Callers charge ``memset(returned bytes)``; this is how Wasp's
        shell cleaning avoids paying for the full guest memory.  Still-
        shared CoW pages were never privately materialised: dropping the
        read-only mapping reverts them for free, so their bytes are
        excluded from the returned scrub cost.

        On the host, only the written pages are zeroed: every other
        dirty or CoW-pending page already reads as zeros.
        """
        dirty, span = self._dirty, self._pending_span
        cleared = len(dirty)
        if span:
            # Count the pending span's pages without merging them.
            cleared += len(span) - len(span.intersection(dirty))
            self._pending_span = None
        cleared *= PAGE_SIZE
        self._zero_pages(self._written)
        self._written.clear()
        self._cow_pending.clear()
        self._dirty.clear()
        self._quiet.clear()
        self._invalidate_translations()
        return cleared

    def capture_dirty(self) -> PageSet:
        """Copy out the contents of every dirty page (snapshot capture)."""
        return self._capture(self._merged_dirty())

    def _capture(self, pages: Iterable[int]) -> PageSet:
        data = self._data
        return PageSet({page: data[page << PAGE_SHIFT
                                   : (page << PAGE_SHIFT) + PAGE_SIZE]
                        for page in pages})

    # -- page installs ------------------------------------------------------------
    # Both installs copy a page set in host-side (no EPT events) and mark
    # its pages written.  A copy dirties them.  A ``cow`` install leaves
    # them pending until each one's first write, which fires
    # :attr:`on_cow_break` (where the copy is charged) and only then
    # dirties the page: the SEUSS-style restore of Section 7.2.  With
    # ``quiet``, the install is a recorded boot's stores (DESIGN.md SS15):
    # the pages turn dirty and touched, and those in ``quiet`` quiet, as
    # the live boot left them.  Only copy and CoW installs invalidate
    # cached translations: a boot replays with none cached.
    def restore_runs(self, pages: PageSet, cow: bool = False,
                     quiet: Collection[int] | None = None) -> None:
        """Install ``pages``: one slice copy per run, batched bookkeeping.

        The install of every engine but the reference one, for snapshot
        restores (copy or ``cow``) and boot replay (``quiet``).
        """
        if not pages.whole:
            raise ValueError(_NOT_WHOLE)
        data = self._data
        for start, contents in pages.runs:
            self._check(start, len(contents))
            data[start : start + len(contents)] = contents
        numbers = pages.numbers
        self._written.update(numbers)
        if cow:
            self._cow_pending.update(numbers)
            self._quiet.difference_update(numbers)
        else:
            self._dirty.update(numbers)
        if quiet is None:
            self._invalidate_translations()
        else:
            self._touched.update(numbers)
            self._quiet.update(quiet)

    def restore_pages(self, pages: Mapping[int, bytes], cow: bool = False,
                      quiet: Collection[int] | None = None) -> None:
        """Install ``pages`` page by page: the reference engine's install,
        and the oracle :meth:`restore_runs` matches in every state effect.
        """
        if not (pages if isinstance(pages, PageSet) else PageSet(pages)).whole:
            raise ValueError(_NOT_WHOLE)
        data = self._data
        for page, contents in pages.items():
            start = page << PAGE_SHIFT
            self._check(start, PAGE_SIZE)
            data[start : start + PAGE_SIZE] = contents
            self._written.add(page)
            if cow:
                self._cow_pending.add(page)
                self._quiet.discard(page)
            else:
                self._dirty.add(page)
            if quiet is not None:
                self._touched.add(page)
        if quiet is None:
            self._invalidate_translations()
        else:
            self._quiet.update(quiet)

    @property
    def cow_pending_pages(self) -> frozenset[int]:
        """Pages still sharing snapshot storage (unwritten since restore)."""
        return frozenset(self._cow_pending)

    # -- bulk operations ---------------------------------------------------------
    def _zero_pages(self, pages: Iterable[int]) -> None:
        data = self._data
        for page in pages:
            start = page << PAGE_SHIFT
            data[start : start + PAGE_SIZE] = _ZERO_PAGE

    def fill(self) -> None:
        """Zero the entire memory.

        Only the written pages are zeroed on the host (every other page
        already reads as zeros), in place, so the pages stay
        materialised for the next occupant.

        Note: callers are responsible for charging the memset cost; this
        only mutates state.
        """
        self._zero_pages(self._written)
        self._written.clear()
        self._dirty.clear()
        if self._pending_span:
            self._pending_span = None
        self._cow_pending.clear()
        self._quiet.clear()
        self._code_watch_pages.clear()
        self._invalidate_translations()

    def release(self) -> None:
        """Free the memory: its owner is closing.

        Zeroes the written pages and hands the mapping to the free list
        that :func:`_anonymous` draws on (or drops it when that list is
        full).  The memory keeps no way to the mapping: its word views
        are released and ``_data`` is dropped, so any later access
        raises instead of reading or writing the next owner's bytes.
        Releasing twice is a no-op.
        """
        data = self._data
        if data is None:
            return
        self._zero_pages(self._written)
        self._written.clear()
        if self._views is not None:
            for view in self._views:
                view.release()
            self._views = None
        self._data = None
        free = _free[self.size]
        if len(free) < _FREE_PER_SIZE:
            free.append(data)

    def snapshot_bytes(self) -> bytes:
        """Return an immutable copy of the full contents."""
        return self._data[:]

    def load_bytes(self, image: bytes, addr: int = 0,
                   size: int | None = None) -> None:
        """Load a raw byte image at ``addr`` (host-side copy; dirties
        pages but raises no EPT first-touch events).

        ``size`` (default ``len(image)``) is the length of the loaded
        range; the bytes past the end of ``image`` load as zeros.  The
        whole range ends up dirty, exactly as if the zero-padded image
        had been copied in, but by the written-page invariant only padding
        over pages that may hold stale data (written pages) is written:
        a padded image costs host time for its code, not its declared
        size.  Its dirty span comes from a cached page set, which is left
        pending beside ``_dirty`` (see the module docstring) rather than
        merged into it.
        """
        length = len(image) if size is None else size
        if length < len(image):
            raise ValueError(
                f"load size {length} smaller than the image ({len(image)} bytes)")
        self._check(addr, length)
        pad, end = addr + len(image), addr + length
        stale: list[int] = []
        if pad < end and self._written:
            # Stale pages are written again below, so they stay recorded.
            padding = range(pad >> PAGE_SHIFT, ((end - 1) >> PAGE_SHIFT) + 1)
            stale = [page for page in self._written if page in padding]
        span = _span(addr >> PAGE_SHIFT,
                     (addr + max(length - 1, 0)) >> PAGE_SHIFT)
        # One span stays pending; another install's (or any while a store
        # log holds the slot) merges at once.
        pending = self._pending_span
        if pending is None:
            self._pending_span = span
        elif pending is not span:
            self._dirty.update(span)
        if self._cow_pending:
            # CoW breaks fire once per pending page, in ascending order.
            for page in sorted(self._cow_pending.intersection(span)):
                self._cow_pending.discard(page)
                if self.on_cow_break is not None:
                    self.on_cow_break(page)
        if self._watched_pages and not self._watched_pages.isdisjoint(span):
            self._invalidate_translations()
        if image:
            self._written.update(_span(addr >> PAGE_SHIFT,
                                       (pad - 1) >> PAGE_SHIFT))
        data = self._data
        data[addr:pad] = image
        for page in stale:
            lo = max(page << PAGE_SHIFT, pad)
            hi = min((page + 1) << PAGE_SHIFT, end)
            data[lo:hi] = _ZERO_PAGE[: hi - lo]

    def __len__(self) -> int:
        return self.size
