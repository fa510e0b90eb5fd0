"""Guest physical memory tests: bounds, tracking, dirty pages."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw import memory as memory_module
from repro.hw.memory import GuestMemory, GuestMemoryError, PAGE_SIZE, PageSet


def make(size=64 * 1024):
    return GuestMemory(size)


class TestConstruction:
    def test_size_must_be_page_multiple(self):
        with pytest.raises(ValueError):
            GuestMemory(100)

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            GuestMemory(0)

    def test_starts_zeroed(self):
        mem = make()
        assert mem.read(0, 16) == bytes(16)

    def test_len(self):
        assert len(make(8192)) == 8192


class TestAccess:
    def test_write_read_roundtrip(self):
        mem = make()
        mem.write(100, b"hello")
        assert mem.read(100, 5) == b"hello"

    def test_out_of_range_read(self):
        mem = make(4096)
        with pytest.raises(GuestMemoryError):
            mem.read(4090, 10)

    def test_out_of_range_write(self):
        mem = make(4096)
        with pytest.raises(GuestMemoryError):
            mem.write(4095, b"ab")

    def test_negative_address(self):
        with pytest.raises(GuestMemoryError):
            make().read(-1, 1)

    @pytest.mark.parametrize("width,value", [
        (8, 0xAB), (16, 0xBEEF), (32, 0xDEADBEEF), (64, 0x0123456789ABCDEF),
    ])
    def test_integer_roundtrip(self, width, value):
        mem = make()
        getattr(mem, f"write_u{width}")(256, value)
        assert getattr(mem, f"read_u{width}")(256) == value

    def test_integers_are_little_endian(self):
        mem = make()
        mem.write_u32(0, 0x11223344)
        assert mem.read(0, 4) == bytes([0x44, 0x33, 0x22, 0x11])

    def test_integer_masking(self):
        mem = make()
        mem.write_u8(0, 0x1FF)
        assert mem.read_u8(0) == 0xFF

    @given(st.binary(min_size=1, max_size=256), st.integers(min_value=0, max_value=1000))
    def test_roundtrip_property(self, data, addr):
        mem = make()
        mem.write(addr, data)
        assert mem.read(addr, len(data)) == data


class TestFirstTouch:
    def test_touch_counting(self):
        mem = make()
        mem.write(0, b"x")
        mem.write(1, b"y")  # same page
        mem.write(PAGE_SIZE, b"z")  # new page
        assert mem.touched_pages == 2

    def test_callback_fires_once_per_page(self):
        mem = make()
        events = []
        mem.on_first_touch = events.append
        mem.write(0, b"a")
        mem.write(10, b"b")
        mem.write(PAGE_SIZE * 2, b"c")
        assert events == [0, 2]

    def test_cross_page_write_touches_both(self):
        mem = make()
        events = []
        mem.on_first_touch = events.append
        mem.write(PAGE_SIZE - 2, b"abcd")
        assert events == [0, 1]

    def test_load_bytes_does_not_fire_callback(self):
        mem = make()
        events = []
        mem.on_first_touch = events.append
        mem.load_bytes(b"image", 0)
        assert events == []

    def test_reset_touch_tracking(self):
        mem = make()
        mem.write(0, b"x")
        mem.reset_touch_tracking()
        assert mem.touched_pages == 0

    def test_mark_touched(self):
        mem = make()
        events = []
        mem.on_first_touch = events.append
        mem.mark_touched([0, 1])
        mem.write(0, b"x")
        assert events == []  # pre-marked pages do not fault


class TestDirtyTracking:
    def test_writes_dirty_pages(self):
        mem = make()
        mem.write(0, b"x")
        mem.load_bytes(b"img", PAGE_SIZE)
        assert mem.dirty_pages == {0, 1}
        assert mem.dirty_bytes == 2 * PAGE_SIZE

    def test_clear_dirty_zeroes_and_reports(self):
        mem = make()
        mem.write(100, b"secret")
        cleared = mem.clear_dirty()
        assert cleared == PAGE_SIZE
        assert mem.read(100, 6) == bytes(6)
        assert mem.dirty_bytes == 0

    def test_clear_dirty_leaves_clean_pages(self):
        mem = make()
        mem.write(0, b"a")
        mem.clear_dirty()
        mem.write(PAGE_SIZE, b"b")
        mem.clear_dirty()
        assert mem.read(0, 1) == b"\x00"

    def test_capture_restore_roundtrip(self):
        mem = make()
        mem.write(10, b"payload")
        pages = mem.capture_dirty()
        other = make()
        other.restore_pages(pages)
        assert other.read(10, 7) == b"payload"
        assert other.dirty_pages == mem.dirty_pages

    def test_capture_is_a_copy(self):
        mem = make()
        mem.write(0, b"aaaa")
        pages = mem.capture_dirty()
        mem.write(0, b"bbbb")
        assert pages[0][:4] == b"aaaa"

    def test_fill_resets_dirty(self):
        mem = make()
        mem.write(0, b"x")
        mem.fill()
        assert mem.dirty_bytes == 0

    def test_snapshot_bytes_immutable_copy(self):
        mem = make()
        mem.write(0, b"abc")
        snap = mem.snapshot_bytes()
        mem.write(0, b"xyz")
        assert snap[:3] == b"abc"


# --------------------------------------------------------------------------
# Zero-page invariant + code-only image install
# --------------------------------------------------------------------------

NPAGES = 16
SIZE = NPAGES * PAGE_SIZE
ZERO_PAGE = bytes(PAGE_SIZE)

_page = st.integers(min_value=0, max_value=NPAGES - 1)
_fill_byte = st.integers(min_value=0, max_value=255)
#: Short contiguous page runs; contents are one repeated byte (zero
#: included, so a restored page may legitimately read as zeros).
_run = st.tuples(_page, st.integers(min_value=1, max_value=4), _fill_byte)
#: A page set, as page -> fill byte: any pages, so runs of any length.
_fills = st.dictionaries(_page, _fill_byte, max_size=6)

OPS = st.one_of(
    st.tuples(st.just("write"), st.sampled_from([8, 16, 32, 64]),
              st.integers(min_value=0, max_value=SIZE - 8),
              st.integers(min_value=0, max_value=2**64 - 1)),
    st.tuples(st.just("load"), st.integers(min_value=0, max_value=SIZE - 1),
              st.binary(min_size=1, max_size=96)),
    st.tuples(st.just("install"), st.integers(min_value=0, max_value=SIZE - 1),
              st.binary(min_size=1, max_size=96),
              st.integers(min_value=0, max_value=SIZE)),
    st.tuples(st.just("restore"), _run),
    st.tuples(st.just("restore_cow"), _run),
    st.tuples(st.just("clear_dirty")),
    st.tuples(st.just("fill")),
    st.tuples(st.just("watch"), _page),
    st.tuples(st.just("release")),
    # A recorded boot's stores: page -> fill byte, and which of those
    # pages the boot left quiet (later stores to them skip the tracking).
    st.tuples(st.just("replay"), _fills, st.sets(_page, max_size=4)),
)


class _Twin:
    """A memory plus the observers whose effects the twins must agree on."""

    def __init__(self):
        self.events = []
        self.attach(GuestMemory(SIZE))

    def attach(self, mem):
        self.mem = mem
        self.mem.on_cow_break = lambda page: self.events.append(("cow", page))
        self.mem.on_first_touch = lambda page: self.events.append(("touch", page))
        self.tlb = {}
        self.mem.register_tlb(self.tlb)

    def state(self):
        mem = self.mem
        return (mem.snapshot_bytes(), mem.dirty_pages, mem.cow_pending_pages,
                frozenset(mem._touched), mem.translation_version,
                dict(self.tlb), list(self.events))

    def bookkeeping(self):
        """Every page set an install may change, with :meth:`state`."""
        mem = self.mem
        return self.state() + (frozenset(mem._written), frozenset(mem._quiet))


def _page_set(fills):
    """A page set of whole pages, each one repeated fill byte."""
    return PageSet({page: bytes([value]) * PAGE_SIZE
                    for page, value in fills.items()})


def _run_pages(run):
    first, count, value = run
    return _page_set({page: value
                      for page in range(first, min(first + count, NPAGES))})


def _apply(twin, op, padded_install):
    mem = twin.mem
    kind = op[0]
    if kind == "write":
        _, width, addr, value = op
        getattr(mem, f"write_u{width}")(addr, value)
    elif kind == "load":
        _, addr, data = op
        mem.load_bytes(data[: SIZE - addr], addr)
    elif kind == "install":
        _, addr, code, pad = op
        code = code[: SIZE - addr]
        size = len(code) + pad % (SIZE - addr - len(code) + 1)
        if padded_install:
            # The reference: copy in the fully padded image.
            mem.load_bytes(code + bytes(size - len(code)), addr)
        else:
            mem.load_bytes(code, addr, size)
    elif kind == "restore":
        mem.restore_runs(_run_pages(op[1]))
    elif kind == "restore_cow":
        mem.restore_runs(_run_pages(op[1]), cow=True)
    elif kind == "clear_dirty":
        mem.clear_dirty()
    elif kind == "fill":
        mem.fill()
    elif kind == "watch":
        mem.watch_translation_page(op[1])
        twin.tlb[op[1]] = op[1]
    elif kind == "release":
        twin.attach(reuse(mem))
    elif kind == "replay":
        _, fills, quiet = op
        mem.restore_runs(_page_set(fills), quiet=quiet.intersection(fills))


def reuse(mem):
    """Release ``mem`` and build the next memory of its size, which must
    get the released mapping back, all zeros."""
    data = mem._data
    # Make room, so the released mapping is the one handed out next.
    memory_module._free[mem.size].clear()
    mem.release()
    fresh = GuestMemory(mem.size)
    assert fresh._data is data
    assert fresh.snapshot_bytes() == bytes(mem.size)
    return fresh


def _assert_zero_page_invariant(mem):
    """The zero-page invariant, and the written-page invariant that
    scrubs and :meth:`GuestMemory.release` rely on."""
    live = mem.dirty_pages | mem.cow_pending_pages
    for page in range(NPAGES):
        if page not in live or page not in mem._written:
            assert mem.read(page * PAGE_SIZE, PAGE_SIZE) == ZERO_PAGE, page


class TestZeroPageInvariant:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(OPS, max_size=30))
    def test_pages_outside_dirty_and_cow_read_zero(self, ops):
        twin = _Twin()
        _assert_zero_page_invariant(twin.mem)
        for op in ops:
            _apply(twin, op, padded_install=False)
            _assert_zero_page_invariant(twin.mem)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(OPS, max_size=30))
    def test_install_matches_padded_load(self, ops):
        # Code-only install vs copying the zero-padded image, op by op on
        # twin memories: bytes, dirty/CoW-pending/touched sets, the
        # translation version, a registered TLB and every callback.
        code_only, padded = _Twin(), _Twin()
        for op in ops:
            _apply(code_only, op, padded_install=False)
            _apply(padded, op, padded_install=True)
            assert code_only.state() == padded.state(), op

    def test_install_zeroes_stale_padding(self):
        mem = GuestMemory(SIZE)
        mem.write(3 * PAGE_SIZE + 5, b"secret")
        mem.restore_runs(PageSet({5: b"\xaa" * PAGE_SIZE}), cow=True)
        mem.load_bytes(b"code", PAGE_SIZE, 6 * PAGE_SIZE)
        assert mem.read(PAGE_SIZE, 4) == b"code"
        assert mem.read(PAGE_SIZE + 4, 6 * PAGE_SIZE - 4) == bytes(6 * PAGE_SIZE - 4)
        assert mem.dirty_pages == set(range(1, 7))
        assert mem.cow_pending_pages == frozenset()

    def test_install_size_below_code_rejected(self):
        with pytest.raises(ValueError):
            GuestMemory(SIZE).load_bytes(b"code", 0, 3)

    def test_install_out_of_range_rejected(self):
        with pytest.raises(GuestMemoryError):
            GuestMemory(SIZE).load_bytes(b"code", PAGE_SIZE, SIZE)


class TestPageSet:
    def test_pages_in_order_and_adjacent_pages_in_one_run(self):
        pages = PageSet({7: b"c" * PAGE_SIZE, 2: b"a" * PAGE_SIZE,
                         3: b"b" * PAGE_SIZE})
        assert pages.numbers == (2, 3, 7) == tuple(pages)
        assert list(pages.items()) == [(2, b"a" * PAGE_SIZE),
                                       (3, b"b" * PAGE_SIZE),
                                       (7, b"c" * PAGE_SIZE)]
        assert pages.runs == (
            (2 * PAGE_SIZE, b"a" * PAGE_SIZE + b"b" * PAGE_SIZE),
            (7 * PAGE_SIZE, b"c" * PAGE_SIZE))
        assert pages == {2: b"a" * PAGE_SIZE, 3: b"b" * PAGE_SIZE,
                         7: b"c" * PAGE_SIZE}

    def test_empty(self):
        pages = PageSet({})
        assert (len(pages), pages.numbers, pages.runs) == (0, (), ())
        assert pages == {}
        assert pages.whole

    def test_whole_pages_only_install(self):
        assert PageSet({3: b"a" * PAGE_SIZE, 4: b"b" * PAGE_SIZE}).whole
        # Short pages still build, join and compare as before (the
        # store checksums such sets), but are not whole.
        short = PageSet({0: b"a" * 64, 1: b"b" * 64})
        assert short.runs == ((0, b"a" * 64 + b"b" * 64),)
        assert short == {0: b"a" * 64, 1: b"b" * 64}
        assert not short.whole
        assert not PageSet({2: b"c" * PAGE_SIZE, 5: b"d" * (PAGE_SIZE + 1)}).whole

    @pytest.mark.parametrize("install", ["restore_runs", "restore_pages"])
    def test_install_refuses_short_pages_before_writing(self, install):
        mem = GuestMemory(SIZE)
        with pytest.raises(ValueError, match="not 4096 bytes"):
            getattr(mem, install)(PageSet({0: b"a" * 64, 1: b"b" * 64}))
        assert mem.snapshot_bytes() == bytes(SIZE)
        assert mem.dirty_pages == set()
        assert not mem._written


class TestInstallEquivalence:
    """The bulk install (``restore_runs``: one slice copy per run) and its
    page-by-page oracle (``restore_pages``) leave the same state: from
    one random memory state (stores, image loads, restores, scrubs,
    translation watches, CoW-pending and quiet pages), a random page set
    installed through each, in copy, CoW and boot-replay mode, leaves
    equal bytes, dirty, written, CoW-pending, quiet and touched sets,
    translation version, TLB contents and callbacks."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(OPS, max_size=12), _fills,
           st.sampled_from(["copy", "cow", "replay"]),
           st.sets(_page, max_size=4))
    def test_bulk_install_matches_page_by_page(self, ops, fills, mode, quiet):
        bulk, oracle = _Twin(), _Twin()
        for op in ops:
            _apply(bulk, op, padded_install=False)
            _apply(oracle, op, padded_install=False)
        assert bulk.bookkeeping() == oracle.bookkeeping()
        pages = _page_set(fills)
        how = {"copy": {}, "cow": {"cow": True},
               "replay": {"quiet": quiet.intersection(fills)}}[mode]
        bulk.mem.restore_runs(pages, **how)
        oracle.mem.restore_pages(pages, **how)
        assert bulk.bookkeeping() == oracle.bookkeeping()
        _assert_zero_page_invariant(bulk.mem)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(OPS, max_size=12), _fills, _page,
           st.integers(min_value=0, max_value=PAGE_SIZE - 1),
           st.sampled_from(["copy", "cow", "replay"]))
    def test_both_refuse_a_short_page_alike(self, ops, fills, short, length, mode):
        bulk, oracle = _Twin(), _Twin()
        for op in ops:
            _apply(bulk, op, padded_install=False)
            _apply(oracle, op, padded_install=False)
        before = bulk.bookkeeping()
        pages = {page: bytes([value]) * PAGE_SIZE
                 for page, value in fills.items()}
        pages[short] = b"\x5a" * length
        how = {"copy": {}, "cow": {"cow": True},
               "replay": {"quiet": set(pages)}}[mode]
        with pytest.raises(ValueError) as bulk_error:
            bulk.mem.restore_runs(PageSet(pages), **how)
        with pytest.raises(ValueError) as oracle_error:
            oracle.mem.restore_pages(PageSet(pages), **how)
        assert str(bulk_error.value) == str(oracle_error.value)
        assert bulk.bookkeeping() == oracle.bookkeeping() == before


class TestRelease:
    def test_released_memory_raises_on_access(self):
        mem = make()
        mem.write_u64(0x1000, 0x5EC2E7)
        view = mem.word_views()[1]
        mem.release()
        with pytest.raises(TypeError):
            mem.read(0x1000, 8)
        with pytest.raises(TypeError):
            mem.read_u64(0x1000)
        with pytest.raises(TypeError):
            mem.write(0x1000, b"x")
        with pytest.raises(TypeError):
            mem.write_u64(0x1000, 1)
        with pytest.raises(TypeError):
            mem.word_views()
        # A word view kept past the release is released with it.
        with pytest.raises(ValueError):
            view[0x200]
        with pytest.raises(ValueError):
            view[0x200] = 1

    def test_release_twice_is_a_no_op(self):
        mem = make()
        mem.release()
        mem.release()

    def test_next_memory_reuses_the_zeroed_mapping(self):
        mem = make()
        mem.write(0x3000, b"secret")
        mem.restore_runs(PageSet({5: b"\xaa" * PAGE_SIZE}), cow=True)
        mem.load_bytes(b"code", 0x8000, 0x4000)
        reuse(mem)

    def test_free_list_is_bounded(self):
        free = memory_module._free[SIZE]
        free.clear()
        mems = [GuestMemory(SIZE) for _ in range(memory_module._FREE_PER_SIZE + 2)]
        for mem in mems:
            mem.release()
        assert len(free) == memory_module._FREE_PER_SIZE
        free.clear()

    def test_fill_zeroes_in_place(self):
        mem = make()
        data = mem._data
        mem.write(0x2000, b"secret")
        mem.fill()
        assert mem._data is data
        assert mem.snapshot_bytes() == bytes(mem.size)
        assert mem._written == set()


# -- the pending install span ---------------------------------------------------
#: A load address: a few repeated ones (so one span installs again, the
#: case that keeps it pending) and any other.
_load_addr = st.one_of(st.sampled_from([0, PAGE_SIZE, 3 * PAGE_SIZE + 100]),
                       st.integers(min_value=0, max_value=SIZE - 1))
_load = st.tuples(st.just("load"), _load_addr, st.binary(max_size=96),
                  st.sampled_from([0, 2 * PAGE_SIZE, SIZE]))
_store = st.tuples(st.just("store"), st.sampled_from([8, 16, 32, 64]),
                   st.integers(min_value=0, max_value=SIZE - 8),
                   st.integers(min_value=0, max_value=2**64 - 1))
_restore = st.tuples(st.just("restore"), _run)
#: Host installs and guest stores inside a store log, as in a recorded boot.
_LOGGED = st.one_of(_store, _load, _restore)
SPAN_OPS = st.one_of(
    _load, _store, _restore,
    st.tuples(st.just("restore_cow"), _run),
    st.tuples(st.just("logged"), st.lists(_LOGGED, max_size=6)),
    st.tuples(st.just("clear_dirty")),
    st.tuples(st.just("fill")),
    st.tuples(st.just("release")),
    st.tuples(st.just("dirty_pages")),
    st.tuples(st.just("dirty_bytes")),
    st.tuples(st.just("capture")),
    # Pages that loads often cover, so some are pending when checked.
    st.tuples(st.just("replayable"),
              st.dictionaries(st.one_of(st.sampled_from([0, 1, 3]), _page),
                              _fill_byte, max_size=6),
              st.booleans()),
)


class _DirtyModel:
    """Guest memory as plain sets and a bytearray: what every observer of
    the dirty set must report, whatever is left pending."""

    def __init__(self):
        self.data = bytearray(SIZE)
        self.dirty, self.cow, self.touched = set(), set(), set()
        #: Pages stored to since the open store log began, or ``None``.
        self.log = None

    def page(self, page):
        return bytes(self.data[page * PAGE_SIZE : (page + 1) * PAGE_SIZE])

    def _dirty(self, pages):
        self.dirty.update(pages)
        if self.log is not None:
            self.log.update(pages)

    def load(self, addr, code, size):
        self.data[addr : addr + size] = code + bytes(size - len(code))
        span = range(addr // PAGE_SIZE, (addr + max(size - 1, 0)) // PAGE_SIZE + 1)
        self._dirty(span)
        self.cow.difference_update(span)

    def store(self, width, addr, value):
        nbytes = width // 8
        self.data[addr : addr + nbytes] = (
            (value & ((1 << width) - 1)).to_bytes(nbytes, "little"))
        pages = range(addr // PAGE_SIZE, (addr + nbytes - 1) // PAGE_SIZE + 1)
        self._dirty(pages)
        self.cow.difference_update(pages)
        self.touched.update(pages)

    def restore(self, pages, cow):
        for page, contents in pages.items():
            self.data[page * PAGE_SIZE : (page + 1) * PAGE_SIZE] = contents
        (self.cow.update if cow else self._dirty)(pages.numbers)

    def forget(self):
        self.data = bytearray(SIZE)
        self.dirty.clear()
        self.cow.clear()

    def replayable(self, pages, touched):
        return all(page < NPAGES and (page in self.touched) == touched
                   and page not in self.cow
                   and (page not in self.dirty or self.page(page) == ZERO_PAGE)
                   for page in pages)


def _load_args(op):
    _, addr, code, pad = op
    code = code[: SIZE - addr]
    return addr, code, len(code) + pad % (SIZE - addr - len(code) + 1)


def _span_step(mem, model, op):
    """Apply ``op`` to both; return the memory to go on with."""
    kind = op[0]
    if kind == "load":
        addr, code, size = _load_args(op)
        mem.load_bytes(code, addr, size)
        model.load(addr, code, size)
    elif kind == "store":
        _, width, addr, value = op
        getattr(mem, f"write_u{width}")(addr, value)
        model.store(width, addr, value)
    elif kind in ("restore", "restore_cow"):
        cow = kind == "restore_cow"
        pages = _run_pages(op[1])
        mem.restore_runs(pages, cow=cow)
        model.restore(pages, cow)
    elif kind == "logged":
        # A log sees every store only from a boot-ready memory (no quiet
        # page), as a recycled shell's is.
        mem.reset_touch_tracking()
        model.touched.clear()
        log = mem.log_stores()
        model.log = set()
        for inner in op[1]:
            mem = _span_step(mem, model, inner)
        pages, quiet = mem.end_store_log(log)
        assert dict(pages.items()) == {page: model.page(page)
                                       for page in model.log}
        assert quiet <= model.log
        model.log = None
    elif kind == "clear_dirty":
        assert mem.clear_dirty() == len(model.dirty) * PAGE_SIZE
        model.forget()
    elif kind == "fill":
        mem.fill()
        model.forget()
    elif kind == "release":
        mem = reuse(mem)
        model.forget()
        model.touched.clear()
    elif kind == "dirty_pages":
        assert mem.dirty_pages == model.dirty
    elif kind == "dirty_bytes":
        assert mem.dirty_bytes == len(model.dirty) * PAGE_SIZE
    elif kind == "capture":
        assert dict(mem.capture_dirty().items()) == {
            page: model.page(page) for page in model.dirty}
    elif kind == "replayable":
        _, fills, touched = op
        pages = _page_set(fills)
        assert mem.replayable(pages, touched) == model.replayable(pages, touched)
    return mem


class TestZeroPagePendingSpan:
    """An install's page span left pending beside ``_dirty``: every
    observer of the dirty set (``dirty_pages``, ``dirty_bytes``, the
    byte count ``clear_dirty`` returns, ``capture_dirty``, a store log's
    page set, ``replayable``) and the bytes agree with a model that
    merges every span at once, whatever reads or drops it first."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(SPAN_OPS, max_size=25))
    def test_observers_match_a_plain_set_model(self, ops):
        mem, model = GuestMemory(SIZE), _DirtyModel()
        for op in ops:
            mem = _span_step(mem, model, op)
            assert mem.snapshot_bytes() == model.data, op
            # The zero-page invariant, read without merging the span.
            live = mem._dirty | (mem._pending_span or set()) | mem._cow_pending
            for page in set(range(NPAGES)) - live:
                assert model.page(page) == ZERO_PAGE, (op, page)
        assert mem.dirty_pages == model.dirty
        assert mem.clear_dirty() == len(model.dirty) * PAGE_SIZE

    def test_a_scratch_install_never_merges_its_span(self):
        mem = GuestMemory(SIZE)
        mem.load_bytes(b"code", 0, SIZE)
        span = mem._pending_span
        assert len(span) == NPAGES and mem._dirty == set()
        # What a replayed scratch launch does next: check and apply its
        # boot record, run, and release.  The check reads through the
        # span: page 0 holds code, so no record storing to it replays.
        assert not mem.replayable(PageSet({0: ZERO_PAGE}), touched=False)
        assert mem.replayable(PageSet({2: ZERO_PAGE}), touched=False)
        mem.restore_runs(PageSet({2: b"\x01" * PAGE_SIZE}), quiet={2})
        mem.write_u64(0x3000, 7)
        assert mem._pending_span is span and mem._dirty == {2, 3}
        assert mem.dirty_pages == set(range(NPAGES))
        assert mem._pending_span is None
