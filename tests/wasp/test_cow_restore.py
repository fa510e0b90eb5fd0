"""Copy-on-write snapshot restore tests (the Section 7.2 extension)."""

import pytest

from repro.hw.memory import GuestMemory, PAGE_SIZE
from repro.runtime.image import ImageBuilder
from repro.wasp import BitmaskPolicy, Hypercall, VirtineConfig, Wasp
from repro.wasp.snapshot import RestoreMode


def snap_policy():
    return BitmaskPolicy(VirtineConfig.allowing(Hypercall.SNAPSHOT))


class TestMemoryCow:
    def test_restore_cow_contents_visible(self):
        src = GuestMemory(64 * 1024)
        src.write(0x1000, b"shared page content")
        pages = src.capture_dirty()
        dst = GuestMemory(64 * 1024)
        dst.restore_pages(pages, cow=True)
        assert dst.read(0x1000, 19) == b"shared page content"
        assert dst.cow_pending_pages == {1}

    def test_write_breaks_cow_once(self):
        mem = GuestMemory(64 * 1024)
        mem.restore_pages({1: bytes(PAGE_SIZE), 2: bytes(PAGE_SIZE)}, cow=True)
        breaks = []
        mem.on_cow_break = breaks.append
        mem.write(PAGE_SIZE + 10, b"x")
        mem.write(PAGE_SIZE + 20, b"y")  # same page: no second break
        assert breaks == [1]
        assert mem.cow_pending_pages == {2}

    def test_reads_do_not_break(self):
        mem = GuestMemory(64 * 1024)
        mem.restore_pages({1: bytes(PAGE_SIZE)}, cow=True)
        breaks = []
        mem.on_cow_break = breaks.append
        mem.read(PAGE_SIZE, 100)
        assert breaks == []

    def test_host_load_bytes_breaks(self):
        mem = GuestMemory(64 * 1024)
        mem.restore_pages({0: bytes(PAGE_SIZE)}, cow=True)
        breaks = []
        mem.on_cow_break = breaks.append
        mem.load_bytes(b"marshalled args", 0)
        assert breaks == [0]

    def test_clear_dirty_drops_pending(self):
        mem = GuestMemory(64 * 1024)
        mem.restore_pages({1: b"\xaa" * PAGE_SIZE}, cow=True)
        mem.clear_dirty()
        assert mem.cow_pending_pages == frozenset()


def _make_sparse_image(builder, size):
    """A hosted virtine that writes only one captured page per run."""

    def entry(env):
        if not env.from_snapshot:
            env.memory.write(0x240000, b"captured page")
            env.snapshot(payload=None)
        env.memory.write(0x240000, b"one page of output")
        return 0

    return builder.hosted("sparse", entry, size=size)


class TestWaspCowRestore:
    def test_cow_restore_correct(self):
        wasp = Wasp()
        image = _make_sparse_image(ImageBuilder(), 256 * 1024)
        wasp.launch(image, policy=snap_policy())  # capture
        result = wasp.launch(image, policy=snap_policy(), restore_mode=RestoreMode.COW)
        assert result.from_snapshot
        assert result.exit_code == 0

    def test_cow_faster_for_sparse_writers(self):
        """A big image whose occupant writes little: CoW restore must be
        much cheaper than the eager memcpy (the SEUSS expectation)."""
        wasp = Wasp()
        image = _make_sparse_image(ImageBuilder(), 2 * 1024 * 1024)
        wasp.launch(image, policy=snap_policy())  # capture snapshot
        eager = wasp.launch(image, policy=snap_policy(),
                            restore_mode=RestoreMode.EAGER).cycles
        cow = wasp.launch(image, policy=snap_policy(),
                          restore_mode=RestoreMode.COW).cycles
        assert cow < eager / 2

    def test_cow_break_counted(self):
        wasp = Wasp()
        image = _make_sparse_image(ImageBuilder(), 128 * 1024)
        wasp.launch(image, policy=snap_policy())
        pool = wasp.pool_for(wasp.memory_size_for(image))
        wasp.launch(image, policy=snap_policy(), restore_mode=RestoreMode.COW)
        shell = pool.acquire()  # the shell just used
        assert shell.vm.cow_breaks >= 1

    def test_cow_isolation_preserved(self):
        """CoW restores must still give each virtine private state."""
        wasp = Wasp()
        builder = ImageBuilder()
        outputs = []

        def entry(env):
            if not env.from_snapshot:
                env.memory.write(0x250000, b"base")
                env.snapshot(payload=None)
            current = env.memory.read(0x250000, 4)
            outputs.append(bytes(current))
            env.memory.write(0x250000, b"MUT!")
            return 0

        image = builder.hosted("cow-iso", entry)
        wasp.launch(image, policy=snap_policy())
        wasp.launch(image, policy=snap_policy(), restore_mode=RestoreMode.COW)
        wasp.launch(image, policy=snap_policy(), restore_mode=RestoreMode.COW)
        # Every restored virtine must see the snapshot's "base", never a
        # sibling's mutation.
        assert outputs[-1] == b"base"
        assert outputs[-2] == b"base"


class TestConcurrentCowRestore:
    """Many restores from ONE snapshot: dirty state must stay private.

    The SMP plane shares a SnapshotStore across cores, so the same
    captured page dict feeds every core's restore; the pending-CoW
    design (page bytes immutable until first write) is only sound if a
    break on one restore never leaks into a sibling.
    """

    def test_two_restores_do_not_share_dirty_pages(self):
        src = GuestMemory(64 * 1024)
        src.write(0x1000, b"golden snapshot page")
        pages = src.capture_dirty()
        mem_a = GuestMemory(64 * 1024)
        mem_b = GuestMemory(64 * 1024)
        mem_a.restore_pages(pages, cow=True)
        mem_b.restore_pages(pages, cow=True)
        mem_a.write(0x1000, b"core A wrote here")
        assert mem_b.read(0x1000, 20) == b"golden snapshot page"
        assert mem_b.cow_pending_pages == {1}  # B's page still pending
        assert mem_a.cow_pending_pages == set()

    def test_break_on_one_restore_leaves_snapshot_bytes_intact(self):
        src = GuestMemory(64 * 1024)
        src.write(0x1000, b"immutable")
        pages = src.capture_dirty()
        before = {page: bytes(content) for page, content in pages.items()}
        mem_a = GuestMemory(64 * 1024)
        mem_a.restore_pages(pages, cow=True)
        mem_a.write(0x1000, b"scribble!")
        assert pages == before  # the shared dict never mutates
        mem_b = GuestMemory(64 * 1024)
        mem_b.restore_pages(pages, cow=True)
        assert mem_b.read(0x1000, 9) == b"immutable"

    def test_cluster_cores_restore_shared_snapshot_isolated(self):
        """Cores of a cluster CoW-restore one snapshot; each mutation
        stays on its own core."""
        from repro.cluster import VirtineCluster

        observed = []

        def entry(env):
            if not env.from_snapshot:
                env.memory.write(0x250000, b"base")
                env.snapshot(payload=None)
            observed.append(bytes(env.memory.read(0x250000, 4)))
            env.memory.write(0x250000, b"MUT!")
            return 0

        image = ImageBuilder().hosted("cow-smp", entry)
        cluster = VirtineCluster(cores=4, seed=11)
        # Capture once (first batch), then restore everywhere twice.
        cluster.launch_many(image, [None] * 4, policy=snap_policy(),
                            restore_mode=RestoreMode.COW)
        report = cluster.launch_many(image, [None] * 8, policy=snap_policy(),
                                     restore_mode=RestoreMode.COW)
        assert report.launches == 8
        assert not report.failures
        # Every restore saw the pristine snapshot, never a sibling's MUT!.
        restores = [view for view in observed if view == b"base"]
        assert len(restores) >= 8

    def test_cluster_shared_store_has_one_snapshot(self):
        from repro.cluster import VirtineCluster

        def entry(env):
            if not env.from_snapshot:
                env.snapshot(payload=None)
            return 7

        image = ImageBuilder().hosted("one-snap", entry)
        cluster = VirtineCluster(cores=2, seed=1)
        report = cluster.launch_many(image, [None] * 6, policy=snap_policy(),
                                     restore_mode=RestoreMode.COW)
        assert all(r.value == 7 for r in report.results)
        stores = {id(e.wasp.snapshots) for e in cluster.engines}
        assert len(stores) == 1
