"""Snapshot store and restore-cost tests."""

import pytest

from repro.hw.cpu import Mode
from repro.hw.memory import PAGE_SIZE
from repro.runtime.image import ImageBuilder
from repro.wasp import BitmaskPolicy, Hypercall, VirtineConfig, Wasp
from repro.wasp.snapshot import Snapshot, SnapshotStore


def snap_policy():
    return BitmaskPolicy(VirtineConfig.allowing(Hypercall.SNAPSHOT))


class TestSnapshotStore:
    def test_put_get(self):
        store = SnapshotStore()
        snap = Snapshot(image_name="a", pages={}, cpu_state={})
        store.put("a", snap)
        assert store.get("a") is snap

    def test_missing_is_none(self):
        assert SnapshotStore().get("nope") is None

    def test_drop(self):
        store = SnapshotStore()
        store.put("a", Snapshot(image_name="a", pages={}, cpu_state={}))
        store.drop("a")
        assert store.get("a") is None

    def test_counters(self):
        store = SnapshotStore()
        store.put("a", Snapshot(image_name="a", pages={}, cpu_state={}))
        store.note_restore()
        assert store.captures == 1
        assert store.restores == 1

    def test_copy_size(self):
        snap = Snapshot(image_name="a", pages={0: b"", 5: b""}, cpu_state={})
        assert snap.copy_size == 2 * PAGE_SIZE

    def test_payload_copy_is_deep(self):
        payload = {"nested": [1, 2]}
        snap = Snapshot(image_name="a", pages={}, cpu_state={}, hosted_payload=payload)
        copy1 = snap.payload_copy()
        copy1["nested"].append(3)
        assert snap.payload_copy() == {"nested": [1, 2]}


class TestIsaSnapshot:
    """Assembly-level snapshots: resume at the instruction after the
    SNAPSHOT hypercall (Figure 7's reset-state path)."""

    SOURCE_BODY = """
    mov ax, 1
    mov bx, 8
    out 0x200, bx
    add ax, 100
    hlt
"""

    def _image(self, builder):
        # Boot to long mode, snapshot (nr 8 in bx), then do "real work".
        from repro.runtime.boot import boot_source

        program_source = boot_source(Mode.LONG64, self.SOURCE_BODY)
        from repro.hw.isa import Assembler
        from repro.runtime.image import VirtineImage

        program = Assembler(0x8000).assemble(program_source)
        return VirtineImage(name="isa-snap", program=program, mode=Mode.LONG64,
                            size=len(program.image))

    def test_resume_skips_boot(self, builder=ImageBuilder()):
        wasp = Wasp()
        image = self._image(builder)
        cold = wasp.launch(image, policy=snap_policy())
        warm = wasp.launch(image, policy=snap_policy())
        assert cold.ax == warm.ax == 101
        assert warm.from_snapshot
        assert warm.cycles < cold.cycles

    def test_snapshot_counted_as_hypercall(self):
        wasp = Wasp()
        image = self._image(ImageBuilder())
        cold = wasp.launch(image, policy=snap_policy())
        assert cold.hypercall_count == 1


class TestRestoreCost:
    def test_restore_cost_scales_with_image_size(self):
        """Figure 12's mechanism: bigger images -> bigger snapshot copies."""
        wasp = Wasp()
        builder = ImageBuilder()

        def entry(env):
            if env.restored is None:
                env.snapshot(payload=None)
            return 0

        small_image = builder.hosted("small", entry, size=16 * 1024)
        big_image = builder.hosted("big", entry, size=1024 * 1024)
        wasp.launch(small_image, policy=snap_policy())
        wasp.launch(big_image, policy=snap_policy())
        small = wasp.launch(small_image, policy=snap_policy())
        big = wasp.launch(big_image, policy=snap_policy())
        assert big.from_snapshot and small.from_snapshot
        assert big.cycles > small.cycles + 100_000

    def test_snapshots_keyed_per_image(self):
        wasp = Wasp()
        builder = ImageBuilder()

        def make_entry(tag):
            def entry(env):
                if env.restored is None:
                    env.snapshot(payload=tag)
                    return None
                return env.restored

            return entry

        image_a = builder.hosted("image-a", make_entry("A"))
        image_b = builder.hosted("image-b", make_entry("B"))
        wasp.launch(image_a, policy=snap_policy())
        wasp.launch(image_b, policy=snap_policy())
        assert wasp.launch(image_a, policy=snap_policy()).value == "A"
        assert wasp.launch(image_b, policy=snap_policy()).value == "B"

    def test_snapshot_key_override(self):
        wasp = Wasp()
        builder = ImageBuilder()

        def entry(env):
            if env.restored is None:
                env.snapshot(payload="x")
            return env.restored

        image = builder.hosted("keyed", entry)
        wasp.launch(image, policy=snap_policy(), snapshot_key="k1")
        fresh = wasp.launch(image, policy=snap_policy(), snapshot_key="k2")
        warm = wasp.launch(image, policy=snap_policy(), snapshot_key="k1")
        assert fresh.value is None  # k2 had no snapshot: ran cold
        assert warm.value == "x"
