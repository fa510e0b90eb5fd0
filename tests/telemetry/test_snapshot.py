"""Snapshot determinism: same seed => byte-identical signature."""

from repro.cluster.smp import VirtineCluster
from repro.runtime.image import ImageBuilder
from repro.telemetry import TelemetrySnapshot, absorb_wasp
from repro.wasp import PermissivePolicy, Wasp


def entry(env):
    if not env.from_snapshot:
        env.charge(10_000)
        env.snapshot()
    env.charge_bytes(2048)
    return 0


def single_core_snapshot(launches: int = 6) -> TelemetrySnapshot:
    wasp = Wasp(telemetry=True)
    image = ImageBuilder().hosted("snap-job", entry)
    for _ in range(launches):
        wasp.launch(image, policy=PermissivePolicy(), use_snapshot=True)
    absorb_wasp(wasp)
    return TelemetrySnapshot.capture(wasp.telemetry, meta={"seed": 0})


def cluster_snapshot(seed: int = 7, cores: int = 4,
                     requests: int = 12) -> TelemetrySnapshot:
    cluster = VirtineCluster(cores, seed=seed, telemetry=True)
    image = ImageBuilder().hosted("snap-job", entry)
    cluster.launch_many(image, [None] * requests,
                        policy=PermissivePolicy(), use_snapshot=True)
    return cluster.telemetry_snapshot(black_boxes=True)


class TestDeterminism:
    def test_single_core_signature_is_reproducible(self):
        a, b = single_core_snapshot(), single_core_snapshot()
        assert a.signature() == b.signature()
        assert a.to_json() == b.to_json()

    def test_cluster_signature_is_reproducible(self):
        a, b = cluster_snapshot(), cluster_snapshot()
        assert a.signature() == b.signature()
        assert a.to_json() == b.to_json()

    def test_different_seed_different_signature(self):
        assert (cluster_snapshot(seed=7).signature()
                != cluster_snapshot(seed=8).signature())

    def test_signature_covers_payload(self):
        snap = single_core_snapshot()
        tampered = TelemetrySnapshot.from_dict(dict(snap.to_dict()))
        tampered.payload["meta"] = {"seed": 99}
        assert tampered.signature() != snap.signature()


class TestMergedShape:
    def test_per_core_labels_and_black_boxes(self):
        snap = cluster_snapshot()
        payload = snap.to_dict()
        assert payload["cores"] == 4
        cores_seen = {s["labels"].get("core")
                      for s in snap.find("launches_total")}
        assert cores_seen <= {0, 1, 2, 3}
        assert set(payload["black_boxes"]) <= {
            "core0", "core1", "core2", "core3"}

    def test_value_sums_across_cores(self):
        snap = cluster_snapshot(requests=12)
        assert snap.value("launches_total") == 12

    def test_find_by_label_subset(self):
        snap = single_core_snapshot()
        states = snap.find("component_cycles_total",
                           component="snapshot.restore")
        assert len(states) == 1
        assert states[0]["value"] > 0

    def test_instruments_are_sorted(self):
        snap = cluster_snapshot()
        keys = [(s["name"], sorted(s["labels"].items()))
                for s in snap.instruments()]
        assert keys == sorted(keys)

    def test_round_trip_through_json(self, tmp_path):
        snap = single_core_snapshot()
        path = tmp_path / "snap.json"
        snap.save(path)
        loaded = TelemetrySnapshot.load(path)
        assert loaded.signature() == snap.signature()

    def test_summary_mentions_signature(self):
        snap = single_core_snapshot()
        assert snap.signature() in snap.summary()


class TestAbsorbWasp:
    def test_point_in_time_gauges(self):
        wasp = Wasp(telemetry=True)
        image = ImageBuilder().hosted("snap-job", entry)
        wasp.launch(image, policy=PermissivePolicy(), use_snapshot=True)
        absorb_wasp(wasp)
        snap = TelemetrySnapshot.capture(wasp.telemetry)
        assert snap.value("sim_cycles") == wasp.clock.cycles
        assert snap.find("pool_free_shells")
        assert snap.value("store_captures") == 1

    def test_disabled_registry_untouched(self):
        from repro.telemetry import NO_TELEMETRY

        absorb_wasp(Wasp())
        assert NO_TELEMETRY.instruments() == []
