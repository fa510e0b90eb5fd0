"""The deterministic SMP scale-out plane (Figure 9/10).

Pins the acceptance criteria for the cluster: same seed => identical
total cycles AND byte-identical Chrome trace export; throughput scales
monotonically to 8 simulated cores; work-stealing rescues a skewed
placement; batched dispatch routes through supervision.
"""

import pytest

from repro.cluster import (
    DEFAULT_QUANTUM,
    LockstepScheduler,
    SimClock,
    VirtineCluster,
    parallel_creation,
)
from repro.faults import FaultPlan, FaultSite
from repro.runtime.image import ImageBuilder


@pytest.fixture
def image():
    return ImageBuilder().hlt_only()


# ---------------------------------------------------------------------------
# SimClock + LockstepScheduler units
# ---------------------------------------------------------------------------

class TestSimClock:
    def test_is_a_clock_with_a_core_id(self):
        clock = SimClock(3, start=10)
        assert clock.core_id == 3
        assert clock.cycles == 10
        clock.advance(5)
        assert clock.cycles == 15

    def test_negative_core_id_rejected(self):
        with pytest.raises(ValueError):
            SimClock(-1)

    def test_repr_names_the_core(self):
        assert "core=2" in repr(SimClock(2))


class TestLockstepScheduler:
    def test_validation(self):
        with pytest.raises(ValueError):
            LockstepScheduler(0)
        with pytest.raises(ValueError):
            LockstepScheduler(2, quantum=0)

    def test_least_advanced_core_runs_next(self):
        sched = LockstepScheduler(2, quantum=100)
        order = []

        def work(cost):
            def task(core):
                order.append(core)
                sched.clocks[core].advance(cost)
            return task

        # Core 0 holds expensive work, core 1 cheap work: after core 0's
        # first task it is 1000 cycles ahead, so the laggard (core 1)
        # runs everything else -- including stealing core 0's second
        # task, which therefore executes *on core 1*.
        for _ in range(2):
            sched.submit(0, work(1000))
        for _ in range(4):
            sched.submit(1, work(100))
        sched.run()
        assert sched.pending() == 0
        assert order[0] == 0          # tie at cycle 0 broken by rotation
        assert order[1:] == [1] * 5   # core 0 never runs while ahead
        assert sched.steals == 1      # core 0's leftover migrated

    def test_steals_from_deepest_queue(self):
        sched = LockstepScheduler(3, quantum=10)
        ran_on = []

        def task(core):
            ran_on.append(core)
            sched.clocks[core].advance(50)

        for _ in range(6):
            sched.submit(2, task)
        sched.run()
        assert sched.steals > 0
        assert set(ran_on) == {0, 1, 2}  # every core did real work

    def test_same_seed_same_interleaving(self):
        def trace(seed):
            sched = LockstepScheduler(4, quantum=100, seed=seed)
            order = []

            def make(i):
                def task(core):
                    order.append((i, core))
                    sched.clocks[core].advance(37 * (i % 5 + 1))
                return task

            sched.submit_round_robin([make(i) for i in range(20)])
            sched.run()
            return order, [c.cycles for c in sched.clocks]

        assert trace(7) == trace(7)
        assert trace(7) != trace(8)  # the seed genuinely matters


# ---------------------------------------------------------------------------
# VirtineCluster: scaling, determinism, stealing, supervision
# ---------------------------------------------------------------------------

class TestClusterScaling:
    def test_monotone_throughput_to_eight_cores(self):
        series = [
            parallel_creation(cores, 32, seed=1).throughput_per_s
            for cores in (1, 2, 4, 8)
        ]
        assert series == sorted(series)
        assert series[-1] > 6.0 * series[0]

    def test_pooled_beats_scratch(self):
        pooled = parallel_creation(4, 16, pooled=True, seed=1)
        scratch = parallel_creation(4, 16, pooled=False, seed=1)
        assert pooled.throughput_per_s > 10 * scratch.throughput_per_s

    def test_every_launch_completes(self, image):
        cluster = VirtineCluster(cores=4, seed=3)
        report = cluster.launch_many(image, [None] * 12, use_snapshot=False)
        assert report.launches == 12
        assert not report.failures
        assert sorted(set(report.placements)) == [0, 1, 2, 3]
        assert report.makespan_cycles == max(s.cycles for s in report.per_core)
        assert report.total_cycles == sum(s.cycles for s in report.per_core)

    def test_per_core_counts_cover_one_batch(self, image):
        cluster = VirtineCluster(cores=2, seed=0)
        cluster.prewarm(image, 2)
        cluster.launch_many(image, [None] * 4, use_snapshot=False)
        report = cluster.launch_many(image, [None] * 4, use_snapshot=False)
        for stats in report.per_core:
            assert stats.launches == 2
            assert stats.pool_hits == 2
            assert stats.pool_misses == 0

    def test_poisoned_entry_does_not_sink_the_batch(self):
        def entry(env):
            if env.args == "poison":
                raise RuntimeError("poisoned request")
            return env.args * 2

        hosted = ImageBuilder().hosted("maybe-boom", entry)
        cluster = VirtineCluster(cores=2, seed=0)
        args = [1, 2, "poison", 4, 5]
        report = cluster.launch_many(hosted, args, use_snapshot=False)
        assert report.failures == [(2, "GuestFault: virtine 'maybe-boom' "
                                       "faulted: RuntimeError: poisoned request")]
        assert report.results[2] is None
        assert [r.value for i, r in enumerate(report.results) if i != 2] == [
            2, 4, 8, 10]
        assert report.launches == 4


class TestClusterDeterminism:
    """The acceptance criteria: same seed => identical cycles + trace."""

    def _traced_run(self, seed):
        cluster = VirtineCluster(cores=4, seed=seed, trace=True)
        image = ImageBuilder().hlt_only()
        cluster.prewarm(image, 4)
        report = cluster.launch_many(image, [None] * 16, use_snapshot=False)
        return report, cluster.chrome_json()

    def test_same_seed_identical_cycles_and_trace_bytes(self):
        first, first_json = self._traced_run(42)
        second, second_json = self._traced_run(42)
        assert first.signature() == second.signature()
        assert first.total_cycles == second.total_cycles
        assert first_json == second_json  # byte-identical export

    def test_trace_has_one_thread_per_core(self):
        import json

        _, payload = self._traced_run(42)
        trace = json.loads(payload)
        tids = {e["tid"] for e in trace["traceEvents"]}
        assert tids == {1, 2, 3, 4}  # core i rides tid i+1
        names = [e["args"]["name"] for e in trace["traceEvents"]
                 if e.get("name") == "thread_name"]
        assert names == [f"core {i}" for i in range(4)]

    def test_untraced_cluster_still_reports(self, image):
        cluster = VirtineCluster(cores=2, seed=0, trace=False)
        report = cluster.launch_many(image, [None] * 4, use_snapshot=False)
        assert report.launches == 4
        assert cluster.chrome_json()  # NullTracer export is valid, empty


class TestWorkStealing:
    def test_packed_placement_is_rescued_by_stealing(self, image):
        cluster = VirtineCluster(cores=4, seed=5)
        report = cluster.launch_many(
            image, [None] * 16, placement="packed", use_snapshot=False,
        )
        assert report.launches == 16
        assert report.steals > 0
        assert len(set(report.placements)) > 1  # work actually migrated

    def test_packed_makespan_close_to_balanced(self, image):
        def run(placement):
            cluster = VirtineCluster(cores=4, seed=5)
            return cluster.launch_many(
                image, [None] * 16, placement=placement, use_snapshot=False,
            )

        balanced = run("round_robin")
        packed = run("packed")
        assert packed.makespan_cycles < 2 * balanced.makespan_cycles

    def test_unknown_placement_rejected(self, image):
        cluster = VirtineCluster(cores=2)
        with pytest.raises(ValueError):
            cluster.launch_many(image, [None], placement="hash")


class TestSupervisedCluster:
    def test_faults_absorbed_per_core(self, image):
        def plan(core):
            return FaultPlan(seed=100 + core).fail(
                FaultSite.POOL_ACQUIRE, rate=0.2)

        cluster = VirtineCluster(
            cores=4, seed=9, supervised=True, fault_plan_factory=plan,
        )
        report = cluster.launch_many(image, [None] * 12, use_snapshot=False)
        assert report.launches == 12
        assert not report.failures

    def test_supervised_replay_is_deterministic(self, image):
        def run():
            cluster = VirtineCluster(
                cores=2, seed=9, supervised=True,
                fault_plan_factory=lambda core: FaultPlan(seed=7 + core).fail(
                    FaultSite.POOL_ACQUIRE, rate=0.3),
            )
            return cluster.launch_many(
                image, [None] * 10, use_snapshot=False).signature()

        assert run() == run()


class TestSharedSnapshots:
    def test_snapshot_taken_on_one_core_restores_on_all(self):
        from repro.wasp import BitmaskPolicy, Hypercall, VirtineConfig

        def entry(env):
            if not env.from_snapshot:
                env.snapshot(payload=None)
            return 41 + 1

        image = ImageBuilder().hosted("snap-job", entry)
        policy = BitmaskPolicy(VirtineConfig.allowing(Hypercall.SNAPSHOT))
        cluster = VirtineCluster(cores=4, seed=2)
        # First batch captures the snapshot (on whichever core runs
        # first); the second batch restores everywhere.
        cluster.launch_many(image, [None] * 4, policy=policy)
        report = cluster.launch_many(image, [None] * 8, policy=policy)
        assert report.launches == 8
        assert all(r.value == 42 for r in report.results)
        stores = {id(e.wasp.snapshots) for e in cluster.engines}
        assert len(stores) == 1  # genuinely one shared store

    def test_private_snapshots_when_disabled(self):
        cluster = VirtineCluster(cores=2, share_snapshots=False)
        stores = {id(e.wasp.snapshots) for e in cluster.engines}
        assert len(stores) == 2
