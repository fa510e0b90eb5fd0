"""Failure-injection tests: host faults during virtine execution.

The client's hypercall handlers sit between an untrusted guest and a
host that can itself fail (files disappearing, sockets resetting).
These tests inject faults mid-flight and assert the blast radius stays
inside the affected virtine/query/request.
"""

import hashlib

import pytest

from repro.apps.http.client import RequestGenerator
from repro.apps.http.server import StaticHttpServer
from repro.apps.serverless.platform import SupervisedPlatform
from repro.faults import NO_FAULTS, FaultPlan, FaultSite, InjectedFault
from repro.host.filesystem import FsError
from repro.runtime.image import ImageBuilder
from repro.wasp import (
    BitmaskPolicy,
    Cluster,
    HostFault,
    Hypercall,
    HypercallError,
    PermissivePolicy,
    Supervisor,
    TransferDropped,
    VirtineConfig,
    VirtineCrash,
    Wasp,
)


class FlakyFs:
    """Wraps handler implementations to fail on chosen invocations."""

    def __init__(self, fail_on: set[int]) -> None:
        self.calls = 0
        self.fail_on = fail_on

    def maybe_fail(self) -> None:
        self.calls += 1
        if self.calls in self.fail_on:
            raise FsError("EIO", "injected disk failure")


class TestFilesystemFaults:
    def test_file_deleted_between_stat_and_open(self):
        """The HTTP handler's stat succeeds, then open races a delete."""
        wasp = Wasp()
        wasp.kernel.fs.add_file("/srv/index.html", b"payload")
        server = StaticHttpServer(wasp, port=80, isolation="virtine")
        generator = RequestGenerator(wasp.kernel, server, "/index.html")

        original_stat = wasp.kernel.sys_stat

        def racing_stat(path):
            result = original_stat(path)
            wasp.kernel.fs._files.pop("/srv/index.html", None)  # the race
            return result

        wasp.kernel.sys_stat = racing_stat
        outcome = generator.one_request()
        assert outcome.response.status == 404  # clean failure, no crash
        # Server keeps serving once the file is back.
        wasp.kernel.sys_stat = original_stat
        wasp.kernel.fs.add_file("/srv/index.html", b"payload")
        assert generator.one_request().response.status == 200

    def test_injected_read_error_becomes_hypercall_error(self):
        wasp = Wasp()
        wasp.kernel.fs.add_file("/data", b"x" * 100)
        flaky = FlakyFs(fail_on={1})
        original = wasp.kernel.sys_read

        def flaky_read(fd, count):
            flaky.maybe_fail()
            return original(fd, count)

        wasp.kernel.sys_read = flaky_read

        def entry(env):
            fd = env.hypercall(Hypercall.OPEN, "/data")
            try:
                env.hypercall(Hypercall.READ, fd, 10)
            except HypercallError as error:
                return error.errno_name
            return "no fault"

        result = wasp.launch(ImageBuilder().hosted("flaky", entry),
                             policy=PermissivePolicy())
        assert result.value == "EIO"


class TestNetworkFaults:
    def test_peer_close_mid_request(self):
        """The client vanishes before the virtine sends its response."""
        wasp = Wasp()
        wasp.kernel.fs.add_file("/srv/index.html", b"<html>x</html>")
        server = StaticHttpServer(wasp, port=80, isolation="virtine")
        conn = wasp.kernel.sys_connect(80)
        wasp.kernel.sys_send(conn, b"GET /index.html HTTP/1.0\r\n\r\n")
        wasp.kernel.sys_sock_close(conn)  # client gives up
        with pytest.raises(VirtineCrash):
            server.serve_one()
        # Engine healthy; next request served.
        generator = RequestGenerator(wasp.kernel, server, "/index.html")
        assert generator.one_request().response.status == 200

    def test_send_failure_surfaces_as_errno(self):
        wasp = Wasp()
        listener = wasp.kernel.sys_listen(81)
        client = wasp.kernel.sys_connect(81)
        server_sock = wasp.kernel.sys_accept(listener)
        wasp.kernel.sys_sock_close(client)

        def entry(env):
            try:
                env.hypercall(Hypercall.SEND, 0, b"hello?")
            except HypercallError as error:
                return error.errno_name
            return "sent"

        policy = BitmaskPolicy(VirtineConfig.allowing(Hypercall.SEND))
        result = wasp.launch(
            ImageBuilder().hosted("deadpeer", entry),
            policy=policy,
            resources={0: server_sock},
        )
        assert result.value == "ECONNRESET"


class TestResourceExhaustion:
    def test_many_sequential_launches_do_not_leak_vms(self):
        """Shell recycling keeps the VM population constant."""
        wasp = Wasp()
        image = ImageBuilder().hosted("loop", lambda env: 0)
        for _ in range(50):
            wasp.launch(image)
        assert wasp.kvm.vms_created == 1

    def test_crashing_launches_do_not_leak_fds(self):
        wasp = Wasp()
        wasp.kernel.fs.add_file("/f", b"data")

        def leak_then_crash(env):
            env.hypercall(Hypercall.OPEN, "/f")
            raise RuntimeError("bug after open")

        image = ImageBuilder().hosted("leaker", leak_then_crash)
        for _ in range(10):
            with pytest.raises(VirtineCrash):
                wasp.launch(image, policy=PermissivePolicy())
        assert wasp.kernel.fs.open_fd_count() == 0

    def test_pool_overflow_closes_shells(self):
        from repro.wasp.pool import ShellPool
        from repro.kvm.device import KVM
        from repro.hw.clock import Clock

        pool = ShellPool(KVM(Clock()), 4 * 1024 * 1024, max_free=2)
        shells = [pool.create_scratch() for _ in range(5)]
        for shell in shells:
            pool.release(shell)
        assert pool.free_count == 2
        assert sum(1 for s in shells if s.handle.closed) == 3


def snap_entry(env):
    if not env.from_snapshot:
        env.charge(30_000)
        env.snapshot(payload={"warm": True})
    return "served"


class TestFaultPlan:
    def test_unconfigured_site_never_fires(self):
        plan = FaultPlan(seed=1)
        assert not any(plan.draw(FaultSite.VCPU_RUN) for _ in range(1000))
        assert plan.signature() == ()

    def test_on_calls_schedule_is_exact(self):
        plan = FaultPlan(seed=1).fail(FaultSite.VCPU_RUN, on={2, 4})
        fired = [plan.draw(FaultSite.VCPU_RUN) for _ in range(5)]
        assert fired == [False, True, False, True, False]
        assert plan.signature() == (("vcpu_run", 2), ("vcpu_run", 4))

    def test_rate_stream_is_seed_deterministic(self):
        def decisions(seed):
            plan = FaultPlan(seed=seed).fail(FaultSite.HOST_SYSCALL, rate=0.5)
            return [plan.draw(FaultSite.HOST_SYSCALL) for _ in range(100)]

        assert decisions(7) == decisions(7)
        assert decisions(7) != decisions(8)

    def test_sites_draw_from_independent_streams(self):
        """Interleaving order across sites cannot change any site's
        decisions -- the property that makes whole-system traces replay."""
        def vcpu_only():
            plan = (FaultPlan(seed=3)
                    .fail(FaultSite.VCPU_RUN, rate=0.5)
                    .fail(FaultSite.HOST_SYSCALL, rate=0.5))
            return [plan.draw(FaultSite.VCPU_RUN) for _ in range(50)]

        def interleaved():
            plan = (FaultPlan(seed=3)
                    .fail(FaultSite.VCPU_RUN, rate=0.5)
                    .fail(FaultSite.HOST_SYSCALL, rate=0.5))
            out = []
            for _ in range(50):
                plan.draw(FaultSite.HOST_SYSCALL)  # extra traffic elsewhere
                out.append(plan.draw(FaultSite.VCPU_RUN))
            return out

        assert vcpu_only() == interleaved()

    def test_only_an_armed_plan_is_enabled(self):
        assert not NO_FAULTS.enabled
        plan = FaultPlan(seed=1)
        assert not plan.enabled
        assert plan.fail(FaultSite.VCPU_RUN, rate=0.0) is plan
        assert plan.enabled
        assert not NO_FAULTS.enabled

    def test_injected_fault_carries_site(self):
        plan = FaultPlan(seed=1).fail(FaultSite.VCPU_RUN, on={1})
        fault = plan.fault(FaultSite.VCPU_RUN, "abort")
        assert isinstance(fault, InjectedFault)
        assert fault.site is FaultSite.VCPU_RUN


class TestInjectedFaultSites:
    def test_vcpu_abort_surfaces_as_host_fault(self):
        plan = FaultPlan(seed=1).fail(FaultSite.VCPU_RUN, on={1})
        wasp = Wasp(fault_plan=plan)
        with pytest.raises(HostFault):
            wasp.launch(ImageBuilder().hosted("job", lambda env: "ok"),
                        policy=PermissivePolicy())

    def test_host_syscall_eio_surfaces_as_host_fault(self):
        """An unhandled injected EIO classifies as the *host's* fault."""
        plan = FaultPlan(seed=1).fail(FaultSite.HOST_SYSCALL, on={1})
        wasp = Wasp(fault_plan=plan)
        wasp.kernel.fs.add_file("/data", b"x" * 64)

        def entry(env):
            fd = env.hypercall(Hypercall.OPEN, "/data")
            return env.hypercall(Hypercall.READ, fd, 64)

        image = ImageBuilder().hosted("reader", entry)
        with pytest.raises(HostFault):
            wasp.launch(image, policy=PermissivePolicy())
        # The fault was charged like a real failed syscall, and the next
        # launch (draw 2 is clean) succeeds.
        assert wasp.launch(image, policy=PermissivePolicy()).value == b"x" * 64

    def test_snapshot_corruption_falls_back_to_cold_boot(self):
        plan = FaultPlan(seed=1).fail(FaultSite.SNAPSHOT_RESTORE, on={1})
        wasp = Wasp(fault_plan=plan)
        image = ImageBuilder().hosted("snappy", snap_entry)
        first = wasp.launch(image, policy=PermissivePolicy())
        assert not first.from_snapshot  # nothing captured yet
        # The stored snapshot is rotted on this lookup: verification
        # catches it and the launch boots cold -- no crash, no bad state.
        second = wasp.launch(image, policy=PermissivePolicy())
        assert second.value == "served"
        assert not second.from_snapshot
        assert wasp.snapshot_fallbacks == 1
        assert wasp.snapshots.integrity_failures == 1
        # The entry re-captured during the cold run; restores work again.
        third = wasp.launch(image, policy=PermissivePolicy())
        assert third.from_snapshot

    def test_defective_pooled_shell_absorbed_on_acquire(self):
        plan = FaultPlan(seed=1).fail(FaultSite.POOL_ACQUIRE, on={1})
        wasp = Wasp(fault_plan=plan)
        image = ImageBuilder().hosted("job", lambda env: "ok")
        wasp.launch(image, policy=PermissivePolicy())  # populates the pool
        # The cached shell is found defective; the pool rebuilds from
        # scratch and the client never notices.
        result = wasp.launch(image, policy=PermissivePolicy())
        assert result.value == "ok"
        pool = wasp.pool_for(wasp.memory_size_for(image))
        assert pool.defects == 1
        assert wasp.kvm.vms_created == 2


class TestLateArmedPlan:
    """Hot sites read ``enabled`` when they run, so a plan armed after
    the plane holding it was built (as the replay substrate arms its
    plans) still fires at each of them."""

    @pytest.mark.parametrize("site", [
        FaultSite.VCPU_RUN, FaultSite.HOST_SYSCALL, FaultSite.POOL_ACQUIRE,
        FaultSite.GUEST_STALL, FaultSite.SNAPSHOT_RESTORE])
    def test_plan_armed_after_the_plane_fires(self, site):
        plan = FaultPlan(seed=1)
        wasp = Wasp(fault_plan=plan)
        wasp.kernel.fs.add_file("/data", b"x" * 64)

        def entry(env):
            if not env.from_snapshot:
                env.snapshot()
            fd = env.hypercall(Hypercall.OPEN, "/data")
            env.hypercall(Hypercall.CLOSE, fd)
            return "ok"

        image = ImageBuilder().hosted("late", entry)
        # The first launch leaves a pooled shell and a stored snapshot,
        # so the second reaches all five sites.
        assert wasp.launch(image, policy=PermissivePolicy()).value == "ok"
        assert plan.signature() == ()
        plan.fail(site, on={1})
        try:
            wasp.launch(image, policy=PermissivePolicy())
        except VirtineCrash:
            pass
        assert plan.signature() == ((site.value, 1),)


class TestMigrationFaults:
    def test_dropped_transfer_fails_over_to_another_node(self):
        plan = FaultPlan(seed=1).fail(FaultSite.MIGRATION_TRANSFER, on={1})
        cluster = Cluster(fault_plan=plan)
        cluster.add_node("a")
        cluster.add_node("b")
        image = ImageBuilder().hosted("job", lambda env: "remote-ok")
        result = cluster.call(image, policy=PermissivePolicy())
        assert result.value == "remote-ok"
        assert cluster.dropped_transfers == 1
        assert cluster.failovers == 1
        # Exactly one node gained residency -- the one that worked.
        assert sum(node.hosts(image) for node in cluster.nodes()) == 1

    def test_dropped_transfer_without_alternative_raises(self):
        plan = FaultPlan(seed=1).fail(FaultSite.MIGRATION_TRANSFER, on={1})
        cluster = Cluster(fault_plan=plan)
        cluster.add_node("only")
        image = ImageBuilder().hosted("job", lambda env: "ok")
        with pytest.raises(TransferDropped):
            cluster.call(image, policy=PermissivePolicy())
        assert cluster.dropped_transfers == 1
        assert cluster.failovers == 0

    def test_transient_crash_on_target_fails_over(self):
        flaky_plan = FaultPlan(seed=1).fail(FaultSite.VCPU_RUN, rate=1.0)
        cluster = Cluster()
        cluster.add_node("flaky", wasp=Wasp(fault_plan=flaky_plan))
        cluster.add_node("solid")
        image = ImageBuilder().hosted("job", lambda env: "ok")
        result = cluster.call(image, policy=PermissivePolicy())
        assert result.value == "ok"
        assert cluster.failovers == 1
        assert cluster.node("solid").hosts(image)

    def test_deterministic_guest_fault_does_not_fail_over(self):
        """A guest bug reproduces on any node: failing over would just
        spread the crash, so it propagates immediately."""
        cluster = Cluster()
        cluster.add_node("a")
        cluster.add_node("b")

        def buggy(env):
            raise RuntimeError("deterministic bug")

        with pytest.raises(VirtineCrash):
            cluster.call(ImageBuilder().hosted("buggy", buggy),
                         policy=PermissivePolicy())
        assert cluster.failovers == 0


class TestHttpDegradation:
    def test_supervised_server_answers_503_instead_of_dying(self):
        plan = FaultPlan(seed=1).fail(FaultSite.VCPU_RUN, rate=1.0)
        wasp = Wasp(fault_plan=plan)
        wasp.kernel.fs.add_file("/srv/index.html", b"<html>x</html>")
        server = StaticHttpServer(wasp, port=80, isolation="virtine",
                                  supervisor=Supervisor(wasp))
        conn = wasp.kernel.sys_connect(80)
        wasp.kernel.sys_send(conn, b"GET /index.html HTTP/1.0\r\n\r\n")
        served = server.serve_one()  # does NOT raise
        assert served.status == 503
        assert server.unavailable == 1
        assert b"503" in wasp.kernel.sys_recv(conn, 4096)

    def test_unsupervised_server_still_propagates(self):
        """Without a supervisor the pre-existing contract holds: the
        crash escapes serve_one (callers relying on it keep working)."""
        plan = FaultPlan(seed=1).fail(FaultSite.VCPU_RUN, rate=1.0)
        wasp = Wasp(fault_plan=plan)
        wasp.kernel.fs.add_file("/srv/index.html", b"<html>x</html>")
        server = StaticHttpServer(wasp, port=80, isolation="virtine")
        conn = wasp.kernel.sys_connect(80)
        wasp.kernel.sys_send(conn, b"GET /index.html HTTP/1.0\r\n\r\n")
        with pytest.raises(VirtineCrash):
            server.serve_one()


class TestEndToEndResilience:
    REQUESTS = 80

    @staticmethod
    def _serve(seed):
        plan = (
            FaultPlan(seed=seed)
            .fail(FaultSite.VCPU_RUN, rate=0.08)
            .fail(FaultSite.HOST_SYSCALL, rate=0.05)
            .fail(FaultSite.POOL_ACQUIRE, rate=0.05)
            .fail(FaultSite.SNAPSHOT_RESTORE, rate=0.05)
        )
        primary = Wasp(fault_plan=plan)
        fallback = Wasp()
        for wasp in (primary, fallback):
            wasp.kernel.fs.add_file("/data", b"z" * 1024)

        def entry(env):
            if not env.from_snapshot:
                env.charge(10_000)
                env.snapshot()
            fd = env.hypercall(Hypercall.OPEN, "/data")
            data = env.hypercall(Hypercall.READ, fd, 1024)
            env.hypercall(Hypercall.CLOSE, fd)
            return len(data)

        platform = SupervisedPlatform(primary, fallback)
        report = platform.run_workload(
            ImageBuilder().hosted("svc", entry),
            [None] * TestEndToEndResilience.REQUESTS,
            policy=PermissivePolicy(),
        )
        return plan, platform, report

    def test_zero_client_visible_failures_under_three_fault_classes(self):
        plan, platform, report = self._serve(seed=20)
        # The workload actually suffered: at least three distinct fault
        # classes fired, and virtines actually crashed.
        assert len({event.site for event in plan.trace}) >= 3
        crashes = sum(platform.primary.crashes_by_class.values())
        assert crashes > 0
        # ...and yet every client request was answered.
        assert report.client_visible_failures == 0
        assert report.served == self.REQUESTS
        assert all(r.value == 1024 for r in report.requests)

    #: sha256 of the seed-20 run's fault-plan signature, supervision
    #: signature and final clock reading: the armed draw order, and what
    #: it does downstream, cannot drift unnoticed.
    SEED_20_DIGEST = (
        "1d2446924e1c97d81c2b3f4da9e6b7045293f0086d09891a20e22fe23b673e0e")

    def test_armed_draw_order_is_pinned(self):
        plan, platform, _ = self._serve(seed=20)
        primary = platform.primary
        observed = (plan.signature(), primary.signature(),
                    primary.wasp.clock.cycles)
        digest = hashlib.sha256(repr(observed).encode()).hexdigest()
        assert digest == self.SEED_20_DIGEST

    def test_supervision_trace_replays_exactly(self):
        plan_a, platform_a, _ = self._serve(seed=20)
        plan_b, platform_b, _ = self._serve(seed=20)
        assert plan_a.signature() == plan_b.signature()
        assert platform_a.primary.signature() == platform_b.primary.signature()
        assert (platform_a.primary.wasp.clock.cycles
                == platform_b.primary.wasp.clock.cycles)
