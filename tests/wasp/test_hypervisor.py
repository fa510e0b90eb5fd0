"""Wasp hypervisor tests: launch paths, hypercall dispatch, isolation."""

import pytest

from repro.hw.cpu import Mode
from repro.runtime.image import ImageBuilder
from repro.wasp import (
    CleanMode,
    DefaultDenyPolicy,
    Hypercall,
    HypercallDenied,
    OneShotPolicy,
    PermissivePolicy,
    VirtineConfig,
    BitmaskPolicy,
    VirtineCrash,
    Wasp,
)


@pytest.fixture
def wasp():
    return Wasp()


@pytest.fixture
def builder():
    return ImageBuilder()


class TestAssemblyLaunch:
    def test_minimal_halts(self, wasp, builder):
        result = wasp.launch(builder.minimal(Mode.LONG64), use_snapshot=False)
        assert result.exit_code == 0
        assert result.cycles > 0

    def test_fib_returns_in_ax(self, wasp, builder):
        result = wasp.launch(builder.fib(Mode.LONG64, 12), use_snapshot=False)
        assert result.ax == 144

    def test_each_launch_is_isolated(self, wasp, builder):
        image = builder.fib(Mode.REAL16, 10)
        first = wasp.launch(image, use_snapshot=False)
        second = wasp.launch(image, use_snapshot=False)
        assert first.ax == second.ax == 55

    def test_scratch_costs_more_than_pooled(self, wasp, builder):
        image = builder.minimal(Mode.LONG64)
        wasp.launch(image, use_snapshot=False)  # fill the pool
        pooled = wasp.launch(image, use_snapshot=False)
        scratch = wasp.launch(image, use_snapshot=False, pooled=False)
        assert scratch.cycles > 3 * pooled.cycles

    def test_async_clean_faster_than_sync(self, wasp, builder):
        image = builder.minimal(Mode.LONG64)
        wasp.launch(image, use_snapshot=False)
        sync = wasp.launch(image, use_snapshot=False, clean=CleanMode.SYNC)
        async_ = wasp.launch(image, use_snapshot=False, clean=CleanMode.ASYNC)
        assert async_.cycles < sync.cycles


class TestHostedLaunch:
    def test_entry_return_value(self, wasp, builder):
        image = builder.hosted("ret", lambda env: 1234)
        assert wasp.launch(image).value == 1234

    def test_args_passed(self, wasp, builder):
        image = builder.hosted("args", lambda env: env.args * 2)
        assert wasp.launch(image, args=21).value == 42

    def test_compute_charging(self, wasp, builder):
        def entry(env):
            env.charge(100_000)
            return None

        cheap_image = builder.hosted("cheap", lambda env: None)
        costly_image = builder.hosted("costly", entry)
        # Warm the pool so both measurements reuse identical shells.
        wasp.launch(cheap_image)
        wasp.launch(costly_image)
        cheap = wasp.launch(cheap_image)
        costly = wasp.launch(costly_image)
        assert costly.cycles >= cheap.cycles + 90_000

    def test_guest_exception_contained(self, wasp, builder):
        def entry(env):
            raise ValueError("guest bug")

        image = builder.hosted("bug", entry)
        with pytest.raises(VirtineCrash, match="guest bug"):
            wasp.launch(image)
        # The hypervisor survives; the shell was recycled.
        assert wasp.launch(builder.hosted("ok", lambda env: "fine")).value == "fine"

    def test_guest_exit_shortcircuits(self, wasp, builder):
        def entry(env):
            env.exit(7)
            raise AssertionError("unreachable")

        result = wasp.launch(builder.hosted("exit", entry))
        assert result.exit_code == 7

    def test_missing_hosted_entry_crashes(self, wasp, builder):
        image = builder.hosted("x", lambda env: None)
        image.hosted_entry = None
        with pytest.raises(VirtineCrash, match="no hosted entry"):
            wasp.launch(image)

    def test_real_mode_image_boots_faster(self, wasp, builder):
        """A REAL16 hosted image skips the protected/long bring-up."""
        real = builder.hosted("real", lambda env: 1, mode=Mode.REAL16)
        long = builder.hosted("long", lambda env: 1, mode=Mode.LONG64)
        for image in (real, long):  # fill each size's pool
            wasp.launch(image, use_snapshot=False)
        fast = wasp.launch(real, use_snapshot=False)
        slow = wasp.launch(long, use_snapshot=False)
        assert fast.value == slow.value == 1
        assert fast.cycles < slow.cycles


class TestHypercallDispatch:
    def test_default_deny_blocks_everything(self, wasp, builder):
        def entry(env):
            return env.hypercall(Hypercall.OPEN, "/x")

        image = builder.hosted("deny", entry)
        with pytest.raises(VirtineCrash, match="denied"):
            wasp.launch(image, policy=DefaultDenyPolicy())

    def test_permissive_allows(self, wasp, builder):
        wasp.kernel.fs.add_file("/data.txt", b"12345")

        def entry(env):
            fd = env.hypercall(Hypercall.OPEN, "/data.txt")
            data = env.hypercall(Hypercall.READ, fd, 5)
            env.hypercall(Hypercall.CLOSE, fd)
            return data

        result = wasp.launch(builder.hosted("allow", entry), policy=PermissivePolicy())
        assert result.value == b"12345"
        assert result.hypercall_count == 3

    def test_bitmask_partial(self, wasp, builder):
        wasp.kernel.fs.add_file("/data.txt", b"x")

        def entry(env):
            env.hypercall(Hypercall.STAT, "/data.txt")  # allowed
            env.hypercall(Hypercall.OPEN, "/data.txt")  # denied

        policy = BitmaskPolicy(VirtineConfig.allowing(Hypercall.STAT))
        with pytest.raises(VirtineCrash, match="OPEN denied"):
            wasp.launch(builder.hosted("partial", entry), policy=policy)

    def test_stateful_policy_resets_per_launch(self, wasp, builder):
        """A one-shot grant used up in one launch is granted again in the next."""
        wasp.kernel.fs.add_file("/data.txt", b"12345")
        policy = OneShotPolicy(PermissivePolicy(), once=(Hypercall.STAT,))
        image = builder.hosted("stat", lambda env: env.hypercall(Hypercall.STAT, "/data.txt"))
        assert wasp.launch(image, policy=policy).value == 5
        assert wasp.launch(image, policy=policy).value == 5

    def test_audit_log_records_denials(self, wasp, builder):
        def entry(env):
            try:
                env.hypercall(Hypercall.OPEN, "/x")
            except HypercallDenied:
                pass  # swallowed by the guest: it keeps running
            return "survived"

        result = wasp.launch(builder.hosted("audit", entry), policy=DefaultDenyPolicy())
        assert result.value == "survived"
        assert result.audit.count(Hypercall.OPEN, allowed=False) == 1

    def test_hypercalls_charge_world_switches(self, wasp, builder):
        wasp.kernel.fs.add_file("/f", b"y")

        def no_calls(env):
            return 0

        def five_calls(env):
            for _ in range(5):
                env.hypercall(Hypercall.STAT, "/f")
            return 0

        none_image = builder.hosted("none", no_calls)
        five_image = builder.hosted("five", five_calls)
        wasp.launch(none_image, policy=PermissivePolicy())
        wasp.launch(five_image, policy=PermissivePolicy())
        baseline = wasp.launch(none_image, policy=PermissivePolicy())
        chatty = wasp.launch(five_image, policy=PermissivePolicy())
        per_call = (chatty.cycles - baseline.cycles) / 5
        # Each hypercall costs two ring transitions + world switches:
        # well over 3000 cycles (Section 6.3's "doubly expensive" exits).
        assert per_call > 3000

    def test_custom_handler(self, wasp, builder):
        def handler(request):
            return request.args[0].upper()

        def entry(env):
            return env.hypercall(Hypercall.GET_DATA, "shout")

        result = wasp.launch(
            builder.hosted("custom", entry),
            policy=BitmaskPolicy(VirtineConfig.allowing(Hypercall.GET_DATA)),
            handlers={Hypercall.GET_DATA: handler},
        )
        assert result.value == "SHOUT"

    def test_missing_handler_is_enosys(self, wasp, builder):
        def entry(env):
            return env.hypercall(Hypercall.GET_DATA)

        with pytest.raises(VirtineCrash, match="ENOSYS"):
            wasp.launch(builder.hosted("nohandler", entry), policy=PermissivePolicy())


class TestIsolation:
    def test_no_cross_virtine_memory(self, wasp, builder):
        """Virtine B must never observe virtine A's memory (Section 3.1)."""

        def writer(env):
            env.memory.write(0x5000, b"A-private")

        def reader(env):
            return env.memory.read(0x5000, 9)

        wasp.launch(builder.hosted("writer", writer))
        leaked = wasp.launch(builder.hosted("reader", reader)).value
        assert leaked == bytes(9)

    def test_fd_leak_is_repaired(self, wasp, builder):
        """A virtine that exits without closing its fd must not leak it."""
        wasp.kernel.fs.add_file("/f", b"data")

        def entry(env):
            env.hypercall(Hypercall.OPEN, "/f")
            return None  # never closes

        wasp.launch(builder.hosted("leak", entry), policy=PermissivePolicy())
        assert wasp.kernel.fs.open_fd_count() == 0

    def test_pool_reuse_across_images_is_clean(self, wasp, builder):
        def secret_writer(env):
            env.memory.write(0x9000, b"SECRET")

        def prober(env):
            return env.memory.read(0x9000, 6)

        wasp.launch(builder.hosted("tenant-a", secret_writer))
        probe = wasp.launch(builder.hosted("tenant-b", prober))
        assert probe.value == bytes(6)


class TestSnapshotLaunch:
    def test_snapshot_roundtrip(self, wasp, builder):
        seen = []

        def entry(env):
            if env.restored is None:
                env.charge(50_000)  # expensive init
                env.snapshot(payload={"ready": True})
                seen.append("cold")
            else:
                assert env.restored == {"ready": True}
                seen.append("warm")
            return "ok"

        image = builder.hosted("snap", entry,)
        policy = BitmaskPolicy(VirtineConfig.allowing(Hypercall.SNAPSHOT))
        cold = wasp.launch(image, policy=policy)
        warm = wasp.launch(image, policy=policy)
        assert seen == ["cold", "warm"]
        assert not cold.from_snapshot
        assert warm.from_snapshot
        assert warm.cycles < cold.cycles

    def test_snapshot_payloads_are_private_per_restore(self, wasp, builder):
        def entry(env):
            if env.restored is None:
                env.snapshot(payload={"counter": 0})
                return -1
            env.restored["counter"] += 1
            return env.restored["counter"]

        image = builder.hosted("private", entry)
        policy = BitmaskPolicy(VirtineConfig.allowing(Hypercall.SNAPSHOT))
        wasp.launch(image, policy=policy)
        first = wasp.launch(image, policy=policy)
        second = wasp.launch(image, policy=policy)
        # Each restore gets its own deep copy; mutations never accumulate.
        assert first.value == second.value == 1

    def test_snapshot_denied_by_default_policy(self, wasp, builder):
        def entry(env):
            env.snapshot()

        with pytest.raises(VirtineCrash, match="SNAPSHOT denied"):
            wasp.launch(builder.hosted("nosnap", entry), policy=DefaultDenyPolicy())

    def test_use_snapshot_false_ignores_stored(self, wasp, builder):
        calls = []

        def entry(env):
            calls.append(env.restored is None)
            if env.restored is None:
                env.snapshot()
            return 0

        image = builder.hosted("off", entry)
        policy = BitmaskPolicy(VirtineConfig.allowing(Hypercall.SNAPSHOT))
        wasp.launch(image, policy=policy)
        wasp.launch(image, policy=policy, use_snapshot=False)
        assert calls == [True, True]


class TestMemorySizing:
    def test_bucket_rounding(self, wasp, builder):
        small = builder.minimal(Mode.LONG64)
        assert wasp.memory_size_for(small) == 4 * 1024 * 1024

    def test_big_image_gets_bigger_bucket(self, wasp, builder):
        big = builder.minimal(Mode.LONG64, size=8 * 1024 * 1024)
        assert wasp.memory_size_for(big) >= 8 * 1024 * 1024 + 0x300000

    def test_pools_shared_per_bucket(self, wasp, builder):
        image = builder.minimal(Mode.LONG64)
        pool = wasp.pool_for(wasp.memory_size_for(image))
        assert wasp.pool_for(wasp.memory_size_for(image)) is pool
