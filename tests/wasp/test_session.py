"""VirtineSession tests: the retained-context ("no teardown") mode."""

import pytest

from repro.hw.cpu import Mode
from repro.hw.isa import Assembler
from repro.runtime.boot import boot_source
from repro.runtime.image import ImageBuilder, VirtineImage
from repro.wasp import (
    BitmaskPolicy,
    GuestFault,
    Hypercall,
    PermissivePolicy,
    VirtineConfig,
    VirtineTimeout,
    Wasp,
)
from repro.wasp.pool import CleanMode


@pytest.fixture
def wasp():
    return Wasp()


@pytest.fixture
def builder():
    return ImageBuilder()


def counter_entry(env):
    """Counts invocations in the retained context."""
    count = env.persistent.get("count", 0) + 1
    env.persistent["count"] = count
    return count


class TestSessionLifecycle:
    def test_persistent_state_survives(self, wasp, builder):
        image = builder.hosted("counter", counter_entry)
        session = wasp.session(image, use_snapshot=False)
        assert session.invoke().value == 1
        assert session.invoke().value == 2
        assert session.invoke().value == 3
        session.close()

    def test_warm_invokes_are_cheap(self, wasp, builder):
        image = builder.hosted("counter", counter_entry)
        session = wasp.session(image, use_snapshot=False)
        cold = session.invoke()
        warm = session.invoke()
        assert warm.cycles < cold.cycles / 3
        session.close()

    def test_close_releases_to_pool(self, wasp, builder):
        image = builder.hosted("counter", counter_entry)
        pool = wasp.pool_for(wasp.memory_size_for(image))
        session = wasp.session(image, use_snapshot=False)
        session.invoke()
        assert pool.free_count == 0  # retained, not pooled
        session.close()
        assert pool.free_count == 1

    def test_close_scrubs_by_default(self, wasp, builder):
        def writer(env):
            env.memory.write(0x4000, b"retained secret")
            return 0

        image = builder.hosted("writer", writer)
        session = wasp.session(image, use_snapshot=False)
        session.invoke()
        shell = session._virtine.shell
        session.close(CleanMode.SYNC)
        assert shell.vm.memory.read(0x4000, 15) == bytes(15)

    def test_context_manager(self, wasp, builder):
        image = builder.hosted("counter", counter_entry)
        pool = wasp.pool_for(wasp.memory_size_for(image))
        with wasp.session(image, use_snapshot=False) as session:
            session.invoke()
        assert pool.free_count == 1

    def test_new_session_starts_fresh(self, wasp, builder):
        image = builder.hosted("counter", counter_entry)
        with wasp.session(image, use_snapshot=False) as first:
            first.invoke()
            first.invoke()
        with wasp.session(image, use_snapshot=False) as second:
            assert second.invoke().value == 1  # no state carried over

    def test_invocation_counter(self, wasp, builder):
        image = builder.hosted("counter", counter_entry)
        with wasp.session(image, use_snapshot=False) as session:
            session.invoke()
            session.invoke()
            assert session.invocations == 2


class TestSessionWithSnapshot:
    def test_first_invoke_uses_snapshot(self, wasp, builder):
        def entry(env):
            if not env.from_snapshot and "init" not in env.persistent:
                env.charge(200_000)
                env.snapshot(payload={"engine": "ready"})
            env.persistent["init"] = True
            return env.persistent.get("n", 0)

        image = builder.hosted("snap-session", entry)
        policy_factory = lambda: BitmaskPolicy(VirtineConfig.allowing(Hypercall.SNAPSHOT))
        # A plain launch captures the snapshot...
        wasp.launch(image, policy=policy_factory())
        # ...and a new session starts from it.
        session = wasp.session(image, policy=policy_factory(), use_snapshot=True)
        result = session.invoke()
        assert result.from_snapshot
        session.close()


def isa_image(body, name="isa-guest"):
    """A pure assembly guest: the PROT32 boot, then ``body``."""
    program = Assembler(0x8000).assemble(boot_source(Mode.PROT32, body))
    return VirtineImage(name=name, program=program, mode=Mode.PROT32,
                        size=len(program.image))


def run_once(how, wasp, image, policy=None, max_steps=50_000_000):
    """One cold run of ``image``: a plain launch, or a session's first
    invoke (the session is closed afterwards, even if the run raised)."""
    if how == "launch":
        return wasp.launch(image, policy=policy, use_snapshot=False,
                           max_steps=max_steps)
    with wasp.session(image, policy=policy, use_snapshot=False) as session:
        return session.invoke(max_steps=max_steps)


@pytest.mark.parametrize("how", ["launch", "session"])
class TestSameAsLaunch:
    """A session's cold invoke runs launch's own boot and run loop, so
    every guest-visible exit is handled identically."""

    def test_unmodelled_port_reads_zero(self, how, wasp):
        image = isa_image("    mov ax, 7\n    in ax, 0x60\n    add ax, 3\n    hlt")
        assert run_once(how, wasp, image).ax == 3

    def test_unknown_port_write_faults(self, how, wasp):
        image = isa_image("    out 0x99, 1\n    hlt", name="x")
        with pytest.raises(GuestFault, match="wrote unknown port 0x99"):
            run_once(how, wasp, image)

    def test_step_budget_timeout_is_counted(self, how):
        wasp = Wasp(telemetry=True)
        image = isa_image("spin:\n    jmp spin")
        with pytest.raises(VirtineTimeout):
            run_once(how, wasp, image, max_steps=2_000)
        assert wasp.timeouts == 1
        assert wasp.telemetry.counter("timeouts_total",
                                      kind="step_budget").value == 1
        entries = [e for e in wasp.telemetry.flight.dump()
                   if (e["kind"], e["name"]) == ("timeout", "step_budget")]
        assert len(entries) == 1

    def test_crash_closes_guest_fds(self, how, wasp, builder):
        wasp.kernel.fs.add_file("/data/f", b"data")
        baseline = wasp.kernel.fs.open_fd_count()

        def entry(env):
            env.hypercall(Hypercall.OPEN, "/data/f")
            raise RuntimeError("crash with the fd still open")

        with pytest.raises(GuestFault):
            run_once(how, wasp, builder.hosted("leaky", entry),
                     policy=PermissivePolicy())
        assert wasp.kernel.fs.open_fd_count() == baseline


class TestSessionFds:
    def test_fds_live_across_invokes_and_close_with_session(self, wasp, builder):
        wasp.kernel.fs.add_file("/data/f", b"data")
        baseline = wasp.kernel.fs.open_fd_count()

        def entry(env):
            if "fd" not in env.persistent:
                env.persistent["fd"] = env.hypercall(Hypercall.OPEN, "/data/f")
            return env.persistent["fd"]

        session = wasp.session(builder.hosted("keeps-fd", entry),
                               policy=PermissivePolicy(), use_snapshot=False)
        fd = session.invoke().value
        assert session.invoke().value == fd  # the retained context keeps it
        assert wasp.kernel.fs.open_fd_count() == baseline + 1
        session.close()
        assert wasp.kernel.fs.open_fd_count() == baseline
