"""Leak checks: no host state survives a context, however it died.

The acceptance bar from the issue: zero leaked fds across all five
backends, scrubbed memory after crashes, and a context pool that stays
bounded under a crash storm.
"""

import pytest

from repro.runtime.image import ImageBuilder
from repro.wasp.hypercall import Hypercall
from repro.wasp.policy import DefaultDenyPolicy, PermissivePolicy
from repro.wasp.virtine import PolicyKill, VirtineCrash


def _open_then_crash(env):
    env.hypercall(Hypercall.OPEN, "/public/data.txt")
    raise RuntimeError("crash with an fd open")


def _open_then_denied(env):
    env.hypercall(Hypercall.OPEN, "/public/data.txt")
    env.hypercall(Hypercall.SEND, 0, b"x")  # not in the mask -> killed


class TestFdHygiene:
    def test_clean_exit_leaves_no_fds(self, host):
        def entry(env):
            fd = env.hypercall(Hypercall.OPEN, "/public/data.txt")
            return env.hypercall(Hypercall.READ, fd, 6)

        image = ImageBuilder().hosted("reader", entry)
        result = host.launch(image, policy=PermissivePolicy(),
                             allowed_paths=("/public/",))
        assert result.value == b"public"
        assert host.kernel.fs.open_fd_count() == 0

    def test_crash_leaves_no_fds(self, host):
        image = ImageBuilder().hosted("fd-crasher", _open_then_crash)
        with pytest.raises(VirtineCrash):
            host.launch(image, policy=PermissivePolicy(),
                        allowed_paths=("/public/",))
        assert host.kernel.fs.open_fd_count() == 0

    def test_policy_kill_leaves_no_fds(self, host):
        from repro.wasp.policy import BitmaskPolicy, VirtineConfig

        policy = BitmaskPolicy(VirtineConfig.allowing(
            Hypercall.OPEN, Hypercall.READ))
        image = ImageBuilder().hosted("fd-denied", _open_then_denied)
        with pytest.raises(PolicyKill):
            host.launch(image, policy=policy, allowed_paths=("/public/",))
        assert host.kernel.fs.open_fd_count() == 0


class TestPoolHygiene:
    def test_crash_storm_keeps_pool_bounded(self, host):
        image = ImageBuilder().hosted("storm", _open_then_crash)
        for _ in range(10):
            with pytest.raises(VirtineCrash):
                host.launch(image, policy=PermissivePolicy(),
                            allowed_paths=("/public/",))
        assert host.kernel.fs.open_fd_count() == 0
        pool = host.pool_for(host.memory_size_for(image))
        assert pool.free_count <= 2
        assert pool.quarantines == (10 if host.caps.pooled else 0)

    def test_crashed_context_memory_scrubbed(self, host):
        marker = b"LEAKY-MARKER-BYTES"

        def crasher(env):
            env.memory.write(0x5000, marker)
            raise RuntimeError("die dirty")

        def prober(env):
            return bytes(env.memory.read(0x5000, len(marker)))

        with pytest.raises(VirtineCrash):
            host.launch(ImageBuilder().hosted("dirty", crasher))
        probe = host.launch(ImageBuilder().hosted("probe", prober)).value
        assert probe != marker

    def test_denial_storm_audits_and_stays_clean(self, host):
        """Repeated policy kills neither leak fds nor wedge the host."""
        def entry(env):
            env.hypercall(Hypercall.SEND, 0, b"x")

        image = ImageBuilder().hosted("deny-storm", entry)
        for _ in range(5):
            with pytest.raises(PolicyKill):
                host.launch(image, policy=DefaultDenyPolicy())
        assert host.kernel.fs.open_fd_count() == 0
        ok = host.launch(ImageBuilder().hosted("alive", lambda env: "up"))
        assert ok.value == "up"
