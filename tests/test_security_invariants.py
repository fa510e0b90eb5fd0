"""Cross-cutting adversarial tests: the Section 3 safety objectives.

Each class maps to one objective: host execution/data integrity,
virtine execution/data integrity (inter-virtine secrecy), and virtine
isolation (default-deny of everything outside the address space).

The whole file is parameterized over the isolation spectrum: the
``host`` fixture yields every backend (KVM virtines, SUD, container,
process, pthread), so each objective is asserted per mechanism.
Capability-gated divergences (snapshots, catchable denials) skip via
the launcher's ``caps``, never by backend name.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.host.backend import BACKEND_NAMES, create_host
from repro.runtime.image import ImageBuilder
from repro.wasp import (
    BitmaskPolicy,
    DefaultDenyPolicy,
    Hypercall,
    HypercallDenied,
    HypercallError,
    PermissivePolicy,
    VirtineConfig,
    VirtineCrash,
    Wasp,
)


@pytest.fixture(params=BACKEND_NAMES)
def host(request):
    h = create_host(request.param)
    h.kernel.fs.add_file("/public/data.txt", b"public")
    h.kernel.fs.add_file("/secret/key.pem", b"PRIVATE KEY")
    return h


class TestHostIntegrity:
    """An adversarial virtine cannot modify host state or crash the host."""

    def test_guest_exception_cannot_take_down_host(self, host):
        chaos_types = [ValueError, KeyError, RecursionError, MemoryError]

        for error_type in chaos_types:
            def entry(env, et=error_type):
                raise et("chaos")

            image = ImageBuilder().hosted(f"chaos-{error_type.__name__}", entry)
            with pytest.raises(VirtineCrash):
                host.launch(image)
        # The launcher is intact and serving.
        ok = host.launch(ImageBuilder().hosted("after", lambda env: "alive"))
        assert ok.value == "alive"

    def test_guest_cannot_mutate_host_fs_without_grant(self, host):
        def entry(env):
            env.hypercall(Hypercall.WRITE, 3, b"corruption")

        image = ImageBuilder().hosted("writer", entry)
        with pytest.raises(VirtineCrash):
            host.launch(image, policy=DefaultDenyPolicy())
        assert host.kernel.fs.file_bytes("/public/data.txt") == b"public"

    def test_handler_validation_survives_garbage(self, host):
        """Garbage hypercall arguments are rejected, never executed."""
        garbage = [(), (None,), (-1, -1), ("", object()), (2**80,), (b"\x00" * 10, 1)]

        for args in garbage:
            def entry(env, a=args):
                try:
                    env.hypercall(Hypercall.READ, *a)
                except (HypercallError, HypercallDenied):
                    return "rejected"
                return "accepted"

            image = ImageBuilder().hosted("garbage", entry)
            result = host.launch(image, policy=PermissivePolicy())
            assert result.value == "rejected"

    @settings(max_examples=25, deadline=None)
    @given(st.text(max_size=64))
    def test_path_fuzzing_never_escapes_root(self, path):
        wasp = Wasp()
        wasp.kernel.fs.add_file("/secret/key.pem", b"PRIVATE KEY")
        wasp.kernel.fs.add_file("/public/ok.txt", b"fine")

        def entry(env):
            try:
                fd = env.hypercall(Hypercall.OPEN, path)
                return env.hypercall(Hypercall.READ, fd, 1024)
            except (HypercallError, HypercallDenied):
                return b""

        image = ImageBuilder().hosted("fuzz-path", entry)
        result = wasp.launch(
            image, policy=PermissivePolicy(), allowed_paths=("/public/",)
        )
        assert result.value != b"PRIVATE KEY"


class TestInterVirtineSecrecy:
    """No two virtines may observe each other's private state."""

    def test_sequential_tenants_no_leak(self, host):
        # 0x100000 is in the KVM page-table area: after cleaning, tenant
        # B's own boot rebuilds tables there, so on KVM it is non-zero
        # but must never contain A's bytes.  The other addresses must
        # read zero on every backend.
        addresses = (0x3000, 0x100000, 0x240000, 0x280000)
        secret = b"TENANT-A-SECRET!"

        def writer(env):
            for addr in addresses:
                env.memory.write(addr, secret)

        def prober(env):
            return [bytes(env.memory.read(addr, 16)) for addr in addresses]

        host.launch(ImageBuilder().hosted("tenant-a", writer))
        probes = host.launch(ImageBuilder().hosted("tenant-b", prober)).value
        assert all(chunk != secret for chunk in probes)
        assert probes[0] == probes[2] == probes[3] == bytes(16)

    def test_snapshot_of_one_image_not_visible_to_another(self, host):
        if not host.caps.snapshot:
            pytest.skip("backend declares no snapshot capability")
        policy = lambda: BitmaskPolicy(VirtineConfig.allowing(Hypercall.SNAPSHOT))

        def secretive(env):
            if not env.from_snapshot:
                env.memory.write(0x3000, b"IMAGE-A-STATE")
                env.snapshot(payload=None)
            return 0

        def prober(env):
            return bytes(env.memory.read(0x3000, 13))

        image_a = ImageBuilder().hosted("image-a", secretive)
        image_b = ImageBuilder().hosted("image-b", prober)
        host.launch(image_a, policy=policy())
        leaked = host.launch(image_b, policy=policy()).value
        assert leaked == bytes(13)

    def test_fd_of_one_virtine_unusable_by_next(self, host):
        stolen = {}

        def opener(env):
            stolen["fd"] = env.hypercall(Hypercall.OPEN, "/secret/key.pem")
            return stolen["fd"]

        def thief(env):
            try:
                return env.hypercall(Hypercall.READ, stolen["fd"], 100)
            except HypercallError:
                return b"blocked"

        permissive = PermissivePolicy()
        host.launch(ImageBuilder().hosted("opener", opener), policy=permissive)
        result = host.launch(ImageBuilder().hosted("thief", thief), policy=PermissivePolicy())
        assert result.value == b"blocked"

    def test_snapshot_payload_mutation_isolated(self, host):
        if not host.caps.snapshot:
            pytest.skip("backend declares no snapshot capability")
        policy = lambda: BitmaskPolicy(VirtineConfig.allowing(Hypercall.SNAPSHOT))

        def entry(env):
            if not env.from_snapshot:
                env.snapshot(payload={"list": []})
                return 0
            env.restored["list"].append("poison")
            return len(env.restored["list"])

        image = ImageBuilder().hosted("payload", entry)
        host.launch(image, policy=policy())
        first = host.launch(image, policy=policy()).value
        second = host.launch(image, policy=policy()).value
        assert first == second == 1


class TestDefaultDeny:
    """Objective 3: nothing outside the address space without permission."""

    @pytest.mark.parametrize("nr", [
        Hypercall.OPEN, Hypercall.READ, Hypercall.WRITE, Hypercall.STAT,
        Hypercall.CLOSE, Hypercall.SEND, Hypercall.RECV,
        Hypercall.GET_DATA, Hypercall.RETURN_DATA, Hypercall.SNAPSHOT,
        Hypercall.INVOKE,
    ])
    def test_every_hypercall_denied_by_default(self, host, nr):
        def entry(env, n=nr):
            env.hypercall(n)

        image = ImageBuilder().hosted(f"deny-{nr.name}", entry)
        with pytest.raises(VirtineCrash, match="denied|disallowed"):
            host.launch(image, policy=DefaultDenyPolicy())

    def test_denials_are_audited(self, host):
        if host.caps.kill_on_violation:
            pytest.skip("first denial kills the context; audit log dies "
                        "with it (declared kill_on_violation capability)")

        def entry(env):
            for nr in (Hypercall.OPEN, Hypercall.SEND):
                try:
                    env.hypercall(nr)
                except HypercallDenied:
                    pass
            return 0

        result = host.launch(
            ImageBuilder().hosted("audited", entry), policy=DefaultDenyPolicy()
        )
        assert result.audit.count(allowed=False) == 2

    def test_exit_always_available(self, host):
        def entry(env):
            env.exit(5)

        result = host.launch(ImageBuilder().hosted("exit", entry), policy=DefaultDenyPolicy())
        assert result.exit_code == 5
