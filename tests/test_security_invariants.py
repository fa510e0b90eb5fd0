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
from repro.hw import memory as memory_module
from repro.hw.clock import Clock
from repro.hw.cpu import Mode
from repro.hw.isa import Assembler
from repro.hw.memory import PAGE_SHIFT, PAGE_SIZE, GuestMemory, PageSet
from repro.hw.vmx import ExitReason
from repro.kvm.device import KVM
from repro.replay.substrate import ReplayGuestMemory
from repro.runtime import boot
from repro.runtime.image import ImageBuilder, VirtineImage
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
from repro.wasp.snapshot import RestoreMode


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


#: What every zero-on-reuse guest writes: a 32-bit word from registers,
#: or these bytes from the host side.
SECRET_WORD = 0x5EC2E7C0
SECRET_BYTES = b"TOP SECRET tenant data"
SECRET_ADDR = 0x240000


def _image(body: str, name: str, mode: Mode = Mode.PROT32) -> VirtineImage:
    program = Assembler().assemble(boot.boot_source(mode, body))
    return VirtineImage(name=name, program=program, mode=mode,
                        size=len(program.image))


@pytest.fixture
def released(monkeypatch):
    """``(mapping, bytes)`` of each guest memory, read just before its
    release, in release order; the free lists start empty."""
    seen = []
    release = GuestMemory.release

    def spy(memory):
        if memory._data is not None:
            seen.append((memory._data, memory.snapshot_bytes()))
        release(memory)

    monkeypatch.setattr(GuestMemory, "release", spy)
    memory_module._free.clear()
    yield seen
    memory_module._free.clear()


def assert_next_memory_zeroed(released, secret: bytes) -> None:
    """The last memory released held ``secret``; the next memory of its
    size gets its mapping back, and every byte of it reads zero."""
    data, contents = released[-1]
    assert secret in contents
    fresh = GuestMemory(len(contents))
    assert fresh._data is data
    assert fresh.snapshot_bytes() == bytes(len(contents))


class TestZeroOnReuse:
    """A destroyed shell's guest mapping is recycled for the next guest
    of its size (DESIGN.md SS10): whatever path wrote the previous
    guest's bytes, the next guest must start on all zeros."""

    def _run_on_device(self, body: str, engine: str) -> KVM:
        kvm = KVM(Clock(), engine=engine)
        if kvm.jit_domain is not None:
            kvm.jit_domain.threshold = 2
        handle = kvm.create_vm()
        handle.set_user_memory_region(4 << 20)
        vcpu = handle.create_vcpu()
        handle.load_program(_image(body, "secret").program)
        assert vcpu.run().reason is ExitReason.HLT
        handle.close()
        return kvm

    def test_interpreter_stores(self, released):
        self._run_on_device(f"""
    mov ax, {SECRET_WORD:#x}
    mov [{SECRET_ADDR:#x}], ax
    hlt
""", "reference")
        assert_next_memory_zeroed(released, SECRET_WORD.to_bytes(4, "little"))

    def test_compiled_quiet_page_stores(self, released):
        kvm = self._run_on_device(f"""
    mov ax, {SECRET_WORD:#x}
    mov cx, 64
    mov bx, {SECRET_ADDR + 8:#x}
loop:
    mov sp, bx
    push ax
    dec cx
    jne loop
    hlt
""", "fast+jit")
        assert kvm.jit_domain.counters["block_runs"] > 0
        assert_next_memory_zeroed(released, SECRET_WORD.to_bytes(4, "little"))

    def test_closed_form_store_loop(self, released):
        kvm = self._run_on_device(f"""
    mov ax, {SECRET_WORD:#x}
    mov di, {SECRET_ADDR:#x}
    mov cx, 256
loop:
    stos64
    dec cx
    jne loop
    hlt
""", "fast+jit")
        assert any("_pack_into(f'<" in block.source
                   for cache in kvm.jit_domain.images()
                   for block in cache.meta.values())
        secret = SECRET_WORD.to_bytes(8, "little")
        assert_next_memory_zeroed(released, secret * 256)

    def test_isa_read_hypercall(self, released):
        wasp = Wasp()
        wasp.kernel.fs.add_file("/s", SECRET_BYTES)
        image = _image(f"""
    mov ax, 0x732F      ; "/s"
    mov [0x4000], ax
    mov bx, 0
    mov cx, 0x4000
    mov dx, 2
    out 0x200, 3        ; OPEN
    mov bx, ax
    mov cx, {SECRET_ADDR:#x}
    mov dx, 64
    out 0x200, 1        ; READ into guest memory
    mov si, ax
    out 0x200, 4        ; CLOSE
    mov ax, si
    hlt
""", "reader")
        policy = BitmaskPolicy(VirtineConfig.allowing(
            Hypercall.OPEN, Hypercall.READ, Hypercall.CLOSE))
        result = wasp.launch(image, policy=policy, pooled=False,
                             use_snapshot=False)
        assert result.ax == len(SECRET_BYTES)
        assert_next_memory_zeroed(released, SECRET_BYTES)

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    @pytest.mark.parametrize("mode", [RestoreMode.EAGER, RestoreMode.COW])
    def test_snapshot_restore(self, released, engine, mode):
        def entry(env):
            if not env.from_snapshot:
                env.memory.write(SECRET_ADDR, SECRET_BYTES)
                env.snapshot(payload=None)
            return 0

        wasp = Wasp(engine=engine)
        image = ImageBuilder().hosted("restored", entry, size=256 * 1024)
        policy = BitmaskPolicy(VirtineConfig.allowing(Hypercall.SNAPSHOT))
        wasp.launch(image, policy=policy, pooled=False)  # capture
        released.clear()
        result = wasp.launch(image, policy=policy, pooled=False,
                             restore_mode=mode)
        assert result.from_snapshot
        assert_next_memory_zeroed(released, SECRET_BYTES)

    @pytest.mark.parametrize("install", ["restore_runs", "restore_pages"])
    @pytest.mark.parametrize("mode", ["copy", "cow", "replay"])
    def test_page_install(self, released, install, mode):
        """Each page-install mode, through the bulk install and its
        page-by-page oracle: a two-page run holding the secret."""
        page = SECRET_ADDR >> PAGE_SHIFT
        contents = SECRET_BYTES.ljust(PAGE_SIZE, b"\0")
        how = {"copy": {}, "cow": {"cow": True},
               "replay": {"quiet": {page}}}[mode]
        memory = GuestMemory(4 << 20)
        getattr(memory, install)(PageSet({page: contents, page + 1: contents}),
                                 **how)
        memory.release()
        assert_next_memory_zeroed(released, SECRET_BYTES)

    def test_boot_replay(self, released):
        source = boot.boot_source(Mode.PROT32).replace(
            f"    out 0xE9, {boot.MS_MAIN_ENTRY}\n",
            f"    mov ax, {SECRET_WORD:#x}\n"
            f"    mov [{SECRET_ADDR:#x}], ax\n"
            f"    out 0xE9, {boot.MS_MAIN_ENTRY}\n")
        program = Assembler().assemble(source)
        image = VirtineImage(name="secret-boot", program=program,
                             mode=Mode.PROT32, size=len(program.image))
        wasp = Wasp()
        wasp.kvm.jit_domain.threshold = 2
        cache = wasp.kvm.jit_domain.image_cache(program, wasp.costs)
        while not cache.replays:
            assert wasp.kvm.vms_created < 20, "the boot never replayed"
            replays = cache.replays
            wasp.launch(image, pooled=False)
        assert cache.replays == replays + 1
        assert_next_memory_zeroed(released, SECRET_WORD.to_bytes(4, "little"))

    def test_replayed_guest_buffer(self, released):
        memory = ReplayGuestMemory(4 << 20, session=None)
        memory.apply_recorded(SECRET_ADDR, SECRET_BYTES)
        memory.release()
        assert_next_memory_zeroed(released, SECRET_BYTES)

    def test_hosted_stores(self, released, host):
        def entry(env):
            env.memory.write(SECRET_ADDR, SECRET_BYTES)
            return 0

        host.launch(ImageBuilder().hosted("writer", entry), pooled=False)
        assert_next_memory_zeroed(released, SECRET_BYTES)

    def test_released_memory_raises(self):
        kvm = KVM(Clock())
        handle = kvm.create_vm()
        handle.set_user_memory_region(4 << 20)
        memory = handle.vm.memory
        memory.write(SECRET_ADDR, SECRET_BYTES)
        handle.close()
        with pytest.raises(TypeError):
            memory.read(SECRET_ADDR, len(SECRET_BYTES))
        with pytest.raises(TypeError):
            memory.write(SECRET_ADDR, b"x")
