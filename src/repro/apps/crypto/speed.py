"""The ``openssl speed``-style benchmark harness (Section 6.4).

Measures AES-128-CBC throughput at several chunk sizes, native vs.
virtine-isolated.  The paper reports that with snapshotting and a 16 KB
cipher chunk, the virtine version incurs a ~17x slowdown -- dominated by
the per-invocation snapshot copy of the ~21 KB OpenSSL virtine image
("virtine creation in this example is memory bound").

Cost model notes: the *output bytes* are computed by the real cipher in
:mod:`repro.apps.crypto.aes`; the *cycle* cost uses the calibrated
per-byte constant below (OpenSSL's AES-NI CBC path on the paper-era
hardware), because counting Python bytecodes would measure CPython, not
AES.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.crypto.aes import AES128
from repro.apps.crypto.modes import cbc_encrypt
from repro.runtime.image import ImageBuilder
from repro.units import cycles_to_seconds
from repro.wasp.guestenv import GuestEnv
from repro.wasp.hypervisor import Wasp
from repro.wasp.hypercall import Hypercall
from repro.wasp.policy import BitmaskPolicy, VirtineConfig

#: AES-128-CBC cost on the host: OpenSSL's AES-NI assembly path
#: (cycles/byte).  This is the "heavily optimized" baseline.
AES_CYCLES_PER_BYTE = 0.70

#: AES-128-CBC cost *inside the virtine image*: the statically-linked
#: portable C implementation (the minimal runtime environment has no
#: OPENSSL_cpuid dispatch, so the AES-NI path is not selected).
AES_CYCLES_PER_BYTE_GUEST = 4.0

#: The OpenSSL virtine image is "roughly 21KB" (Section 6.4): boot layer,
#: newlib, and the block-cipher slice of libcrypto.
OPENSSL_IMAGE_SIZE = 21 * 1024

#: Chunk sizes openssl speed sweeps (bytes).
SPEED_CHUNK_SIZES = (16, 64, 256, 1024, 8192, 16384)


class VirtineCipher:
    """AES-128-CBC whose block-cipher work runs in virtine context.

    One virtine is created per ``encrypt`` call (per cipher chunk), as in
    the paper's modified OpenSSL: "its 128-bit AES block cipher
    encryption is carried out in virtine context."
    """

    def __init__(self, wasp: Wasp, key: bytes, use_snapshot: bool = True) -> None:
        self.wasp = wasp
        self.key = key
        self.use_snapshot = use_snapshot
        self._aes = AES128(key)
        self.image = ImageBuilder().hosted(
            name="openssl-aes128",
            entry=self._entry,
            size=OPENSSL_IMAGE_SIZE,
            metadata={"cipher": "aes-128-cbc"},
        )
        self._policy_config = VirtineConfig.allowing(Hypercall.SNAPSHOT)

    def _entry(self, env: GuestEnv) -> bytes:
        import repro.lang.marshal as marshal_mod

        costs = env._wasp.costs
        if not env.from_snapshot:
            env.charge(costs.GUEST_LIBC_INIT)
            env.snapshot(payload={"key_schedule": "expanded"})
        iv, chunk = env.args
        # Copy-restore: the chunk is marshalled into the virtine's address
        # space, encrypted there, and the ciphertext marshalled back out.
        env.charge(costs.memcpy(len(chunk)))
        marshal_mod.marshal(env.memory, (iv, chunk), marshal_mod.ARG_AREA)
        guest_iv, guest_chunk = marshal_mod.unmarshal(env.memory, marshal_mod.ARG_AREA)
        # The actual cipher runs here, inside the isolated context, using
        # the portable C path (no AES-NI dispatch in the static image).
        ciphertext = cbc_encrypt(self.key, guest_iv, guest_chunk, self._aes.encrypt_block)
        env.charge(AES_CYCLES_PER_BYTE_GUEST * len(guest_chunk))
        env.charge(costs.memcpy(len(ciphertext)))
        marshal_mod.marshal(env.memory, ciphertext, marshal_mod.RET_AREA)
        return marshal_mod.unmarshal(env.memory, marshal_mod.RET_AREA)

    def encrypt(self, iv: bytes, chunk: bytes) -> bytes:
        """Encrypt one chunk in a fresh virtine."""
        result = self.wasp.launch(
            self.image,
            policy=BitmaskPolicy(self._policy_config),
            args=(iv, chunk),
            use_snapshot=self.use_snapshot,
        )
        return result.value


@dataclass
class SpeedRow:
    """One row of ``openssl speed`` output for one configuration."""

    label: str
    chunk_size: int
    bytes_per_second: float
    cycles_per_op: float


class SpeedBenchmark:
    """Runs the native-vs-virtine speed comparison."""

    def __init__(self, wasp: Wasp | None = None, key: bytes = b"\x2b" * 16) -> None:
        self.wasp = wasp if wasp is not None else Wasp()
        self.key = key

    def native_row(self, chunk_size: int, iterations: int = 20) -> SpeedRow:
        """Throughput of the in-process cipher (the baseline)."""
        clock = self.wasp.clock
        aes = AES128(self.key)
        iv = b"\x00" * 16
        chunk = bytes(chunk_size)
        start = clock.cycles
        for _ in range(iterations):
            cbc_encrypt(self.key, iv, chunk, aes.encrypt_block)
            clock.advance(AES_CYCLES_PER_BYTE * chunk_size
                          + self.wasp.costs.FUNCTION_CALL)
        elapsed = clock.cycles - start
        return self._row("native", chunk_size, elapsed, iterations)

    def virtine_row(
        self, chunk_size: int, iterations: int = 20, use_snapshot: bool = True
    ) -> SpeedRow:
        """Throughput with each chunk encrypted in its own virtine."""
        cipher = VirtineCipher(self.wasp, self.key, use_snapshot=use_snapshot)
        iv = b"\x00" * 16
        chunk = bytes(chunk_size)
        cipher.encrypt(iv, chunk)  # warm: capture the snapshot
        start = self.wasp.clock.cycles
        for _ in range(iterations):
            cipher.encrypt(iv, chunk)
        elapsed = self.wasp.clock.cycles - start
        label = "virtine+snapshot" if use_snapshot else "virtine"
        return self._row(label, chunk_size, elapsed, iterations)

    @staticmethod
    def _row(label: str, chunk_size: int, elapsed_cycles: int, iterations: int) -> SpeedRow:
        seconds = cycles_to_seconds(elapsed_cycles)
        return SpeedRow(
            label=label,
            chunk_size=chunk_size,
            bytes_per_second=(chunk_size * iterations) / seconds if seconds else 0.0,
            cycles_per_op=elapsed_cycles / iterations,
        )
