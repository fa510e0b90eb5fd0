"""The openssl-speed harness and virtine cipher integration."""

import dataclasses

import pytest

from repro.apps.crypto.aes import AES128
from repro.apps.crypto.modes import cbc_decrypt
from repro.apps.crypto.speed import (
    OPENSSL_IMAGE_SIZE,
    SpeedBenchmark,
    VirtineCipher,
)
from repro.hw.costs import COSTS
from repro.wasp import Wasp

KEY = b"\x2b" * 16
IV = bytes(16)


class TestVirtineCipher:
    def test_output_matches_direct_cbc(self):
        wasp = Wasp()
        cipher = VirtineCipher(wasp, KEY)
        data = b"attack at dawn" * 10
        ciphertext = cipher.encrypt(IV, data)
        assert cbc_decrypt(KEY, IV, ciphertext) == data

    def test_image_is_about_21kb(self):
        """Section 6.4: 'The OpenSSL virtine image we use is roughly 21KB'."""
        cipher = VirtineCipher(Wasp(), KEY)
        assert cipher.image.size == OPENSSL_IMAGE_SIZE == 21 * 1024

    def test_snapshot_captured_after_first_use(self):
        wasp = Wasp()
        cipher = VirtineCipher(wasp, KEY)
        cipher.encrypt(IV, b"warm me up")
        assert wasp.snapshots.get(cipher.image.name) is not None

    def test_each_chunk_is_a_fresh_virtine(self):
        wasp = Wasp()
        cipher = VirtineCipher(wasp, KEY)
        cipher.encrypt(IV, b"one")
        cipher.encrypt(IV, b"two")
        assert wasp.launches == 2


class TestSpeedBenchmark:
    @pytest.fixture(scope="class")
    def rows(self):
        bench = SpeedBenchmark()
        native = bench.native_row(16384, iterations=3)
        isolated = bench.virtine_row(16384, iterations=3)
        small_native = bench.native_row(64, iterations=3)
        small_isolated = bench.virtine_row(64, iterations=3)
        return native, isolated, small_native, small_isolated

    def test_native_is_faster(self, rows):
        native, isolated, *_ = rows
        assert native.bytes_per_second > isolated.bytes_per_second

    def test_slowdown_order_of_magnitude(self, rows):
        """The paper reports ~17x at 16 KB chunks; ours must land in the
        same regime (5x-40x), dominated by the per-launch image copy."""
        native, isolated, *_ = rows
        slowdown = native.bytes_per_second / isolated.bytes_per_second
        assert 5.0 < slowdown < 40.0

    def test_small_chunks_hurt_more(self, rows):
        """Creation overhead amortises with chunk size (memory-bound)."""
        native, isolated, small_native, small_isolated = rows
        big_slowdown = native.bytes_per_second / isolated.bytes_per_second
        small_slowdown = small_native.bytes_per_second / small_isolated.bytes_per_second
        assert small_slowdown > big_slowdown

    def test_run_produces_all_rows(self):
        rows = SpeedBenchmark().run(chunk_sizes=(16, 64))
        labels = [(r.label, r.chunk_size) for r in rows]
        assert ("native", 16) in labels
        assert ("virtine+snapshot", 64) in labels


def test_native_row_charges_the_wasps_cost_model():
    """The native row's per-chunk call is priced by the injected model."""
    default = SpeedBenchmark().native_row(64, iterations=2)
    costly = dataclasses.replace(COSTS, FUNCTION_CALL=COSTS.FUNCTION_CALL + 1_000)
    moved = SpeedBenchmark(Wasp(costs=costly)).native_row(64, iterations=2)
    assert moved.cycles_per_op == default.cycles_per_op + 1_000
