"""Non-KVM isolation contexts scrub their memory through GuestMemory."""

import pytest

from repro.host.backend import BACKEND_NAMES, create_host
from repro.hw.costs import COSTS
from repro.hw.memory import PAGE_SIZE


@pytest.mark.parametrize("name", [n for n in BACKEND_NAMES if n != "kvm"])
def test_clear_memory_zeroes_and_charges_full_memset(name):
    ctx = create_host(name).backend_impl.create()
    memory = ctx.memory
    memory.write(5 * PAGE_SIZE + 3, b"secret")
    memory.restore_runs_cow([(9 * PAGE_SIZE, b"\xaa" * PAGE_SIZE)], [9])
    cost = ctx.clear_memory()
    # The whole context is scrubbed, so the charge covers all of it.
    assert cost == int(memory.size * COSTS.MEMCPY_CYCLES_PER_BYTE)
    assert memory.read(5 * PAGE_SIZE, PAGE_SIZE) == bytes(PAGE_SIZE)
    assert memory.read(9 * PAGE_SIZE, PAGE_SIZE) == bytes(PAGE_SIZE)
    assert memory.dirty_pages == frozenset()
    assert memory.cow_pending_pages == frozenset()
    assert memory.touched_pages == 0
