"""Non-KVM isolation contexts scrub their memory through GuestMemory."""

import dataclasses

import pytest

from repro.host.backend import BACKEND_NAMES, create_host
from repro.hw.costs import COSTS
from repro.hw.memory import PAGE_SIZE, PageSet
from repro.runtime.image import ImageBuilder


@pytest.mark.parametrize("name", [n for n in BACKEND_NAMES if n != "kvm"])
def test_clear_memory_zeroes_and_charges_full_memset(name):
    ctx = create_host(name).backend_impl.create()
    memory = ctx.memory
    memory.write(5 * PAGE_SIZE + 3, b"secret")
    memory.restore_runs(PageSet({9: b"\xaa" * PAGE_SIZE}), cow=True)
    cost = ctx.clear_memory()
    # The whole context is scrubbed, so the charge covers all of it.
    assert cost == int(memory.size * COSTS.MEMCPY_CYCLES_PER_BYTE)
    assert memory.read(5 * PAGE_SIZE, PAGE_SIZE) == bytes(PAGE_SIZE)
    assert memory.read(9 * PAGE_SIZE, PAGE_SIZE) == bytes(PAGE_SIZE)
    assert memory.dirty_pages == frozenset()
    assert memory.cow_pending_pages == frozenset()
    assert memory.touched_pages == 0


def test_scrub_charged_from_the_hosts_cost_model():
    """A process host with memcpy 10x cheaper scrubs 10x cheaper: the
    pooled second launch is all scrub and crossing, so it gets cheaper."""
    cheap = dataclasses.replace(
        COSTS, MEMCPY_CYCLES_PER_BYTE=COSTS.MEMCPY_CYCLES_PER_BYTE / 10)
    image = ImageBuilder().hosted("ok", lambda env: 0)
    second = {}
    for label, costs in (("default", COSTS), ("cheap", cheap)):
        host = create_host("process", costs=costs)
        second[label] = [host.launch(image).cycles for _ in range(2)][1]
    assert second["default"] == 1_698_701
    assert second["cheap"] < second["default"]
