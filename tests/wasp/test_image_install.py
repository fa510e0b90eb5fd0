"""Image install at launch: only the code is copied, the padding reads zero.

``Wasp._install_image`` copies ``image.program.image`` and lets the
guest memory's zero-page invariant supply the padding.  These tests pin
the launch-level contract that makes that safe: the guest sees exactly
``image.image_bytes`` over the image range -- on a fresh scratch shell
and on a reused shell whose previous occupant left dirty pages inside
the padding -- and simulated cycles and milestones are those of the
same image launched through the pool.
"""

import gc
import sys

import pytest

from repro.hw.costs import COSTS
from repro.hw.cpu import Mode
from repro.runtime.image import ImageBuilder
from repro.wasp import Wasp
from repro.wasp.pool import CleanMode

IMAGE_SIZE = 4 << 20


@pytest.fixture
def installed(monkeypatch):
    """Guest memory over the image range at the hand-off from install to
    the run loop, one entry per launch."""
    seen = []
    run_loop = Wasp._run_loop

    def spy(self, virtine, *args, **kwargs):
        image = virtine.image
        seen.append(virtine.shell.vm.memory.read(image.program.base, image.size))
        return run_loop(self, virtine, *args, **kwargs)

    monkeypatch.setattr(Wasp, "_run_loop", spy)
    return seen


def _deltas(result):
    """(marker, cycles since the previous milestone) per milestone."""
    pairs = result.milestones
    return [(marker, at - prev) for (_, prev), (marker, at) in zip(pairs, pairs[1:])]


@pytest.mark.parametrize("mode", [Mode.PROT32, Mode.LONG64])
def test_scratch_install_matches_padded_image(installed, mode):
    image = ImageBuilder().minimal(mode, IMAGE_SIZE)
    scratch = Wasp().launch(image, pooled=False)
    # A fresh pool also creates its first shell; its release (no scrub)
    # adds only the free-list bookkeeping.
    pooled = Wasp().launch(image, clean=CleanMode.NONE)
    assert installed == [image.image_bytes, image.image_bytes]
    assert pooled.milestones == scratch.milestones
    assert pooled.cycles == scratch.cycles + COSTS.POOL_BOOKKEEPING


def test_reused_dirty_shell_install_zeroes_stale_padding(installed):
    # LONG64 boot builds its page tables at 0x100000, inside the padding
    # of a 4 MB image; without a scrub the next occupant's install must
    # zero them.  The guest then boots exactly as in a scrubbed shell
    # (touch tracking survives either way, so the EPT charges match).
    image = ImageBuilder().minimal(Mode.LONG64, IMAGE_SIZE)
    second = {}
    for clean in (CleanMode.NONE, CleanMode.SYNC):
        wasp = Wasp()
        wasp.launch(image, clean=clean)
        second[clean] = wasp.launch(image, clean=clean)
        assert wasp.pool_for(wasp.memory_size_for(image)).hits == 1
    assert installed == [image.image_bytes] * 4
    assert _deltas(second[CleanMode.NONE]) == _deltas(second[CleanMode.SYNC])


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts Linux minor page faults")
def test_warm_scratch_launches_take_no_host_page_faults():
    """A scratch shell's guest memory reuses a released, zeroed mapping
    whose pages are already materialised, so a warm scratch launch
    takes no host page fault (a fresh mapping took about 3 per launch)."""
    resource = pytest.importorskip("resource")
    wasp = Wasp()
    builder = ImageBuilder()
    images = [builder.minimal(mode, size)
              for mode in (Mode.PROT32, Mode.LONG64)
              for size in (16 << 10, 1 << 20, IMAGE_SIZE)]
    for _ in range(3):
        for image in images:
            wasp.launch(image, pooled=False)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    launches = 0
    while launches < 200:
        for image in images:
            wasp.launch(image, pooled=False)
            launches += 1
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    if faults == 0 and before == 0:
        pytest.skip("ru_minflt is not counted on this host")
    assert faults / launches < 0.5, faults


#: Python-level calls (``sys.setprofile`` "call" events) one warm scratch
#: LONG64 launch may make once its boot replays, set to the count when
#: the budget was set (80; 94 while every launch looked up its pool
#: bucket, an absent snapshot and the program entry again, and 87 while
#: every charge called ``Clock.advance`` and every fault site drew from
#: the unarmed plan).  The count is deterministic, so the same launch
#: cannot get dearer in host calls unnoticed.
LAUNCH_CALL_BUDGET = 80


def warm_launch_calls(size):
    """``call`` events of one warm scratch LONG64 launch of an image of
    ``size`` bytes.  Needs ``REPRO_JIT_THRESHOLD=4``, so that the
    warm-up replays the boot."""
    wasp = Wasp()
    image = ImageBuilder().minimal(Mode.LONG64, size)
    for _ in range(12):
        wasp.launch(image, pooled=False)
    [cache] = wasp.kvm.jit_domain.images()
    replays = cache.replays
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        result = wasp.launch(image, pooled=False)
    finally:
        sys.setprofile(None)
        gc.enable()
    assert cache.replays == replays + 1
    assert not result.from_snapshot
    return calls


@pytest.mark.parametrize("size", [16 << 10, IMAGE_SIZE])
def test_warm_scratch_launch_stays_within_its_call_budget(monkeypatch, size):
    monkeypatch.setenv("REPRO_JIT_THRESHOLD", "4")
    calls = warm_launch_calls(size)
    assert calls <= LAUNCH_CALL_BUDGET, calls
