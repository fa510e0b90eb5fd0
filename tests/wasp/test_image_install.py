"""Image install at launch: only the code is copied, the padding reads zero.

``Wasp._install_image`` copies ``image.program.image`` and lets the
guest memory's zero-page invariant supply the padding.  These tests pin
the launch-level contract that makes that safe: the guest sees exactly
``image.image_bytes`` over the image range -- on a fresh scratch shell
and on a reused shell whose previous occupant left dirty pages inside
the padding -- and simulated cycles and milestones are those of the
same image launched through the pool.
"""

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
