"""Every shell reaches the image install at power-on.

``Wasp._install_image`` does not reset the vCPU: a new shell's ``CPU()``
starts at power-on, and ``ShellPool.release`` and ``quarantine`` reset a
shell before they recycle it.  These tests check that contract on each
path into the install, after a previous launch left the shell's vCPU in
its guest's state: the vCPU state equals a new ``CPU()``'s, the shell
carries no milestones, and the first-instruction charge is pending.
"""

import pytest

from repro.faults import FaultPlan, FaultSite
from repro.hw.cpu import CPU, Mode
from repro.runtime.image import ImageBuilder
from repro.store import DurableSnapshotStore
from repro.wasp import BitmaskPolicy, Hypercall, VirtineConfig, Wasp
from repro.wasp.pool import CleanMode
from repro.wasp.virtine import VirtineTimeout

POWER_ON = CPU().save_state()


@pytest.fixture
def handed_over(monkeypatch):
    """What each install received: (vCPU at power-on, no milestones,
    first-instruction charge pending), one entry per install."""
    seen = []
    install = Wasp._install_image

    def spy(self, virtine):
        vm = virtine.shell.vm
        seen.append((vm.cpu.save_state() == POWER_ON, vm.milestones == [],
                     vm.interp._first_instruction_pending))
        return install(self, virtine)

    monkeypatch.setattr(Wasp, "_install_image", spy)
    return seen


@pytest.fixture
def image():
    return ImageBuilder().minimal(Mode.LONG64)


def _powered_on(seen, installs):
    assert len(seen) == installs
    assert seen == [(True, True, True)] * installs


def test_pool_miss(handed_over, image):
    Wasp().launch(image)
    _powered_on(handed_over, 1)


@pytest.mark.parametrize("clean", [CleanMode.SYNC, CleanMode.ASYNC])
def test_pool_hit_after_release(handed_over, image, clean):
    wasp = Wasp()
    wasp.launch(image, clean=clean)
    wasp.launch(image, clean=clean)
    assert wasp.pool_for(wasp.memory_size_for(image)).hits == 1
    _powered_on(handed_over, 2)


def test_pool_hit_after_quarantine(handed_over, image):
    wasp = Wasp()
    with pytest.raises(VirtineTimeout):
        wasp.launch(image, max_steps=50)
    wasp.launch(image)
    pool = wasp.pool_for(wasp.memory_size_for(image))
    assert (pool.quarantines, pool.hits) == (1, 1)
    _powered_on(handed_over, 2)


def test_scratch(handed_over, image):
    wasp = Wasp()
    wasp.launch(image, pooled=False)
    wasp.launch(image, pooled=False)
    _powered_on(handed_over, 2)


def _snapshotting(env):
    if not env.from_snapshot:
        env.milestone(1)
        env.snapshot()
    return 0


@pytest.mark.parametrize("pooled", [True, False])
def test_shell_replacing_a_collected_snapshot(handed_over, pooled):
    plan = FaultPlan(seed=3).fail(FaultSite.STORE_GC_RACE, on={1})
    wasp = Wasp(snapshot_store=DurableSnapshotStore(fault_plan=plan))
    image = ImageBuilder().hosted("job", _snapshotting)
    policy = BitmaskPolicy(VirtineConfig.allowing(Hypercall.SNAPSHOT))
    wasp.launch(image, policy=policy, pooled=pooled)
    result = wasp.launch(image, policy=policy, pooled=pooled)
    assert not result.from_snapshot and wasp.snapshot_fallbacks == 1
    if pooled:
        assert wasp.pool_for(wasp.memory_size_for(image)).restore_defects == 1
    _powered_on(handed_over, 2)


def test_session_cold_invoke(handed_over, image):
    wasp = Wasp()
    wasp.launch(image)
    with wasp.session(image, use_snapshot=False) as session:
        session.invoke()
    _powered_on(handed_over, 2)
