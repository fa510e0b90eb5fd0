"""Shell-pool tests: the Figure 6/8 caching behaviour.

Every pool case runs on both kinds of context maker: the KVM device
(shells) and an isolation backend (process contexts).  The two cases
about the vCPU and its handle are properties of the device, and run on
KVM only.
"""

import pytest

from repro.host.kernel import HostKernel
from repro.host.process import ProcessBackend
from repro.hw.clock import BackgroundAccountant, Clock
from repro.hw.costs import COSTS
from repro.kvm.device import KVM
from repro.wasp.pool import CleanMode, Shell, ShellPool

MEM = 4 * 1024 * 1024


class CountingBackend(ProcessBackend):
    """A backend maker that counts the contexts it tears down, as the
    KVM device counts the VMs it closes."""

    def __init__(self, kernel: HostKernel) -> None:
        super().__init__(kernel)
        self.vms_closed = 0

    def destroy(self, ctx) -> None:
        if not ctx.closed:
            self.vms_closed += 1
        super().destroy(ctx)


MAKERS = {
    "kvm": lambda: KVM(Clock()),
    "process": lambda: CountingBackend(HostKernel()),
}


def closed(ctx) -> bool:
    """Whether the maker has torn ``ctx`` down."""
    return ctx.handle.closed if isinstance(ctx, Shell) else ctx.closed


@pytest.fixture(params=tuple(MAKERS))
def make_maker(request):
    return MAKERS[request.param]


@pytest.fixture
def pool(make_maker):
    return ShellPool(make_maker(), MEM, background=BackgroundAccountant())


@pytest.fixture
def kvm_pool():
    return ShellPool(KVM(Clock()), MEM, background=BackgroundAccountant())


class TestAcquire:
    def test_cold_acquire_is_a_miss(self, pool):
        pool.acquire()
        assert pool.misses == 1
        assert pool.hits == 0

    def test_reuse_is_a_hit(self, pool):
        shell = pool.acquire()
        pool.release(shell)
        again = pool.acquire()
        assert again is shell
        assert pool.hits == 1

    def test_generation_bumps_on_reuse(self, pool):
        shell = pool.acquire()
        pool.release(shell)
        assert pool.acquire().generation == 1

    def test_hit_is_cheap_miss_is_expensive(self, pool):
        clock = pool.maker.clock
        with clock.region() as miss:
            shell = pool.acquire()
        pool.release(shell, CleanMode.NONE)
        with clock.region() as hit:
            pool.acquire()
        assert miss.elapsed > 1000 * hit.elapsed
        assert hit.elapsed == COSTS.POOL_BOOKKEEPING

    def test_scratch_bypasses_cache(self, pool):
        shell = pool.acquire()
        pool.release(shell)
        scratch = pool.create_scratch()
        assert scratch is not shell
        assert pool.free_count == 1  # cached shell untouched

    def test_prewarm(self, pool):
        pool.prewarm(3)
        assert pool.free_count == 3
        pool.acquire()
        assert pool.free_count == 2

    def test_prewarm_clamped_to_max_free(self, make_maker):
        """An over-eager prewarm must not grow the free list past the
        cap that release/quarantine enforce."""
        pool = ShellPool(make_maker(), MEM, max_free=2)
        pool.prewarm(10)
        assert pool.free_count == 2

    def test_prewarm_tops_up_without_overshoot(self, make_maker):
        pool = ShellPool(make_maker(), MEM, max_free=4)
        pool.prewarm(2)
        pool.prewarm(4)
        assert pool.free_count == 4
        pool.prewarm(1)  # already above target: no-op, no shrink
        assert pool.free_count == 4

    def test_defective_shell_charges_bookkeeping(self, make_maker):
        """Discarding a defective cached shell is free-list work: the
        POOL_ACQUIRE fault path must charge POOL_BOOKKEEPING, not be
        free."""
        from repro.faults import FaultPlan, FaultSite

        plan = FaultPlan(seed=9)
        plan.fail(FaultSite.POOL_ACQUIRE, rate=1.0)
        maker = make_maker()
        maker.clock.fault_plan = plan
        pool = ShellPool(maker, MEM)
        pool.release(pool.acquire(), CleanMode.NONE)
        bad = pool._free[0]
        with maker.clock.region() as region:
            shell = pool.acquire()
        assert pool.defects == 1
        assert shell is not bad
        assert closed(bad)
        assert region.elapsed >= COSTS.POOL_BOOKKEEPING


class TestRelease:
    def _dirty_shell(self, pool):
        shell = pool.acquire()
        shell.vm.memory.write(0x100, b"secret data")
        return shell

    def test_sync_clean_scrubs_and_charges(self, pool):
        shell = self._dirty_shell(pool)
        clock = pool.maker.clock
        before = clock.cycles
        pool.release(shell, CleanMode.SYNC)
        assert clock.cycles > before
        assert shell.vm.memory.read(0x100, 11) == bytes(11)

    def test_async_clean_scrubs_but_charges_background(self, pool):
        shell = self._dirty_shell(pool)
        clock = pool.maker.clock
        before = clock.cycles
        pool.release(shell, CleanMode.ASYNC)
        # Only bookkeeping lands on the critical path.
        assert clock.cycles - before <= COSTS.POOL_BOOKKEEPING
        assert pool.background.cycles > 0
        assert shell.vm.memory.read(0x100, 11) == bytes(11)

    def test_quarantine_scrubs_synchronously(self, pool):
        """A crashed occupant's context is scrubbed on the critical path
        (never deferred), and its generation bumps before reuse."""
        shell = self._dirty_shell(pool)
        clock = pool.maker.clock
        before = clock.cycles
        pool.quarantine(shell)
        assert clock.cycles - before > COSTS.POOL_BOOKKEEPING
        assert pool.background.cycles == 0
        assert shell.vm.memory.read(0x100, 11) == bytes(11)
        assert shell.generation == 1
        assert pool.acquire() is shell

    def test_none_leaves_memory(self, pool):
        shell = self._dirty_shell(pool)
        pool.release(shell, CleanMode.NONE)
        assert shell.vm.memory.read(0x100, 6) == b"secret"

    def test_release_resets_cpu(self, kvm_pool):
        shell = kvm_pool.acquire()
        shell.vm.cpu.write_reg("ax", 55)
        shell.vm.cpu.halted = True
        kvm_pool.release(shell)
        assert shell.vm.cpu.read_reg("ax") == 0
        assert not shell.vm.cpu.halted

    def test_release_clears_milestones(self, pool):
        shell = pool.acquire()
        shell.vm.milestones.append(("main", 1))
        pool.release(shell)
        assert shell.vm.milestones == []

    def test_max_free_cap(self, make_maker):
        pool = ShellPool(make_maker(), MEM, max_free=1)
        a = pool.acquire()
        b = pool.create_scratch()
        pool.release(a)
        pool.release(b)
        assert pool.free_count == 1
        assert closed(b)  # overflow shells are destroyed

    def test_overflow_release_closes_vm_on_device(self, make_maker):
        """The overflow shell's handle must actually be torn down by its
        maker, not just dropped from the free list."""
        maker = make_maker()
        pool = ShellPool(maker, MEM, max_free=1)
        a = pool.acquire()
        b = pool.create_scratch()
        pool.release(a)
        assert maker.vms_closed == 0
        pool.release(b)
        assert maker.vms_closed == 1

    def test_overflow_quarantine_closes_vm_on_device(self, make_maker):
        maker = make_maker()
        pool = ShellPool(maker, MEM, max_free=1)
        a = pool.acquire()
        b = pool.create_scratch()
        pool.release(a)
        pool.quarantine(b)
        assert maker.vms_closed == 1
        assert pool.quarantines == 1
        assert pool.free_count == 1

    def test_close_is_idempotent_in_bookkeeping(self):
        kvm = KVM(Clock())
        pool = ShellPool(kvm, MEM, max_free=0)
        shell = pool.acquire()
        pool.release(shell)
        shell.handle.close()  # double close must not double count
        assert kvm.vms_closed == 1


class TestInformationLeakage:
    def test_cleaned_shell_has_no_prior_state(self, pool):
        """The isolation property behind pooling: a recycled shell must
        not expose the previous occupant's memory (Section 5.2)."""
        shell = pool.acquire()
        shell.vm.memory.write(0x2000, b"tenant A's key material")
        pool.release(shell, CleanMode.SYNC)
        reused = pool.acquire()
        assert reused is shell
        contents = reused.vm.memory.read(0x2000, 23)
        assert contents == bytes(23)

    def test_async_clean_also_prevents_leakage(self, pool):
        shell = pool.acquire()
        shell.vm.memory.write(0x2000, b"tenant A")
        pool.release(shell, CleanMode.ASYNC)
        reused = pool.acquire()
        assert reused.vm.memory.read(0x2000, 8) == bytes(8)
