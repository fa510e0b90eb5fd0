"""The virtine shell pool (Section 5.2, Figure 6).

"Wasp supports a pool of cached, uninitialized, virtines (shells) that
can be reused. ... once we do this, and the relevant virtine returns, we
can clear its context, preventing information leakage, and cache it in a
pool of 'clean' virtines so the host OS need not pay the expensive cost
of re-allocating virtual hardware contexts."

Three cleaning disciplines correspond to the Figure 8 series:

* scratch creation (no pool)           -> "Wasp"
* pooled + synchronous clean           -> "Wasp+C"
* pooled + asynchronous clean          -> "Wasp+CA" (cleaning charged to a
  background accountant, off the request's critical path)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.faults import NO_FAULTS, FaultPlan, FaultSite
from repro.hw.clock import BackgroundAccountant
from repro.kvm.device import KVM, VcpuHandle, VMHandle
from repro.telemetry.registry import NO_TELEMETRY, TelemetryRegistry
from repro.trace.tracer import Category


class CleanMode(enum.Enum):
    """When (and whether) a released shell's memory is scrubbed."""

    SYNC = "sync"
    ASYNC = "async"
    #: No clearing at all -- only safe when the *same* trust domain reuses
    #: the shell (the "no teardown" optimisation of Section 6.5).
    NONE = "none"


@dataclass
class Shell:
    """A cached, uninitialised hardware virtual context."""

    handle: VMHandle
    vcpu: VcpuHandle
    memory_size: int
    generation: int = 0

    @property
    def vm(self):
        return self.vcpu.vm


class ShellPool:
    """A pool of reusable shells, keyed externally by memory size."""

    def __init__(
        self,
        kvm: KVM,
        memory_size: int,
        background: BackgroundAccountant | None = None,
        max_free: int = 64,
        fault_plan: FaultPlan | None = None,
        telemetry: TelemetryRegistry | None = None,
    ) -> None:
        self.kvm = kvm
        self.memory_size = memory_size
        self.background = background if background is not None else BackgroundAccountant()
        self.max_free = max_free
        self.fault_plan = fault_plan if fault_plan is not None else NO_FAULTS
        self.telemetry = telemetry if telemetry is not None else NO_TELEMETRY
        #: The pool's dimensional identity in the telemetry plane.
        self._bucket_mb = memory_size // (1024 * 1024)
        self._free: list[Shell] = []
        self.hits = 0
        self.misses = 0
        #: Shells quarantined after hosting a crash (scrubbed + generation
        #: bumped before any reuse).
        self.quarantines = 0
        #: Cached shells found defective on acquire (discarded, rebuilt).
        self.defects = 0
        #: Shells whose restore source vanished between acquire and
        #: restore (snapshot GC race): quarantined, launch went cold.
        self.restore_defects = 0

    # -- provisioning --------------------------------------------------------
    def acquire(self) -> Shell:
        """Provision a shell: reuse a cached one or create from scratch.

        A pool hit costs only the free-list bookkeeping; a miss pays the
        full ``KVM_CREATE_VM`` + memory-region + vCPU construction.  A
        cached shell can be found defective (injected fault: its virtual
        context no longer validates); it is destroyed and replaced with a
        scratch build rather than handed to the caller -- the fault is
        absorbed here, at the cost of a miss.
        """
        with self.kvm.tracer.span("pool.acquire", Category.POOL) as span:
            if self._free:
                if self.fault_plan.draw(FaultSite.POOL_ACQUIRE):
                    # Detecting and discarding the defective shell is free-list
                    # work like any other: charge the bookkeeping cost so the
                    # Wasp+C series does not understate latency under faults.
                    self.kvm.clock.advance(self.kvm.costs.POOL_BOOKKEEPING)
                    bad = self._free.pop()
                    bad.handle.close()
                    self.defects += 1
                    self.misses += 1
                    self.telemetry.counter("pool_defects_total",
                                           bucket_mb=self._bucket_mb).inc()
                    self.telemetry.counter("pool_misses_total",
                                           bucket_mb=self._bucket_mb).inc()
                    span.annotate(outcome="defect")
                    return self._create()
                self.kvm.clock.advance(self.kvm.costs.POOL_BOOKKEEPING)
                self.hits += 1
                self.telemetry.counter("pool_hits_total",
                                       bucket_mb=self._bucket_mb).inc()
                shell = self._free.pop()
                shell.generation += 1
                span.annotate(outcome="hit")
                return shell
            self.misses += 1
            self.telemetry.counter("pool_misses_total",
                                   bucket_mb=self._bucket_mb).inc()
            span.annotate(outcome="miss")
            return self._create()

    def create_scratch(self) -> Shell:
        """Create a shell from scratch, bypassing the cache (the "Wasp"
        series of Figure 8 -- every invocation pays full construction)."""
        with self.kvm.tracer.span("pool.acquire", Category.POOL, outcome="scratch"):
            self.misses += 1
            self.telemetry.counter("pool_misses_total",
                                   bucket_mb=self._bucket_mb).inc()
            return self._create()

    def _create(self) -> Shell:
        handle = self.kvm.create_vm()
        handle.set_user_memory_region(self.memory_size)
        vcpu = handle.create_vcpu()
        return Shell(handle=handle, vcpu=vcpu, memory_size=self.memory_size)

    # -- release -----------------------------------------------------------------
    def release(self, shell: Shell, clean: CleanMode = CleanMode.SYNC) -> None:
        """Return a shell to the pool under the given cleaning discipline."""
        with self.kvm.tracer.span("pool.release", Category.TEARDOWN,
                                  clean=clean.value):
            vm = shell.vm
            vm.reset()
            if clean is CleanMode.SYNC:
                self.kvm.clock.advance(vm.clear_memory())
            elif clean is CleanMode.ASYNC:
                # The scrub still happens (state must not leak), but its cost
                # lands on the background accountant, not request latency.
                self.background.charge(vm.clear_memory())
            if len(self._free) < self.max_free:
                self.kvm.clock.advance(self.kvm.costs.POOL_BOOKKEEPING)
                self._free.append(shell)
            else:
                shell.handle.close()

    def quarantine(self, shell: Shell) -> None:
        """Reclaim a shell that hosted a crash.

        A crashed virtine's shell must never be blindly reinserted: its
        memory may hold the poisoned state that killed it, and an
        attacker-triggered crash followed by reuse is an information
        leak.  Quarantine resets the vCPU, scrubs *synchronously* (the
        scrub is a security boundary here, so it is never deferred to
        the background accountant), and bumps the generation so stale
        references to the pre-crash occupancy are detectable.
        """
        with self.kvm.tracer.span("pool.quarantine", Category.TEARDOWN):
            self.quarantines += 1
            self.telemetry.counter("pool_quarantines_total",
                                   bucket_mb=self._bucket_mb).inc()
            vm = shell.vm
            vm.reset()
            self.kvm.clock.advance(vm.clear_memory())
            shell.generation += 1
            if len(self._free) < self.max_free:
                self.kvm.clock.advance(self.kvm.costs.POOL_BOOKKEEPING)
                self._free.append(shell)
            else:
                shell.handle.close()

    def quarantine_defect(self, shell: Shell) -> None:
        """Quarantine a shell whose restore source was yanked away.

        The GC-vs-restore race lands here: the shell was acquired
        expecting a warm restore, then the snapshot it was promised was
        collected.  The shell itself hosted no crash, but it may have
        been partially prepared against state that no longer exists, so
        it takes the full quarantine path (reset + synchronous scrub +
        generation bump) and the defect is accounted separately from
        acquire-time defects so the race is visible in metrics.
        """
        self.restore_defects += 1
        self.telemetry.counter("pool_restore_defects_total",
                               bucket_mb=self._bucket_mb).inc()
        self.quarantine(shell)

    def prewarm(self, count: int) -> None:
        """Populate the pool ahead of time (cold-start avoidance).

        ``count`` is clamped to ``max_free``: the pool never caches more
        shells than ``release``/``quarantine`` would retain, so a
        too-eager prewarm cannot grow the free list past the cap.
        """
        target = min(count, self.max_free)
        created = [self._create() for _ in range(target - len(self._free))]
        self._free.extend(created)

    @property
    def free_count(self) -> int:
        return len(self._free)

