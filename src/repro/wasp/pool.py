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

One :class:`ShellPool` serves every isolation mechanism: how a context
is made and unmade comes from the pool's *maker* -- the KVM device,
which builds a :class:`Shell`, or an
:class:`~repro.host.backend.IsolationBackend` -- and the pool keeps the
rest: free list, bookkeeping charges, scrub discipline, quarantine,
counters and spans.
"""

from __future__ import annotations

import enum
from typing import Any

from repro.faults import FaultSite
from repro.hw.clock import BackgroundAccountant
from repro.kvm.device import Shell  # noqa: F401 - re-exported
from repro.trace.tracer import Category

#: Bound once: reading an enum member off its class runs the enum
#: metaclass's ``__getattr__`` hook.
_POOL_ACQUIRE = FaultSite.POOL_ACQUIRE


class CleanMode(enum.Enum):
    """When (and whether) a released shell's memory is scrubbed."""

    SYNC = "sync"
    ASYNC = "async"
    #: No clearing at all -- only safe when the *same* trust domain reuses
    #: the shell (the "no teardown" optimisation of Section 6.5).
    NONE = "none"


_SYNC, _ASYNC = CleanMode.SYNC, CleanMode.ASYNC


class ShellPool:
    """A pool of reusable contexts, keyed externally by memory size.

    ``maker`` offers ``create(memory_size)`` and ``destroy(ctx)``; the
    pool charges on its ``clock`` at its ``costs`` (``POOL_BOOKKEEPING``
    and the scrub's ``memset`` are ints, added directly), and reports to
    that clock's tracer, telemetry registry and fault plan.  A context has a
    ``generation`` and a ``vm`` with ``reset()`` and ``clear_memory()``.
    Every context the pool hands out is at power-on: a new one is, and
    :meth:`release` and :meth:`quarantine` reset a used one before they
    recycle it, so the image install does not reset it again.
    """

    def __init__(
        self,
        maker: Any,
        memory_size: int,
        background: BackgroundAccountant | None = None,
        max_free: int = 64,
    ) -> None:
        self.maker = maker
        self.memory_size = memory_size
        self.background = background if background is not None else BackgroundAccountant()
        self.max_free = max_free
        #: The maker's clock and the side channels its plane installed.
        clock = self.clock = maker.clock
        self.tracer, self.fault_plan = clock.tracer, clock.fault_plan
        #: The pool's dimensional identity in the telemetry plane.
        self._bucket_mb = memory_size // (1024 * 1024)
        self._free: list[Any] = []
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
    def acquire(self) -> Any:
        """Provision a shell: reuse a cached one or create from scratch.

        A pool hit costs only the free-list bookkeeping; a miss pays the
        maker's full construction (on KVM, ``KVM_CREATE_VM`` +
        memory-region + vCPU).  A cached shell can be found defective
        (injected fault: its virtual context no longer validates); it is
        destroyed and replaced with a scratch build rather than handed
        to the caller -- the fault is absorbed here, at the cost of a
        miss.
        """
        tracer = self.tracer
        tracing = tracer.enabled
        clock = self.clock
        if tracing:
            span = tracer.begin("pool.acquire", Category.POOL)
        try:
            if self._free:
                maker = self.maker
                plan = self.fault_plan
                if plan.enabled and plan.draw(_POOL_ACQUIRE):
                    # Detecting and discarding the defective shell is free-list
                    # work like any other: charge the bookkeeping cost so the
                    # Wasp+C series does not understate latency under faults.
                    clock.cycles += maker.costs.POOL_BOOKKEEPING
                    maker.destroy(self._free.pop())
                    bucket = self._bucket_mb
                    self.defects += 1
                    self.misses += 1
                    if clock.observed:
                        clock.emit("pool", count="defects", bucket_mb=bucket)
                        clock.emit("pool", count="misses", bucket_mb=bucket)
                    if tracing:
                        span.annotate(outcome="defect")
                    return maker.create(self.memory_size)
                clock.cycles += maker.costs.POOL_BOOKKEEPING
                self.hits += 1
                if clock.observed:
                    clock.emit("pool", count="hits", bucket_mb=self._bucket_mb)
                shell = self._free.pop()
                shell.generation += 1
                if tracing:
                    span.annotate(outcome="hit")
                return shell
            self.misses += 1
            if clock.observed:
                clock.emit("pool", count="misses", bucket_mb=self._bucket_mb)
            if tracing:
                span.annotate(outcome="miss")
            return self.maker.create(self.memory_size)
        except BaseException as error:
            if tracing:
                span.annotate(error=type(error).__name__)
            raise
        finally:
            if tracing:
                tracer.end(span)

    def create_scratch(self) -> Any:
        """Create a shell from scratch, bypassing the cache (the "Wasp"
        series of Figure 8 -- every invocation pays full construction)."""
        tracer = self.tracer
        tracing = tracer.enabled
        if tracing:
            span = tracer.begin("pool.acquire", Category.POOL, outcome="scratch")
        try:
            self.misses += 1
            if self.clock.observed:
                self.clock.emit("pool", count="misses",
                                bucket_mb=self._bucket_mb)
            return self.maker.create(self.memory_size)
        except BaseException as error:
            if tracing:
                span.annotate(error=type(error).__name__)
            raise
        finally:
            if tracing:
                tracer.end(span)

    # -- release -----------------------------------------------------------------
    def release(self, shell: Any, clean: CleanMode = CleanMode.SYNC) -> None:
        """Return a shell to the pool under the given cleaning discipline."""
        tracer = self.tracer
        tracing = tracer.enabled
        if tracing:
            span = tracer.begin("pool.release", Category.TEARDOWN,
                                clean=clean._value_)
        try:
            vm = shell.vm
            vm.reset()
            if clean is _SYNC:
                self.clock.cycles += vm.clear_memory()
            elif clean is _ASYNC:
                # The scrub still happens (state must not leak), but its cost
                # lands on the background accountant, not request latency.
                self.background.charge(vm.clear_memory())
            self._recycle(shell)
        except BaseException as error:
            if tracing:
                span.annotate(error=type(error).__name__)
            raise
        finally:
            if tracing:
                tracer.end(span)

    def _recycle(self, shell: Any) -> None:
        """Cache a scrubbed shell, or destroy it when the pool is full."""
        if len(self._free) < self.max_free:
            self.clock.cycles += self.maker.costs.POOL_BOOKKEEPING
            self._free.append(shell)
        else:
            self.maker.destroy(shell)

    def quarantine(self, shell: Any) -> None:
        """Reclaim a shell that hosted a crash.

        A crashed virtine's shell must never be blindly reinserted: its
        memory may hold the poisoned state that killed it, and an
        attacker-triggered crash followed by reuse is an information
        leak.  Quarantine resets the vCPU, scrubs *synchronously* (the
        scrub is a security boundary here, so it is never deferred to
        the background accountant), and bumps the generation so stale
        references to the pre-crash occupancy are detectable.
        """
        with self.tracer.span("pool.quarantine", Category.TEARDOWN):
            self.quarantines += 1
            if self.clock.observed:
                self.clock.emit("pool", count="quarantines",
                                bucket_mb=self._bucket_mb)
            vm = shell.vm
            vm.reset()
            self.clock.advance(vm.clear_memory())
            shell.generation += 1
            self._recycle(shell)

    def quarantine_defect(self, shell: Any) -> None:
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
        if self.clock.observed:
            self.clock.emit("pool", count="restore_defects",
                            bucket_mb=self._bucket_mb)
        self.quarantine(shell)

    def prewarm(self, count: int) -> None:
        """Populate the pool ahead of time (cold-start avoidance).

        ``count`` is clamped to ``max_free``: the pool never caches more
        shells than ``release``/``quarantine`` would retain, so a
        too-eager prewarm cannot grow the free list past the cap.
        """
        target = min(count, self.max_free)
        self._free.extend(self.maker.create(self.memory_size)
                          for _ in range(target - len(self._free)))

    @property
    def free_count(self) -> int:
        return len(self._free)

