"""Asynchronous virtines: the futures model of Section 2.

"virtines could, given support in the hypervisor, behave like
asynchronous functions or futures" (the paper's footnote points at
Gotee's goroutines).  This module adds that hypervisor support: a
:class:`VirtineExecutor` schedules launches across a fixed number of
host cores, and callers hold :class:`VirtineFuture` handles.

Timing model: the simulation's global clock is single-threaded, so the
executor separately tracks per-core availability in simulated time.  A
job's *latency* is ``completion - submission`` under that core model
(queueing included), while the work itself still executes through the
full Wasp stack -- results, isolation, policies, and crashes are all
real.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.runtime.image import VirtineImage
from repro.wasp.hypervisor import Wasp
from repro.wasp.virtine import VirtineCrash, VirtineResult


class FutureState(enum.Enum):
    PENDING = "pending"
    DONE = "done"
    FAILED = "failed"


class VirtineFuture:
    """A handle on an asynchronously launched virtine."""

    def __init__(self, executor: "VirtineExecutor", index: int) -> None:
        self._executor = executor
        self._index = index
        self.state = FutureState.PENDING
        self._result: VirtineResult | None = None
        self._error: BaseException | None = None
        #: Simulated timestamps under the executor's core model.
        self.submitted_at: int = 0
        self.started_at: int = 0
        self.completed_at: int = 0

    # -- completion plumbing (called by the executor) ---------------------------
    def _complete(self, result: VirtineResult) -> None:
        self._result = result
        self.state = FutureState.DONE

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self.state = FutureState.FAILED

    # -- caller API ----------------------------------------------------------------
    def done(self) -> bool:
        return self.state is not FutureState.PENDING

    def result(self) -> VirtineResult:
        """The launch's result; drains the executor if still pending.

        Re-raises the virtine's crash if the guest failed -- an async
        fault surfaces exactly where the caller synchronises, like any
        future.
        """
        if self.state is FutureState.PENDING:
            self._executor.drain()
        if self.state is FutureState.FAILED:
            assert self._error is not None
            raise self._error
        assert self._result is not None
        return self._result

    def value(self) -> Any:
        """Shorthand for ``result().value``."""
        return self.result().value

    @property
    def latency_cycles(self) -> int:
        """Submission-to-completion latency (queueing included)."""
        if not self.done():
            raise RuntimeError("future not complete; call result() first")
        return self.completed_at - self.submitted_at


@dataclass
class _Job:
    future: VirtineFuture
    image: VirtineImage
    kwargs: dict


class VirtineExecutor:
    """Schedules asynchronous virtine launches over ``cores`` cores."""

    def __init__(self, wasp: Wasp | None = None, cores: int = 4) -> None:
        if cores <= 0:
            raise ValueError("executor needs at least one core")
        self.wasp = wasp if wasp is not None else Wasp()
        self.cores = cores
        self._core_free = [0] * cores
        self._queue: list[_Job] = []
        self._submitted = 0
        self.completed = 0

    def submit(self, image: VirtineImage, **launch_kwargs: Any) -> VirtineFuture:
        """Queue one virtine launch; returns its future immediately."""
        future = VirtineFuture(self, self._submitted)
        future.submitted_at = self.wasp.clock.cycles
        self._submitted += 1
        self._queue.append(_Job(future=future, image=image, kwargs=launch_kwargs))
        return future

    def drain(self) -> None:
        """Run every queued launch to completion."""
        queue, self._queue = self._queue, []
        for job in queue:
            core = min(range(self.cores), key=self._core_free.__getitem__)
            start = max(job.future.submitted_at, self._core_free[core])
            job.future.started_at = start
            before = self.wasp.clock.cycles
            try:
                result = self.wasp.launch(job.image, **job.kwargs)
            except VirtineCrash as crash:
                elapsed = self.wasp.clock.cycles - before
                job.future.completed_at = start + elapsed
                self._core_free[core] = job.future.completed_at
                job.future._fail(crash)
                self.completed += 1
                continue
            elapsed = self.wasp.clock.cycles - before
            job.future.completed_at = start + elapsed
            self._core_free[core] = job.future.completed_at
            job.future._complete(result)
            self.completed += 1

    def gather(self, futures: list[VirtineFuture]) -> list[Any]:
        """Wait for all futures and return their values (in order)."""
        return [future.value() for future in futures]

    @property
    def makespan_cycles(self) -> int:
        """When the last core goes idle (the parallel completion time)."""
        return max(self._core_free)

    @property
    def pending(self) -> int:
        return len(self._queue)
