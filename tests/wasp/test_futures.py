"""Asynchronous-virtine (futures) tests."""

import pytest

from repro.runtime.image import ImageBuilder
from repro.wasp import Wasp
from repro.wasp.futures import FutureState, VirtineExecutor, VirtineFuture
from repro.wasp.virtine import VirtineCrash


@pytest.fixture
def executor():
    return VirtineExecutor(Wasp(), cores=2)


@pytest.fixture
def builder():
    return ImageBuilder()


def doubler(env):
    env.charge(10_000)
    return env.args * 2


def crasher(env):
    raise RuntimeError("async guest bug")


class TestBasics:
    def test_submit_returns_pending(self, executor, builder):
        image = builder.hosted("double", doubler)
        future = executor.submit(image, args=21)
        assert not future.done()
        assert executor.pending == 1

    def test_result_drains(self, executor, builder):
        image = builder.hosted("double", doubler)
        future = executor.submit(image, args=21)
        assert future.result().value == 42
        assert future.done()
        assert executor.pending == 0

    def test_value_shorthand(self, executor, builder):
        image = builder.hosted("double", doubler)
        assert executor.submit(image, args=5).value() == 10

    def test_many_futures_keep_order(self, executor, builder):
        image = builder.hosted("double", doubler)
        futures = [executor.submit(image, args=n) for n in [1, 2, 3, 4, 5]]
        assert executor.gather(futures) == [2, 4, 6, 8, 10]

    def test_invalid_core_count(self):
        with pytest.raises(ValueError):
            VirtineExecutor(Wasp(), cores=0)


class TestFailures:
    def test_crash_surfaces_at_result(self, executor, builder):
        image = builder.hosted("crash", crasher)
        future = executor.submit(image)
        executor.drain()
        assert future.state is FutureState.FAILED
        with pytest.raises(VirtineCrash, match="async guest bug"):
            future.result()

    def test_crash_does_not_poison_siblings(self, executor, builder):
        bad = builder.hosted("crash", crasher)
        good = builder.hosted("double", doubler)
        bad_future = executor.submit(bad)
        good_future = executor.submit(good, args=3)
        assert good_future.value() == 6
        assert bad_future.state is FutureState.FAILED


class TestTimingModel:
    def test_latency_includes_queueing(self, builder):
        executor = VirtineExecutor(Wasp(), cores=1)
        image = builder.hosted("double", doubler)
        executor.submit(image, args=1)  # warms pool; queues first
        first = executor.submit(image, args=1)
        second = executor.submit(image, args=1)
        executor.drain()
        # On one core the second job waits behind the first.
        assert second.latency_cycles > first.latency_cycles - 1

    def test_parallelism_reduces_makespan(self, builder):
        jobs = 8

        def run(cores):
            executor = VirtineExecutor(Wasp(), cores=cores)
            image = ImageBuilder().hosted("double", doubler)
            executor.submit(image, args=0).result()  # warm the pool
            base = executor.makespan_cycles
            for n in range(jobs):
                executor.submit(image, args=n)
            executor.drain()
            return executor.makespan_cycles - base

        assert run(4) < run(1) / 2

    def test_latency_requires_completion(self, executor, builder):
        image = builder.hosted("double", doubler)
        future = executor.submit(image, args=1)
        with pytest.raises(RuntimeError):
            _ = future.latency_cycles

    def test_timestamps_ordered(self, executor, builder):
        image = builder.hosted("double", doubler)
        future = executor.submit(image, args=1)
        executor.drain()
        assert future.submitted_at <= future.started_at <= future.completed_at
