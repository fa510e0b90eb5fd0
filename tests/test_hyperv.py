"""Hyper-V (WHP) backend tests: Wasp runs on both VMMs (Section 4.1).

The device surface of both platform rows is pinned in ``test_kvm.py``.
"""

import pytest

from repro.hw.cpu import Mode
from repro.runtime.image import ImageBuilder
from repro.wasp import PermissivePolicy, Wasp


class TestWaspOnHyperV:
    def test_backend_selection(self):
        assert Wasp(backend="kvm").backend == "kvm"
        assert Wasp(backend="hyperv").backend == "hyperv"
        with pytest.raises(ValueError):
            Wasp(backend="xen")

    def test_assembly_virtine_runs(self):
        wasp = Wasp(backend="hyperv")
        result = wasp.launch(ImageBuilder().fib(Mode.LONG64, 12), use_snapshot=False)
        assert result.ax == 144

    def test_hosted_virtine_runs(self):
        wasp = Wasp(backend="hyperv")
        image = ImageBuilder().hosted("job", lambda env: env.args * 2)
        assert wasp.launch(image, args=21).value == 42

    def test_snapshotting_works(self):
        from repro.wasp import BitmaskPolicy, Hypercall, VirtineConfig

        wasp = Wasp(backend="hyperv")

        def entry(env):
            if not env.from_snapshot:
                env.charge(100_000)
                env.snapshot(payload=None)
            return "ok"

        image = ImageBuilder().hosted("snap", entry)
        policy = BitmaskPolicy(VirtineConfig.allowing(Hypercall.SNAPSHOT))
        cold = wasp.launch(image, policy=policy)
        warm = wasp.launch(image, policy=policy)
        assert warm.from_snapshot
        assert warm.cycles < cold.cycles

    def test_performance_similar_to_kvm(self):
        """Section 4.1: 'Hyper-V performance was similar'."""
        def steady_state_cycles(backend):
            wasp = Wasp(backend=backend)
            image = ImageBuilder().hlt_only()
            wasp.launch(image, use_snapshot=False)
            wasp.launch(image, use_snapshot=False)
            return wasp.launch(image, use_snapshot=False).cycles

        kvm = steady_state_cycles("kvm")
        hyperv = steady_state_cycles("hyperv")
        assert hyperv == pytest.approx(kvm, rel=0.5)  # same order, not equal

    def test_creation_slightly_heavier(self):
        def scratch_cycles(backend):
            wasp = Wasp(backend=backend)
            image = ImageBuilder().hlt_only()
            return wasp.launch(image, use_snapshot=False, pooled=False).cycles

        assert scratch_cycles("hyperv") > scratch_cycles("kvm")

    def test_metrics_work_across_backends(self):
        from repro.wasp.metrics import collect

        wasp = Wasp(backend="hyperv")
        wasp.launch(ImageBuilder().hosted("m", lambda env: 0))
        metrics = collect(wasp)
        assert metrics.launches == 1
        assert metrics.vms_created == 1
