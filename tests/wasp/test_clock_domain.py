"""One plane, one clock domain, one set of side channels.

A launcher (``Wasp`` or a ``BackendHost``) installs its tracer, boundary
recorder, telemetry registry and fault plan on its clock once; every
layer built under it -- the host kernel, the context maker, the VMs and
interpreters, the shell pools -- reads them from that clock.  These
tests check that by identity, after a pooled and a scratch launch: each
layer holds its own plane's objects, never another plane's, and a bare
plane's layers hold the shared disabled nulls.
"""

import pytest

from repro.faults import NO_FAULTS, FaultPlan, FaultSite
from repro.host.backend import create_host
from repro.host.filesystem import FsError
from repro.host.kernel import HostKernel
from repro.hw.cpu import Mode
from repro.replay.stream import NO_RECORD, InterfaceRecorder
from repro.runtime.image import ImageBuilder
from repro.telemetry.registry import NO_TELEMETRY
from repro.trace.tracer import NO_TRACE
from repro.wasp import Wasp

CHANNELS = ("tracer", "recorder", "telemetry", "fault_plan")
OTHER_BACKENDS = ("sud", "container", "process", "thread")


def _hosted_entry(env):
    env.charge(1_000)
    return "ok"


def _launch_twice(host, image):
    """One pooled and one scratch launch; returns every VM the plane's
    device built meanwhile (none on a non-KVM mechanism)."""
    vms = []
    device = host.maker
    if hasattr(device, "_new_vm"):
        new_vm = device._new_vm

        def collect(size):
            vm = new_vm(size)
            vms.append(vm)
            return vm

        device._new_vm = collect
    host.launch(image)
    host.launch(image, pooled=False)
    return vms


def _layers(host, vms):
    """(layer, the channels it caches) for every layer under ``host``."""
    layers = [(host.clock, CHANNELS)]
    if hasattr(host, "kvm"):
        layers.append((host.kvm, ("tracer", "recorder", "fault_plan")))
    for vm in vms:
        layers.append((vm, ("tracer", "recorder")))
        layers.append((vm.interp, ("tracer",)))
    for pool in host._pools.values():
        layers.append((pool, ("tracer", "telemetry", "fault_plan")))
    return layers


def _assert_layers_hold(host, vms, expected):
    assert host.kernel.clock is host.clock
    assert host.maker.clock is host.clock
    assert host._pools, "no pool was built"
    for layer, channels in _layers(host, vms):
        for channel in channels:
            assert getattr(layer, channel) is expected[channel], (layer, channel)


def _plane_channels(host):
    return {channel: getattr(host, channel) for channel in CHANNELS}


class TestWasp:
    def _wasp(self):
        return Wasp(tracer=True, telemetry=True, recorder=InterfaceRecorder(),
                    fault_plan=FaultPlan(seed=3))

    def test_every_layer_holds_its_planes_channels(self):
        wasp = self._wasp()
        vms = _launch_twice(wasp, ImageBuilder().fib(Mode.LONG64, 8))
        assert len(vms) == 2
        channels = _plane_channels(wasp)
        assert all(value.enabled for name, value in channels.items()
                   if name != "fault_plan")
        _assert_layers_hold(wasp, vms, channels)

    def test_a_second_plane_keeps_its_own(self):
        image = ImageBuilder().fib(Mode.LONG64, 8)
        first, second = self._wasp(), self._wasp()
        first_vms = _launch_twice(first, image)
        second_vms = _launch_twice(second, image)
        ours, theirs = _plane_channels(first), _plane_channels(second)
        _assert_layers_hold(first, first_vms, ours)
        _assert_layers_hold(second, second_vms, theirs)
        assert all(ours[name] is not theirs[name] for name in CHANNELS)

    def test_bare_plane_layers_hold_the_shared_nulls(self):
        wasp = Wasp()
        vms = _launch_twice(wasp, ImageBuilder().fib(Mode.LONG64, 8))
        _assert_layers_hold(wasp, vms, {
            "tracer": NO_TRACE, "recorder": NO_RECORD,
            "telemetry": NO_TELEMETRY, "fault_plan": NO_FAULTS})

    def test_a_kernel_built_before_its_plane_reads_the_planes_fault_plan(self):
        kernel = HostKernel()
        kernel.fs.add_file("/data", b"x")
        plan = FaultPlan(seed=1).fail(FaultSite.HOST_SYSCALL, on={1})
        Wasp(kernel=kernel, fault_plan=plan)
        assert kernel.clock.fault_plan is plan
        with pytest.raises(FsError, match="EIO"):
            kernel.sys_open("/data")
        assert [event.site for event in plan.trace] == [FaultSite.HOST_SYSCALL]


@pytest.mark.parametrize("name", OTHER_BACKENDS)
class TestBackendHost:
    def _host(self, name):
        return create_host(name, tracer=True, telemetry=True,
                           fault_plan=FaultPlan(seed=5))

    def test_every_layer_holds_its_planes_channels(self, name):
        host = self._host(name)
        _launch_twice(host, ImageBuilder().hosted("job", _hosted_entry))
        _assert_layers_hold(host, [], _plane_channels(host))
        assert host.recorder is NO_RECORD

    def test_a_second_plane_keeps_its_own(self, name):
        image = ImageBuilder().hosted("job", _hosted_entry)
        first, second = self._host(name), self._host(name)
        _launch_twice(first, image)
        _launch_twice(second, image)
        ours, theirs = _plane_channels(first), _plane_channels(second)
        _assert_layers_hold(first, [], ours)
        _assert_layers_hold(second, [], theirs)
        assert all(ours[name] is not theirs[name]
                   for name in ("tracer", "telemetry", "fault_plan"))

    def test_bare_plane_layers_hold_the_shared_nulls(self, name):
        host = create_host(name)
        _launch_twice(host, ImageBuilder().hosted("job", _hosted_entry))
        _assert_layers_hold(host, [], {
            "tracer": NO_TRACE, "recorder": NO_RECORD,
            "telemetry": NO_TELEMETRY, "fault_plan": NO_FAULTS})
