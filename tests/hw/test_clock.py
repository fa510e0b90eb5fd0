"""Virtual clock tests."""

import dataclasses

import pytest

from repro.apps.http.client import RequestGenerator
from repro.apps.http.server import StaticHttpServer
from repro.faults import FaultPlan, FaultSite
from repro.hw.clock import BackgroundAccountant, Clock
from repro.hw.costs import COSTS, CostModel
from repro.hw.cpu import Mode
from repro.runtime.image import ImageBuilder
from repro.wasp import Hypercall, PermissivePolicy, Supervisor, Wasp
from repro.wasp.virtine import VirtineCrash


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().cycles == 0

    def test_custom_start(self):
        assert Clock(100).cycles == 100

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            Clock(-1)

    def test_advance(self):
        clock = Clock()
        clock.advance(42)
        assert clock.cycles == 42

    def test_advance_accumulates(self):
        clock = Clock()
        clock.advance(10)
        clock.advance(5)
        assert clock.cycles == 15

    def test_advance_truncates_floats(self):
        clock = Clock()
        clock.advance(1.9)
        assert clock.cycles == 1

    def test_negative_advance_rejected(self):
        clock = Clock()
        with pytest.raises(ValueError):
            clock.advance(-1)


class TestRegion:
    def test_region_measures(self):
        clock = Clock()
        with clock.region() as region:
            clock.advance(100)
        assert region.elapsed == 100

    def test_region_open_elapsed(self):
        clock = Clock()
        region = clock.region()
        clock.advance(7)
        assert region.elapsed == 7
        assert region.end is None

    def test_region_stop(self):
        clock = Clock()
        region = clock.region()
        clock.advance(3)
        assert region.stop() == 3
        clock.advance(10)
        assert region.elapsed == 3  # frozen after stop

    def test_nested_regions(self):
        clock = Clock()
        with clock.region() as outer:
            clock.advance(5)
            with clock.region() as inner:
                clock.advance(2)
        assert inner.elapsed == 2
        assert outer.elapsed == 7


class TestBackgroundAccountant:
    def test_charges_accumulate(self):
        bg = BackgroundAccountant()
        bg.charge(100)
        bg.charge(50)
        assert bg.cycles == 150
        assert bg.operations == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            BackgroundAccountant().charge(-5)

    def test_background_does_not_touch_clock(self):
        clock = Clock()
        bg = BackgroundAccountant()
        bg.charge(1000)
        assert clock.cycles == 0


class TestChargingRule:
    """Hot paths add costs that are non-negative ints by construction to
    ``Clock.cycles`` directly; the cost model's own checks keep that
    from running the clock backwards or making it a float."""

    def test_default_model_passes_its_checks(self):
        assert dataclasses.replace(COSTS) == COSTS
        assert len(dataclasses.fields(CostModel)) == 52

    @pytest.mark.parametrize("change", [
        {"VMRUN_ENTRY": -1},
        {"VMRUN_ENTRY": 1000.0},
        {"POOL_BOOKKEEPING": True},
        {"MEMCPY_CYCLES_PER_BYTE": -0.5},
        {"GUEST_BYTE": float("nan")},
        {"GUEST_BYTE": "0.5"},
    ])
    def test_model_rejects_a_bad_cost(self, change):
        with pytest.raises(ValueError):
            dataclasses.replace(COSTS, **change)

    def test_model_takes_an_int_rate(self):
        assert dataclasses.replace(COSTS, GUEST_BYTE=2).GUEST_BYTE == 2


def _pooled_fib(wasp):
    image = ImageBuilder().fib(Mode.LONG64, 12)
    for _ in range(3):
        assert wasp.launch(image).ax == 144


def _scratch_boot(wasp):
    image = ImageBuilder().minimal(Mode.PROT32, 16 << 10)
    wasp.launch(image, pooled=False)


def _supervised_http(wasp):
    server = StaticHttpServer(wasp, port=8080, isolation="snapshot",
                              supervisor=Supervisor(wasp))
    wasp.kernel.fs.add_file("/srv/file.html", b"x" * 300)
    client = RequestGenerator(wasp.kernel, server, "/file.html")
    for _ in range(3):
        assert client.one_request().response.status == 200


def _fault_injected(wasp):
    plan = wasp.fault_plan
    for site in (FaultSite.VCPU_RUN, FaultSite.HOST_SYSCALL,
                 FaultSite.POOL_ACQUIRE, FaultSite.GUEST_STALL,
                 FaultSite.SNAPSHOT_RESTORE):
        plan.fail(site, rate=0.3)
    wasp.kernel.fs.add_file("/data", b"y" * 100)

    def entry(env):
        if not env.from_snapshot:
            env.snapshot()
        env.charge_bytes(3)  # a fractional charge: 1.5 cycles
        fd = env.hypercall(Hypercall.OPEN, "/data")
        env.hypercall(Hypercall.READ, fd, 100)
        env.hypercall(Hypercall.CLOSE, fd)

    image = ImageBuilder().hosted("flaky", entry)
    for _ in range(20):
        try:
            wasp.launch(image, policy=PermissivePolicy())
        except VirtineCrash:
            pass
    assert plan.trace


@pytest.mark.parametrize("run", [
    _pooled_fib, _scratch_boot, _supervised_http, _fault_injected])
def test_clock_stays_an_int(run):
    wasp = Wasp(fault_plan=FaultPlan(seed=4))
    run(wasp)
    assert wasp.clock.cycles > 0
    assert type(wasp.clock.cycles) is int
