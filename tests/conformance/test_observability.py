"""Hosted-guest observability, identical on every backend.

Every launcher runs hosted guests through the one hosted plane, so a
traced, telemetry-on launch must report guest compute the same way on
every mechanism: one ``guest.compute`` span per charge, and the same
cycles under ``component_cycles_total{component="guest.compute"}``.
Every launcher also draws its contexts from the one shell pool, so the
same launch sequence must leave the same pool counters and spans.
"""

import pytest

from repro.host.backend import create_host
from repro.runtime.image import ImageBuilder
from repro.trace import Tracer
from repro.wasp.policy import PermissivePolicy
from repro.wasp.virtine import VirtineCrash

from tests.conformance.conftest import SEED

GUEST_CYCLES = 12_345


def test_guest_compute_recorded(backend_name):
    host = create_host(backend_name, seed=SEED, tracer=Tracer(),
                       telemetry=True)
    image = ImageBuilder().hosted(
        "compute", lambda env: env.charge(GUEST_CYCLES))
    host.launch(image, policy=PermissivePolicy())
    spans = host.tracer.find("guest.compute")
    assert [span.cycles for span in spans] == [GUEST_CYCLES]
    counter = host.telemetry.counter("component_cycles_total",
                                     component="guest.compute")
    assert counter.value == GUEST_CYCLES


def _crash(env):
    raise RuntimeError("crash inside the context")


def test_pool_accounting_identical(backend_name):
    """ok, crash, ok, ok through the pool: one miss, three hits and one
    quarantine, counted and traced alike on every mechanism."""
    host = create_host(backend_name, seed=SEED, tracer=Tracer(),
                       telemetry=True)
    ok = ImageBuilder().hosted("ok", lambda env: "fine")
    host.launch(ok, pooled=True)
    with pytest.raises(VirtineCrash):
        host.launch(ImageBuilder().hosted("crash", _crash), pooled=True)
    host.launch(ok, pooled=True)
    host.launch(ok, pooled=True)
    counters = {
        name: host.telemetry.counter(name, bucket_mb=4).value
        for name in ("pool_hits_total", "pool_misses_total",
                     "pool_quarantines_total", "pool_defects_total")
    }
    assert counters == {"pool_hits_total": 3, "pool_misses_total": 1,
                        "pool_quarantines_total": 1,
                        "pool_defects_total": 0}
    outcomes = [span.args["outcome"]
                for span in host.tracer.find("pool.acquire")]
    assert outcomes == ["miss", "hit", "hit", "hit"]
    assert len(host.tracer.find("pool.quarantine")) == 1
    assert len(host.tracer.find("pool.release")) == 3
