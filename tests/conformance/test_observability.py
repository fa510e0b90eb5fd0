"""Hosted-guest observability, identical on every backend.

Every launcher runs hosted guests through the one hosted plane, so a
traced, telemetry-on launch must report guest compute the same way on
every mechanism: one ``guest.compute`` span per charge, and the same
cycles under ``component_cycles_total{component="guest.compute"}``.
"""

from repro.host.backend import create_host
from repro.runtime.image import ImageBuilder
from repro.trace import Tracer
from repro.wasp.policy import PermissivePolicy

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
