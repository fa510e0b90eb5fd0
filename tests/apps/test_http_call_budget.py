"""Host-call budget of one warm supervised static-file request.

The static HTTP server (Section 6.3, Figure 13) crosses the virtine
boundary seven times per request.  With every side channel off (no
tracer, telemetry or boundary recorder), each layer of that path --
``GuestEnv`` -> ``HostedPlane`` -> the canned handlers -> ``HostKernel``,
plus the supervisor, the shell pool and the vCPU -- tests a sink's
``enabled`` attribute instead of calling its null object.  These tests
count Python-level calls (``sys.setprofile`` "call" events) over one
warm request, in all and into the side-channel packages, so the path
cannot get dearer in host calls unnoticed.  The counts are
deterministic for a fixed CPython minor version.
"""

import gc
import sys

import pytest

from repro.apps.http.client import RequestGenerator
from repro.apps.http.server import StaticHttpServer
from repro.wasp import Supervisor, Wasp

#: ``call`` events one warm request may make, set to the count when the
#: budget was set (246; the path made 462 while every site still called
#: the disabled sinks' null objects, 271 while every install reset the
#: vCPU a second time and milestones were objects, and 253 while every
#: launch looked up its pool bucket, an absent snapshot and the program
#: entry again).
REQUEST_CALL_BUDGET = 246
#: ``call`` events into the tracer, telemetry and boundary-recorder
#: packages: 0 when the budget was set, 103 before.
SIDE_CHANNEL_CALL_BUDGET = 12
SIDE_CHANNELS = ("repro/trace/", "repro/telemetry/", "repro/replay/")


def _warm_request():
    """A supervised snapshot-isolation server whose pooled shell exists
    and whose boot replays; returns its request generator and body."""
    wasp = Wasp()
    server = StaticHttpServer(wasp, port=8080, isolation="snapshot",
                              supervisor=Supervisor(wasp))
    body = bytes(range(256)) * 8
    wasp.kernel.fs.add_file("/srv/file.html", body)
    client = RequestGenerator(wasp.kernel, server, "/file.html")
    for _ in range(12):
        assert client.one_request().response.status == 200
    return wasp, client, body


def _count_calls(request):
    calls = []

    def count(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_filename)

    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        outcome = request()
    finally:
        sys.setprofile(None)
        gc.enable()
    return outcome, calls


@pytest.fixture
def counted(monkeypatch):
    monkeypatch.setenv("REPRO_JIT_THRESHOLD", "4")
    wasp, client, body = _warm_request()
    [cache] = wasp.kvm.jit_domain.images()
    replays = cache.replays
    outcome, calls = _count_calls(client.one_request)
    assert cache.replays == replays + 1
    assert outcome.response.status == 200
    assert outcome.response.body == body
    return [name.replace("\\", "/") for name in calls]


def test_warm_request_stays_within_its_call_budget(counted):
    assert len(counted) <= REQUEST_CALL_BUDGET, len(counted)


def test_disabled_side_channels_stay_off_the_request_path(counted):
    side = [name for name in counted
            if any(channel in name for channel in SIDE_CHANNELS)]
    assert len(side) <= SIDE_CHANNEL_CALL_BUDGET, len(side)
