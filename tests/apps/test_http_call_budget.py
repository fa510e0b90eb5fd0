"""Host-call budget of one warm supervised static-file request.

The static HTTP server (Section 6.3, Figure 13) crosses the virtine
boundary seven times per request.  With every side channel off (no
tracer, telemetry, boundary recorder or armed fault plan), each layer of
that path -- ``GuestEnv`` -> ``HostedPlane`` -> the canned handlers ->
``HostKernel``, plus the supervisor, the shell pool and the vCPU --
tests a sink's ``enabled`` attribute instead of calling its null object.
These tests count Python-level calls (``sys.setprofile`` "call" events)
over one warm request, in all and into the side-channel packages, and
the enum-member reads off their classes, which ``sys.setprofile`` cannot
see, so the path cannot get dearer in host work unnoticed.  The counts
are deterministic for a fixed CPython minor version.
"""

import enum
import gc
import sys

import pytest

from repro.apps.http.client import RequestGenerator
from repro.apps.http.server import StaticHttpServer
from repro.wasp import Supervisor, Wasp

#: ``call`` events one warm request may make, set to the count when the
#: budget was set (192; the path made 462 while every site still called
#: the disabled sinks' null objects, 271 while every install reset the
#: vCPU a second time and milestones were objects, 253 while every
#: launch looked up its pool bucket, an absent snapshot and the program
#: entry again, and 246 while every charge called ``Clock.advance`` and
#: every fault site drew from the unarmed plan).
REQUEST_CALL_BUDGET = 192
#: ``call`` events into the tracer, telemetry, boundary-recorder and
#: fault-injection packages: 0 when the budget was set (103 before the
#: first three tested ``enabled``, 12 before the fault plan did).
SIDE_CHANNEL_CALL_BUDGET = 0
SIDE_CHANNELS = ("repro/trace/", "repro/telemetry/", "repro/replay/",
                 "repro/faults/")
#: Enum-member reads off their classes (``FaultSite.VCPU_RUN``) one warm
#: request may make.  Each runs the enum metaclass's ``__getattr__``
#: hook, about ten times the cost of a module global on CPython 3.11, so
#: hot sites bind the members they test once, at module level.  Set to
#: the count when the budget was set (0; 22 before the hot sites bound
#: their members).
REQUEST_ENUM_READ_BUDGET = 0


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


def _count_enum_reads(request):
    """Run ``request`` counting the attribute reads off an enum class
    that return one of its members."""
    reads = 0
    getattribute = enum.EnumType.__getattribute__

    def counting(cls, name):
        nonlocal reads
        value = getattribute(cls, name)
        if isinstance(value, enum.Enum):
            reads += 1
        return value

    enum.EnumType.__getattribute__ = counting
    try:
        outcome = request()
    finally:
        enum.EnumType.__getattribute__ = getattribute
    return outcome, reads


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


def warm_request_counts():
    """``(calls, enum reads)`` of two warm requests, one counted each
    way: the file names of the first's ``call`` events, and the second's
    enum-member read count.  Needs ``REPRO_JIT_THRESHOLD=4``, so that
    the warm-up replays the boot."""
    wasp, client, body = _warm_request()
    [cache] = wasp.kvm.jit_domain.images()
    counts = []
    for count in (_count_calls, _count_enum_reads):
        replays = cache.replays
        outcome, counted = count(client.one_request)
        assert cache.replays == replays + 1
        assert outcome.response.status == 200
        assert outcome.response.body == body
        counts.append(counted)
    calls, reads = counts
    return [name.replace("\\", "/") for name in calls], reads


@pytest.fixture(scope="module")
def counted():
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_JIT_THRESHOLD", "4")
        return warm_request_counts()


def test_warm_request_stays_within_its_call_budget(counted):
    calls, _ = counted
    assert len(calls) <= REQUEST_CALL_BUDGET, len(calls)


def test_disabled_side_channels_stay_off_the_request_path(counted):
    calls, _ = counted
    side = [name for name in calls
            if any(channel in name for channel in SIDE_CHANNELS)]
    assert len(side) <= SIDE_CHANNEL_CALL_BUDGET, side


def test_warm_request_stays_within_its_enum_read_budget(counted):
    _, reads = counted
    assert reads <= REQUEST_ENUM_READ_BUDGET, reads


def test_enum_read_counter_sees_a_member_read():
    """The counter sees a read off the class, not one through a global."""
    from repro.faults import FaultSite

    assert _count_enum_reads(lambda: FaultSite.VCPU_RUN) == (
        FaultSite.VCPU_RUN, 1)
    bound = FaultSite.VCPU_RUN
    assert _count_enum_reads(lambda: bound) == (bound, 0)
