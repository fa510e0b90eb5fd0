"""The hosted hypercall boundary, pinned byte for byte on every backend.

One hosted image issues an allowed call, a handler error, a call under
an armed ``GUEST_STALL`` fault and a denied call; two more launches run
the stall into a cycle deadline and into a watchdog.  Each launch runs
with a real tracer, telemetry and boundary recorder, and the test pins
what every side channel saw: the Chrome trace, the telemetry snapshot
signature, the boundary-stream signature, the audit log and the final
cycle count.  Any reordering or re-valuing of a hook, charge, policy
check or audit record on the shared hypercall path moves one of them.
The same launches with one side channel on at a time must run as with
none on, and that channel must record what it records with all on.
"""

import hashlib

import pytest

from repro.faults import FaultPlan, FaultSite
from repro.host.backend import BACKEND_NAMES, create_host
from repro.replay.stream import InterfaceRecorder
from repro.runtime.image import ImageBuilder
from repro.telemetry.snapshot import TelemetrySnapshot
from repro.trace import Tracer
from repro.trace.export import to_chrome_json
from repro.wasp.admission import Watchdog
from repro.wasp.hypercall import Hypercall, HypercallDenied, HypercallError
from repro.wasp.hypervisor import GUEST_STALL_CYCLES
from repro.wasp.policy import BitmaskPolicy, VirtineConfig
from repro.wasp.virtine import VirtineCrash

#: A fixed seed, not ``REPRO_SEED``: the container's seccomp chain
#: layout is seeded, and the pinned values below are for this one.
SEED = 1234

#: GUEST_STALL draws are per hosted hypercall across the whole run:
#: launch 1 stalls its third call, launches 2 and 3 their second.
STALLED_CALLS = {3, 6, 8}


def _mixed(env):
    env.hypercall(Hypercall.STAT, "/public/data.txt")
    try:
        env.hypercall(Hypercall.OPEN, "/secret/key.pem")
    except HypercallError:
        pass
    env.hypercall(Hypercall.STAT, "/public/data.txt")
    try:
        env.hypercall(Hypercall.SEND, 0, b"x")
    except HypercallDenied:
        pass
    env.exit(7)


def _stalls(env):
    env.hypercall(Hypercall.STAT, "/public/data.txt")
    env.hypercall(Hypercall.STAT, "/public/data.txt")
    return "unreachable"


def _launch(host, image, **kwargs):
    try:
        result = host.launch(
            image,
            policy=BitmaskPolicy(VirtineConfig.allowing(Hypercall.STAT,
                                                        Hypercall.OPEN)),
            allowed_paths=("/public/",),
            **kwargs,
        )
    except VirtineCrash as crash:
        return [type(crash).__name__, str(crash)]
    return ["ok", result.exit_code, result.cycles]


def _run(backend_name, *, tracing=True, counting=True, recording=True):
    """Run the three launches on ``backend_name`` with the chosen side
    channels on; returns what the launches did and, per enabled channel,
    what it recorded (the Chrome trace without counter tracks, the
    telemetry snapshot signature, the boundary-stream signature)."""
    recorder = InterfaceRecorder() if recording else None
    plan = FaultPlan(seed=SEED).fail(FaultSite.GUEST_STALL, on=STALLED_CALLS)
    kwargs = {"recorder": recorder} if recording and backend_name == "kvm" else {}
    host = create_host(backend_name, seed=SEED, fault_plan=plan,
                       tracer=Tracer() if tracing else None,
                       telemetry=counting, **kwargs)
    if recording:
        host.recorder = recorder
    host.kernel.fs.add_file("/public/data.txt", b"public")
    host.kernel.fs.add_file("/secret/key.pem", b"PRIVATE KEY")

    audits = []
    # The audit log of a crashed launch is not returned; record each
    # launch's through the policy-gated virtine instead.
    original = host._make_virtine

    def capture_audit(*args):
        virtine = original(*args)
        audits.append(virtine.audit)
        return virtine

    host._make_virtine = capture_audit
    outcomes = [
        _launch(host, ImageBuilder().hosted("mixed", _mixed)),
        _launch(host, ImageBuilder().hosted("deadline", _stalls),
                deadline_cycles=GUEST_STALL_CYCLES // 2),
    ]
    Watchdog(host)
    outcomes.append(_launch(host, ImageBuilder().hosted("watchdog", _stalls)))

    run = {
        "outcomes": outcomes,
        "audit": [[[r.nr.name, r.allowed, r.detail] for r in audit.records]
                  for audit in audits],
        "cycles": host.clock.cycles,
        "faults": [list(event) for event in plan.signature()],
    }
    if tracing:
        run["chrome"] = to_chrome_json(host.tracer)
        if counting:
            run["chrome_counters"] = to_chrome_json(host.tracer, host.telemetry)
    if counting:
        run["telemetry"] = TelemetrySnapshot.capture(host.telemetry).signature()
    if recording:
        run["stream"] = recorder.finish(
            "boundary", {"backend": backend_name}, {}).signature()
    return run


def run_boundary(backend_name):
    """Run the three launches on ``backend_name`` with every side channel
    on; returns what each side channel recorded."""
    run = _run(backend_name)
    return {
        "outcomes": run["outcomes"],
        "audit": run["audit"],
        "chrome_sha256": hashlib.sha256(run["chrome_counters"].encode()).hexdigest(),
        "telemetry": run["telemetry"],
        "stream": run["stream"],
        "cycles": run["cycles"],
        "faults": run["faults"],
    }


_MIXED_AUDIT = [["STAT", True, ""], ["OPEN", True, ""], ["STAT", True, ""],
                ["SEND", False, ""], ["EXIT", True, ""]]
_STALL_AUDIT = [["STAT", True, ""]]
#: The container's seccomp filter kills the sandbox on the denied SEND,
#: so its first launch never reaches EXIT.
AUDIT = {name: [_MIXED_AUDIT, _STALL_AUDIT, _STALL_AUDIT]
         for name in BACKEND_NAMES}
AUDIT["container"] = [_MIXED_AUDIT[:-1], _STALL_AUDIT, _STALL_AUDIT]


def _timeouts(deadline_consumed, silence):
    return [
        ["VirtineTimeout", "virtine 'deadline' exceeded its cycle deadline "
                           f"({deadline_consumed} cycles consumed)"],
        ["VirtineHang", f"virtine 'watchdog' made no progress for {silence} "
                        "cycles (threshold 4,035,000)"],
    ]


EXPECTED = {
    "kvm": {
        "outcomes": [["ok", 7, 13_813_308],
                     *_timeouts("13,482,641", "13,456,000")],
        "chrome_sha256": "6480fbddd596383cdf97567488d290d31a2e8086e4aa9dd7c7b6333697ef4076",
        "telemetry": "2cef946a27aba5b2430e977b1cf62f70cd42e63d231af83cf0f46862757306fe",
        "stream": "75491c017036d801a8bd845a86be60231cb3d1acb88b0805a573c4b200c8f3bf",
        "cycles": 40_801_852,
    },
    "sud": {
        "outcomes": [["ok", 7, 13_497_316],
                     *_timeouts("13,467,874", "13,460,162")],
        "chrome_sha256": "af551cf23abc9d55440aa05feda7bbdf821ad4bfc214c50f5fe9503a12c04add",
        "telemetry": "2c378d87852b5f40e049ecc000ceddc2861c2655813bd09a8f9ae77040eefd92",
        "stream": "8fa397580cd4bae6325c555292f3519c8c2cb986b05028c3cd5ec7718f171900",
        "cycles": 40_440_264,
    },
    "container": {
        "outcomes": [["PolicyKill", "virtine 'mixed' killed: seccomp killed "
                                    "the sandbox: SEND disallowed"],
                     *_timeouts("13,485,588", "13,466,286")],
        "chrome_sha256": "4f55933ed3fbd8cd98502ce108621508bf9f5b0b1517364eed61977e09b9a966",
        "telemetry": "46a7394acda1490532ad036eb080d53f783dc8ca3476afad56f42a560ece8e3d",
        "stream": "ed8523d499330265a7e18fddce06a811ca1123ec30d7c27315d6deee70e089da",
        "cycles": 51_553_611,
    },
    "process": {
        "outcomes": [["ok", 7, 16_239_141],
                     *_timeouts("13,480,500", "13,465,900")],
        "chrome_sha256": "e7d04c774667884cf16c9e6a7a19f7ad43c5008507b7143735d39521b073efd0",
        "telemetry": "b207cf3566e2b2267816e63ea7ef3a25300f5007230d79387d30289a30060725",
        "stream": "decd660746f64980975f7b2be9cd47123b267da3eb5db7f4cf41cd498f16bd20",
        "cycles": 46_568_343,
    },
    "thread": {
        "outcomes": [["ok", 7, 13_479_990],
                     *_timeouts("13,451,420", "13,451,360")],
        "chrome_sha256": "7043ad60892d9542c23f4875eb4b928a81e292f1008d64b25a555a32e31effe2",
        "telemetry": "cb72fc5d04977ca76aa33317663db371fa8a2290770842ae5af864634dbf88b4",
        "stream": "927cfbce64b6c5962390e06e45c300979430c564b280960cda11cd51825861d7",
        "cycles": 40_436_950,
    },
}
for _name in BACKEND_NAMES:
    EXPECTED[_name]["audit"] = AUDIT[_name]
    EXPECTED[_name]["faults"] = [["guest_stall", n] for n in sorted(STALLED_CALLS)]


@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
def test_boundary_pinned(backend_name):
    assert run_boundary(backend_name) == EXPECTED[backend_name]


#: Each side channel alone: the keyword of :func:`_run` that stays on
#: and the key of what that channel records.
ALONE = {"tracing": "chrome", "counting": "telemetry", "recording": "stream"}


@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
def test_each_side_channel_alone_matches_all_on(backend_name):
    """With only one side channel on, the launches are those of the
    all-off run, and the channel records exactly what it records with
    every channel on -- so a site that skips a disabled sink never skips
    an enabled one, and no channel's output depends on another's."""
    off = _run(backend_name, tracing=False, counting=False, recording=False)
    assert set(off) == {"outcomes", "audit", "cycles", "faults"}
    on = _run(backend_name)
    for channel, key in ALONE.items():
        only = _run(backend_name, **{name: name == channel for name in ALONE})
        assert {k: v for k, v in only.items() if k != key} == off, channel
        assert only[key] == on[key], channel
