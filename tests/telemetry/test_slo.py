"""SLO monitors: transition events, hysteresis, supervisor wiring."""

import pytest

from repro.hw.clock import Clock
from repro.telemetry import (
    DegradationEvent,
    DegradationKind,
    SLOMonitor,
    TelemetryRegistry,
)

DEADLINE = 1000


def monitor(**overrides) -> SLOMonitor:
    kwargs = dict(name="launch-p99", metric="launch_cycles",
                  deadline_cycles=DEADLINE, window=16, min_count=4)
    kwargs.update(overrides)
    return SLOMonitor(**kwargs)


class TestTransitions:
    def test_quiet_until_min_count(self):
        mon = monitor(min_count=8)
        for i in range(7):
            assert mon.observe(DEADLINE * 10, now=i) == []

    def test_p99_breach_fires_once_then_recovers(self):
        mon = monitor(burn_threshold=1.0)  # keep burn detector quiet
        events = []
        for i in range(8):
            events += mon.observe(DEADLINE * 4, now=i)
        kinds = [e.kind for e in events]
        assert kinds.count(DegradationKind.P99_BREACH) == 1
        assert mon.p99_breached
        # Flood with fast samples until the rolling p99 drops back.
        for i in range(mon.window):
            events += mon.observe(1, now=100 + i)
        kinds = [e.kind for e in events]
        assert kinds.count(DegradationKind.P99_RECOVERED) == 1
        assert not mon.p99_breached

    def test_burn_rate_alert_with_hysteresis(self):
        mon = monitor(window=8, burn_threshold=0.5, min_count=4)
        events = []
        for i in range(8):  # every sample over deadline: burn rate 1.0
            events += mon.observe(DEADLINE * 2, now=i)
        assert DegradationKind.BURN_RATE in [e.kind for e in events]
        assert mon.burn_alerting
        # Drop the rate just under the threshold: hysteresis holds the
        # alert (recovery needs < threshold/2).
        events = []
        for i in range(5):
            events += mon.observe(1, now=50 + i)
        assert mon.burn_alerting
        for i in range(3):
            events += mon.observe(1, now=60 + i)
        assert not mon.burn_alerting
        assert DegradationKind.BURN_RECOVERED in [e.kind for e in events]

    def test_event_payload(self):
        mon = monitor(min_count=1, window=4, burn_threshold=1.0)
        events = mon.observe(DEADLINE * 3, now=777)
        breach = [e for e in events
                  if e.kind is DegradationKind.P99_BREACH][0]
        assert isinstance(breach, DegradationEvent)
        assert breach.cycles == 777
        assert breach.threshold == DEADLINE
        assert breach.to_dict()["kind"] == "p99_breach"

    def test_validation(self):
        with pytest.raises(ValueError):
            monitor(deadline_cycles=0)
        with pytest.raises(ValueError):
            monitor(burn_threshold=0.0)


class TestRegistryWiring:
    def test_histogram_records_feed_monitors_and_sink(self):
        clock = Clock()
        reg = TelemetryRegistry(clock)
        reg.add_slo(monitor(min_count=1, window=4, burn_threshold=1.0))
        seen = []
        reg.degradation_sink = seen.append
        clock.advance(123)
        reg.histogram("launch_cycles", image="x").record(DEADLINE * 5)
        assert len(reg.events) >= 1
        assert seen == reg.events
        assert reg.events[0].cycles == 123

    def test_unwatched_metrics_emit_nothing(self):
        reg = TelemetryRegistry()
        reg.add_slo(monitor(min_count=1))
        reg.histogram("other_cycles").record(DEADLINE * 5)
        assert reg.events == []

    def test_monitor_state_in_snapshot_shape(self):
        mon = monitor(min_count=1, window=4)
        mon.observe(DEADLINE * 2, now=1)
        state = mon.state()
        assert state["observations"] == 1
        assert state["rolling_p99"] >= DEADLINE
        assert state["burn_rate"] == 1.0


class TestSupervisorDegradations:
    def test_breach_lands_in_supervisor_log_not_trace(self):
        from repro.runtime.image import ImageBuilder
        from repro.wasp import PermissivePolicy, Supervisor, Wasp

        wasp = Wasp(telemetry=True, tracer=True)
        wasp.telemetry.add_slo(SLOMonitor(
            name="launch-p99", metric="launch_cycles",
            deadline_cycles=1, window=8, min_count=2,
        ))
        supervisor = Supervisor(wasp)

        def entry(env):
            env.charge(10_000)
            return 0

        image = ImageBuilder().hosted("laggy-job", entry)
        for _ in range(4):
            supervisor.launch(image, policy=PermissivePolicy(),
                              use_snapshot=False)
        kinds = {e.kind for e in supervisor.degradations}
        assert DegradationKind.P99_BREACH in kinds
        # Degradations go to the supervisor log + flight recorder only;
        # the tracer never sees them (trace-byte equivalence contract).
        slo_entries = [e for e in wasp.telemetry.flight.dump()
                       if e["kind"] == "slo"]
        assert slo_entries
        assert not any("slo" in s.name for s in wasp.tracer.walk())
