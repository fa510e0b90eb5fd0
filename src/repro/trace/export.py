"""Trace export: Chrome ``trace_event`` JSON and a text timeline.

The JSON form follows the Trace Event Format (the ``traceEvents`` array
of ``ph: "X"`` complete events and ``ph: "i"`` instants) and loads
directly in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
Timestamps are **simulated cycles**, not microseconds -- the viewer's
time axis reads in cycles (recorded in ``otherData.clock_domain``).

Byte-for-byte determinism contract: ``to_chrome_json`` sorts keys,
fixes separators, and contains nothing derived from wall-clock time or
object identity, so the same seed + workload yields an identical file.
"""

from __future__ import annotations

import json

from repro.trace.tracer import Event, Span, Tracer

#: ``pid``/``tid`` used for every event: the simulation is one process,
#: one logical thread of simulated time.
SIM_PID = 1
SIM_TID = 1


def _args_json(args: dict) -> dict:
    """Annotation dict -> JSON-safe dict (values stringified, keys sorted)."""
    safe = {}
    for key in sorted(args):
        value = args[key]
        if isinstance(value, (bool, int, float, str)) or value is None:
            safe[key] = value
        else:
            safe[key] = str(value)
    return safe


def _span_event(span: Span, tid: int = SIM_TID) -> dict:
    event = {
        "name": span.name,
        "cat": span.category.value,
        "ph": "X",
        "ts": span.begin,
        "dur": span.cycles,
        "pid": SIM_PID,
        "tid": tid,
    }
    args = _args_json(span.args)
    args["sid"] = span.sid
    if span.parent is not None:
        args["parent"] = span.parent
    event["args"] = args
    return event


def _instant_event(event: Event, tid: int = SIM_TID) -> dict:
    return {
        "name": event.name,
        "cat": event.category.value,
        "ph": "i",
        "ts": event.cycles,
        "s": "t",
        "pid": SIM_PID,
        "tid": tid,
        "args": _args_json(event.args),
    }


def _tracer_events(tracer: Tracer, tid: int, thread_name: str) -> list[dict]:
    """One tracer's events on one ``tid``-keyed timeline row."""
    events: list[dict] = [
        {"name": "thread_name", "ph": "M", "pid": SIM_PID, "tid": tid,
         "args": {"name": thread_name}},
    ]
    spans = sorted(tracer.walk(), key=lambda s: (s.begin, s.sid))
    events.extend(_span_event(span, tid) for span in spans)
    events.extend(_instant_event(e, tid) for e in tracer.all_events())
    return events


def _trace_object(events: list[dict]) -> dict:
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "clock_domain": "simulated-cycles",
            "source": "repro.trace",
        },
    }


def _telemetry_counter_events(telemetry) -> list[dict]:
    """Perfetto ``ph: "C"`` counter tracks for the given registries.

    ``telemetry`` is one registry or a list of them; disabled (no-op)
    registries contribute nothing, so passing ``NO_TELEMETRY`` keeps the
    trace byte-identical to a telemetry-free run.
    """
    from repro.telemetry.export import counter_events
    if telemetry is None:
        return []
    registries = telemetry if isinstance(telemetry, (list, tuple)) \
        else [telemetry]
    return counter_events(registries, pid=SIM_PID)


def to_chrome_trace(tracer: Tracer, telemetry=None) -> dict:
    """Render a finished tracer as a Trace Event Format object.

    ``telemetry`` (a :class:`~repro.telemetry.registry.TelemetryRegistry`
    or list of them) merges counter tracks into the same timeline; the
    default ``None`` keeps the output byte-identical to earlier PRs.
    """
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": SIM_PID, "tid": SIM_TID,
         "args": {"name": "virtines-sim"}},
    ]
    events.extend(_tracer_events(tracer, SIM_TID, "simulated cycles"))
    events.extend(_telemetry_counter_events(telemetry))
    return _trace_object(events)


def to_chrome_json(tracer: Tracer, telemetry=None) -> str:
    """The byte-stable JSON serialization of :func:`to_chrome_trace`."""
    return json.dumps(to_chrome_trace(tracer, telemetry), sort_keys=True,
                      separators=(",", ":")) + "\n"


def cluster_chrome_trace(tracers: "list[Tracer] | tuple[Tracer, ...]",
                         telemetry=None) -> dict:
    """Merge per-core tracers into one trace: core *i* on ``tid`` i+1.

    Each core's spans land on their own named thread row ("core 0",
    "core 1", ...) of the single simulated process, so Perfetto renders
    the lockstep interleaving as a multi-track timeline.  Timestamps
    stay per-core simulated cycles (the lockstep scheduler keeps the
    cores within a quantum of each other, so the rows line up).
    Per-core telemetry registries (``telemetry``) add counter tracks on
    the matching ``tid`` rows.
    """
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": SIM_PID, "tid": SIM_TID,
         "args": {"name": "virtines-sim"}},
    ]
    for core, tracer in enumerate(tracers):
        events.extend(_tracer_events(tracer, core + 1, f"core {core}"))
    events.extend(_telemetry_counter_events(telemetry))
    return _trace_object(events)


def cluster_chrome_json(tracers: "list[Tracer] | tuple[Tracer, ...]",
                        telemetry=None) -> str:
    """Byte-stable serialization of :func:`cluster_chrome_trace`."""
    return json.dumps(cluster_chrome_trace(tracers, telemetry),
                      sort_keys=True, separators=(",", ":")) + "\n"


#: Phase letters the validator accepts (the subset this module emits;
#: "C" is the telemetry plane's Perfetto counter-track phase).
_VALID_PHASES = {"X", "i", "M", "C"}


def validate_chrome_trace(obj: object) -> int:
    """Check ``obj`` against the Trace Event Format; returns event count.

    A dependency-free structural validator (the CI trace-smoke step and
    the tests share it): top-level shape, required per-event fields, and
    the duration/timestamp sanity every ``ph: "X"`` event must satisfy.
    Raises :class:`ValueError` on the first violation.
    """
    if not isinstance(obj, dict):
        raise ValueError("trace must be a JSON object with 'traceEvents'")
    events = obj.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("'traceEvents' must be a non-empty array")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        phase = event.get("ph")
        if phase not in _VALID_PHASES:
            raise ValueError(f"traceEvents[{i}] has unknown phase {phase!r}")
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ValueError(f"traceEvents[{i}] lacks a name")
        if not isinstance(event.get("pid"), int):
            raise ValueError(f"traceEvents[{i}] lacks an integer pid")
        if phase == "M":
            continue
        if not isinstance(event.get("ts"), int) or event["ts"] < 0:
            raise ValueError(f"traceEvents[{i}] lacks a non-negative ts")
        if not isinstance(event.get("cat"), str):
            raise ValueError(f"traceEvents[{i}] lacks a category")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, int) or dur < 0:
                raise ValueError(f"traceEvents[{i}] lacks a non-negative dur")
    return len(events)


# ---------------------------------------------------------------------------
# Text timeline
# ---------------------------------------------------------------------------

def render_span(span: Span, origin: int | None = None, indent: int = 0) -> list[str]:
    """Render one span tree as indented timeline lines.

    Cycles are shown relative to ``origin`` (defaults to the span's own
    begin), so a launch timeline starts at 0 regardless of how much
    simulated time passed before it.
    """
    if origin is None:
        origin = span.begin
    pad = "  " * indent
    notes = " ".join(
        f"{key}={span.args[key]}" for key in sorted(span.args)
    )
    lines = [
        f"{pad}[{span.begin - origin:>10,} +{span.cycles:>9,}] "
        f"{span.name}" + (f"  ({notes})" if notes else "")
    ]
    marks = [(e.cycles, 1, e) for e in span.events]
    kids = [(c.begin, 0, c) for c in span.children]
    for _, _, item in sorted(marks + kids, key=lambda t: (t[0], t[1])):
        if isinstance(item, Span):
            lines.extend(render_span(item, origin, indent + 1))
        else:
            note = " ".join(f"{k}={item.args[k]}" for k in sorted(item.args))
            lines.append(
                f"{'  ' * (indent + 1)}[{item.cycles - origin:>10,}          ] "
                f"* {item.name}" + (f"  ({note})" if note else "")
            )
    return lines


def render_timeline(span: Span) -> str:
    """A launch's span tree as a one-screen indented timeline."""
    return "\n".join(render_span(span))
