"""Chrome trace-event export: structure, determinism, text timeline."""

import json

import pytest

from repro.hw.clock import Clock
from repro.hw.cpu import Mode
from repro.runtime.image import ImageBuilder
from repro.trace import (
    Category,
    Tracer,
    render_timeline,
    to_chrome_json,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.wasp import Wasp


def small_trace() -> Tracer:
    clock = Clock()
    tracer = Tracer(clock)
    with tracer.span("root", Category.LAUNCH, image="img"):
        clock.advance(10)
        with tracer.span("child", Category.GUEST):
            clock.advance(5)
            tracer.instant("mark", Category.GUEST, detail="x")
    return tracer


class TestChromeTrace:
    def test_structure_validates(self):
        obj = to_chrome_trace(small_trace())
        assert validate_chrome_trace(obj) == len(obj["traceEvents"])
        assert obj["otherData"]["clock_domain"] == "simulated-cycles"

    def test_span_events_carry_ts_dur_and_lineage(self):
        obj = to_chrome_trace(small_trace())
        complete = [e for e in obj["traceEvents"] if e["ph"] == "X"]
        by_name = {e["name"]: e for e in complete}
        root, child = by_name["root"], by_name["child"]
        assert (root["ts"], root["dur"]) == (0, 15)
        assert (child["ts"], child["dur"]) == (10, 5)
        assert child["args"]["parent"] == root["args"]["sid"]
        assert root["args"]["image"] == "img"

    def test_instants_present(self):
        obj = to_chrome_trace(small_trace())
        (mark,) = [e for e in obj["traceEvents"] if e["ph"] == "i"]
        assert mark["name"] == "mark"
        assert mark["ts"] == 15
        assert mark["args"]["detail"] == "x"

    def test_non_primitive_annotations_stringified(self):
        clock = Clock()
        tracer = Tracer(clock)
        with tracer.span("root", Category.LAUNCH, obj=(1, 2)):
            clock.advance(1)
        obj = to_chrome_trace(tracer)
        (root,) = [e for e in obj["traceEvents"] if e["ph"] == "X"]
        assert root["args"]["obj"] == "(1, 2)"
        json.dumps(obj)  # must be serializable as-is

    def test_launch_export_is_byte_identical_across_runs(self):
        def run() -> str:
            wasp = Wasp(tracer=True)
            image = ImageBuilder().minimal(Mode.LONG64)
            wasp.launch(image, use_snapshot=False)
            wasp.launch(image, use_snapshot=False)
            return to_chrome_json(wasp.tracer)

        first, second = run(), run()
        assert first == second
        assert first.endswith("\n")
        validate_chrome_trace(json.loads(first))


class TestValidator:
    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_chrome_trace([])

    def test_rejects_empty_events(self):
        with pytest.raises(ValueError, match="non-empty"):
            validate_chrome_trace({"traceEvents": []})

    def test_rejects_unknown_phase(self):
        with pytest.raises(ValueError, match="phase"):
            validate_chrome_trace({"traceEvents": [
                {"name": "x", "ph": "Z", "pid": 1}]})

    def test_rejects_missing_name(self):
        with pytest.raises(ValueError, match="name"):
            validate_chrome_trace({"traceEvents": [{"ph": "X", "pid": 1}]})

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="dur"):
            validate_chrome_trace({"traceEvents": [
                {"name": "x", "ph": "X", "pid": 1, "ts": 0, "cat": "c",
                 "dur": -1}]})

    def test_rejects_missing_ts(self):
        with pytest.raises(ValueError, match="ts"):
            validate_chrome_trace({"traceEvents": [
                {"name": "x", "ph": "i", "pid": 1, "cat": "c"}]})


class TestTimeline:
    def test_renders_relative_cycles_and_annotations(self):
        tracer = small_trace()
        text = render_timeline(tracer.roots[0])
        lines = text.splitlines()
        assert "root" in lines[0] and "image=img" in lines[0]
        assert any("child" in line for line in lines)
        assert any("* mark" in line for line in lines)
        # Indentation mirrors tree depth.
        child_line = next(line for line in lines if "child" in line)
        assert child_line.startswith("  ")

    def test_launch_timeline_starts_at_zero(self):
        wasp = Wasp(tracer=True)
        image = ImageBuilder().minimal(Mode.LONG64)
        wasp.launch(image, use_snapshot=False)
        wasp.launch(image, use_snapshot=False)
        second = wasp.tracer.launches()[1]
        assert second.begin > 0
        text = render_timeline(second)
        assert text.splitlines()[0].startswith("[         0 ")
