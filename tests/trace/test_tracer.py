"""Tracer core: nesting, the span-tree invariant, and the no-op path."""

import pytest

from repro.hw.clock import Clock
from repro.hw.cpu import Mode
from repro.runtime.image import ImageBuilder
from repro.trace import NO_TRACE, OTHER, Category, NullTracer, Tracer
from repro.wasp import Wasp


def assert_span_tree_invariant(span):
    """Every interior span's children sum exactly to the parent."""
    if span.children:
        assert span.child_cycles == span.cycles, (
            f"{span.name}: children cover {span.child_cycles} "
            f"of {span.cycles} cycles"
        )
        for child in span.children:
            assert span.begin <= child.begin
            assert child.end <= span.end
            assert_span_tree_invariant(child)


class TestSpans:
    def test_nesting_and_parent_links(self):
        clock = Clock()
        tracer = Tracer(clock)
        outer = tracer.begin("outer", Category.LAUNCH)
        clock.advance(10)
        inner = tracer.begin("inner", Category.GUEST)
        clock.advance(5)
        tracer.end(inner)
        tracer.end(outer)
        assert tracer.roots == [outer]
        assert inner in outer.children
        assert inner.parent == outer.sid
        assert outer.cycles == 15
        assert inner.cycles == 5

    def test_gap_becomes_explicit_other_leaf(self):
        clock = Clock()
        tracer = Tracer(clock)
        outer = tracer.begin("outer", Category.LAUNCH)
        clock.advance(10)
        with tracer.span("child", Category.GUEST):
            clock.advance(5)
        clock.advance(3)
        tracer.end(outer)
        names = [c.name for c in outer.children]
        assert names == ["child", OTHER]
        other = outer.children[-1]
        assert other.cycles == 13  # the leading 10 + the trailing 3
        assert other.category is Category.OTHER
        assert_span_tree_invariant(outer)

    def test_no_other_when_children_cover_everything(self):
        clock = Clock()
        tracer = Tracer(clock)
        outer = tracer.begin("outer", Category.LAUNCH)
        with tracer.span("child", Category.GUEST):
            clock.advance(5)
        tracer.end(outer)
        assert [c.name for c in outer.children] == ["child"]
        assert_span_tree_invariant(outer)

    def test_leaf_span_gets_no_synthesized_child(self):
        clock = Clock()
        tracer = Tracer(clock)
        span = tracer.begin("leaf", Category.GUEST)
        clock.advance(7)
        tracer.end(span)
        assert span.children == []

    def test_end_validates_innermost(self):
        clock = Clock()
        tracer = Tracer(clock)
        outer = tracer.begin("outer", Category.LAUNCH)
        tracer.begin("inner", Category.GUEST)
        with pytest.raises(ValueError, match="innermost"):
            tracer.end(outer)
        assert tracer.open_depth == 2  # the mismatch did not pop anything

    def test_end_without_open_span_raises(self):
        tracer = Tracer(Clock())
        with pytest.raises(ValueError, match="no open span"):
            tracer.end()

    def test_unbound_tracer_raises_on_use(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="not bound"):
            tracer.begin("x", Category.GUEST)

    def test_rebinding_to_a_different_clock_raises(self):
        tracer = Tracer(Clock())
        with pytest.raises(ValueError, match="already bound"):
            tracer.bind(Clock())

    def test_span_context_annotates_error(self):
        clock = Clock()
        tracer = Tracer(clock)
        with pytest.raises(RuntimeError):
            with tracer.span("doomed", Category.GUEST):
                clock.advance(1)
                raise RuntimeError("boom")
        (root,) = tracer.roots
        assert root.args["error"] == "RuntimeError"
        assert tracer.open_depth == 0

    def test_component_records_retroactive_leaf(self):
        clock = Clock()
        tracer = Tracer(clock)
        outer = tracer.begin("outer", Category.LAUNCH)
        clock.advance(100)
        tracer.component("charge", 40, Category.GUEST)
        tracer.end(outer)
        (charge, other) = outer.children
        assert (charge.begin, charge.end) == (60, 100)
        assert other.name == OTHER and other.cycles == 60

    def test_instants_attach_to_current_span(self):
        clock = Clock()
        tracer = Tracer(clock)
        tracer.instant("orphan", Category.OTHER)
        span = tracer.begin("outer", Category.LAUNCH)
        clock.advance(3)
        tracer.instant("mark", Category.GUEST, detail=7)
        tracer.end(span)
        assert [e.name for e in tracer.orphan_events] == ["orphan"]
        assert [e.name for e in span.events] == ["mark"]
        assert span.events[0].cycles == 3
        assert [e.name for e in tracer.all_events()] == ["orphan", "mark"]


class TestLaunchTrees:
    def test_launch_span_tree_invariant_and_cycle_equality(self):
        wasp = Wasp(tracer=True)
        image = ImageBuilder().minimal(Mode.LONG64)
        cold = wasp.launch(image, use_snapshot=False)
        warm = wasp.launch(image, use_snapshot=False)
        roots = wasp.tracer.launches()
        assert len(roots) == 2
        for root, result in zip(roots, (cold, warm)):
            # The root covers the whole measured launch, exactly.
            assert root.cycles == result.cycles
            assert_span_tree_invariant(root)
        assert wasp.tracer.open_depth == 0

    def test_launch_phases_present(self):
        wasp = Wasp(tracer=True)
        image = ImageBuilder().minimal(Mode.LONG64)
        wasp.launch(image, use_snapshot=False)
        root = wasp.tracer.launches()[0]
        names = {span.name for span in root.walk()}
        assert {"pool.acquire", "image.install", "KVM_RUN", "vmrun",
                "pool.release"} <= names

    def test_crashed_launch_annotated_and_quarantined(self):
        from repro.wasp.virtine import VirtineCrash

        wasp = Wasp(tracer=True)

        def entry(env):
            raise ValueError("guest bug")

        image = ImageBuilder().hosted("crasher", entry)
        with pytest.raises(VirtineCrash):
            wasp.launch(image, use_snapshot=False)
        (root,) = wasp.tracer.launches()
        assert root.args["error"] == "GuestFault"
        assert "pool.quarantine" in {s.name for s in root.walk()}
        assert_span_tree_invariant(root)
        assert wasp.tracer.open_depth == 0

    def test_traced_run_adds_zero_simulated_cycles(self):
        def final_cycles(trace: bool) -> int:
            wasp = Wasp(tracer=trace)
            image = ImageBuilder().minimal(Mode.LONG64)
            wasp.launch(image, use_snapshot=False)
            wasp.launch(image, use_snapshot=False)
            return wasp.clock.cycles

        assert final_cycles(True) == final_cycles(False)


class TestNullTracer:
    def test_disabled_by_default(self):
        wasp = Wasp()
        assert wasp.tracer is NO_TRACE
        assert not wasp.tracer.enabled

    def test_noop_surface(self):
        tracer = NullTracer()
        span = tracer.begin("x", Category.GUEST)
        span.annotate(ignored=True)
        tracer.instant("x")
        tracer.component("x", 10)
        tracer.end(span)
        with tracer.span("y", Category.GUEST) as inner:
            inner.annotate(ignored=True)
        assert tracer.roots == []
        assert tracer.all_events() == []
        assert tracer.bind(Clock()) is tracer
        assert tracer.clock is None  # bind is a no-op too

    def test_disabled_launch_records_nothing(self):
        wasp = Wasp()
        image = ImageBuilder().minimal(Mode.LONG64)
        wasp.launch(image, use_snapshot=False)
        assert wasp.tracer.roots == []
        assert wasp.tracer.open_depth == 0
