"""Engine lifecycle tests: costs, bindings, teardown, snapshot safety."""

import copy

import pytest

from repro.apps.js.engine import (
    BINDINGS_COST,
    CTX_ALLOC_COST,
    CTX_FREE_COST,
    Engine,
    EngineDestroyed,
)
from repro.hw.clock import Clock


class TestLifecycleCosts:
    def test_allocation_charges(self):
        clock = Clock()
        Engine(charge=clock.advance)
        assert clock.cycles >= CTX_ALLOC_COST

    def test_eval_charges_parse(self):
        clock = Clock()
        engine = Engine(charge=clock.advance)
        after_alloc = clock.cycles
        engine.eval("var a = 1 + 2;")
        assert clock.cycles > after_alloc

    def test_destroy_charges_teardown(self):
        clock = Clock()
        engine = Engine(charge=clock.advance)
        before = clock.cycles
        engine.destroy()
        assert clock.cycles - before == CTX_FREE_COST

    def test_use_after_destroy_raises(self):
        engine = Engine()
        engine.destroy()
        with pytest.raises(EngineDestroyed):
            engine.eval("1")
        with pytest.raises(EngineDestroyed):
            engine.destroy()

    def test_bindings_charged_once(self):
        clock = Clock()
        engine = Engine(charge=clock.advance)
        before = clock.cycles
        engine.bind("f", lambda: 1, charge_bindings=True)
        engine.bind("g", lambda: 2, charge_bindings=True)
        assert clock.cycles - before == BINDINGS_COST

    def test_no_charge_callback_is_free(self):
        engine = Engine()
        engine.eval("var x = [1,2,3].join('')")
        engine.destroy()  # must not explode without a callback


class TestBindings:
    def test_native_call(self):
        engine = Engine()
        engine.bind("add", lambda a, b: a + b)
        assert engine.eval("add(2, 3)") == 5.0

    def test_binding_overwrite(self):
        engine = Engine()
        engine.bind("f", lambda: 1.0)
        engine.bind("f", lambda: 2.0)
        assert engine.eval("f()") == 2.0

    def test_call_by_name(self):
        engine = Engine()
        engine.eval("function triple(x) { return x * 3; }")
        assert engine.call("triple", 4.0) == 12.0


class TestDeepCopySnapshotSafety:
    def test_heap_state_copied(self):
        engine = Engine()
        engine.eval("var counter = 10; function bump() { counter++; return counter; }")
        clone = copy.deepcopy(engine)
        assert clone.eval("counter") == 10.0

    def test_copies_are_independent(self):
        engine = Engine()
        engine.eval("var n = 0; function bump() { n++; return n; }")
        clone = copy.deepcopy(engine)
        engine.call("bump")
        engine.call("bump")
        assert clone.call("bump") == 1.0  # unaffected by the original

    def test_closures_rebind_to_cloned_globals(self):
        """Functions in the copied heap must see the copied globals."""
        engine = Engine()
        engine.eval("var g = 'orig'; function read() { return g; }")
        clone = copy.deepcopy(engine)
        clone.eval("g = 'cloned'")
        assert clone.call("read") == "cloned"
        assert engine.call("read") == "orig"

    def test_native_bindings_dropped_on_copy(self):
        """Host function pointers cannot travel in a snapshot; the client
        must re-bind them after restore (Section 6.5's design)."""
        engine = Engine()
        engine.bind("host_fn", lambda: "host")
        clone = copy.deepcopy(engine)
        from repro.apps.js.interpreter import JsError

        with pytest.raises(JsError, match="host_fn"):
            clone.eval("host_fn()")
        clone.bind("host_fn", lambda: "rebound")
        assert clone.eval("host_fn()") == "rebound"

    def test_charge_callback_dropped_on_copy(self):
        clock = Clock()
        engine = Engine(charge=clock.advance)
        clone = copy.deepcopy(engine)
        before = clock.cycles
        clone.eval("1 + 1")
        assert clock.cycles == before  # clone charges nothing until re-attached
        clone.set_charge_callback(clock.advance)
        clone.eval("1 + 1")
        assert clock.cycles > before

    def test_builtin_objects_survive_copy(self):
        engine = Engine()
        clone = copy.deepcopy(engine)
        assert clone.eval("Math.floor(2.5)") == 2.0
        assert clone.eval("String.fromCharCode(65)") == "A"
