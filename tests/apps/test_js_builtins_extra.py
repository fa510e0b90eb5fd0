"""Extra Duktape-parity builtin tests: delete, Object/Array/JSON, ``new``,
``String.prototype.substring`` and ``parseFloat``."""

import math

import pytest

from repro.apps.js.engine import Engine
from repro.apps.js.interpreter import JsError
from repro.apps.js.lexer import JsSyntaxError


@pytest.fixture
def engine():
    return Engine()


class TestDelete:
    def test_delete_object_property(self, engine):
        assert engine.eval("""
            var o = {a: 1, b: 2};
            delete o.a;
            typeof o.a
        """) == "undefined"

    def test_delete_returns_true(self, engine):
        assert engine.eval("var o = {x: 1}; delete o.x") is True

    def test_delete_computed(self, engine):
        assert engine.eval("""
            var o = {k1: 'v'};
            var key = 'k1';
            delete o[key];
            'k1' in o
        """) is False

    def test_delete_array_leaves_hole(self, engine):
        assert engine.eval("""
            var a = [1, 2, 3];
            delete a[1];
            a.length + ':' + (typeof a[1])
        """) == "3:undefined"

    def test_delete_missing_is_fine(self, engine):
        assert engine.eval("var o = {}; delete o.ghost") is True

    def test_delete_non_member_rejected(self, engine):
        with pytest.raises(JsSyntaxError):
            engine.eval("var x = 1; delete x;")


class TestObjectArrayBuiltins:
    def test_object_keys(self, engine):
        assert engine.eval("Object.keys({a: 1, b: 2}).join(',')") == "a,b"

    def test_object_keys_empty(self, engine):
        assert engine.eval("Object.keys({}).length") == 0.0

    def test_array_is_array(self, engine):
        assert engine.eval("Array.isArray([1])") is True
        assert engine.eval("Array.isArray('nope')") is False
        assert engine.eval("Array.isArray({})") is False


class TestJsonStringify:
    @pytest.mark.parametrize("source,expected", [
        ("JSON.stringify(1)", "1"),
        ("JSON.stringify(1.5)", "1.5"),
        ("JSON.stringify('hi')", '"hi"'),
        ("JSON.stringify(true)", "true"),
        ("JSON.stringify(null)", "null"),
        ("JSON.stringify([1, 'a', false])", '[1,"a",false]'),
        ("JSON.stringify({a: 1, b: [2]})", '{"a":1,"b":[2]}'),
    ])
    def test_values(self, engine, source, expected):
        assert engine.eval(source) == expected

    def test_nested(self, engine):
        assert engine.eval(
            "JSON.stringify({user: {name: 'ada', tags: ['x']}})"
        ) == '{"user":{"name":"ada","tags":["x"]}}'

    def test_undefined_dropped_from_objects(self, engine):
        assert engine.eval("JSON.stringify({a: undefined, b: 1})") == '{"b":1}'

    def test_undefined_null_in_arrays(self, engine):
        assert engine.eval("JSON.stringify([undefined])") == "[null]"

    def test_string_escaping(self, engine):
        assert engine.eval(r"JSON.stringify('a\"b')") == '"a\\"b"'

    def test_top_level_undefined(self, engine):
        assert engine.eval("typeof JSON.stringify(undefined)") == "undefined"

    def test_output_parses_in_python(self, engine):
        import json

        out = engine.eval("JSON.stringify({nums: [1, 2.5], ok: true, s: 'x'})")
        assert json.loads(out) == {"nums": [1, 2.5], "ok": True, "s": "x"}


class TestNew:
    def test_constructor_sets_fields_on_fresh_object(self, engine):
        assert engine.eval("""
            function P(x, y) { this.x = x; this.y = y; }
            var p = new P(2, 3);
            p.x * 10 + p.y
        """) == 23

    def test_each_new_gets_its_own_instance(self, engine):
        assert engine.eval("""
            function K() { this.k = 1; }
            var k1 = new K();
            var k2 = new K();
            k1.k = 9;
            k2.k
        """) == 1

    def test_returned_object_replaces_instance(self, engine):
        assert engine.eval("""
            function F() { this.a = 1; return {b: 2}; }
            var f = new F();
            typeof f.a + ':' + f.b
        """) == "undefined:2"

    def test_returned_primitive_is_ignored(self, engine):
        assert engine.eval("""
            function G() { this.a = 1; return 5; }
            var g = new G();
            g.a
        """) == 1

    def test_without_argument_list(self, engine):
        assert engine.eval("""
            function N() { this.v = arguments.length + 4; }
            var n = new N;
            n.v
        """) == 4

    def test_non_function_rejected(self, engine):
        with pytest.raises(JsError, match="is not a function"):
            engine.eval("var o = 5; new o()")


class TestSubstring:
    @pytest.mark.parametrize("call, expected", [
        ("substring(1, 4)", "irt"),
        ("substring(4, 1)", "irt"),       # swapped bounds
        ("substring(3)", "tines"),        # to the end
        ("substring(-2, 3)", "vir"),      # negative clamps to 0
        ("substring(2, 100)", "rtines"),  # end clamps to the length
        ("substring()", "virtines"),
    ])
    def test_bounds(self, engine, call, expected):
        assert engine.eval(f"'virtines'.{call}") == expected


class TestParseFloat:
    @pytest.mark.parametrize("source, expected", [
        ("parseFloat('3.25')", 3.25),
        ("parseFloat('  -0.5 ')", -0.5),
        ("parseFloat('1e3')", 1000),
        ("parseFloat(7)", 7),
    ])
    def test_numbers(self, engine, source, expected):
        assert engine.eval(source) == expected

    @pytest.mark.parametrize("text", ["'abc'", "''"])
    def test_non_numbers_are_nan(self, engine, text):
        assert math.isnan(engine.eval(f"parseFloat({text})"))
        assert engine.eval(f"isNaN(parseFloat({text}))") is True
