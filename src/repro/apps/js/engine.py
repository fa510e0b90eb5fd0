"""The embeddable JavaScript engine (Duktape-analog API).

Mirrors the lifecycle the paper's baseline measures (Section 6.5):
"allocate a Duktape context, populate several native function bindings,
execute a function ..., and return the encoding to the caller after
tearing down (freeing) the JS engine."  Each lifecycle phase charges its
calibrated cost, so snapshotting (skip allocation) and no-teardown (skip
freeing) have real work to elide.

The engine is deep-copyable *except* for its charge callback and native
bindings -- exactly the state a memory snapshot could not meaningfully
capture (host-side function pointers must be re-bound after a restore,
as the virtine client does).
"""

from __future__ import annotations

import copy
import math
import re
from typing import Any, Callable

from repro.apps.js.interpreter import (
    Interpreter,
    JsError,
    Scope,
    UNDEFINED,
    number_to_string,
)
from repro.apps.js.lexer import JsSyntaxError
from repro.apps.js.parser import parse, token_count
from repro.units import us_to_cycles

__all__ = ["Engine", "JsError", "JsSyntaxError", "UNDEFINED"]

#: Context allocation: heap arenas, the global object, built-in objects.
CTX_ALLOC_COST = us_to_cycles(70.0)
#: Populating the client's native function bindings.
BINDINGS_COST = us_to_cycles(28.0)
#: Tearing down (freeing) the engine: heap walk + free.
CTX_FREE_COST = us_to_cycles(150.0)
#: Parse cost per token (lexer + parser work).
PARSE_PER_TOKEN = 26


class EngineDestroyed(Exception):
    """Use of an engine after :meth:`Engine.destroy`."""


def _build_globals() -> Scope:
    """The default global object: Math, String, Number, console-lite."""
    scope = Scope()
    scope.declare("Math", {
        "floor": lambda x: float(math.floor(x)),
        "ceil": lambda x: float(math.ceil(x)),
        "abs": lambda x: abs(x),
        "min": lambda *a: min(a) if a else math.inf,
        "max": lambda *a: max(a) if a else -math.inf,
        "pow": lambda a, b: float(a) ** float(b),
        "sqrt": lambda x: math.sqrt(x),
        "round": lambda x: float(math.floor(x + 0.5)),
        "PI": math.pi,
        "E": math.e,
    })
    scope.declare("String", {
        "fromCharCode": lambda *codes: "".join(chr(int(c)) for c in codes),
    })
    scope.declare("Number", {
        "MAX_SAFE_INTEGER": float(2**53 - 1),
        "isInteger": lambda x: isinstance(x, float) and x == int(x),
    })
    scope.declare("Object", {
        "keys": lambda o: list(o.keys()) if isinstance(o, dict) else [],
    })
    scope.declare("Array", {
        "isArray": lambda v: isinstance(v, list),
    })
    scope.declare("JSON", {
        "stringify": _json_stringify,
    })
    scope.declare("parseInt", _parse_int)
    scope.declare("parseFloat", _parse_float)
    scope.declare("isNaN", lambda x: isinstance(x, float) and math.isnan(x))
    scope.declare("NaN", math.nan)
    scope.declare("Infinity", math.inf)
    return scope


def _json_stringify(value: Any, *_ignored: Any) -> Any:
    """A JSON.stringify subset (no replacer/indent arguments)."""
    from repro.apps.js.interpreter import UNDEFINED as _UNDEF

    def encode(v: Any) -> str | None:
        if v is None:
            return "null"
        if v is _UNDEF or callable(v):
            return None
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            if math.isnan(v) or math.isinf(v):
                return "null"
            return number_to_string(v)
        if isinstance(v, str):
            escaped = v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
            return f'"{escaped}"'
        if isinstance(v, list):
            return "[" + ",".join(encode(item) or "null" for item in v) + "]"
        if isinstance(v, dict):
            parts = []
            for key, item in v.items():
                encoded = encode(item)
                if encoded is not None:
                    parts.append(f'"{key}":{encoded}')
            return "{" + ",".join(parts) + "}"
        return None

    result = encode(value)
    if result is None:
        from repro.apps.js.interpreter import UNDEFINED

        return UNDEFINED
    return result


#: ``parseFloat``'s longest parsable prefix (a StrDecimalLiteral).
_FLOAT_PREFIX = re.compile(
    r"[+-]?(?:Infinity|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)")
_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _parse_int(text: Any, radix: Any = 0.0) -> float:
    """The integer in the longest prefix of ``text`` made of ``radix``
    digits, after an optional sign; NaN when no digit leads.  A radix
    of 0 (the default) means 10, or 16 after a ``0x``, which radix 16
    also skips."""
    digits = str(text).strip()
    sign = -1 if digits[:1] == "-" else 1
    if digits[:1] in ("+", "-"):
        digits = digits[1:]
    try:
        base = int(radix)
    except (ValueError, TypeError, OverflowError):
        return math.nan
    if base in (0, 16) and digits[:2] in ("0x", "0X"):
        digits, base = digits[2:], 16
    base = base or 10
    if not 2 <= base <= 36:
        return math.nan
    valid = _DIGITS[:base]
    end = 0
    while end < len(digits) and digits[end].lower() in valid:
        end += 1
    return float(sign * int(digits[:end], base)) if end else math.nan


def _parse_float(text: Any) -> float:
    """The number in the longest numeric prefix of ``text`` (after
    leading whitespace); NaN when there is none."""
    match = _FLOAT_PREFIX.match(str(text).lstrip())
    return float(match.group()) if match else math.nan


class Engine:
    """One JavaScript heap/context (the ``duk_context`` analogue)."""

    def __init__(self, charge: Callable[[int], None] | None = None) -> None:
        self._charge_cb = charge
        self._charge(CTX_ALLOC_COST)
        self.globals = _build_globals()
        self.interp = Interpreter(self.globals, charge=self._charge)
        self.destroyed = False
        self.bindings_populated = False

    # -- cost plumbing ---------------------------------------------------------
    def _charge(self, cycles: int) -> None:
        if self._charge_cb is not None:
            self._charge_cb(cycles)

    def set_charge_callback(self, charge: Callable[[int], None] | None) -> None:
        """(Re)attach the cost sink -- required after a deep copy/restore."""
        self._charge_cb = charge
        self.interp.charge = self._charge if charge is not None else None

    def __deepcopy__(self, memo: dict) -> "Engine":
        """Deep-copy the JS heap but drop host-side callbacks/bindings.

        This is what makes an Engine snapshot-safe: the heap state
        travels with the snapshot; charge callbacks and native bindings
        must be re-attached by the restoring client.
        """
        clone = object.__new__(Engine)
        clone._charge_cb = None
        clone.destroyed = self.destroyed
        clone.bindings_populated = False
        placeholder = Scope()
        # Any closure reaching the original global scope must land on the
        # clone's global scope, so register the mapping before copying.
        memo[id(self.globals)] = placeholder
        stripped = {
            name: value
            for name, value in self.globals.vars.items()
            if not (callable(value) and getattr(value, "__is_native_binding__", False))
        }
        placeholder.vars = copy.deepcopy(stripped, memo)
        clone.globals = placeholder
        clone.interp = Interpreter(clone.globals, charge=None)
        return clone

    # -- lifecycle ------------------------------------------------------------------
    def _check_alive(self) -> None:
        if self.destroyed:
            raise EngineDestroyed("engine used after destroy()")

    def bind(self, name: str, fn: Callable, charge_bindings: bool = False) -> None:
        """Register a native function binding on the global object."""
        self._check_alive()
        fn.__is_native_binding__ = True  # type: ignore[attr-defined]
        self.globals.declare(name, fn)
        if charge_bindings and not self.bindings_populated:
            self._charge(BINDINGS_COST)
            self.bindings_populated = True

    def eval(self, source: str) -> Any:
        """Parse and execute ``source``; returns the completion value."""
        self._check_alive()
        self._charge(PARSE_PER_TOKEN * token_count(source))
        program = parse(source)
        return self.interp.run_program(program)

    def call(self, name: str, *args: Any) -> Any:
        """Call a global JS function by name."""
        self._check_alive()
        fn = self.globals.lookup(name)
        return self.interp.call_function(fn, list(args))

    def destroy(self) -> None:
        """Tear down (free) the engine; further use raises."""
        self._check_alive()
        self._charge(CTX_FREE_COST)
        self.destroyed = True


