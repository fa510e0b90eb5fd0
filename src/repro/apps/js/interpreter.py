"""Tree-walking evaluator for the JavaScript subset.

Values map onto Python as: number -> float, string -> str, boolean ->
bool, null -> None, undefined -> :data:`UNDEFINED`, array -> list,
object -> dict, functions -> :class:`JSFunction` / Python callables
(native bindings).

The evaluator accepts a ``charge`` callback invoked once per evaluated
node with a small cycle cost -- this is how JS execution time lands on
the simulated clock for both the native baseline and the virtine runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from repro.apps.js import ast_nodes as ast


class JsError(Exception):
    """A JavaScript runtime error (TypeError, ReferenceError, ...)."""


class _Undefined:
    """The singleton ``undefined`` value."""

    _instance: "_Undefined | None" = None

    def __new__(cls) -> "_Undefined":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "undefined"

    def __bool__(self) -> bool:
        return False

    def __deepcopy__(self, memo: dict) -> "_Undefined":
        return self


UNDEFINED = _Undefined()

#: Cycles charged per evaluated AST node (calibrated so the Section 6.5
#: base64 workload executes in ~137 us, the paper's parse+execute floor).
JS_OP_COST = 6


class JsThrow(Exception):
    """A JavaScript ``throw`` in flight (carries the thrown JS value)."""

    def __init__(self, value: Any) -> None:
        super().__init__(_to_display(value) if not isinstance(value, str) else value)
        self.value = value


class _ReturnSignal(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class Scope:
    """A lexical scope in the environment chain."""

    __slots__ = ("vars", "parent")

    def __init__(self, parent: "Scope | None" = None) -> None:
        self.vars: dict[str, Any] = {}
        self.parent = parent

    def lookup(self, name: str) -> Any:
        scope: Scope | None = self
        while scope is not None:
            if name in scope.vars:
                return scope.vars[name]
            scope = scope.parent
        raise JsError(f"ReferenceError: {name} is not defined")

    def assign(self, name: str, value: Any) -> None:
        scope: Scope | None = self
        while scope is not None:
            if name in scope.vars:
                scope.vars[name] = value
                return
            scope = scope.parent
        # Assignment to an undeclared name creates a global (sloppy mode).
        root: Scope = self
        while root.parent is not None:
            root = root.parent
        root.vars[name] = value

    def declare(self, name: str, value: Any) -> None:
        self.vars[name] = value


@dataclass
class JSFunction:
    """A user-defined function with its closure."""

    name: str | None
    params: tuple[str, ...]
    body: tuple[ast.Node, ...]
    closure: Scope

    def __repr__(self) -> str:
        return f"function {self.name or '(anonymous)'}"


class Interpreter:
    """Evaluates an AST against a global scope."""

    def __init__(self, global_scope: Scope, charge: Callable[[int], None] | None = None) -> None:
        self.global_scope = global_scope
        self.charge = charge
        self.ops_evaluated = 0

    # -- helpers ------------------------------------------------------------
    def _tick(self) -> None:
        self.ops_evaluated += 1
        if self.charge is not None:
            self.charge(JS_OP_COST)

    # -- program / statements ---------------------------------------------------
    def run_program(self, program: ast.Program) -> Any:
        self._hoist(program.body, self.global_scope)
        result: Any = UNDEFINED
        for statement in program.body:
            result = self.exec_statement(statement, self.global_scope)
        return result

    def _hoist(self, body: tuple[ast.Node, ...], scope: Scope) -> None:
        """Function declarations are hoisted to the top of their scope."""
        for statement in body:
            if isinstance(statement, ast.FunctionDecl):
                scope.declare(
                    statement.name,
                    JSFunction(statement.name, statement.params, statement.body, scope),
                )

    def exec_statement(self, node: ast.Node, scope: Scope) -> Any:
        self._tick()
        if isinstance(node, ast.ExprStmt):
            return self.eval(node.expr, scope)
        if isinstance(node, ast.VarDecl):
            for name, init in node.declarations:
                value = self.eval(init, scope) if init is not None else UNDEFINED
                scope.declare(name, value)
            return UNDEFINED
        if isinstance(node, ast.FunctionDecl):
            # Already hoisted; re-declare for nested blocks executed late.
            scope.declare(node.name, JSFunction(node.name, node.params, node.body, scope))
            return UNDEFINED
        if isinstance(node, ast.Return):
            value = self.eval(node.value, scope) if node.value is not None else UNDEFINED
            raise _ReturnSignal(value)
        if isinstance(node, ast.If):
            if _truthy(self.eval(node.test, scope)):
                return self.exec_statement(node.consequent, scope)
            if node.alternate is not None:
                return self.exec_statement(node.alternate, scope)
            return UNDEFINED
        if isinstance(node, ast.While):
            while _truthy(self.eval(node.test, scope)):
                try:
                    self.exec_statement(node.body, scope)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
            return UNDEFINED
        if isinstance(node, ast.DoWhile):
            while True:
                try:
                    self.exec_statement(node.body, scope)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                if not _truthy(self.eval(node.test, scope)):
                    break
            return UNDEFINED
        if isinstance(node, ast.For):
            loop_scope = Scope(scope)
            if node.init is not None:
                # `var` is function-scoped in JS: declare in the enclosing
                # scope so the variable survives the loop.
                target = scope if (
                    isinstance(node.init, ast.VarDecl) and node.init.kind == "var"
                ) else loop_scope
                self.exec_statement(node.init, target)
            while node.test is None or _truthy(self.eval(node.test, loop_scope)):
                try:
                    self.exec_statement(node.body, loop_scope)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                if node.update is not None:
                    self.eval(node.update, loop_scope)
            return UNDEFINED
        if isinstance(node, ast.ForIn):
            loop_scope = Scope(scope)
            target = self.eval(node.obj, loop_scope)
            if isinstance(target, dict):
                keys = list(target.keys())
            elif isinstance(target, list):
                keys = [number_to_string(float(i)) for i in range(len(target))]
            elif isinstance(target, str):
                keys = [number_to_string(float(i)) for i in range(len(target))]
            else:
                keys = []
            if node.declares:
                scope.declare(node.var_name, UNDEFINED)  # var-like scoping
            for key in keys:
                loop_scope.assign(node.var_name, key)
                try:
                    self.exec_statement(node.body, loop_scope)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
            return UNDEFINED
        if isinstance(node, ast.Block):
            block_scope = Scope(scope)
            self._hoist(node.statements, block_scope)
            result: Any = UNDEFINED
            for statement in node.statements:
                result = self.exec_statement(statement, block_scope)
            return result
        if isinstance(node, ast.Break):
            raise _BreakSignal()
        if isinstance(node, ast.Continue):
            raise _ContinueSignal()
        if isinstance(node, ast.Throw):
            raise JsThrow(self.eval(node.value, scope))
        if isinstance(node, ast.Try):
            return self._exec_try(node, scope)
        if isinstance(node, ast.Switch):
            return self._exec_switch(node, scope)
        # Expression used in statement position.
        return self.eval(node, scope)

    def _exec_try(self, node: ast.Try, scope: Scope) -> Any:
        result: Any = UNDEFINED
        try:
            try:
                result = self.exec_statement(node.block, scope)
            except (JsThrow, JsError) as error:
                if node.handler is None:
                    raise  # finally-only form: finalizer runs, then propagate
                catch_scope = Scope(scope)
                if node.param is not None:
                    thrown = error.value if isinstance(error, JsThrow) else str(error)
                    catch_scope.declare(node.param, thrown)
                result = self.exec_statement(node.handler, catch_scope)
        finally:
            if node.finalizer is not None:
                self.exec_statement(node.finalizer, Scope(scope))
        return result

    def _exec_switch(self, node: ast.Switch, scope: Scope) -> Any:
        discriminant = self.eval(node.discriminant, scope)
        switch_scope = Scope(scope)
        matched = False
        try:
            for case in node.cases:
                if not matched and case.test is not None:
                    if _strict_eq(discriminant, self.eval(case.test, switch_scope)):
                        matched = True
                if matched:
                    for statement in case.body:
                        self.exec_statement(statement, switch_scope)
            if not matched:
                # Fall through from `default:` onward.
                in_default = False
                for case in node.cases:
                    if case.test is None:
                        in_default = True
                    if in_default:
                        for statement in case.body:
                            self.exec_statement(statement, switch_scope)
        except _BreakSignal:
            pass
        return UNDEFINED

    # -- expressions ------------------------------------------------------------------
    def eval(self, node: ast.Node, scope: Scope) -> Any:
        self._tick()
        if isinstance(node, ast.NumberLit):
            return node.value
        if isinstance(node, ast.StringLit):
            return node.value
        if isinstance(node, ast.BoolLit):
            return node.value
        if isinstance(node, ast.NullLit):
            return None
        if isinstance(node, ast.UndefinedLit):
            return UNDEFINED
        if isinstance(node, ast.Identifier):
            return scope.lookup(node.name)
        if isinstance(node, ast.ThisExpr):
            try:
                return scope.lookup("this")
            except JsError:
                return UNDEFINED
        if isinstance(node, ast.ArrayLit):
            return [self.eval(e, scope) for e in node.elements]
        if isinstance(node, ast.ObjectLit):
            return {key: self.eval(value, scope) for key, value in node.entries}
        if isinstance(node, ast.FunctionExpr):
            return JSFunction(node.name, node.params, node.body, scope)
        if isinstance(node, ast.Unary):
            return self._unary(node, scope)
        if isinstance(node, ast.Update):
            return self._update(node, scope)
        if isinstance(node, ast.Binary):
            if node.op == ",":
                self.eval(node.left, scope)
                return self.eval(node.right, scope)
            return _binary(node.op, self.eval(node.left, scope), self.eval(node.right, scope))
        if isinstance(node, ast.Logical):
            left = self.eval(node.left, scope)
            if node.op == "&&":
                return self.eval(node.right, scope) if _truthy(left) else left
            return left if _truthy(left) else self.eval(node.right, scope)
        if isinstance(node, ast.Conditional):
            if _truthy(self.eval(node.test, scope)):
                return self.eval(node.consequent, scope)
            return self.eval(node.alternate, scope)
        if isinstance(node, ast.Assign):
            return self._assign(node, scope)
        if isinstance(node, ast.Call):
            return self._call(node, scope)
        if isinstance(node, ast.New):
            return self._new(node, scope)
        if isinstance(node, ast.Member):
            obj = self.eval(node.obj, scope)
            prop = self.eval(node.prop, scope) if node.computed else node.prop
            return self._get_member(obj, prop)
        raise JsError(f"cannot evaluate {type(node).__name__}")

    # -- operators ----------------------------------------------------------------------
    def _unary(self, node: ast.Unary, scope: Scope) -> Any:
        if node.op == "typeof":
            try:
                value = self.eval(node.operand, scope)
            except JsError:
                return "undefined"
            return _typeof(value)
        if node.op == "delete":
            member = node.operand
            obj = self.eval(member.obj, scope)
            prop = self.eval(member.prop, scope) if member.computed else member.prop
            if isinstance(prop, float):
                prop = int(prop)
            if isinstance(obj, dict):
                obj.pop(str(prop) if isinstance(prop, int) else prop, None)
                return True
            if isinstance(obj, list) and isinstance(prop, int):
                if 0 <= prop < len(obj):
                    obj[prop] = UNDEFINED  # JS leaves a hole, not a shift
                return True
            return True
        value = self.eval(node.operand, scope)
        if node.op == "!":
            return not _truthy(value)
        if node.op == "-":
            return -_to_number(value)
        if node.op == "+":
            return _to_number(value)
        if node.op == "~":
            return float(~_to_int32(value))
        raise JsError(f"bad unary operator {node.op}")

    def _update(self, node: ast.Update, scope: Scope) -> Any:
        old = _to_number(self._read_target(node.target, scope))
        new = old + 1 if node.op == "++" else old - 1
        self._write_target(node.target, new, scope)
        return new if node.prefix else old

    def _assign(self, node: ast.Assign, scope: Scope) -> Any:
        if node.op == "=":
            value = self.eval(node.value, scope)
        else:
            current = self._read_target(node.target, scope)
            operand = self.eval(node.value, scope)
            value = _binary(node.op[:-1], current, operand)
        self._write_target(node.target, value, scope)
        return value

    def _read_target(self, target: ast.Node, scope: Scope) -> Any:
        if isinstance(target, ast.Identifier):
            return scope.lookup(target.name)
        if isinstance(target, ast.Member):
            obj = self.eval(target.obj, scope)
            prop = self.eval(target.prop, scope) if target.computed else target.prop
            return self._get_member(obj, prop)
        raise JsError("invalid assignment target")

    def _write_target(self, target: ast.Node, value: Any, scope: Scope) -> None:
        if isinstance(target, ast.Identifier):
            scope.assign(target.name, value)
            return
        if isinstance(target, ast.Member):
            obj = self.eval(target.obj, scope)
            prop = self.eval(target.prop, scope) if target.computed else target.prop
            _set_member(obj, prop, value)
            return
        raise JsError("invalid assignment target")

    # -- calls --------------------------------------------------------------------------------
    def _call(self, node: ast.Call, scope: Scope) -> Any:
        this_value: Any = UNDEFINED
        if isinstance(node.callee, ast.Member):
            obj = self.eval(node.callee.obj, scope)
            prop = (
                self.eval(node.callee.prop, scope) if node.callee.computed else node.callee.prop
            )
            fn = self._get_member(obj, prop)
            this_value = obj
        else:
            fn = self.eval(node.callee, scope)
        args = [self.eval(arg, scope) for arg in node.args]
        return self.call_function(fn, args, this_value)

    def _new(self, node: ast.New, scope: Scope) -> Any:
        fn = self.eval(node.callee, scope)
        args = [self.eval(arg, scope) for arg in node.args]
        instance: dict[str, Any] = {}
        result = self.call_function(fn, args, instance)
        # A constructor that returns an object (a function included)
        # replaces the fresh instance; a returned primitive is ignored.
        if isinstance(result, (dict, list, JSFunction, _BoundMethod)) or callable(result):
            return result
        return instance

    def call_function(self, fn: Any, args: list[Any], this_value: Any = UNDEFINED) -> Any:
        if isinstance(fn, JSFunction):
            call_scope = Scope(fn.closure)
            call_scope.declare("this", this_value)
            for index, param in enumerate(fn.params):
                call_scope.declare(param, args[index] if index < len(args) else UNDEFINED)
            call_scope.declare("arguments", list(args))
            self._hoist(fn.body, call_scope)
            try:
                for statement in fn.body:
                    self.exec_statement(statement, call_scope)
            except _ReturnSignal as signal:
                return signal.value
            return UNDEFINED
        if isinstance(fn, _BoundMethod):
            return fn(args)
        if callable(fn):
            return fn(*args)
        raise JsError(f"TypeError: {_to_display(fn)} is not a function")

    # -- member access ----------------------------------------------------------------------------
    def _get_member(self, obj: Any, prop: Any) -> Any:
        if isinstance(prop, float):
            prop = int(prop)
        if obj is None or obj is UNDEFINED:
            raise JsError(f"TypeError: cannot read property {prop!r} of {_to_display(obj)}")
        if isinstance(obj, str):
            return _string_member(obj, prop)
        if isinstance(obj, list):
            return _array_member(self, obj, prop)
        if isinstance(obj, dict):
            if isinstance(prop, int):
                prop = str(prop)
            return obj.get(prop, UNDEFINED)
        raise JsError(f"TypeError: cannot read property {prop!r} of {_to_display(obj)}")


# -- value semantics ----------------------------------------------------------


def _truthy(value: Any) -> bool:
    if value is UNDEFINED or value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value != 0.0 and not math.isnan(value)
    if isinstance(value, str):
        return bool(value)
    return True


def _to_number(value: Any) -> float:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    if value is None:
        return 0.0
    if value is UNDEFINED:
        return math.nan
    if isinstance(value, str):
        stripped = value.strip()
        if not stripped:
            return 0.0
        try:
            return float(int(stripped, 16)) if stripped.lower().startswith("0x") else float(stripped)
        except ValueError:
            return math.nan
    return math.nan


def _to_int32(value: Any) -> int:
    number = _to_number(value)
    if math.isnan(number) or math.isinf(number):
        return 0
    unsigned = int(number) & 0xFFFFFFFF
    return unsigned - (1 << 32) if unsigned & 0x80000000 else unsigned


def number_to_string(value: float) -> str:
    """JS-style number formatting (integers print without a decimal)."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    if value == int(value) and abs(value) < 1e21:
        return str(int(value))
    return repr(value)


def _to_display(value: Any) -> str:
    if value is UNDEFINED:
        return "undefined"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return number_to_string(value)
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return ",".join(_to_display(v) for v in value)
    if isinstance(value, dict):
        return "[object Object]"
    return str(value)


def _typeof(value: Any) -> str:
    if value is UNDEFINED:
        return "undefined"
    if value is None:
        return "object"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, float):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, (JSFunction, _BoundMethod)) or callable(value):
        return "function"
    return "object"


def _loose_eq(a: Any, b: Any) -> bool:
    if (a is None or a is UNDEFINED) and (b is None or b is UNDEFINED):
        return True
    if a is None or a is UNDEFINED or b is None or b is UNDEFINED:
        return False
    if isinstance(a, bool):
        a = 1.0 if a else 0.0
    if isinstance(b, bool):
        b = 1.0 if b else 0.0
    if isinstance(a, float) and isinstance(b, str):
        b = _to_number(b)
    if isinstance(a, str) and isinstance(b, float):
        a = _to_number(a)
    if isinstance(a, float) and isinstance(b, float):
        return a == b
    if type(a) is type(b):
        return a == b
    return a is b


def _strict_eq(a: Any, b: Any) -> bool:
    if a is UNDEFINED or b is UNDEFINED:
        return a is b
    if a is None or b is None:
        return a is b
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, dict)):
        return a is b
    return a == b


def _binary(op: str, left: Any, right: Any) -> Any:
    if op == "+":
        if isinstance(left, str) or isinstance(right, str) or \
           isinstance(left, (list, dict)) or isinstance(right, (list, dict)):
            return _to_display(left) + _to_display(right)
        return _to_number(left) + _to_number(right)
    if op == "-":
        return _to_number(left) - _to_number(right)
    if op == "*":
        return _to_number(left) * _to_number(right)
    if op == "/":
        right_num = _to_number(right)
        left_num = _to_number(left)
        if right_num == 0.0:
            if left_num == 0.0 or math.isnan(left_num):
                return math.nan
            return math.inf if left_num > 0 else -math.inf
        return left_num / right_num
    if op == "%":
        right_num = _to_number(right)
        left_num = _to_number(left)
        if right_num == 0.0:
            return math.nan
        return math.fmod(left_num, right_num)
    if op in ("<", ">", "<=", ">="):
        if isinstance(left, str) and isinstance(right, str):
            pairs = {"<": left < right, ">": left > right,
                     "<=": left <= right, ">=": left >= right}
            return pairs[op]
        left_num, right_num = _to_number(left), _to_number(right)
        if math.isnan(left_num) or math.isnan(right_num):
            return False
        pairs = {"<": left_num < right_num, ">": left_num > right_num,
                 "<=": left_num <= right_num, ">=": left_num >= right_num}
        return pairs[op]
    if op == "==":
        return _loose_eq(left, right)
    if op == "!=":
        return not _loose_eq(left, right)
    if op == "===":
        return _strict_eq(left, right)
    if op == "!==":
        return not _strict_eq(left, right)
    if op == "&":
        return float(_to_int32(left) & _to_int32(right))
    if op == "|":
        return float(_to_int32(left) | _to_int32(right))
    if op == "^":
        return float(_to_int32(left) ^ _to_int32(right))
    if op == "<<":
        return float(_to_int32(_to_int32(left) << (_to_int32(right) & 31)))
    if op == ">>":
        return float(_to_int32(left) >> (_to_int32(right) & 31))
    if op == ">>>":
        return float((_to_int32(left) & 0xFFFFFFFF) >> (_to_int32(right) & 31))
    if op == "in":
        if isinstance(right, dict):
            return _to_display(left) in right
        if isinstance(right, list):
            index = _to_number(left)
            return 0 <= index < len(right)
        raise JsError("TypeError: 'in' on non-object")
    raise JsError(f"bad binary operator {op}")


# -- string/array members ---------------------------------------------------------


class _BoundMethod:
    """A builtin method bound to its receiver."""

    __slots__ = ("fn", "receiver")

    def __init__(self, fn: Callable, receiver: Any) -> None:
        self.fn = fn
        self.receiver = receiver

    def __call__(self, args: list[Any]) -> Any:
        return self.fn(self.receiver, args)


def _js_index(value: Any) -> int:
    """An index argument as an integer; NaN (``undefined``, a
    non-numeric string) counts as 0, as in JavaScript."""
    number = _to_number(value)
    return 0 if math.isnan(number) else int(number)


def _string_member(s: str, prop: Any) -> Any:
    index = _numeric_key(prop)
    if index is not None and prop != "length":
        return s[index] if 0 <= index < len(s) else UNDEFINED
    if prop == "length":
        return float(len(s))
    methods: dict[str, Callable[[str, list[Any]], Any]] = {
        "charAt": lambda recv, a: recv[_js_index(a[0])] if 0 <= _js_index(a[0]) < len(recv) else "",
        "charCodeAt": lambda recv, a: float(ord(recv[_js_index(a[0]) if a else 0]))
        if 0 <= (_js_index(a[0]) if a else 0) < len(recv)
        else math.nan,
        "indexOf": lambda recv, a: float(recv.find(_to_display(a[0]))),
        "lastIndexOf": lambda recv, a: float(recv.rfind(_to_display(a[0]))),
        "slice": lambda recv, a: _slice(recv, a),
        "substring": lambda recv, a: _substring(recv, a),
        "toUpperCase": lambda recv, a: recv.upper(),
        "toLowerCase": lambda recv, a: recv.lower(),
        "split": lambda recv, a: (list(recv) if not a or a[0] == "" else recv.split(_to_display(a[0]))),
        "trim": lambda recv, a: recv.strip(),
        "concat": lambda recv, a: recv + "".join(_to_display(x) for x in a),
        "repeat": lambda recv, a: recv * _js_index(a[0]),
        "startsWith": lambda recv, a: recv.startswith(_to_display(a[0])),
        "endsWith": lambda recv, a: recv.endswith(_to_display(a[0])),
        "replace": lambda recv, a: recv.replace(_to_display(a[0]), _to_display(a[1]), 1),
    }
    if prop in methods:
        return _BoundMethod(methods[prop], s)
    return UNDEFINED


def _slice(seq: Any, args: list[Any]) -> Any:
    start = _js_index(args[0]) if args else 0
    end = _js_index(args[1]) if len(args) > 1 else len(seq)
    return seq[start:end] if start >= 0 or end >= 0 else seq[start:end]


def _substring(s: str, args: list[Any]) -> str:
    start = max(0, _js_index(args[0])) if args else 0
    end = max(0, _js_index(args[1])) if len(args) > 1 else len(s)
    if start > end:
        start, end = end, start
    return s[start:end]


def _numeric_key(prop: Any) -> int | None:
    """JS array indexing accepts numeric strings ('0', '1', ...)."""
    if isinstance(prop, int):
        return prop
    if isinstance(prop, str) and prop.isdigit():
        return int(prop)
    return None


def _array_member(interp: Interpreter, arr: list, prop: Any) -> Any:
    index = _numeric_key(prop)
    if index is not None:
        return arr[index] if 0 <= index < len(arr) else UNDEFINED
    if prop == "length":
        return float(len(arr))
    def _push(recv: list, a: list[Any]) -> float:
        recv.extend(a)
        return float(len(recv))

    def _pop(recv: list, a: list[Any]) -> Any:
        return recv.pop() if recv else UNDEFINED

    def _map(recv: list, a: list[Any]) -> list:
        return [interp.call_function(a[0], [item, float(i), recv]) for i, item in enumerate(recv)]

    def _for_each(recv: list, a: list[Any]) -> Any:
        for i, item in enumerate(recv):
            interp.call_function(a[0], [item, float(i), recv])
        return UNDEFINED

    methods: dict[str, Callable[[list, list[Any]], Any]] = {
        "push": _push,
        "pop": _pop,
        "join": lambda recv, a: (_to_display(a[0]) if a else ",").join(
            "" if v is None or v is UNDEFINED else _to_display(v) for v in recv
        ),
        "indexOf": lambda recv, a: float(next((i for i, v in enumerate(recv) if _strict_eq(v, a[0])), -1)),
        "slice": lambda recv, a: _slice(recv, a),
        "concat": lambda recv, a: recv + [x for arg in a for x in (arg if isinstance(arg, list) else [arg])],
        "reverse": lambda recv, a: (recv.reverse(), recv)[1],
        "shift": lambda recv, a: recv.pop(0) if recv else UNDEFINED,
        "unshift": lambda recv, a: (recv.insert(0, a[0]), float(len(recv)))[1],
        "map": _map,
        "forEach": _for_each,
    }
    if prop in methods:
        return _BoundMethod(methods[prop], arr)
    return UNDEFINED


def _set_member(obj: Any, prop: Any, value: Any) -> None:
    if isinstance(prop, float):
        prop = int(prop)
    if isinstance(obj, list):
        index = _numeric_key(prop)
        if index is None:
            if prop == "length":
                new_len = _js_index(value)
                del obj[new_len:]
                obj.extend([UNDEFINED] * (new_len - len(obj)))
                return
            raise JsError(f"TypeError: cannot set {prop!r} on array")
        if index < 0:
            raise JsError("RangeError: negative array index")
        if index >= len(obj):
            obj.extend([UNDEFINED] * (index + 1 - len(obj)))
        obj[index] = value
        return
    if isinstance(obj, dict):
        if isinstance(prop, int):
            prop = str(prop)
        obj[prop] = value
        return
    raise JsError(f"TypeError: cannot set property on {_to_display(obj)}")
