"""Call-graph slicing for virtine functions.

"When this pass detects a function annotation ... it generates a call
graph rooted at that function.  The compiler automatically packages a
subset of the source program into the virtine context based on what that
virtine needs" (Section 5.3).

Here the analysis runs over Python ASTs: starting from the annotated
function, every module-level function it (transitively) calls is added to
the slice, and every module-level global it reads is recorded so the
launch path can copy a snapshot of it into the virtine ("Global
variables accessed by the virtine are currently initialized with a
snapshot when the virtine is invoked").

Like the paper's prototype, the slice is limited to one compilation unit:
"virtines created using the C extension are restricted to functionality
in the same compilation unit" (Section 7.2) -- here, the defining module.
Calls that resolve outside the module raise :class:`SliceError` unless
they are builtins that the guest environment provides.
"""

from __future__ import annotations

import ast
import builtins
import inspect
import textwrap
from dataclasses import dataclass
from typing import Any, Callable

#: Builtins considered part of the guest "libc": pure-compute helpers a
#: statically linked newlib would provide.
GUEST_SAFE_BUILTINS = frozenset(
    {
        "abs", "all", "any", "bool", "bytearray", "bytes", "chr", "dict",
        "divmod", "enumerate", "filter", "float", "frozenset", "hash",
        "hex", "int", "isinstance", "issubclass", "iter", "len", "list",
        "map", "max", "min", "next", "oct", "ord", "pow", "range",
        "repr", "reversed", "round", "set", "slice", "sorted", "str",
        "sum", "tuple", "zip", "ValueError", "TypeError", "KeyError",
        "IndexError", "StopIteration", "ZeroDivisionError", "Exception",
        "RuntimeError", "OverflowError", "ArithmeticError",
    }
)


class SliceError(Exception):
    """The function cannot be packaged into a virtine."""


@dataclass
class CallGraphSlice:
    """The packaged subset of the source program."""

    root: str
    #: Function name -> dedented source text, in dependency order.
    functions: dict[str, str]
    #: Module-level globals the slice reads (name -> value at slice time).
    globals_read: dict[str, Any]
    #: Estimated code footprint in bytes (drives image size).
    code_bytes: int

    @property
    def function_names(self) -> tuple[str, ...]:
        return tuple(self.functions)


def _called_names(tree: ast.AST) -> set[str]:
    """Simple-name call targets within a function body."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            names.add(node.func.id)
    return names


def _loaded_names(tree: ast.AST) -> set[str]:
    """All names read (Load context) within a function body."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
    return names


def _local_names(tree: ast.FunctionDef) -> set[str]:
    """Names bound locally (parameters + assignments) in the function."""
    bound: set[str] = {a.arg for a in tree.args.args}
    bound.update(a.arg for a in tree.args.kwonlyargs)
    bound.update(a.arg for a in tree.args.posonlyargs)
    if tree.args.vararg:
        bound.add(tree.args.vararg.arg)
    if tree.args.kwarg:
        bound.add(tree.args.kwarg.arg)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.comprehension):
            for target in ast.walk(node.target):
                if isinstance(target, ast.Name):
                    bound.add(target.id)
    return bound


def _function_source_and_tree(fn: Callable) -> tuple[str, ast.FunctionDef]:
    try:
        source = textwrap.dedent(inspect.getsource(fn))
    except (OSError, TypeError) as error:
        raise SliceError(f"cannot get source of {fn!r}: {error}") from error
    tree = ast.parse(source)
    node = tree.body[0]
    # Strip decorators: the packaged copy must not re-enter the virtine
    # machinery ("if a virtine calls another virtine-annotated function,
    # a nested virtine will not be created", Section 5.3).
    while isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.decorator_list:
        node.decorator_list = []
    if not isinstance(node, ast.FunctionDef):
        raise SliceError(f"{fn!r} is not a plain function")
    return ast.unparse(node), node


def slice_call_graph(fn: Callable) -> CallGraphSlice:
    """Build the call-graph slice rooted at ``fn``.

    Raises :class:`SliceError` when the function depends on something
    that cannot be packaged (another module, a method, a class, ...).
    """
    if inspect.ismethod(fn):
        raise SliceError(f"{fn.__qualname__} is a bound method; annotate a plain function")
    if not inspect.isfunction(fn):
        raise SliceError(f"{fn!r} is not a plain function")
    if fn.__closure__:
        raise SliceError(
            f"{fn.__qualname__} captures enclosing-scope variables; a "
            "virtine has no access to the caller's environment (Section 2)"
        )
    module_globals = getattr(fn, "__globals__", {})
    functions: dict[str, str] = {}
    globals_read: dict[str, Any] = {}
    worklist: list[Callable] = [fn]
    seen: set[str] = set()

    while worklist:
        current = worklist.pop()
        name = current.__name__
        if name in seen:
            continue
        seen.add(name)
        source, tree = _function_source_and_tree(current)
        functions[name] = source
        locals_bound = _local_names(tree)
        for called in sorted(_called_names(tree)):
            if called in locals_bound or called in seen:
                continue
            if called in GUEST_SAFE_BUILTINS:
                continue
            target = module_globals.get(called)
            if target is None:
                if hasattr(builtins, called):
                    raise SliceError(
                        f"{name} calls builtin {called!r}, which the virtine "
                        "guest environment does not provide"
                    )
                raise SliceError(f"{name} calls unresolvable name {called!r}")
            unwrapped = getattr(target, "__wrapped_virtine__", None)
            if unwrapped is not None:
                target = unwrapped
            if inspect.isfunction(target):
                if target.__module__ != fn.__module__:
                    raise SliceError(
                        f"{name} calls {called!r} from module "
                        f"{target.__module__!r}; virtine slices are limited "
                        "to one compilation unit (Section 7.2)"
                    )
                worklist.append(target)
            else:
                raise SliceError(
                    f"{name} calls {called!r}, which is not a module-level "
                    f"function (got {type(target).__name__})"
                )
        for loaded in sorted(_loaded_names(tree)):
            if (
                loaded in locals_bound
                or loaded in GUEST_SAFE_BUILTINS
                or loaded in functions
                or loaded in globals_read
            ):
                continue
            if loaded in module_globals:
                value = module_globals[loaded]
                if inspect.ismodule(value):
                    raise SliceError(
                        f"{name} uses module {loaded!r}; imported modules "
                        "are not available inside a virtine"
                    )
                if inspect.isfunction(value) or isinstance(value, type):
                    continue  # call targets handled above; classes skipped
                globals_read[loaded] = value

    code_bytes = sum(len(src.encode()) for src in functions.values())
    return CallGraphSlice(
        root=fn.__name__,
        functions=functions,
        globals_read=globals_read,
        code_bytes=code_bytes,
    )
