"""No ``repro`` module imports a name it never uses.

An unused import is dead weight with a cost: each one adds an edge to
the package's import graph, and edges like these are what make
imports between layers cycle-prone.  This test parses every module under
``src/repro`` and flags each top-level import (module body, and the
``if``/``try`` blocks directly in it) whose name the module does not use.
A name passes if the module reads it (in code or in a quoted annotation),
lists it in ``__all__``, or another Python file of the repository uses it
from that module as a re-export: ``from repro.x import name``,
``module_alias.name`` or a dotted ``"repro.x.name"`` string (the form
``monkeypatch.setattr`` takes).
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent
ROOT = PACKAGE.parent.parent
#: Where re-exports are looked for: every Python file of the repository.
IMPORTERS = ("src", "tests", "benchmarks", "examples", "perfbench", "tools")


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(PACKAGE.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _absolute(module: str, node: ast.ImportFrom, is_package: bool) -> str:
    """The module an ``ImportFrom`` in ``module`` names, made absolute."""
    if not node.level:
        return node.module or ""
    base = module.split(".")
    base = base[: len(base) - node.level + (1 if is_package else 0)]
    return ".".join(base + ([node.module] if node.module else []))


def _top_level_imports(tree: ast.Module):
    """``(bound name, line)`` of each import in the module body or in the
    ``if``/``try`` blocks directly in it."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.If):
            pending += node.body + node.orelse
        elif isinstance(node, ast.Try):
            pending += node.body + node.orelse + node.finalbody
            for handler in node.handlers:
                pending += handler.body
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including inside quoted annotations
    and the entries of ``__all__``."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(inner.id for inner in ast.walk(expr)
                        if isinstance(inner, ast.Name))
    return used


def _reexports() -> set[tuple[str, str]]:
    """``(module, name)`` pairs some file takes from a ``repro`` module."""
    pairs: set[tuple[str, str]] = set()
    for top in IMPORTERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            source = path.read_text()
            if "repro" not in source:
                continue
            tree = ast.parse(source, filename=str(path))
            in_package = PACKAGE in path.resolve().parents
            module = _module_name(path) if in_package else ""
            aliases: dict[str, str] = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    source_module = _absolute(module, node,
                                              path.name == "__init__.py")
                    for alias in node.names:
                        pairs.add((source_module, alias.name))
                        # ``from repro.x import y`` may bind a submodule.
                        aliases[alias.asname or alias.name] = (
                            f"{source_module}.{alias.name}")
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.asname:
                            aliases[alias.asname] = alias.name
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and node.value.startswith("repro.")
                      and " " not in node.value):
                    dotted, _, name = node.value.rpartition(".")
                    pairs.add((dotted, name))
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    target = node.value
                    if isinstance(target, ast.Name) and target.id in aliases:
                        pairs.add((aliases[target.id], node.attr))
                    elif isinstance(target, ast.Attribute):
                        # ``repro.x.y.name`` spelled out after ``import repro.x.y``.
                        dotted = ast.unparse(target)
                        if dotted.startswith("repro."):
                            pairs.add((dotted, node.attr))
    return pairs


def unused_imports() -> list[str]:
    """``module:line name`` of each top-level import nothing uses."""
    reexported = _reexports()
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = _module_name(path)
        used = _used_names(tree)
        for name, line in _top_level_imports(tree):
            if name not in used and (module, name) not in reexported:
                found.append(f"{path.relative_to(PACKAGE).as_posix()}:{line} {name}")
    return sorted(found)


def test_no_module_imports_a_name_it_does_not_use():
    found = unused_imports()
    assert found == [], (
        "these imports are never used, listed in __all__ or imported from "
        f"the module by another file; remove them: {found}")


def test_the_scan_flags_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Any, cast\n"
                     "x: 'Any' = cast(int, 0)\n")
    names = {name for name, _ in _top_level_imports(tree)}
    assert names - _used_names(tree) == {"os"}
