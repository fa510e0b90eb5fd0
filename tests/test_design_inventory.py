"""DESIGN.md §2's inventory names only code that exists.

Every backticked ``repro.*`` name in the tables of "2. System
inventory" must resolve: the longest importable module prefix is
imported, and the rest of the name is read off it with ``getattr``.  A
module deleted from ``src/`` must leave the inventory with it.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

DESIGN = Path(__file__).resolve().parent.parent / "DESIGN.md"


def inventory_names() -> list[str]:
    text = DESIGN.read_text()
    section = text.split("\n## 2. System inventory", 1)[1].split("\n## 3.", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    return sorted({name for row in rows
                   for name in re.findall(r"`(repro(?:\.\w+)+)", row)})


def resolve(name: str) -> object:
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            target = importlib.import_module(module_name)
        except ModuleNotFoundError as missing:
            # Only a missing part of the name itself means "not a module".
            if not (module_name + ".").startswith(f"{missing.name}."):
                raise
            continue
        for attr in parts[split:]:
            target = getattr(target, attr)
        return target
    raise ModuleNotFoundError(name)


def test_inventory_is_found():
    assert len(inventory_names()) >= 30


@pytest.mark.parametrize("name", inventory_names())
def test_inventory_name_resolves(name):
    resolve(name)
