"""Every charged cycle comes from the injected cost model.

``repro.hw.costs`` promises that each cycle charged anywhere traces back
to a constant of the :class:`~repro.hw.costs.CostModel` in use, which
callers inject as ``costs=``.  Code that reads the module-level
``COSTS`` instead charges the default constants whatever model was
injected.  This test walks the package's source: outside
``hw/costs.py`` the name ``COSTS`` may only be a default argument value
(``costs: CostModel = COSTS``), and ``cli.py``'s ``info`` verb, which
displays the default calibration, may read it by name.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent
#: (module, function) pairs that may read the default model directly.
ALLOWED_READERS = {("cli.py", "cmd_info")}


def _cost_reads(source: str, module: str) -> list[int]:
    """Line numbers of ``source`` (package module ``module``) that read ``COSTS``."""
    tree = ast.parse(source, filename=module)
    names = {alias.asname or alias.name
             for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names if alias.name == "COSTS"}
    defaults: set[int] = set()
    allowed: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for default in [*node.args.defaults, *node.args.kw_defaults]:
                if default is not None:
                    defaults.add(id(default))
            if (module, getattr(node, "name", None)) in ALLOWED_READERS:
                allowed.update(id(inner) for inner in ast.walk(node))
    reads = []
    for node in ast.walk(tree):
        is_costs = ((isinstance(node, ast.Name) and node.id in names)
                    or (isinstance(node, ast.Attribute) and node.attr == "COSTS"))
        if (is_costs and isinstance(node.ctx, ast.Load)
                and id(node) not in defaults and id(node) not in allowed):
            reads.append(node.lineno)
    return sorted(reads)


def test_no_module_reads_the_default_cost_model():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        if module != "hw/costs.py":
            offenders += [f"{module}:{line}"
                          for line in _cost_reads(path.read_text(), module)]
    assert offenders == [], (
        "these lines read the module-level COSTS; charge from the injected "
        f"cost model (self.costs / costs=) instead: {offenders}")


def test_the_check_sees_a_read():
    """A charge from ``COSTS`` is caught, under an alias too; a default is not."""
    source = (
        "from repro.hw.costs import COSTS as C, CostModel\n"
        "def f(costs: CostModel = C):\n"
        "    return costs.MEMCPY_CYCLES_PER_BYTE\n"
        "def g(env):\n"
        "    env.charge(C.GUEST_LIBC_INIT)\n"
        "def cmd_info(args):\n"
        "    return C.LGDT_REAL\n"
    )
    assert _cost_reads(source, "apps/probe.py") == [5, 7]
    assert _cost_reads(source, "cli.py") == [5]
