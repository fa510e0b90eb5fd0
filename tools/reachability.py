#!/usr/bin/env python3
"""Which functions of ``src/repro`` do the claims, examples and CLI enter?

    python tools/reachability.py

Copies the checkout into a temporary directory, installs a call-only
trace hook (``sys.settrace`` and ``threading.settrace``; the hook records
the code object of each frame entered and returns ``None``, so no line
events are traced), and runs every entry point of :data:`ENTRY_POINTS`
against the copy, in this process:

* every example script, as ``__main__``;
* the CLI invocations CI runs, plus the paper-figure verbs and the
  documented variants of ``trace``, ``telemetry``, ``chaos`` and
  ``replay record``;
* the benchmark modules, through pytest.  ``bench_host_throughput.py`` is
  left out: it is the one module that runs the reference interpreter,
  the oracle the other engines are checked against, and under the hook
  it takes longer than the other modules together;
* the three perfbench workloads, untraced and traced.

It then prints, per module, the function-body lines whose function was
never entered, and lists those functions.  A function's body lines run
from its first statement after the docstring to its last line; a line
inside a nested function belongs to the innermost one.  Declarations --
bodies that are only ``pass``, ``...`` or ``raise NotImplementedError``
-- are counted apart.

The entry points run in the copy because the benchmark run rewrites its
results files, and under the hook its trace- and telemetry-overhead
gates time the hook's own cost too, so they can fail.  The checkout is
never written.  The whole run takes a few minutes; it is not a CI step.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import shutil
import sys
import tempfile
import threading
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EXAMPLES = (
    "examples/database_udfs.py",
    "examples/distributed_offload.py",
    "examples/fault_tolerance.py",
    "examples/http_static_server.py",
    "examples/js_sandbox.py",
    "examples/overload_protection.py",
    "examples/plugin_service.py",
    "examples/quickstart.py",
    "examples/serverless_platform.py",
    "examples/untrusted_library.py",
)

CORPUS = (
    "corpus/replay/echo.json",
    "corpus/replay/faulty.json",
    "corpus/replay/http_snapshot.json",
    "corpus/replay/serverless.json",
)

CLI = (
    ("smoketest",),
    ("metrics", "--seed", "7", "--requests", "60"),
    ("metrics", "--seed", "7", "--requests", "60", "--json"),
    ("metrics", "--seed", "7", "--requests", "60", "--cores", "4", "--json"),
    ("admission-replay", "--seed", "7", "--scale", "0.25"),
    ("scale", "--cores", "4", "--launches", "24", "--seed", "7"),
    ("telemetry", "serverless", "--seed", "7", "--requests", "8"),
    ("telemetry", "serverless", "--seed", "7", "--requests", "8", "--format", "prom"),
    ("telemetry", "serverless", "--seed", "7", "--requests", "8",
     "--format", "json", "--out", "telemetry-a.json"),
    ("telemetry", "--cores", "4", "--seed", "7", "--requests", "12",
     "--format", "json", "--out", "telemetry-smp-a.json"),
    ("telemetry", "serverless", "--seed", "7", "--requests", "8",
     "--black-boxes", "--slo-deadline", "50000"),
    ("profile", "diff", "telemetry-a.json", "telemetry-a.json", "--gate"),
    ("jit", "stats"),
    ("jit", "dump", "--json"),
    ("trace", "echo", "--format", "json", "--out", "trace-echo.json"),
    ("trace", "echo", "--format", "json", "--telemetry", "--out", "trace-echo-counters.json"),
    ("trace", "echo"),
    ("trace", "http"),
    ("trace", "serverless", "--seed", "7"),
    *(("replay", "record", Path(artifact).stem, "--out", f"{Path(artifact).stem}-recorded.json")
      for artifact in CORPUS),
    *(("replay", "run", artifact) for artifact in CORPUS),
    ("replay", "fuzz", "corpus/replay/echo.json", "--cases", "100",
     "--artifacts", "fuzz-artifacts"),
    ("replay", "fuzz", "corpus/replay/serverless.json", "--cases", "100",
     "--artifacts", "fuzz-artifacts"),
    ("chaos", "--cases", "200", "--json"),
    ("chaos", "--cases", "20", "--telemetry"),
    ("store", "scrub", *CORPUS),
    ("backends",),
    ("boot",),
    ("creation",),
    ("info",),
)

BENCHMARKS = (
    "benchmarks/bench_ablation_concurrency.py",
    "benchmarks/bench_ablation_cow.py",
    "benchmarks/bench_ablation_hypercalls.py",
    "benchmarks/bench_ablation_knobs.py",
    "benchmarks/bench_ablation_udf.py",
    "benchmarks/bench_fig11_amortization.py",
    "benchmarks/bench_fig12_image_size.py",
    "benchmarks/bench_fig13_http.py",
    "benchmarks/bench_fig14_js.py",
    "benchmarks/bench_fig15_serverless.py",
    "benchmarks/bench_fig3_mode_latency.py",
    "benchmarks/bench_fig4_echo_milestones.py",
    "benchmarks/bench_fig8_creation_latency.py",
    "benchmarks/bench_fig9_parallel_creation.py",
    "benchmarks/bench_openssl_speed.py",
    "benchmarks/bench_table1_boot_breakdown.py",
    "benchmarks/bench_table2_boundaries.py",
    "benchmarks/bench_telemetry_overhead.py",
    "benchmarks/bench_trace_overhead.py",
)

PERFBENCH = tuple((workload, trace)
                  for workload in ("fib_compute", "cold_boot", "http_snapshot")
                  for trace in (0, 1))

#: Every entry point, in run order: ``(kind, argument)``.
ENTRY_POINTS = (
    *(("example", path) for path in EXAMPLES),
    *(("cli", argv) for argv in CLI),
    ("pytest", BENCHMARKS),
    *(("perfbench", run) for run in PERFBENCH),
)


# -- static side: every function body in the package -----------------------------

def _is_declaration(body: list[ast.stmt]) -> bool:
    """A body that is only ``pass``, ``...`` or ``raise NotImplementedError``."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        if isinstance(stmt, ast.Raise) and stmt.exc is not None:
            exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
            if isinstance(exc, ast.Name) and exc.id == "NotImplementedError":
                continue
        return False
    return True


def functions_of(path: Path) -> list[dict]:
    """Every ``def`` in ``path``: its code-object key, name and owned lines."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found: list[dict] = []

    def visit(node: ast.AST, prefix: str, owner: dict | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = child.body
                if (body and isinstance(body[0], ast.Expr)
                        and isinstance(body[0].value, ast.Constant)
                        and isinstance(body[0].value.value, str) and len(body) > 1):
                    body = body[1:]
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                lines = set(range(body[0].lineno, child.end_lineno + 1))
                if owner is not None:
                    owner["lines"] -= set(range(first, child.end_lineno + 1))
                entry = {
                    "key": (str(path), first),
                    "name": f"{prefix}{child.name}",
                    "line": child.lineno,
                    "lines": lines,
                    "declaration": _is_declaration(child.body),
                }
                found.append(entry)
                visit(child, f"{prefix}{child.name}.", entry)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", owner)
            else:
                visit(child, prefix, owner)

    visit(tree, "", None)
    return found


# -- dynamic side: run the entry points under the hook --------------------------

def run_entry(kind: str, arg, copy: Path) -> None:
    if kind == "example":
        sys.argv = [str(copy / arg)]
        try:
            runpy.run_path(str(copy / arg), run_name="__main__")
        except SystemExit as exit_:
            if exit_.code not in (None, 0):
                raise RuntimeError(f"exit {exit_.code}") from None
    elif kind == "cli":
        from repro.cli import main

        try:
            code = main(list(arg))
        except SystemExit as exit_:
            code = exit_.code
        if code not in (None, 0):
            raise RuntimeError(f"exit {code}")
    elif kind == "pytest":
        import pytest

        code = pytest.main([*arg, "-q", "--benchmark-disable", "-p", "no:cacheprovider"])
        if code != 0:
            raise RuntimeError(f"pytest exit {int(code)}")
    elif kind == "perfbench":
        import run as perfbench_run
        from workloads import WORKLOADS

        workload, trace = arg
        run = perfbench_run.traced_run if trace else perfbench_run.untraced_run
        result, _ = run(WORKLOADS[workload], 1, 1)
        if not result["correct"]:
            raise RuntimeError("operations failed")
    else:
        raise ValueError(kind)


def trace_entry_points(copy: Path) -> tuple[set, list[str]]:
    """Run every entry point in ``copy``; the code objects entered, and failures."""
    entered: set = set()
    add = entered.add

    def hook(frame, event, arg):
        add(frame.f_code)
        return None

    sys.path[:0] = [str(copy / "src"), str(copy / "perfbench")]
    os.environ.pop("REPRO_SEED", None)
    os.environ.pop("REPRO_JIT_THRESHOLD", None)
    os.chdir(copy)
    failures = []
    report = sys.stdout
    for kind, arg in ENTRY_POINTS:
        label = f"{kind} {arg if isinstance(arg, str) else ' '.join(map(str, arg))}"
        if kind == "pytest":
            label = f"pytest ({len(arg)} benchmark modules)"
        started = time.perf_counter()
        sink = io.StringIO()
        threading.settrace(hook)
        sys.settrace(hook)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                run_entry(kind, arg, copy)
        except Exception as error:  # report it and run the next entry point
            failures.append(f"{label}: {error!r}")
            if kind == "pytest":
                failures += [line for line in sink.getvalue().splitlines()
                             if line.startswith("FAILED ")]
            else:
                failures.append(traceback.format_exc(limit=-3))
        finally:
            sys.settrace(None)
            threading.settrace(None)
        print(f"  {time.perf_counter() - started:6.1f} s  {label}", file=report, flush=True)
    return entered, failures


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        copy = Path(scratch) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-out",
            ".benchmarks"))
        package = copy / "src" / "repro"
        functions = [f for path in sorted(package.rglob("*.py")) for f in functions_of(path)]
        print(f"running {len(ENTRY_POINTS)} entry points in {copy}", flush=True)
        cwd = os.getcwd()
        try:
            codes, failures = trace_entry_points(copy)
        finally:
            os.chdir(cwd)
        entered = {(code.co_filename, code.co_firstlineno) for code in codes}

        per_module: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        unentered: list[tuple[str, dict]] = []
        declarations = 0
        for function in functions:
            module = Path(function["key"][0]).relative_to(package).as_posix()
            if function["declaration"]:
                declarations += 1
                continue
            per_module[module][1] += len(function["lines"])
            if function["key"] not in entered:
                per_module[module][0] += len(function["lines"])
                unentered.append((module, function))

    total = sum(t for _, t in per_module.values())
    missed = sum(m for m, _ in per_module.values())
    print()
    print(f"{missed:,} of {total:,} function-body lines never entered "
          f"({missed / total:.1%}); {len(unentered)} functions, "
          f"{declarations} declarations not counted")
    print()
    print(f"{'module':<40} {'unentered':>9} {'lines':>7}")
    for module, (m, t) in sorted(per_module.items(), key=lambda item: -item[1][0]):
        if m:
            print(f"{module:<40} {m:>9,} {t:>7,}")
    print()
    for module, function in unentered:
        print(f"{module}:{function['line']} {function['name']} ({len(function['lines'])})")
    if failures:
        print()
        print("entry points that raised (their code up to the error still counts):")
        for failure in failures:
            print(f"  {failure}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
