"""Shared reporting for the benchmark suite.

Each benchmark regenerates one table/figure from the paper and records a
paper-vs-measured comparison.  The comparisons are printed in the
terminal summary (so they survive pytest's output capture), merged into
``benchmarks/results/summary.txt``, and each module's structured rows
land in ``benchmarks/results/BENCH_<module>.json`` (modules that write a
richer results file themselves set ``report.owns_results_file``).
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

_RESULTS_DIR = pathlib.Path(__file__).parent / "results"
_SECTIONS: list[tuple[str, list[str]]] = []


class ExperimentReport:
    """Accumulates one experiment's comparison table."""

    def __init__(self, title: str, module_name: str) -> None:
        self.title = title
        self.module_name = module_name
        self.lines: list[str] = []
        #: Structured mirror of :meth:`row` calls, dumped to the module's
        #: ``BENCH_<module>.json``.
        self.rows: list[dict[str, str]] = []
        #: Free-form structured results (set via :meth:`record`).
        self.data: dict = {}
        #: Modules that write their own ``BENCH_<name>.json`` (with a
        #: richer schema than rows+data) set this to skip the default
        #: emission and avoid clobbering their file.
        self.owns_results_file = False
        #: Engine configuration the module measured under, recorded in
        #: its results file: one of ``repro.hw.isa.ENGINES`` --
        #: ``reference`` (plain interpreter), ``fast`` (fast-path engine,
        #: JIT off) or ``fast+jit`` (superblock JIT on top of the fast
        #: paths, the library default).  Modules that pin a different
        #: engine (or sweep several) set it to that label.
        self.engine_mode = "fast+jit"

    def line(self, text: str) -> None:
        self.lines.append(text)

    def row(self, label: str, paper: str, measured: str) -> None:
        self.rows.append({"label": label, "paper": paper, "measured": measured})
        self.lines.append(f"  {label:<38s} paper: {paper:>14s}   measured: {measured:>14s}")

    def note(self, text: str) -> None:
        self.lines.append(f"  note: {text}")

    def record(self, key: str, value) -> None:
        """Attach a structured result (JSON-serialisable) to the module's file."""
        self.data[key] = value

    def results_path(self) -> pathlib.Path:
        stem = self.module_name
        if stem.startswith("bench_"):
            stem = stem[len("bench_"):]
        return _RESULTS_DIR / f"BENCH_{stem}.json"


class HostTimer:
    """Wall-clock timing helpers shared by host-throughput benchmarks.

    Host time is the one quantity in this suite that is *not* on the
    virtual clock, so it is noisy: callers repeat and take medians.
    """

    @staticmethod
    def measure(fn):
        """Run ``fn()`` once; return ``(result, elapsed_seconds)``."""
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def host_timer():
    """Shared wall-clock timing helpers (module-scoped for convenience)."""
    return HostTimer()


@pytest.fixture(scope="module")
def report(request):
    """Module-scoped experiment report, flushed at session end."""
    experiment = ExperimentReport(
        request.module.__doc__.strip().splitlines()[0]
        if request.module.__doc__ else request.module.__name__,
        request.module.__name__,
    )
    yield experiment
    _SECTIONS.append((experiment.title, experiment.lines))
    if not experiment.owns_results_file and (experiment.rows or experiment.data):
        _RESULTS_DIR.mkdir(exist_ok=True)
        payload = {
            "experiment": experiment.title,
            "engine_mode": experiment.engine_mode,
            "rows": experiment.rows,
            "data": experiment.data,
        }
        experiment.results_path().write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")


def merge_summary(previous: str, sections: list[tuple[str, list[str]]]) -> str:
    """``summary.txt`` text with ``sections`` merged into ``previous``.

    The file is one block per module -- its title line, then its lines
    -- each block ending in a blank line.  A re-run module's block is
    replaced where it stands; every other block is kept byte for byte
    and in order; a module new to the file is appended.  So running one
    module never drops another module's section.
    """
    blocks: dict[str, str] = {}
    for block in previous.split("\n\n"):
        if block.strip():
            blocks[block.split("\n", 1)[0]] = block
    for title, lines in sections:
        blocks[title] = "\n".join([title, *lines])
    return "".join(block + "\n\n" for block in blocks.values())


def pytest_terminal_summary(terminalreporter):
    if not _SECTIONS:
        return
    terminalreporter.write_sep("=", "paper vs. measured (simulated cycles on the virtual clock)")
    for title, lines in _SECTIONS:
        terminalreporter.write_line("")
        terminalreporter.write_line(title)
        for line in lines:
            terminalreporter.write_line(line)
    _RESULTS_DIR.mkdir(exist_ok=True)
    summary = _RESULTS_DIR / "summary.txt"
    previous = summary.read_text() if summary.exists() else ""
    summary.write_text(merge_summary(previous, _SECTIONS))
