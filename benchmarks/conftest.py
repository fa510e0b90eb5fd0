"""Shared reporting for the benchmark suite.

Each benchmark regenerates one table/figure from the paper and records a
paper-vs-measured comparison.  The comparisons are printed in the
terminal summary (so they survive pytest's output capture), written to
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


def engine_mode(fast_paths: bool = True, jit: bool = True) -> str:
    """Canonical label for an interpreter engine configuration.

    Every ``BENCH_*.json`` records the mode that produced it so results
    are self-describing: ``reference`` (plain interpreter), ``fast``
    (PR 4 fast-path engine, JIT off), or ``fast+jit`` (superblock JIT on
    top of the fast paths -- the library default).
    """
    if not fast_paths:
        return "reference"
    return "fast+jit" if jit else "fast"


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
        #: its results file.  Defaults to the library default; modules
        #: that pin a different configuration (or sweep several) set it
        #: via :func:`engine_mode` or to an explicit label.
        self.engine_mode = engine_mode()

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


def pytest_terminal_summary(terminalreporter):
    if not _SECTIONS:
        return
    terminalreporter.write_sep("=", "paper vs. measured (simulated cycles on the virtual clock)")
    _RESULTS_DIR.mkdir(exist_ok=True)
    all_text = []
    for title, lines in _SECTIONS:
        terminalreporter.write_line("")
        terminalreporter.write_line(title)
        all_text.append(title)
        for line in lines:
            terminalreporter.write_line(line)
            all_text.append(line)
        all_text.append("")
    (_RESULTS_DIR / "summary.txt").write_text("\n".join(all_text) + "\n")
