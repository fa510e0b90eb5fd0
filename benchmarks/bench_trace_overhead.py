"""Tracer overhead: zero simulated cycles, bounded host time when off.

The tracing plane's contract (DESIGN.md section 9): a tracer never
advances the simulated clock, so a traced run and an untraced run land
on the *same* final cycle count; and with tracing disabled the
instrumentation sites cost only a no-op method call, bounded here at
under 5% of host runtime.  Both host timings in that bound -- the
untraced run and the no-op call cost -- are medians of interleaved
repeats, so one noisy timing cannot fail the check.  Results are
written to ``benchmarks/results/BENCH_trace_overhead.json``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time

import pytest

from repro.hw.cpu import Mode
from repro.runtime.image import ImageBuilder
from repro.trace import NO_TRACE
from repro.wasp import Wasp

LAUNCHES = 30
#: Interleaved repeats of the two host timings the bound divides.
REPEATS = 5
RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_trace_overhead.json"


def run_workload(trace: bool) -> tuple[int, float, object]:
    """Final simulated cycles, host seconds, and the tracer used."""
    wasp = Wasp(tracer=trace)
    image = ImageBuilder().minimal(Mode.LONG64)
    start = time.perf_counter()
    for _ in range(LAUNCHES):
        wasp.launch(image, use_snapshot=False)
    host = time.perf_counter() - start
    return wasp.clock.cycles, host, wasp.tracer


def noop_call_cost(calls: int = 200_000) -> float:
    """Host seconds per NO_TRACE hook call (the disabled-path unit cost)."""
    from repro.trace import Category

    start = time.perf_counter()
    for _ in range(calls):
        NO_TRACE.component("x", 1, Category.GUEST)
    return (time.perf_counter() - start) / calls


@pytest.fixture(scope="module")
def measured(report):
    report.owns_results_file = True  # this module writes RESULTS_PATH itself
    sim_on, host_on, tracer = run_workload(trace=True)
    spans = sum(1 for _ in tracer.walk())
    events = len(tracer.all_events())
    host_offs, per_calls = [], []
    for _ in range(REPEATS):
        sim_off, host, _ = run_workload(trace=False)
        host_offs.append(host)
        per_calls.append(noop_call_cost())
    host_off = statistics.median(host_offs)
    per_call = statistics.median(per_calls)
    # Every span is at most a begin+end pair of hook calls; with tracing
    # disabled the same sites hit NO_TRACE no-ops instead.  Their total
    # host cost relative to the untraced runtime is the disabled-path
    # overhead the <5% acceptance bound is about.
    noop_fraction = (2 * spans + events) * per_call / host_off
    data = {
        "engine_mode": report.engine_mode,
        "launches": LAUNCHES,
        "repeats": REPEATS,
        "simulated_cycles": {"disabled": sim_off, "enabled": sim_on},
        "host_seconds": {"disabled": round(host_off, 6),
                         "enabled": round(host_on, 6)},
        "trace_records": {"spans": spans, "instants": events},
        "noop_call_seconds": per_call,
        "disabled_overhead_fraction": noop_fraction,
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    report.row("simulated cycles, traced vs not", f"{sim_off:,}", f"{sim_on:,}")
    report.row("disabled-tracer host overhead", "< 5%",
               f"{noop_fraction:.2%}")
    report.note(f"{spans} spans + {events} instants over {LAUNCHES} launches; "
                f"host times are medians of {REPEATS} interleaved repeats; "
                f"results in {RESULTS_PATH.name}")
    return data


class TestTraceOverhead:
    def test_zero_simulated_overhead(self, measured):
        assert (measured["simulated_cycles"]["enabled"]
                == measured["simulated_cycles"]["disabled"])

    def test_disabled_host_overhead_under_five_percent(self, measured):
        assert measured["disabled_overhead_fraction"] < 0.05

    def test_results_file_seeded(self, measured):
        stored = json.loads(RESULTS_PATH.read_text())
        assert stored["launches"] == LAUNCHES
        assert stored["disabled_overhead_fraction"] < 0.05
