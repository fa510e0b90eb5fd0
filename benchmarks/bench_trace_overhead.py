"""Tracer overhead: zero simulated cycles, bounded host time when off.

The tracing plane's contract (DESIGN.md section 9): a tracer never
advances the simulated clock, so a traced run and an untraced run land
on the *same* final cycle count; and with tracing disabled the
instrumentation sites cost only an attribute test or a no-op method
call, bounded here at under 5% of host runtime.  The bound counts what
the untraced run does on the disabled tracer's path -- reads of
``NO_TRACE.enabled`` and of the clock's ``observed`` flag, and calls
into the tracer's hooks (the ``disabled_path`` counter, shared with
``bench_telemetry_overhead.py``) -- and prices each at the host cost of
one, timed with the sink and the hook bound outside the timing loop.  Every host timing in it is a median of
interleaved repeats, so one noisy timing cannot fail the check.
Results are written to ``benchmarks/results/BENCH_trace_overhead.json``.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import statistics
import time

import pytest

from repro.hw.cpu import Mode
from repro.runtime.image import ImageBuilder
from repro.trace import NO_TRACE, Category
from repro.trace.tracer import NullTracer, _NullContext, _NullSpan
from repro.wasp import Wasp

LAUNCHES = 30
#: Interleaved repeats of the host timings in the bound.
REPEATS = 5
RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_trace_overhead.json"


def run_workload(trace: bool, region=None) -> tuple[int, float, object]:
    """Final simulated cycles, host seconds, and the tracer used; the
    launches run inside the context manager ``region``, if given."""
    wasp = Wasp(tracer=trace)
    image = ImageBuilder().minimal(Mode.LONG64)
    with region or contextlib.nullcontext():
        start = time.perf_counter()
        for _ in range(LAUNCHES):
            wasp.launch(image, use_snapshot=False)
        host = time.perf_counter() - start
    return wasp.clock.cycles, host, wasp.tracer


def noop_call_cost(calls: int = 200_000) -> float:
    """Host seconds per NO_TRACE hook call (the disabled-path unit cost)."""
    component = NO_TRACE.component
    category = Category.GUEST
    start = time.perf_counter()
    for _ in range(calls):
        component("x", 1, category)
    return (time.perf_counter() - start) / calls


@pytest.fixture(scope="module")
def measured(report, disabled_path):
    report.owns_results_file = True  # this module writes RESULTS_PATH itself
    counts = disabled_path(NullTracer, (NullTracer, _NullSpan, _NullContext))
    run_workload(trace=False, region=counts)
    host_ons, host_offs, per_calls, per_reads = [], [], [], []
    for _ in range(REPEATS):
        sim_on, host, tracer = run_workload(trace=True)
        host_ons.append(host)
        sim_off, host, _ = run_workload(trace=False)
        host_offs.append(host)
        per_calls.append(noop_call_cost())
        per_reads.append(disabled_path.read_cost(NO_TRACE))
    spans = sum(1 for _ in tracer.walk())
    events = len(tracer.all_events())
    host_on = statistics.median(host_ons)
    host_off = statistics.median(host_offs)
    per_call = statistics.median(per_calls)
    per_read = statistics.median(per_reads)
    # The disabled path's host cost relative to the untraced runtime is
    # the overhead the <5% acceptance bound is about.  The counts are the
    # untraced run's own: the traced run's spans and instants need not
    # match them, since most sites test a flag and skip the hook.
    noop_fraction = ((counts.reads + counts.flag_reads) * per_read
                     + counts.calls * per_call) / host_off
    data = {
        "engine_mode": report.engine_mode,
        "launches": LAUNCHES,
        "repeats": REPEATS,
        "simulated_cycles": {"disabled": sim_off, "enabled": sim_on},
        "host_seconds": {"disabled": round(host_off, 6),
                         "enabled": round(host_on, 6)},
        "trace_records": {"spans": spans, "instants": events},
        "disabled_hook_calls": counts.calls,
        "disabled_enabled_reads": counts.reads,
        "disabled_observed_reads": counts.flag_reads,
        "noop_call_seconds": per_call,
        "enabled_read_seconds": per_read,
        "disabled_overhead_fraction": noop_fraction,
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    report.row("simulated cycles, traced vs not", f"{sim_off:,}", f"{sim_on:,}")
    report.row("disabled-tracer host overhead", "< 5%",
               f"{noop_fraction:.2%}")
    report.note(f"{counts.reads} enabled reads + {counts.flag_reads} "
                f"observed reads + {counts.calls} hook calls "
                f"untraced, {spans} spans + {events} instants traced, over "
                f"{LAUNCHES} launches; host times are medians of {REPEATS} "
                f"interleaved repeats; results in {RESULTS_PATH.name}")
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
