"""Host throughput of the simulator's fast-path engine and superblock JIT.

This benchmark measures *host* wall-clock time, not simulated cycles:
how fast the interpreter chews through guest work in each of its three
engine modes.  Simulated cycles are asserted bit-identical across all
modes -- the fast paths and the JIT change how quickly the simulation
runs, never what it computes.

Engine modes (the ablation axis, recorded in the results file):

* ``reference``  -- plain interpreter, every layer on the slow path.
* ``fast``       -- PR 4 fast-path engine (software TLB, predecoded
                    dispatch, bulk-memory paths), superblock JIT off.
* ``fast+jit``   -- trace-driven superblock JIT on top of the fast
                    paths (the library default).

Three workloads cover the engine's distinct hot paths:

* ``fib``           -- instruction-dense: recursive fib(22) in LONG64,
                       ~460K guest instructions through paged memory.
* ``boot_storm``    -- transition-heavy: repeated cold boots to 64-bit
                       (GDT loads, CR writes, 514 page-table stores, TLB
                       flushes) via the raw KVM interface.
* ``http_snapshot`` -- runtime-heavy: the static HTTP server with
                       snapshot isolation, exercising pool recycling and
                       bulk snapshot restores.

Each repeat times the three engine modes back to back, so drift on a
shared host (frequency scaling, a neighbour's burst) lands on every mode
of that repeat alike; each speedup is the median of the per-repeat
ratios.  Results land in ``results/BENCH_host_throughput.json``.  If a
committed baseline is present it is read *before* being overwritten and
each workload's speedups must stay within 30% of it (the ratios are
host-independent to first order: all sides run on the same machine in
the same process).
"""

import json
import pathlib
import statistics
from functools import partial

import pytest

from repro.hw.clock import Clock
from repro.hw.cpu import Mode
from repro.hw.vmx import ExitReason, VirtualMachine
from repro.kvm.device import KVM
from repro.runtime.image import ImageBuilder

RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_host_throughput.json"

FIB_N = 22
BOOT_LAUNCHES = 30
HTTP_REQUESTS = 80
#: Interleaved repeats per workload (every repeat runs every mode);
#: speedups are medians of the per-repeat ratios.
REPEATS = 5
#: A fresh run must keep each workload's speedups within 30% of the
#: committed baseline's (satellite: CI regression gate).
BASELINE_RATIO_FLOOR = 0.7

#: The ablation axis.  JSON keys use ``slow`` / ``fast`` / ``fast_jit``
#: (``slow``/``fast`` predate the JIT and keep old baselines readable).
ENGINE_MODES = ("reference", "fast", "fast+jit")
_MODE_KEY = {"reference": "slow", "fast": "fast", "fast+jit": "fast_jit"}


def _engine_kwargs(mode: str) -> dict:
    return {"fast_paths": mode != "reference", "jit": mode == "fast+jit"}


def run_fib(mode: str):
    """Instruction-dense: boot to LONG64, compute fib(22) recursively."""
    image = ImageBuilder().fib(Mode.LONG64, FIB_N)
    clock = Clock()
    vm = VirtualMachine(4 * 1024 * 1024, clock, **_engine_kwargs(mode))
    vm.load_program(image.program)
    info = vm.vmrun()
    assert info.reason is ExitReason.HLT, info
    assert vm.cpu.regs["ax"] == 17_711  # fib(22)
    return clock.cycles, vm.interp.instructions_retired


def run_boot_storm(mode: str):
    """Transition-heavy: repeated cold boots through the raw KVM path."""
    image = ImageBuilder().minimal(Mode.LONG64)
    clock = Clock()
    kvm = KVM(clock, **_engine_kwargs(mode))
    instructions = 0
    for _ in range(BOOT_LAUNCHES):
        handle = kvm.create_vm()
        handle.set_user_memory_region(4 * 1024 * 1024)
        vcpu = handle.create_vcpu()
        handle.load_program(image.program)
        info = vcpu.run()
        assert info.reason is ExitReason.HLT, info
        instructions += handle.vm.interp.instructions_retired
    return clock.cycles, instructions


def run_http_snapshot(mode: str):
    """Runtime-heavy: snapshot-isolated HTTP serving on the Wasp stack."""
    from repro.apps.http.client import RequestGenerator
    from repro.apps.http.server import StaticHttpServer
    from repro.wasp import Wasp

    wasp = Wasp(**_engine_kwargs(mode))
    wasp.kernel.fs.add_file("/srv/index.html", b"<html>bench</html>")
    server = StaticHttpServer(wasp, port=8080, isolation="snapshot")
    generator = RequestGenerator(wasp.kernel, server, "/index.html")
    for _ in range(HTTP_REQUESTS):
        outcome = generator.one_request()
        assert outcome.response.status == 200
    return wasp.clock.cycles, None


WORKLOADS = {
    "fib": run_fib,
    "boot_storm": run_boot_storm,
    "http_snapshot": run_http_snapshot,
}


@pytest.fixture(scope="module")
def measured(report, host_timer):
    report.owns_results_file = True
    report.engine_mode = "ablation:" + "/".join(ENGINE_MODES)

    baseline = None
    if RESULTS_PATH.exists():
        try:
            baseline = json.loads(RESULTS_PATH.read_text())
        except ValueError:
            baseline = None

    workloads = {}
    for name, fn in WORKLOADS.items():
        cycles = {}
        insns = {}
        runs = {key: [] for key in _MODE_KEY.values()}
        for _ in range(REPEATS):
            for mode in ENGINE_MODES:
                key = _MODE_KEY[mode]
                (cycles[key], insns[key]), elapsed = host_timer.measure(
                    partial(fn, mode))
                runs[key].append(elapsed)
        seconds = {k: statistics.median(v) for k, v in runs.items()}

        def ratio(num: str, den: str) -> float:
            return round(statistics.median(
                a / b for a, b in zip(runs[num], runs[den])), 3)

        entry = {
            "simulated_cycles": cycles,
            "host_seconds": {k: round(s, 6) for k, s in seconds.items()},
            # slow/fast: the PR 4 fast-path payoff.  fast/fast_jit: the
            # additional superblock-JIT payoff on top of it (the >= 3x
            # fib target).  slow/fast_jit: end-to-end.
            "speedup": ratio("slow", "fast"),
            "jit_speedup": ratio("fast", "fast_jit"),
            "total_speedup": ratio("slow", "fast_jit"),
            "cycles_per_host_second": {
                k: int(cycles[k] / seconds[k]) for k in seconds
            },
        }
        if insns["fast"] is not None:
            entry["guest_instructions"] = insns["fast"]
            entry["insns_per_host_second"] = {
                k: int(insns[k] / seconds[k]) for k in seconds
            }
        workloads[name] = entry
        report.row(f"{name}: fast-path speedup",
                   ">= 3x (fib)" if name == "fib" else "n/a",
                   f"{entry['speedup']:.2f}x")
        report.row(f"{name}: jit speedup over fast",
                   ">= 3x (fib)" if name == "fib" else "n/a",
                   f"{entry['jit_speedup']:.2f}x")
        report.row(f"{name}: Mcycles / host s", "n/a",
                   f"{entry['cycles_per_host_second']['fast_jit'] / 1e6:,.1f}")
    report.note(f"median of {REPEATS} interleaved repeats (host seconds and "
                f"per-repeat speedup ratios); simulated cycles are asserted "
                f"identical across all engine modes")

    data = {
        "engine_modes": list(ENGINE_MODES),
        "repeats": REPEATS,
        "workload_params": {
            "fib_n": FIB_N,
            "boot_launches": BOOT_LAUNCHES,
            "http_requests": HTTP_REQUESTS,
        },
        "workloads": workloads,
    }
    if baseline is not None:
        data["previous_speedups"] = {
            name: {k: entry.get(k) for k in ("speedup", "jit_speedup")
                   if entry.get(k) is not None}
            for name, entry in baseline.get("workloads", {}).items()
        }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    data["_baseline"] = baseline
    return data


class TestHostThroughput:
    def test_simulated_cycles_identical(self, measured):
        """Fast paths and JIT change host time only; the virtual clock is
        bit-exact across all three engine modes."""
        for name, entry in measured["workloads"].items():
            cycles = entry["simulated_cycles"]
            assert cycles["fast"] == cycles["slow"] == cycles["fast_jit"], name

    def test_instruction_dense_speedup(self, measured):
        """The predecode+TLB engine must pay off where instructions dominate.

        The committed baseline records >= 3x; the in-test floor is looser
        because shared CI runners time noisily even under medians.
        """
        assert measured["workloads"]["fib"]["speedup"] >= 2.0

    def test_jit_speedup_over_fast_path(self, measured):
        """The superblock JIT must deliver its own >= 3x on fib *on top of*
        the fast-path engine (committed baseline; looser in-test floor
        for runner noise)."""
        assert measured["workloads"]["fib"]["jit_speedup"] >= 2.0

    def test_jit_no_pathological_slowdown(self, measured):
        """Compilation cost must never eat its winnings on any workload."""
        for name, entry in measured["workloads"].items():
            assert entry["jit_speedup"] >= 0.7, (name, entry["jit_speedup"])

    def test_no_pathological_slowdown(self, measured):
        for name, entry in measured["workloads"].items():
            assert entry["speedup"] >= 0.7, (name, entry["speedup"])

    def test_no_regression_vs_baseline(self, measured):
        baseline = measured["_baseline"]
        if baseline is None:
            pytest.skip("no committed baseline to compare against")
        for name, entry in baseline.get("workloads", {}).items():
            if name not in measured["workloads"]:
                continue
            fresh = measured["workloads"][name]
            for metric in ("speedup", "jit_speedup"):
                if metric not in entry or metric not in fresh:
                    continue
                assert fresh[metric] >= BASELINE_RATIO_FLOOR * entry[metric], (
                    f"{name}: {metric} fell to {fresh[metric]:.2f}x from "
                    f"baseline {entry[metric]:.2f}x "
                    f"(floor {BASELINE_RATIO_FLOOR:.0%})")

    def test_results_file_written(self, measured):
        stored = json.loads(RESULTS_PATH.read_text())
        assert len(stored["workloads"]) >= 3
        assert stored["engine_modes"] == list(ENGINE_MODES)
