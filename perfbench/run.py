#!/usr/bin/env python3
"""Two-clock benchmark of the virtine stack.

    python3 perfbench/run.py --workload fib_compute --seed 1 --seconds 10 --trace 0

Runs one workload (see ``workloads.py``) as a closed loop with one
client, in one process and one thread, against the sources in ``src/``
of the checkout it sits in.  Every operation's output is verified.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
same operations untraced and then traced, and reports the per-layer
metrics (see README.md).  Host times are in calibrated units (see
``calib.py``); simulated cycles are exact for a seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from calib import Calibration, factor, now_ns, timed_steps

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Where the traced run writes its spans (inside the checkout, ignored by git).
OUT = ROOT / ".perfbench-out"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "ops_per_s": "1/cal_s",
    "op_p50_ms": "cal_ms",
    "op_p99_ms": "cal_ms",
    "setup_s": "s",
    "sim_cycles_per_op": "cycles",
    "ok_ops_ratio": "ratio",
    "peak_mem_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fib_compute", "cold_boot", "http_snapshot"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="run length: the operation count is the "
                             "workload's nominal rate times this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


class Phase:
    """One pass of the operation sequence over a built stack."""

    def __init__(self, workload, items, calibration, trace=None):
        self.workload = workload
        self.items = items
        self.calibration = calibration
        self.trace = trace
        #: Calibrated seconds of each operation.
        self.times: list[float] = []
        self.ok = 0
        self.cycles = 0
        self.wall_s = 0.0
        self.thread_s = 0.0
        # Traced runs only: calibrated self seconds per layer, and the
        # calibrated seconds no span covered.
        self.layer_s: list[float] = []
        self.unattributed_s = 0.0

    def run(self) -> "Phase":
        workload, calibration, trace = self.workload, self.calibration, self.trace
        clock = workload.wasp.clock
        if trace is not None:
            self.layer_s = [0.0] * len(trace.calls)
        wall = time.perf_counter()
        thread = now_ns()
        before = calibration.sample()
        for item in self.items:
            cycles = clock.cycles
            if trace is not None:
                trace.begin_op()
            start = now_ns()
            try:
                output = workload.run(item)
            except Exception:  # a failed operation; the run goes on
                if self.failed == 0:
                    traceback.print_exc(file=sys.stderr)
                output = None
            elapsed = now_ns() - start
            after = calibration.sample()
            scale = factor(before, after)
            before = after
            self.cycles += clock.cycles - cycles
            self.times.append(elapsed * scale)
            if output is not None and workload.verify(item, output):
                self.ok += 1
            if trace is not None:
                self._fold(trace.end_op(elapsed), scale)
        self.thread_s = (now_ns() - thread) / 1e9
        self.wall_s = time.perf_counter() - wall
        return self

    def _fold(self, op_trace, scale: float) -> None:
        self_ns, unattributed_ns = op_trace
        layer_s = self.layer_s
        for lid, ns in enumerate(self_ns):
            if ns:
                layer_s[lid] += ns * scale
        self.unattributed_s += unattributed_ns * scale

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return self.attempted - self.ok

    @property
    def ops_per_s(self) -> float:
        return self.ok / sum(self.times)


def untraced_run(workload_cls, seed: int, seconds: int):
    calibration = Calibration()
    setups = []
    for _ in range(SETUP_REPEATS):
        workload = None
        gc.collect()
        workload = workload_cls(seed)
        setups.append(timed_steps(workload.setup(), calibration))
    items = workload.sequence(workload_cls.ops_per_second * seconds)
    phase = Phase(workload, items, calibration).run()
    ordered = sorted(phase.times)
    n = phase.attempted
    metrics = {
        "ops_per_s": phase.ops_per_s,
        "op_p50_ms": percentile(ordered, 50) * 1e3,
        "op_p99_ms": percentile(ordered, 99) * 1e3,
        "setup_s": statistics.median(setups),
        "sim_cycles_per_op": phase.cycles / n,
        "ok_ops_ratio": phase.ok / n,
        "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    diagnostics = {
        "ops": n,
        "ops_beyond_p99": n - math.ceil(0.99 * n),
        "timed_wall_s": phase.wall_s,
        "timed_thread_cpu_s": phase.thread_s,
        "kernel_median_us": calibration.median_ns() / 1e3,
        "cal_factor": calibration.median_factor(),
        "setup_s_each": setups,
    }
    result = {
        "correct": phase.failed == 0,
        "attempted": n,
        "failed": phase.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END_UNITS.items()},
    }
    return result, diagnostics


def traced_run(workload_cls, seed: int, seconds: int):
    from layertrace import LAYERS, LayerTrace
    from repro.trace import Category, Tracer
    from repro.wasp.metrics import collect

    calibration = Calibration()
    plain = workload_cls(seed)
    for _ in plain.setup():
        pass
    items = plain.sequence(workload_cls.ops_per_second * seconds)
    untraced = Phase(plain, items, calibration).run()
    # Free the first stack before building the second.
    untraced.workload = plain = None
    gc.collect()

    tracer = Tracer()
    trace = LayerTrace(tracer)
    trace.install()
    try:
        workload = workload_cls(seed, {"tracer": tracer, "telemetry": True})
        for _ in workload.setup():
            pass
        # Drop the set-up's span trees.
        tracer.roots.clear()
        tracer.orphan_events.clear()
        wasp = workload.wasp
        items = workload.sequence(workload_cls.ops_per_second * seconds)
        before = collect(wasp)
        exits_before = sum(wasp.kvm.jit_domain.stats()["side_exits"].values())
        traced = Phase(workload, items, calibration, trace=trace).run()
    finally:
        trace.uninstall()
    after = collect(wasp)
    jit = wasp.kvm.jit_domain.stats()

    n = traced.attempted
    layer = dict(zip(LAYERS, traced.layer_s))
    calls = dict(zip(LAYERS, trace.calls))
    hits = sum(p.hits for p in after.pools) - sum(p.hits for p in before.pools)
    misses = sum(p.misses for p in after.pools) - sum(p.misses for p in before.pools)
    warm = sum(image["warm_hits"] for image in jit["images"])
    attaches = warm + sum(image["warm_misses"] for image in jit["images"])
    attributed = sum(trace.category_cycles.values())

    def per_op_us(name):
        return layer[name] / n * 1e6

    metrics = {
        "hw.vmrun.self_ms_per_op": (layer["hw.vmrun"] / n * 1e3, "cal_ms"),
        "hw.vmrun.calls_per_op": (calls["hw.vmrun"] / n, "count"),
        "hw.guest_insns_per_op": (trace.guest_steps / n, "count"),
        "hw.guest_minsns_per_s": (trace.guest_steps / layer["hw.vmrun"] / 1e6, "M/cal_s"),
        "hw.jit.compiles": (jit["blocks_compiled"], "count"),
        "hw.jit.warm_hit_ratio": (warm / attaches if attaches else 0.0, "ratio"),
        "hw.jit.side_exits_per_op": (
            (sum(jit["side_exits"].values()) - exits_before) / n, "count"),
        "hw.memory.restore_us_per_op": (per_op_us("hw.memory.restore"), "cal_us"),
        "kvm.create_us_per_op": (per_op_us("kvm.create"), "cal_us"),
        "kvm.close_us_per_op": (per_op_us("kvm.close"), "cal_us"),
        "kvm.vms_created_per_op": ((after.vms_created - before.vms_created) / n, "count"),
        "wasp.launch.self_us_per_op": (per_op_us("wasp.launch"), "cal_us"),
        "wasp.pool.acquire_us_per_op": (per_op_us("wasp.pool.acquire"), "cal_us"),
        "wasp.pool.release_us_per_op": (per_op_us("wasp.pool.release"), "cal_us"),
        "wasp.pool.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "wasp.snapshot.restores_per_op": (
            (after.snapshot_restores - before.snapshot_restores) / n, "count"),
        "wasp.hypercall.self_us_per_op": (per_op_us("wasp.hypercall"), "cal_us"),
        "wasp.hypercall.calls_per_op": (calls["wasp.hypercall"] / n, "count"),
        "wasp.supervisor.self_us_per_op": (per_op_us("wasp.supervisor"), "cal_us"),
        "host.syscall.self_us_per_op": (per_op_us("host.syscall"), "cal_us"),
        "host.syscalls_per_op": ((after.host_syscalls - before.host_syscalls) / n, "count"),
        "apps.http.serve.self_us_per_op": (per_op_us("apps.http.serve"), "cal_us"),
        "py.gc.pause_ms_per_op": (layer["py.gc"] / n * 1e3, "cal_ms"),
        "py.gc.gen2_collections": (trace.gc_gen2, "count"),
    }
    for category in Category:
        metrics[f"sim.cycles_per_op.{category.value}"] = (
            trace.category_cycles.get(category.value, 0) / n, "cycles")
    metrics["sim.cycles_per_op.outside_launch"] = ((traced.cycles - attributed) / n, "cycles")
    metrics["trace.overhead_ratio"] = (traced.ops_per_s / untraced.ops_per_s, "ratio")
    metrics["trace.unattributed_ms_per_op"] = (traced.unattributed_s / n * 1e3, "cal_ms")

    cycles_match = traced.cycles == untraced.cycles
    trace.write(OUT / f"{workload_cls.name}-seed{seed}.spans",
                {"workload": workload_cls.name, "seed": seed, "ops": n,
                 "clock": "thread_time_ns"})
    print_layer_table(workload_cls.name, layer, calls, traced, trace.category_cycles)
    diagnostics = {
        "ops": n,
        "sim_cycles_traced": traced.cycles,
        "sim_cycles_untraced": untraced.cycles,
        "sim_cycles_match": cycles_match,
        "spans": len(trace.spans),
        "kernel_median_us": calibration.median_ns() / 1e3,
        "cal_factor": calibration.median_factor(),
    }
    failed = untraced.failed + traced.failed
    result = {
        "correct": failed == 0 and cycles_match,
        "attempted": untraced.attempted + n,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, diagnostics


def print_layer_table(name: str, layer: dict, calls: dict, phase: Phase,
                      category_cycles: dict) -> None:
    n = phase.attempted
    op_s = sum(phase.times)
    print(f"{name}: host time per operation by layer "
          f"(self time; {op_s / n * 1e3:.3f} cal ms per op)")
    rows = sorted(layer.items(), key=lambda item: -item[1])
    rows.append(("(unattributed)", phase.unattributed_s))
    for layer_name, seconds in rows:
        print(f"  {layer_name:<20} {seconds / n * 1e3:10.4f} cal ms "
              f"{seconds / op_s:8.1%} {calls.get(layer_name, 0) / n:8.2f} calls/op")
    print(f"{name}: simulated cycles per operation by tracer category")
    for category, cycles in sorted(category_cycles.items()):
        print(f"  {category:<20} {cycles / n:14,.1f}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The JIT's heat threshold is part of the program under test: run it
    # at its built-in default whatever the environment says.
    os.environ.pop("REPRO_JIT_THRESHOLD", None)
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    run = traced_run if args.trace else untraced_run
    result, diagnostics = run(workload_cls, args.seed, args.seconds)
    print("diagnostics: " + json.dumps(
        dict(workload=args.workload, seed=args.seed, trace=args.trace, **diagnostics)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
