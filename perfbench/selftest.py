#!/usr/bin/env python3
"""Self-test of the benchmark: tiny runs of every workload.

    python3 perfbench/selftest.py [--seed N]

Checks, for each workload:

* the untraced run prints every end-to-end metric of BENCHMARK.json,
  with its unit, and the traced run every per-layer metric;
* ``ok_ops_ratio`` is 1.0, and both runs report ``correct`` (the traced
  run is correct only when its simulated cycles equal the untraced
  pass's exactly);
* ``sim_cycles_per_op`` is identical across two invocations with the
  same seed;

and, across workloads, the layer split the benchmark was designed for
(host-time shares of the operation, from the traced runs):

* ``hw.vmrun`` is the majority of ``fib_compute`` operation time;
* the ``kvm.*`` and ``py.gc.*`` shares are larger in ``cold_boot``
  than in ``fib_compute``;
* the ``wasp.*``, ``host.*`` and ``apps.*`` shares are larger in
  ``http_snapshot`` than in ``fib_compute``.

Last, the benchmark must fail -- non-zero exit, no result line -- in a
directory holding only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Units of the per-layer metrics that are host self times, in ms.
TIME_UNITS = {"cal_ms": 1.0, "cal_us": 1e-3}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def expect(condition: bool, message: str = "") -> None:
    """A check that holds under ``python -O`` too."""
    if not condition:
        raise AssertionError(message)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    expect(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"result keys {sorted(result)}")
    return result


def check_units(result: dict, specs: list) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {s["name"]: s["unit"] for s in specs}
    expect(got == want, f"metrics/units differ: {sorted(set(got.items()) ^ set(want.items()))}")


def shares(metrics: dict) -> dict[str, float]:
    """Host-time share of the operation, per layer-name prefix."""
    times = {name: m["value"] * TIME_UNITS[m["unit"]] for name, m in metrics.items()
             if m["unit"] in TIME_UNITS}
    total = sum(times.values())
    prefixes = ("hw.vmrun.", "kvm.", "py.gc.", "wasp.", "host.", "apps.")
    return {p: sum(v for n, v in times.items() if n.startswith(p)) / total
            for p in prefixes}


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark self-test")
    parser.add_argument("--seed", type=int, default=7)
    seed = str(parser.parse_args().seed)
    failures = []
    split = {}

    def check(label: str, fn) -> None:
        try:
            fn()
            print(f"ok    {label}")
        except AssertionError as error:
            failures.append(label)
            print(f"FAIL  {label}: {error}")

    for workload in WORKLOADS:
        args = ("--workload", workload, "--seed", seed, "--seconds", "1")
        runs = [result_of(bench(*args, "--trace", "0")) for _ in range(2)]
        traced = result_of(bench(*args, "--trace", "1"))
        split[workload] = shares(traced["metrics"])

        def untraced_ok(runs=runs):
            check_units(runs[0], SPEC["end_to_end"])
            for run in runs:
                expect(run["correct"] and run["failed"] == 0, "run not correct")
                expect(run["metrics"]["ok_ops_ratio"]["value"] == 1.0, "ok_ops_ratio < 1")

        def same_cycles(runs=runs):
            a, b = (run["metrics"]["sim_cycles_per_op"]["value"] for run in runs)
            expect(a == b, f"{a} != {b}")

        def traced_ok(traced=traced):
            check_units(traced, SPEC["per_layer"])
            expect(traced["correct"] and traced["failed"] == 0, "traced run not correct")

        check(f"{workload}: end-to-end metrics, units, outputs", untraced_ok)
        check(f"{workload}: sim_cycles_per_op repeats for seed {seed}", same_cycles)
        check(f"{workload}: per-layer metrics, units, traced cycles = untraced", traced_ok)

    fib, boot, http = (split[w] for w in ("fib_compute", "cold_boot", "http_snapshot"))
    vmrun = fib["hw.vmrun."]
    check(f"hw.vmrun is the majority of fib_compute ({vmrun:.0%})",
          lambda: expect(vmrun > 0.5))
    for prefix in ("kvm.", "py.gc."):
        check(f"{prefix}* share cold_boot {boot[prefix]:.1%} > fib_compute {fib[prefix]:.1%}",
              lambda prefix=prefix: expect(boot[prefix] > fib[prefix]))
    for prefix in ("wasp.", "host.", "apps."):
        check(f"{prefix}* share http_snapshot {http[prefix]:.1%} > fib_compute {fib[prefix]:.1%}",
              lambda prefix=prefix: expect(http[prefix] > fib[prefix]))

    def fails_without_program():
        bare = ROOT / ".perfbench-out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("--workload", WORKLOADS[0], "--seed", seed, "--seconds", "1",
                         "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        expect(proc.returncode != 0, "exit 0")
        expect('"metrics"' not in proc.stdout, "printed a result")

    check("fails without the program's sources", fails_without_program)
    print("self-test " + ("FAILED: " + ", ".join(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
