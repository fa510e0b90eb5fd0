"""Command-line interface: ``python -m repro <command>``.

The artifact's ``make smoketest`` analogue plus quick experiment
runners.  Commands:

* ``smoketest`` -- exercise every subsystem end-to-end and report.
* ``boot``      -- print the Table 1 boot breakdown.
* ``creation``  -- print the Figure 8 creation-latency comparison.
* ``backends``  -- print the five-mechanism isolation spectrum (per
  backend: capabilities, creation cost, measured boundary crossing).
* ``metrics``   -- run a supervised workload under injected faults and
  dump the supervision counters (``--json`` for machine-readable).
* ``trace``     -- run a traced workload and emit the span timeline,
  per-phase histograms, and attribution (``--format json`` writes a
  Chrome trace-event file loadable at https://ui.perfetto.dev).
* ``admission-replay`` -- run a seeded burst workload through the
  overload-protected scheduler twice and verify the recorded admission
  trace replays identically (IRIS-style record-and-replay).
* ``replay``    -- the hypervisor-boundary record/replay plane:
  ``record`` a workload's boundary event stream, ``run`` it back through
  the live handler plane with no guest interpreter (byte-identical or
  exit 1), or ``fuzz`` seeded mutations of it and assert every hostile
  stream lands in the typed crash taxonomy.
* ``chaos``     -- the durability gauntlet: crash-point fuzz the durable
  snapshot store (kill + recover after every journal record), then run
  the seeded cluster chaos plan twice and assert exactly-once recovery
  with a byte-identical recovery signature.
* ``store``     -- durable-store utilities; ``store scrub <files...>``
  round-trips file bytes through a crash-recovered content-addressed
  store and verifies integrity end to end.
* ``info``      -- version, cost-model calibration summary.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from repro import __version__, env_seed
from repro.units import cycles_to_us

if TYPE_CHECKING:
    from repro.faults import FaultPlan
    from repro.wasp.guestenv import GuestEnv


def _ok(label: str, detail: str = "") -> None:
    print(f"  [ok] {label}" + (f" ({detail})" if detail else ""))


def cmd_smoketest(_args: argparse.Namespace) -> int:
    """Run one scenario through every subsystem; fail loudly on any break."""
    from repro.apps.crypto.aes import AES128
    from repro.apps.http.client import RequestGenerator
    from repro.apps.http.server import StaticHttpServer
    from repro.apps.js.virtine_js import JsVirtineClient, python_base64
    from repro.hw.cpu import Mode
    from repro.runtime.image import ImageBuilder
    from repro.wasp import Wasp

    print("virtines smoketest")

    wasp = Wasp()
    builder = ImageBuilder()

    result = wasp.launch(builder.minimal(Mode.LONG64), use_snapshot=False)
    _ok("boot minimal virtine to long mode", f"{cycles_to_us(result.cycles):.1f} us")

    fib = wasp.launch(builder.fib(Mode.LONG64, 15), use_snapshot=False)
    if fib.ax != 610:
        print(f"  [FAIL] fib(15) in guest assembly returned {fib.ax}")
        return 1
    _ok("assembly fib(15) == 610 in guest context")

    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
    expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
    if AES128(key).encrypt_block(plaintext) != expected:
        print("  [FAIL] AES-128 FIPS vector mismatch")
        return 1
    _ok("AES-128 matches FIPS-197 appendix B")

    data = bytes(range(256)) * 4
    js = JsVirtineClient(wasp, use_snapshot=True)
    first = js.run(data)
    warm = js.run(data)
    if warm.encoded != python_base64(data):
        print("  [FAIL] JS base64 mismatch")
        return 1
    _ok("JS engine base64 in a virtine",
        f"cold {cycles_to_us(first.cycles):.0f} us, warm {cycles_to_us(warm.cycles):.0f} us")

    http_wasp = Wasp()
    http_wasp.kernel.fs.add_file("/srv/index.html", b"<html>smoke</html>")
    server = StaticHttpServer(http_wasp, port=8000, isolation="snapshot")
    generator = RequestGenerator(http_wasp.kernel, server, "/index.html")
    outcome = generator.one_request()
    if outcome.response.status != 200 or outcome.response.body != b"<html>smoke</html>":
        print("  [FAIL] HTTP served wrong content")
        return 1
    _ok("HTTP request served from a virtine",
        f"{cycles_to_us(outcome.latency_cycles):.0f} us, "
        f"{server.served[-1].hypercalls} hypercalls")

    print("smoketest passed")
    return 0


def cmd_boot(_args: argparse.Namespace) -> int:
    from repro.hw.clock import Clock
    from repro.hw.cpu import Mode
    from repro.hw.isa import Assembler
    from repro.hw.vmx import VirtualMachine
    from repro.runtime.boot import boot_source

    vm = VirtualMachine(8 * 1024 * 1024, Clock())
    vm.load_program(Assembler(0x8000).assemble(boot_source(Mode.LONG64)))
    vm.vmrun()
    print("boot component breakdown (cycles):")
    for component, cycles in sorted(
        vm.interp.component_cycles.items(), key=lambda kv: -kv[1]
    ):
        print(f"  {component:28s} {cycles:>8,}")
    print(f"  {'total':28s} {sum(vm.interp.component_cycles.values()):>8,}")
    return 0


def cmd_creation(_args: argparse.Namespace) -> int:
    from repro.host.process import ProcessBaseline
    from repro.host.threads import PthreadBaseline
    from repro.runtime.image import ImageBuilder
    from repro.wasp import CleanMode, Wasp

    wasp = Wasp()
    image = ImageBuilder().hlt_only()
    wasp.launch(image, use_snapshot=False)
    wasp.launch(image, use_snapshot=False)
    rows = [
        ("function call", wasp.costs.FUNCTION_CALL),
        ("vmrun (hardware limit)", wasp.costs.vmrun_roundtrip()),
        ("Wasp+CA (pooled, async clean)",
         wasp.launch(image, use_snapshot=False, clean=CleanMode.ASYNC).cycles),
        ("Wasp+C (pooled)",
         wasp.launch(image, use_snapshot=False, clean=CleanMode.SYNC).cycles),
        ("pthread create+join", PthreadBaseline(wasp.kernel).create_and_join()),
        ("Wasp (scratch)",
         wasp.launch(image, use_snapshot=False, pooled=False).cycles),
        ("process spawn", ProcessBaseline(wasp.kernel).spawn()),
    ]
    print("execution-context creation latencies:")
    for label, cycles in rows:
        print(f"  {label:32s} {cycles:>10,} cyc  {cycles_to_us(cycles):>9.2f} us")
    return 0


def cmd_backends(args: argparse.Namespace) -> int:
    """The five-mechanism isolation spectrum, measured live.

    One row per backend: declared capabilities, context-creation cost,
    and a measured warm boundary crossing through the real launcher
    (the Table 2 matrix).  ``--json`` for machine-readable output.
    """
    from repro.baselines import spectrum_mechanisms
    from repro.host.backend import BACKEND_NAMES, create_host

    spectrum = spectrum_mechanisms()
    rows = []
    for name in BACKEND_NAMES:
        mechanism = spectrum[name]
        caps = create_host(name).caps
        crossing = mechanism.cross()
        creation = (mechanism.creation_cycles()
                    if hasattr(mechanism, "creation_cycles") else None)
        rows.append({
            "backend": name,
            "system": crossing.system,
            "mechanism": crossing.mechanism,
            "creation_cycles": creation,
            "crossing_cycles": crossing.cycles,
            "crossing_us": round(crossing.latency_us, 3),
            "caps": {
                "snapshot": caps.snapshot,
                "pooled": caps.pooled,
                "in_process": caps.in_process,
                "kill_on_violation": caps.kill_on_violation,
            },
        })

    if args.json:
        import json

        print(json.dumps({"backends": rows}, sort_keys=True, indent=2))
        return 0

    print("isolation spectrum (Table 2 matrix, measured):")
    print(f"  {'backend':10s} {'mechanism':28s} {'create cyc':>12s} "
          f"{'cross cyc':>10s} {'cross us':>9s}  caps")
    for row in rows:
        creation = (f"{row['creation_cycles']:,}"
                    if row["creation_cycles"] is not None else "-")
        caps = ",".join(k for k, v in row["caps"].items() if v) or "-"
        print(f"  {row['backend']:10s} {row['mechanism']:28s} {creation:>12s} "
              f"{row['crossing_cycles']:>10,} {row['crossing_us']:>9.2f}  {caps}")
    print("select with @virtine(backend=...) or create_host(name)")
    return 0


def cmd_scale(args: argparse.Namespace) -> int:
    """Figure 9/10: parallel creation throughput vs. simulated cores."""
    from repro.cluster import parallel_creation

    core_counts = []
    n = 1
    while n < args.cores:
        core_counts.append(n)
        n *= 2
    core_counts.append(args.cores)

    rows = []
    for cores in core_counts:
        row = {"cores": cores}
        for variant, pooled in (("pooled", True), ("scratch", False)):
            report = parallel_creation(cores, args.launches,
                                       pooled=pooled, seed=args.seed)
            replay = parallel_creation(cores, args.launches,
                                       pooled=pooled, seed=args.seed)
            assert report.signature() == replay.signature(), (
                f"non-deterministic replay at cores={cores} {variant}"
            )
            row[variant] = {
                "throughput_per_s": report.throughput_per_s,
                "makespan_cycles": report.makespan_cycles,
                "steals": report.steals,
            }
        rows.append(row)

    if args.json:
        import json

        print(json.dumps(
            {"seed": args.seed, "launches": args.launches, "rows": rows},
            sort_keys=True, indent=2,
        ))
        return 0
    print(f"parallel virtine creation, {args.launches} launches, seed {args.seed}")
    print(f"  {'cores':>5s}  {'pooled/s':>14s}  {'scratch/s':>14s}  {'speedup':>8s}")
    base = rows[0]["pooled"]["throughput_per_s"]
    for row in rows:
        pooled = row["pooled"]["throughput_per_s"]
        scratch = row["scratch"]["throughput_per_s"]
        print(f"  {row['cores']:>5d}  {pooled:>14,.0f}  {scratch:>14,.0f}"
              f"  {pooled / base:>7.2f}x")
    print("determinism: every row replayed with an identical signature")
    return 0


def _metrics_plan(seed: int) -> FaultPlan:
    """The ``metrics`` demo's fault plan: four injection sites."""
    from repro.faults import FaultPlan, FaultSite

    return (
        FaultPlan(seed=seed)
        .fail(FaultSite.VCPU_RUN, rate=0.06)
        .fail(FaultSite.HOST_SYSCALL, rate=0.04)
        .fail(FaultSite.POOL_ACQUIRE, rate=0.04)
        .fail(FaultSite.SNAPSHOT_RESTORE, rate=0.03)
    )


def _blob_job(env: GuestEnv) -> int:
    """The ``metrics`` demo guest: snapshot after init, then read
    ``/data/blob`` through OPEN/READ/CLOSE."""
    from repro.host.filesystem import O_RDONLY
    from repro.wasp import Hypercall

    if not env.from_snapshot:
        env.charge(20_000)  # init work that snapshotting elides
        env.snapshot()
    fd = env.hypercall(Hypercall.OPEN, "/data/blob", O_RDONLY)
    data = env.hypercall(Hypercall.READ, fd, 4096)
    env.hypercall(Hypercall.CLOSE, fd)
    env.charge_bytes(len(data))
    return len(data)


def _charge_job(env: GuestEnv) -> int:
    """The ``trace``/``telemetry`` demo guest: snapshot after init, then
    charge one page of work."""
    if not env.from_snapshot:
        env.charge(20_000)
        env.snapshot()
    env.charge_bytes(4096)
    return 0


def _cmd_metrics_cluster(args: argparse.Namespace) -> int:
    """``repro metrics --cores N``: the faulty workload on a cluster.

    Per-core samples aggregate through :func:`repro.wasp.metrics.
    aggregate` (throughput counters summed, ``hangs_by_kind`` and the
    other keyed maps merged per key, breaker states most-degraded-wins)
    and the JSON adds a ``per_core`` breakdown next to the merged
    ``primary`` view.
    """
    from repro.cluster.smp import VirtineCluster
    from repro.runtime.image import ImageBuilder
    from repro.wasp import PermissivePolicy
    from repro.wasp.metrics import aggregate, collect

    def plan_for(core_id: int) -> FaultPlan:
        # Independent per-core fault streams, derived from the one seed.
        return _metrics_plan(args.seed * 100 + core_id)

    cluster = VirtineCluster(args.cores, seed=args.seed, supervised=True,
                             fault_plan_factory=plan_for)
    for engine in cluster.engines:
        engine.wasp.kernel.fs.add_file("/data/blob", b"x" * 4096)

    image = ImageBuilder().hosted(name="metrics-job", entry=_blob_job)
    report = cluster.launch_many(
        image, [None] * args.requests,
        policy=PermissivePolicy(), use_snapshot=True,
    )
    samples = [collect(engine.wasp) for engine in cluster.engines]
    merged = aggregate(samples)

    if args.json:
        import json

        payload = {
            "seed": args.seed,
            "requests": args.requests,
            "cores": args.cores,
            "served": report.launches,
            "failed": len(report.failures),
            "primary": merged.to_dict(),
            "per_core": [
                {"core": core_id, **sample.to_dict()}
                for core_id, sample in enumerate(samples)
            ],
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0

    print(f"supervised cluster workload: seed={args.seed} "
          f"requests={args.requests} cores={args.cores}")
    print(f"  served={report.launches} failed={len(report.failures)} "
          f"makespan={report.makespan_cycles:,} cyc steals={report.steals}")
    print("aggregate (all cores):")
    print(merged.summary())
    for core_id, sample in enumerate(samples):
        crashes = sum(sample.crashes_by_class.values())
        print(f"  core {core_id}: launches={sample.launches} "
              f"crashes={crashes} retries={sample.retries} "
              f"timeouts={sample.timeouts} "
              f"clock={sample.clock_cycles:,} cyc")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Supervised faulty workload + counter dump (deterministic per seed)."""
    if getattr(args, "cores", 1) > 1:
        return _cmd_metrics_cluster(args)
    from repro.apps.serverless.platform import SupervisedPlatform
    from repro.runtime.image import ImageBuilder
    from repro.wasp import PermissivePolicy, Wasp
    from repro.wasp.metrics import collect

    plan = _metrics_plan(args.seed)
    # The primary captures into the journaled content-addressed store,
    # so the dump includes the durable-store counter surface (dedup
    # ratio, GC, scrub, journal) alongside the supervision counters.
    from repro.store import DurableSnapshotStore

    primary = Wasp(fault_plan=plan, snapshot_store=DurableSnapshotStore())
    fallback = Wasp()
    for wasp in (primary, fallback):
        wasp.kernel.fs.add_file("/data/blob", b"x" * 4096)

    image = ImageBuilder().hosted(name="metrics-job", entry=_blob_job)
    platform = SupervisedPlatform(primary, fallback)
    report = platform.run_workload(
        image,
        [None] * args.requests,
        policy=PermissivePolicy(),
        use_snapshot=True,
    )

    if args.json:
        import json

        payload = {
            "seed": args.seed,
            "requests": args.requests,
            "served": report.served,
            "degraded_to_fallback": report.degraded_count,
            "client_visible_failures": report.client_visible_failures,
            "primary": collect(primary).to_dict(),
            "fallback": collect(fallback).to_dict(),
            "fault_trace": [
                {"site": event.site.value, "nth": event.nth,
                 "detail": event.detail}
                for event in plan.trace
            ],
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0 if report.client_visible_failures == 0 else 1

    print(f"supervised workload: seed={args.seed} requests={args.requests}")
    print(
        f"  served={report.served} degraded_to_fallback={report.degraded_count} "
        f"client_visible_failures={report.client_visible_failures}"
    )
    print("primary node:")
    print(collect(primary).summary())
    print("fallback node:")
    print(collect(fallback).summary())
    print(f"fault trace: {len(plan.trace)} injected fault(s)")
    for event in plan.trace:
        detail = f" {event.detail}" if event.detail else ""
        print(f"  {event.site.value}#{event.nth}{detail}")
    return 0 if report.client_visible_failures == 0 else 1


def cmd_admission_replay(args: argparse.Namespace) -> int:
    """Deterministic overload demo + trace replay check.

    Runs the seeded burst workload through an overload-protected Vespid
    platform twice with identical configuration and asserts the two
    admission traces (shed / eviction / expiry / timeout decisions) are
    identical.  Exit 0 requires the replay to match, the queue to stay
    within its bound, and admitted p99 latency to stay within the
    configured deadline -- the platform sheds load instead of collapsing.
    """
    from repro.apps.serverless.vespid import VespidPlatform
    from repro.apps.serverless.workload import BurstyWorkload
    from repro.faults import FaultPlan, FaultSite
    from repro.wasp.admission import (
        AdmissionConfig,
        AdmissionController,
        AdmissionTrace,
        ShedPolicy,
    )

    arrivals = BurstyWorkload.paper_pattern(scale=args.scale, seed=args.seed).arrivals()

    def one_run():
        plan = FaultPlan(seed=args.seed)
        if args.burst_fault_rate > 0:
            plan.fail(FaultSite.BURST_ARRIVAL, rate=args.burst_fault_rate)
        controller = AdmissionController(
            AdmissionConfig(
                max_queue_depth=args.queue_depth,
                shed_policy=ShedPolicy(args.policy),
                rate=args.rate,
                burst=args.burst,
            ),
            fault_plan=plan,
        )
        platform = VespidPlatform(
            max_workers=args.workers,
            admission=controller,
            deadline_s=args.deadline_s,
        )
        return platform.run_with_admission(arrivals)

    recorded = one_run()
    replayed = one_run()
    match = recorded.signature() == replayed.signature()

    p99_ms = recorded.latency_percentile_ms(99.0)
    deadline_ms = args.deadline_s * 1000.0
    p99_ok = p99_ms <= deadline_ms
    queue_ok = recorded.queue_high_water <= args.queue_depth

    ctrl = recorded.admission
    print(f"admission replay: seed={args.seed} scale={args.scale} "
          f"workers={args.workers} policy={args.policy}")
    print(f"  arrivals={len(arrivals)} admitted={recorded.admitted} "
          f"completed={recorded.completed} timeouts={recorded.timeouts}")
    shed_detail = " ".join(
        f"{reason}={count}"
        for reason, count in sorted(ctrl.shed_by_reason.items()) if count
    ) or "none"
    print(f"  shed={recorded.shed} ({shed_detail})")
    print(f"  queue high water={recorded.queue_high_water}/{args.queue_depth} "
          f"[{'ok' if queue_ok else 'OVERFLOW'}]")
    print(f"  admitted p99={p99_ms:.1f} ms vs deadline={deadline_ms:.0f} ms "
          f"[{'ok' if p99_ok else 'MISSED'}]")
    print(f"  trace: {len(ctrl.trace)} decisions, replay "
          f"{'identical' if match else 'DIVERGED'}")

    if args.trace:
        import os

        if os.path.exists(args.trace):
            with open(args.trace, "r", encoding="utf-8") as fh:
                stored = AdmissionTrace.from_json(fh.read())
            disk_match = stored.signature() == ctrl.trace.signature()
            print(f"  stored trace {args.trace}: "
                  f"{'identical' if disk_match else 'DIVERGED'}")
            match = match and disk_match
        else:
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write(ctrl.trace.to_json())
            print(f"  recorded trace -> {args.trace}")

    return 0 if (match and p99_ok and queue_ok) else 1


def _traced_echo(seed: int, requests: int, telemetry=None):
    from repro.apps.http.server import EchoServer
    from repro.wasp import Wasp

    wasp = Wasp(tracer=True, telemetry=telemetry)
    echo = EchoServer(wasp, port=7)
    for i in range(requests):
        conn = wasp.kernel.sys_connect(7)
        wasp.kernel.sys_send(conn, b"ping %d" % i)
        echo.handle_one()
    return wasp


def _traced_http(seed: int, requests: int, telemetry=None):
    from repro.apps.http.client import RequestGenerator
    from repro.apps.http.server import StaticHttpServer
    from repro.wasp import Wasp

    wasp = Wasp(tracer=True, telemetry=telemetry)
    wasp.kernel.fs.add_file("/srv/index.html", b"<html>trace</html>")
    server = StaticHttpServer(wasp, port=8080, isolation="snapshot")
    generator = RequestGenerator(wasp.kernel, server, "/index.html")
    for _ in range(requests):
        generator.one_request()
    return wasp


def _traced_serverless(seed: int, requests: int, telemetry=None):
    """A seeded faulty burst, so shed/retry/quarantine spans appear."""
    from repro.apps.serverless.platform import SupervisedPlatform
    from repro.faults import FaultPlan, FaultSite
    from repro.runtime.image import ImageBuilder
    from repro.wasp import PermissivePolicy, Wasp

    plan = (
        FaultPlan(seed=seed)
        .fail(FaultSite.VCPU_RUN, rate=0.08)
        .fail(FaultSite.POOL_ACQUIRE, rate=0.05)
        .fail(FaultSite.SNAPSHOT_RESTORE, rate=0.05)
    )
    primary = Wasp(fault_plan=plan, tracer=True, telemetry=telemetry)
    fallback = Wasp()
    image = ImageBuilder().hosted(name="trace-job", entry=_charge_job)
    SupervisedPlatform(primary, fallback).run_workload(
        image, [None] * requests, policy=PermissivePolicy(), use_snapshot=True,
    )
    return primary


TRACE_WORKLOADS = {
    "echo": _traced_echo,
    "http": _traced_http,
    "serverless": _traced_serverless,
}


def cmd_trace(args: argparse.Namespace) -> int:
    """Trace a workload; print a timeline or write a Perfetto-loadable file."""
    import json

    from repro.trace import (
        attribution,
        phase_histograms,
        render_timeline,
        to_chrome_json,
        validate_chrome_trace,
    )

    registry = None
    if getattr(args, "telemetry", False):
        from repro.telemetry import TelemetryRegistry

        registry = TelemetryRegistry()
    wasp = TRACE_WORKLOADS[args.workload](args.seed, args.requests,
                                          telemetry=registry)
    tracer = wasp.tracer

    if args.format == "json":
        payload = to_chrome_json(tracer, registry)
        validate_chrome_trace(json.loads(payload))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
            print(f"wrote {args.out} ({len(payload):,} bytes; "
                  "load it at https://ui.perfetto.dev)")
        else:
            sys.stdout.write(payload)
        return 0

    print(f"traced workload: {args.workload} seed={args.seed} "
          f"requests={args.requests} ({len(list(tracer.walk()))} spans)")
    if tracer.roots:
        print()
        print(f"last root span timeline (of {len(tracer.roots)}):")
        print(render_timeline(tracer.roots[-1]))
    print()
    print("attribution (leaf cycles by category):")
    folded = attribution(tracer, by="category")
    total = sum(folded.values()) or 1
    for category, cycles in sorted(folded.items(), key=lambda kv: -kv[1]):
        print(f"  {category:12s} {cycles:>12,} cyc  {cycles / total:>6.1%}")
    print()
    print("per-phase latency histograms (cycles):")
    for name, histogram in sorted(phase_histograms(tracer).items()):
        print(f"  {name:28s} {histogram.summary()}")
    return 0


def cmd_telemetry(args: argparse.Namespace) -> int:
    """Run a workload with the telemetry plane on; export the snapshot.

    The snapshot's ``signature()`` is the determinism contract: the
    same seed (and core count) must reproduce it byte-for-byte, so two
    invocations are directly comparable with ``sha256sum``.
    """
    from repro.telemetry import (
        SLOMonitor,
        TelemetryRegistry,
        TelemetrySnapshot,
        absorb_wasp,
        to_prometheus,
    )

    if args.cores > 1:
        from repro.cluster.smp import VirtineCluster
        from repro.runtime.image import ImageBuilder
        from repro.wasp import PermissivePolicy

        cluster = VirtineCluster(args.cores, seed=args.seed, telemetry=True)
        image = ImageBuilder().hosted(name="telemetry-job", entry=_charge_job)
        cluster.launch_many(image, [None] * args.requests,
                            policy=PermissivePolicy(), use_snapshot=True)
        snapshot = cluster.telemetry_snapshot(
            meta={"workload": "cluster", "requests": args.requests},
            black_boxes=args.black_boxes,
        )
    else:
        registry = TelemetryRegistry()
        if args.slo_deadline:
            registry.add_slo(SLOMonitor(
                name="launch-p99", metric="launch_cycles",
                deadline_cycles=args.slo_deadline,
            ))
        wasp = TRACE_WORKLOADS[args.workload](args.seed, args.requests,
                                              telemetry=registry)
        absorb_wasp(wasp)
        snapshot = TelemetrySnapshot.capture(
            registry,
            meta={"workload": args.workload, "seed": args.seed,
                  "requests": args.requests},
            black_boxes=args.black_boxes,
        )

    if args.format == "json":
        out = snapshot.to_json()
    elif args.format == "prom":
        out = to_prometheus(snapshot)
    else:
        out = snapshot.summary() + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
        print(f"wrote {args.out} ({len(out):,} bytes) "
              f"signature={snapshot.signature()}")
    else:
        sys.stdout.write(out)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """``profile diff A B``: per-component cycle regression check.

    ``A`` and ``B`` are telemetry snapshot JSON files (``repro
    telemetry --format json --out ...``); the diff normalizes each
    component's attributed cycles per launch, so runs with different
    request counts still compare.  ``--gate`` exits 1 when any
    component regressed past the threshold.
    """
    import json

    from repro.telemetry import TelemetrySnapshot, diff_profiles

    base = TelemetrySnapshot.load(args.base)
    other = TelemetrySnapshot.load(args.other)
    diff = diff_profiles(base.to_dict(), other.to_dict(),
                         threshold=args.threshold)
    if args.json:
        print(json.dumps(diff.to_dict(), sort_keys=True, indent=2))
    else:
        print(diff.to_text())
    if args.gate and diff.regressions:
        return 1
    return 0


#: Workloads the boundary record/replay plane can drive (kept in sync
#: with :data:`repro.replay.workloads.REPLAY_WORKLOADS`, asserted there).
REPLAY_WORKLOAD_NAMES = ("echo", "faulty", "http_snapshot", "serverless")


def cmd_replay(args: argparse.Namespace) -> int:
    """Record, replay, or fuzz a hypervisor-boundary event stream."""
    from repro.replay import BoundaryStream, InterfaceFuzzer, record, replay

    if args.replay_verb == "record":
        stream = record(args.workload, seed=args.seed, requests=args.requests,
                        backend=args.backend)
        stream.save(args.out, indent=2)
        print(f"recorded {args.workload}: {len(stream.events)} boundary events")
        print(f"  signature {stream.signature()}")
        print(f"  artifact  {args.out}")
        return 0

    stream = BoundaryStream.load(args.artifact)
    if args.replay_verb == "run":
        report = replay(stream, strict=not args.hostile)
        print(f"replayed {stream.workload} "
              f"(seed={stream.params.get('seed')}, "
              f"requests={stream.params.get('requests')}, "
              f"backend={stream.params.get('backend')})")
        print(f"  recorded signature {report.recorded_signature}")
        print(f"  replayed signature {report.replayed_signature}")
        if report.ok:
            print("  byte-identical: handler responses, taxonomy verdicts, "
                  "and trace attribution all match")
            return 0
        for divergence in report.divergences:
            print(f"  divergence: {divergence}")
        return 1

    # fuzz
    seed = args.seed if args.seed is not None else env_seed(1234)
    fuzzer = InterfaceFuzzer(stream, seed=seed, artifacts_dir=args.artifacts)
    report = fuzzer.run(cases=args.cases, only_case=args.case)
    print(f"fuzzed {stream.workload}: {len(report.cases)} case(s), "
          f"seed {report.seed}")
    counts = report.outcome_counts()
    for outcome in sorted(counts):
        print(f"  {counts[outcome]:4d}  {outcome}")
    for case in report.failures:
        print(f"  FAIL case {case.index} [{case.mutation}]: {case.outcome} "
              f"{case.detail}")
        for problem in case.invariant_failures:
            print(f"        invariant: {problem}")
    if report.ok:
        print("  hostile-guest invariant held: every mutation resolved to a "
              "typed taxonomy verdict; host plane intact")
        return 0
    print(f"  reproduce: REPRO_SEED={report.seed} python -m repro "
          f"replay fuzz {args.artifact} --case <index>")
    return 1


def cmd_chaos(args: argparse.Namespace) -> int:
    """Crash-point fuzz the store, then prove cluster chaos recovery.

    Exit 0 requires all three: every crash-point case recovered to the
    journal's consistent prefix, the chaos run upheld exactly-once
    semantics (no lost results, no duplicated effects, store integrity
    intact), and an identical-seed re-run produced a byte-identical
    recovery signature.
    """
    import json

    from repro.cluster.chaos import run_chaos
    from repro.store import CrashPointFuzzer

    seed = args.seed if args.seed is not None else env_seed(1234)

    telemetry = getattr(args, "telemetry", False)
    fuzz = CrashPointFuzzer(seed=seed, min_cases=args.cases).run()
    first = run_chaos(seed, cores=args.cores, tasks=args.tasks,
                      telemetry=telemetry)
    second = run_chaos(seed, cores=args.cores, tasks=args.tasks,
                       telemetry=telemetry)
    deterministic = first.signature() == second.signature()
    ok = fuzz.ok and first.ok and deterministic

    if args.json:
        payload = {
            "seed": seed,
            "ok": ok,
            "deterministic": deterministic,
            "recovery_signature": first.signature(),
            "crash_point": fuzz.to_dict(),
            "chaos": first.to_dict(),
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0 if ok else 1

    print(f"durability gauntlet: seed={seed}")
    print(f"  crash-point fuzz: {fuzz.cases} cases "
          f"({fuzz.torn_cases} torn-tail) over {len(fuzz.seeds_used)} "
          f"workload seed(s), {fuzz.records_journaled} records journaled")
    if fuzz.failures:
        for case in fuzz.failures[:10]:
            print(f"    FAIL seed={case.seed} boundary={case.boundary} "
                  f"torn={case.torn}: {case.detail}")
    else:
        print("    every kill point recovered to the consistent journal "
              "prefix, scrub clean")
    print(f"  cluster chaos: cores={args.cores} tasks={args.tasks} "
          f"events fired={len(first.fired)} skipped={len(first.skipped)}")
    print(f"    dead cores={sorted(first.dead_cores)} "
          f"re-executions={first.reexecutions} "
          f"suppressed duplicate effects={first.suppressed_effects}")
    print(f"    store rot injected={first.corrupted_chunks} "
          f"restore fallbacks={first.snapshot_fallbacks} "
          f"tampered migrations={first.tampered_migrations} "
          f"dropped migrations={first.interrupted_migrations}")
    for violation in first.violations:
        print(f"    INVARIANT VIOLATED: {violation}")
    for failure in first.launch_failures:
        print(f"    LAUNCH FAILED: {failure}")
    if first.ok:
        print("    exactly-once held: no lost results, no duplicated "
              "effects, store integrity intact")
    if first.telemetry is not None:
        boxes = first.telemetry.get("black_boxes", {})
        entries = sum(len(b["entries"]) for b in boxes.values())
        print(f"    telemetry: {len(first.telemetry['instruments'])} "
              f"instruments, {entries} flight-recorder entries across "
              f"{len(boxes)} black box(es)")
    print(f"  recovery signature {first.signature()[:32]} "
          f"[{'replayed identically' if deterministic else 'DIVERGED'}]")
    if not ok:
        print(f"  reproduce: REPRO_SEED={seed} python -m repro chaos")
    return 0 if ok else 1


def cmd_store(args: argparse.Namespace) -> int:
    """``store scrub``: integrity-check files through the durable store.

    Each file's bytes are chunked into a content-addressed snapshot,
    journaled, recovered on a cloned medium (a simulated host crash),
    reassembled, and compared byte-for-byte against the original; the
    recovered store must also scrub clean.
    """
    from repro.store import DurableSnapshotStore
    from repro.wasp.snapshot import Snapshot

    chunk = 4096
    store = DurableSnapshotStore()
    originals: dict[str, bytes] = {}
    for path in args.paths:
        with open(path, "rb") as fh:
            data = fh.read()
        originals[path] = data
        pages = {
            i: data[i * chunk:(i + 1) * chunk]
            for i in range(-(-len(data) // chunk) or 1)
        }
        store.put(path, Snapshot(image_name=path, pages=pages,
                                 cpu_state={"rip": 0, "len": len(data)}),
                  pin=True)

    recovered = DurableSnapshotStore(store.medium.clone())
    problems: list[str] = []
    for path, data in originals.items():
        snap = recovered.get(path)
        if snap is None:
            problems.append(f"{path}: missing after crash recovery")
            continue
        blob = b"".join(snap.pages.values())
        if blob != data:
            problems.append(f"{path}: bytes diverged after crash recovery")
    report = recovered.scrub(repair=False)
    if not report.clean:
        problems.append(
            f"scrub: {len(report.corrupt_chunks)} corrupt / "
            f"{len(report.missing_chunks)} missing chunks, "
            f"{report.refcount_repairs} refcount drift"
        )

    counters = recovered.counters()
    print(f"store scrub: {len(originals)} file(s), "
          f"{sum(len(d) for d in originals.values()):,} bytes")
    print(f"  chunks={counters['chunks']} "
          f"dedup_ratio={counters['dedup_ratio']:.2f} "
          f"journal_records={counters['journal_records']} "
          f"replays={counters['journal_replays']}")
    for problem in problems:
        print(f"  FAIL {problem}")
    if not problems:
        print("  every file recovered byte-identical; scrub clean")
    return 0 if not problems else 1


def cmd_jit(args: argparse.Namespace) -> int:
    """Superblock-JIT introspection over a deterministic hot workload.

    Launches recursive ``fib`` (the instruction-dense throughput
    workload) ``--launches`` times on one KVM device, then prints the
    device domain's compiled-block statistics (``stats``) or every live
    block with its guest source lines (``dump``).  Two launches of the
    same image demonstrate the per-image warm start: the second shell
    attaches the already-compiled cache.
    """
    from repro.hw.clock import Clock
    from repro.hw.cpu import Mode
    from repro.hw.vmx import ExitReason
    from repro.kvm.device import KVM
    from repro.runtime.image import ImageBuilder

    clock = Clock()
    kvm = KVM(clock)
    image = ImageBuilder().fib(Mode.LONG64, args.n)
    for _ in range(args.launches):
        handle = kvm.create_vm()
        handle.set_user_memory_region(4 * 1024 * 1024)
        vcpu = handle.create_vcpu()
        handle.load_program(image.program)
        info = vcpu.run()
        if info.reason is not ExitReason.HLT:  # pragma: no cover - guard
            print(f"workload did not halt: {info.reason}")
            return 1
        handle.close()
    domain = kvm.jit_domain
    if args.jit_verb == "stats":
        stats = domain.stats()
        if args.json:
            import json

            print(json.dumps(stats, sort_keys=True, indent=2))
            return 0
        print(f"threshold            {stats['threshold']}")
        print(f"blocks compiled      {stats['blocks_compiled']}")
        print(f"invalidations        {stats['invalidations']}")
        print(f"block runs           {stats['block_runs']}")
        print(f"block instructions   {stats['block_instructions']}")
        print("side exits:")
        for reason, count in stats["side_exits"].items():
            print(f"  {reason:<18} {count}")
        print("images:")
        for entry in stats["images"]:
            print(f"  {entry['image']}: {entry['blocks']} blocks, "
                  f"{entry['compiles']} compiles, "
                  f"{entry['invalidations']} invalidations, "
                  f"warm hit ratio {entry['warm_hit_ratio']:.2f}")
        return 0
    blocks = domain.dump()
    if args.json:
        import json

        print(json.dumps(blocks, sort_keys=True, indent=2))
        return 0
    for blk in blocks:
        print(f"{blk['image']} pc={blk['pc']:#x} entry={blk['entry']} "
              f"len={blk['length']} mask={blk['mask_bits']}b "
              f"paging={'on' if blk['paging'] else 'off'} "
              f"pages={blk['pages']}")
        for line in blk["instructions"]:
            print(f"    {line}")
    return 0


def cmd_info(_args: argparse.Namespace) -> int:
    from repro.hw.costs import COSTS
    from repro.units import TINKER_HZ

    print(f"virtines reproduction v{__version__}")
    print(f"simulated platform: AMD EPYC 7281 'tinker' @ {TINKER_HZ / 1e9:.2f} GHz")
    print("calibration anchors:")
    print(f"  EPT first-touch fault    {COSTS.EPT_FIRST_TOUCH_FAULT:>8,} cyc")
    print(f"  CR0.PE flip              {COSTS.CR0_PE_FLIP:>8,} cyc")
    print(f"  lgdt (real mode)         {COSTS.LGDT_REAL:>8,} cyc")
    print(f"  KVM_CREATE_VM            {COSTS.KVM_CREATE_VM_BASE:>8,} cyc")
    print(f"  vmrun round trip         {COSTS.vmrun_roundtrip():>8,} cyc")
    print(f"  memcpy                   {COSTS.MEMCPY_CYCLES_PER_BYTE:>8.3f} cyc/byte (6.7 GB/s)")
    return 0


def main(argv: list[str] | None = None) -> int:
    from repro.replay.engine import BACKENDS

    parser = argparse.ArgumentParser(
        prog="repro", description="Virtines (EuroSys '22) reproduction CLI"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("smoketest", help="exercise every subsystem").set_defaults(
        handler=cmd_smoketest
    )
    subparsers.add_parser("boot", help="Table 1 boot breakdown").set_defaults(
        handler=cmd_boot
    )
    subparsers.add_parser("creation", help="Figure 8 creation latencies").set_defaults(
        handler=cmd_creation
    )
    backends = subparsers.add_parser(
        "backends", help="five-mechanism isolation spectrum (Table 2 matrix)"
    )
    backends.add_argument("--json", action="store_true",
                          help="emit machine-readable JSON instead of text")
    backends.set_defaults(handler=cmd_backends)
    scale = subparsers.add_parser(
        "scale", help="Figure 9/10 SMP creation scaling (deterministic)"
    )
    scale.add_argument("--cores", type=int, default=8,
                       help="largest simulated core count to sweep (default 8)")
    scale.add_argument("--launches", type=int, default=64,
                       help="virtine creations per data point (default 64)")
    scale.add_argument("--seed", type=int, default=42,
                       help="scheduler interleaving seed (default 42)")
    scale.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of text")
    scale.set_defaults(handler=cmd_scale)
    metrics = subparsers.add_parser(
        "metrics", help="supervision counters under injected faults"
    )
    metrics.add_argument("--seed", type=int, default=1234,
                         help="fault-plan seed (default 1234)")
    metrics.add_argument("--requests", type=int, default=200,
                         help="requests to serve (default 200)")
    metrics.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON instead of text")
    metrics.add_argument("--cores", type=int, default=1,
                         help="run on a simulated cluster and aggregate "
                              "per-core counters (default 1)")
    metrics.set_defaults(handler=cmd_metrics)
    trace = subparsers.add_parser(
        "trace", help="cycle-accurate span trace of a workload"
    )
    trace.add_argument("workload", nargs="?", default="echo",
                       choices=sorted(TRACE_WORKLOADS),
                       help="workload to trace (default echo)")
    trace.add_argument("--seed", type=int, default=1234,
                       help="fault-plan seed for faulty workloads (default 1234)")
    trace.add_argument("--requests", type=int, default=3,
                       help="requests to run (default 3)")
    trace.add_argument("--format", default="text", choices=["text", "json"],
                       help="text timeline or Chrome trace-event JSON")
    trace.add_argument("--out", default=None,
                       help="write JSON output to this path instead of stdout")
    trace.add_argument("--telemetry", action="store_true",
                       help="merge telemetry counter tracks (ph 'C') into "
                            "the JSON trace")
    trace.set_defaults(handler=cmd_trace)
    telemetry = subparsers.add_parser(
        "telemetry",
        help="deterministic telemetry snapshot of a workload",
    )
    telemetry.add_argument("workload", nargs="?", default="serverless",
                           choices=sorted(TRACE_WORKLOADS),
                           help="workload to run (default serverless)")
    telemetry.add_argument("--seed", type=int, default=1234,
                           help="workload seed (default 1234)")
    telemetry.add_argument("--requests", type=int, default=8,
                           help="requests to run (default 8)")
    telemetry.add_argument("--cores", type=int, default=1,
                           help="run on a simulated cluster with per-core "
                                "registries (default 1)")
    telemetry.add_argument("--format", default="text",
                           choices=["text", "json", "prom"],
                           help="summary text, canonical JSON snapshot, or "
                                "Prometheus exposition")
    telemetry.add_argument("--out", default=None,
                           help="write output to this path instead of stdout")
    telemetry.add_argument("--black-boxes", action="store_true",
                           help="include the flight-recorder black boxes")
    telemetry.add_argument("--slo-deadline", type=int, default=None,
                           help="attach a launch_cycles p99 SLO monitor at "
                                "this cycle deadline")
    telemetry.set_defaults(handler=cmd_telemetry)
    profile = subparsers.add_parser(
        "profile", help="telemetry profile tooling"
    )
    profile_verbs = profile.add_subparsers(dest="profile_verb", required=True)
    pdiff = profile_verbs.add_parser(
        "diff",
        help="compare two telemetry snapshots' per-component cycles",
    )
    pdiff.add_argument("base", help="baseline snapshot JSON path")
    pdiff.add_argument("other", help="candidate snapshot JSON path")
    pdiff.add_argument("--threshold", type=float, default=0.02,
                       help="relative per-launch regression threshold "
                            "(default 0.02)")
    pdiff.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of text")
    pdiff.add_argument("--gate", action="store_true",
                       help="exit 1 when any component regressed")
    pdiff.set_defaults(handler=cmd_profile)
    replay = subparsers.add_parser(
        "admission-replay",
        help="deterministic overload demo + admission-trace replay check",
    )
    replay.add_argument("--seed", type=int, default=42,
                        help="workload + fault seed (default 42)")
    replay.add_argument("--scale", type=float, default=0.25,
                        help="workload rate multiplier (default 0.25)")
    replay.add_argument("--workers", type=int, default=8,
                        help="platform worker cap (default 8)")
    replay.add_argument("--queue-depth", type=int, default=32,
                        help="bounded admission queue depth (default 32)")
    replay.add_argument("--policy", default="reject_newest",
                        choices=["reject_newest", "reject_oldest", "priority"],
                        help="load-shedding policy (default reject_newest)")
    replay.add_argument("--rate", type=float, default=None,
                        help="per-image token refill rate, req/s (default off)")
    replay.add_argument("--burst", type=float, default=16.0,
                        help="token bucket capacity (default 16)")
    replay.add_argument("--deadline-s", type=float, default=2.0,
                        help="per-request deadline, seconds (default 2.0)")
    replay.add_argument("--burst-fault-rate", type=float, default=0.0,
                        help="BURST_ARRIVAL fault probability (default 0)")
    replay.add_argument("--trace", default=None,
                        help="record/verify the admission trace at this path")
    replay.set_defaults(handler=cmd_admission_replay)
    boundary = subparsers.add_parser(
        "replay",
        help="record/replay/fuzz the hypervisor-boundary event stream",
    )
    verbs = boundary.add_subparsers(dest="replay_verb", required=True)
    rec = verbs.add_parser(
        "record", help="record a seeded workload's boundary stream"
    )
    rec.add_argument("workload", choices=REPLAY_WORKLOAD_NAMES,
                     help="workload to record")
    rec.add_argument("--seed", type=int, default=1234,
                     help="workload seed (default 1234)")
    rec.add_argument("--requests", type=int, default=4,
                     help="requests to drive (default 4)")
    rec.add_argument("--backend", default="kvm", choices=BACKENDS,
                     help="VMM backend (default kvm)")
    rec.add_argument("--out", default="stream.json",
                     help="artifact path (default stream.json)")
    rec.set_defaults(handler=cmd_replay)
    run = verbs.add_parser(
        "run", help="re-execute the handler plane against a recorded stream"
    )
    run.add_argument("artifact", help="recorded boundary-stream artifact")
    run.add_argument("--hostile", action="store_true",
                     help="treat stream inconsistencies as guest faults "
                          "instead of divergences")
    run.set_defaults(handler=cmd_replay)
    fuzz = verbs.add_parser(
        "fuzz", help="mutate a recorded stream, assert typed containment"
    )
    fuzz.add_argument("artifact", help="recorded boundary-stream artifact")
    fuzz.add_argument("--cases", type=int, default=100,
                      help="seeded mutation cases to run (default 100)")
    fuzz.add_argument("--seed", type=int, default=None,
                      help="mutation seed (default $REPRO_SEED or 1234)")
    fuzz.add_argument("--case", type=int, default=None,
                      help="replay exactly one case index")
    fuzz.add_argument("--artifacts", default=None,
                      help="dump failing cases' stream + crash report here")
    fuzz.set_defaults(handler=cmd_replay)
    chaos = subparsers.add_parser(
        "chaos",
        help="crash-point fuzz the durable store + cluster chaos recovery",
    )
    chaos.add_argument("--seed", type=int, default=None,
                       help="chaos seed (default $REPRO_SEED or 1234)")
    chaos.add_argument("--cases", type=int, default=200,
                       help="minimum crash-point cases to fuzz (default 200)")
    chaos.add_argument("--cores", type=int, default=4,
                       help="cluster cores for the chaos run (default 4)")
    chaos.add_argument("--tasks", type=int, default=24,
                       help="idempotent tasks in the chaos run (default 24)")
    chaos.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of text")
    chaos.add_argument("--telemetry", action="store_true",
                       help="attach the telemetry snapshot + flight-recorder "
                            "black boxes to the chaos report")
    chaos.set_defaults(handler=cmd_chaos)
    store = subparsers.add_parser(
        "store", help="durable snapshot-store utilities"
    )
    store_verbs = store.add_subparsers(dest="store_verb", required=True)
    scrub = store_verbs.add_parser(
        "scrub",
        help="round-trip files through a crash-recovered store, verify bytes",
    )
    scrub.add_argument("paths", nargs="+", help="files to integrity-check")
    scrub.set_defaults(handler=cmd_store)
    jit = subparsers.add_parser(
        "jit", help="superblock-JIT stats / compiled-block dump"
    )
    jit_verbs = jit.add_subparsers(dest="jit_verb", required=True)
    for verb, help_text in (
        ("stats", "run a hot workload, print the JIT domain's counters"),
        ("dump", "run a hot workload, print every live compiled block"),
    ):
        sub = jit_verbs.add_parser(verb, help=help_text)
        sub.add_argument("--n", type=int, default=15,
                         help="fib(n) workload size (default 15)")
        sub.add_argument("--launches", type=int, default=2,
                         help="shells to launch (>=2 shows warm start)")
        sub.add_argument("--json", action="store_true",
                         help="machine-readable output")
        sub.set_defaults(handler=cmd_jit)
    subparsers.add_parser("info", help="version + calibration").set_defaults(
        handler=cmd_info
    )
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
