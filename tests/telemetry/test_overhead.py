"""Zero-overhead-when-off: cycles and trace bytes identical on vs off."""

from repro.cluster.smp import VirtineCluster
from repro.faults import FaultPlan, FaultSite
from repro.runtime.image import ImageBuilder
from repro.trace import to_chrome_json
from repro.wasp import PermissivePolicy, Supervisor, Wasp


def entry(env):
    if not env.from_snapshot:
        env.charge(10_000)
        env.snapshot()
    env.charge_bytes(2048)
    return 0


def run_supervised(telemetry: bool):
    """A faulty supervised workload covering the instrumented paths."""
    plan = (FaultPlan(seed=11)
            .fail(FaultSite.VCPU_RUN, rate=0.1)
            .fail(FaultSite.POOL_ACQUIRE, rate=0.1)
            .fail(FaultSite.SNAPSHOT_RESTORE, rate=0.1))
    wasp = Wasp(telemetry=telemetry, tracer=True, fault_plan=plan)
    supervisor = Supervisor(wasp)
    image = ImageBuilder().hosted("equiv-job", entry)
    for _ in range(8):
        try:
            supervisor.launch(image, policy=PermissivePolicy(),
                              use_snapshot=True)
        except Exception:
            pass  # crashes are part of the workload
    return wasp


class TestCycleEquivalence:
    def test_single_core_cycles_identical(self):
        off = run_supervised(telemetry=False)
        on = run_supervised(telemetry=True)
        assert off.clock.cycles == on.clock.cycles
        assert on.telemetry.enabled  # the metered run actually metered
        assert on.telemetry.instruments()

    def test_cluster_cycles_identical(self):
        def clocks(telemetry: bool) -> list[int]:
            cluster = VirtineCluster(4, seed=7, telemetry=telemetry)
            image = ImageBuilder().hosted("equiv-job", entry)
            cluster.launch_many(image, [None] * 12,
                                policy=PermissivePolicy(), use_snapshot=True)
            return [e.clock.cycles for e in cluster.engines]

        assert clocks(False) == clocks(True)

    def test_result_cycles_identical(self):
        image = ImageBuilder().hosted("equiv-job", entry)
        costs = []
        for telemetry in (False, True):
            wasp = Wasp(telemetry=telemetry)
            costs.append([wasp.launch(image, policy=PermissivePolicy(),
                                      use_snapshot=True).cycles
                          for _ in range(3)])
        assert costs[0] == costs[1]


class TestJitTelemetry:
    """Superblock JIT counters ride the same zero-sim-cost contract."""

    @staticmethod
    def run_fib(telemetry: bool) -> "Wasp":
        from repro.runtime.image import Mode

        wasp = Wasp(telemetry=telemetry)
        image = ImageBuilder().fib(Mode.LONG64, 15)
        for _ in range(2):
            wasp.launch(image, policy=PermissivePolicy(), use_snapshot=False)
        return wasp

    def test_jit_counters_present_when_on(self):
        wasp = self.run_fib(telemetry=True)
        samples = {}
        for inst in wasp.telemetry.instruments():
            if inst.kind == "counter":
                samples[inst.name] = samples.get(inst.name, 0) + inst.value
        assert samples.get("jit_block_runs_total", 0) > 0
        assert samples.get("jit_block_instructions_total", 0) > 0
        assert samples.get("jit_compiles_total", 0) > 0
        # Second launch of the same image attaches the cached blocks.
        assert samples.get("jit_warm_hits_total", 0) > 0

    def test_jit_harvest_is_null_object_safe(self):
        """With telemetry off, harvesting must not create instruments or
        perturb the clock: cycles match the metered run bit-for-bit."""
        off = self.run_fib(telemetry=False)
        on = self.run_fib(telemetry=True)
        assert off.clock.cycles == on.clock.cycles
        assert not off.telemetry.enabled
        assert not off.telemetry.instruments()


class TestTraceByteEquivalence:
    def test_chrome_trace_bytes_identical(self):
        """Telemetry must never leak into the span trace -- including
        SLO degradations, which go to the supervisor log instead."""
        from repro.telemetry import SLOMonitor

        def run(telemetry: bool) -> str:
            wasp = Wasp(telemetry=telemetry, tracer=True)
            if telemetry:
                wasp.telemetry.add_slo(SLOMonitor(
                    name="tight", metric="launch_cycles",
                    deadline_cycles=1, window=8, min_count=2))
            supervisor = Supervisor(wasp)
            image = ImageBuilder().hosted("equiv-job", entry)
            for _ in range(4):
                supervisor.launch(image, policy=PermissivePolicy(),
                                  use_snapshot=True)
            if telemetry:
                assert supervisor.degradations  # the SLO actually fired
            return to_chrome_json(wasp.tracer)

        assert run(False) == run(True)

    def test_explicit_merge_is_opt_in(self):
        """Counter tracks appear only when the exporter is handed the
        registry -- the default export stays byte-identical."""
        import json

        wasp = run_supervised(telemetry=True)
        plain = to_chrome_json(wasp.tracer)
        merged = to_chrome_json(wasp.tracer, wasp.telemetry)
        assert plain != merged
        events = json.loads(merged)["traceEvents"]
        assert any(e["ph"] == "C" for e in events)
