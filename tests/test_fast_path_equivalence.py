"""Golden equivalence: the three engines change zero simulated state.

Every workload here runs under each engine -- ``reference`` (the plain
interpreter), ``fast`` (software TLB, predecoded dispatch, bulk-memory
restores) and ``fast+jit`` (superblocks on top of the fast path) -- on
both device platforms, and must produce *bit-identical* observable
results: total simulated cycles, per-component cycle attribution,
collected metrics, and the exported Chrome trace.  Any divergence means
an engine changed semantics, not just host speed.
"""

import dataclasses
import json

import pytest

import repro.hw.isa as isa_module
from repro.hw import paging
from repro.hw.clock import Clock
from repro.hw.costs import COSTS
from repro.hw.cpu import CPU, CR0_PE, CR0_PG, EFER_LME, Mode
from repro.hw.isa import ENGINES, Assembler, HaltExit, Interpreter
from repro.hw.memory import GuestMemory
from repro.hw.vmx import ExitReason, VirtualMachine
from repro.runtime.image import ImageBuilder
from repro.trace import to_chrome_json, validate_chrome_trace
from repro.wasp import Wasp
from repro.wasp.metrics import collect


def _echo(engine: str, backend: str):
    from repro.apps.http.server import EchoServer

    wasp = Wasp(tracer=True, engine=engine, backend=backend)
    echo = EchoServer(wasp, port=7)
    for i in range(8):
        conn = wasp.kernel.sys_connect(7)
        wasp.kernel.sys_send(conn, b"ping %d" % i)
        echo.handle_one()
    return wasp


def _http(engine: str, backend: str):
    from repro.apps.http.client import RequestGenerator
    from repro.apps.http.server import StaticHttpServer

    wasp = Wasp(tracer=True, engine=engine, backend=backend)
    wasp.kernel.fs.add_file("/srv/index.html", b"<html>equiv</html>")
    server = StaticHttpServer(wasp, port=8080, isolation="snapshot")
    generator = RequestGenerator(wasp.kernel, server, "/index.html")
    for _ in range(12):
        generator.one_request()
    return wasp


def _serverless(engine: str, backend: str):
    """Seeded faulty burst: shed/retry/quarantine paths stay identical."""
    from repro.apps.serverless.platform import SupervisedPlatform
    from repro.faults import FaultPlan, FaultSite
    from repro.wasp import PermissivePolicy
    from repro.wasp.guestenv import GuestEnv

    plan = (
        FaultPlan(seed=7)
        .fail(FaultSite.VCPU_RUN, rate=0.08)
        .fail(FaultSite.POOL_ACQUIRE, rate=0.05)
        .fail(FaultSite.SNAPSHOT_RESTORE, rate=0.05)
    )
    primary = Wasp(fault_plan=plan, tracer=True, engine=engine,
                   backend=backend)
    fallback = Wasp(engine=engine, backend=backend)

    def entry(env: GuestEnv) -> int:
        if not env.from_snapshot:
            env.charge(20_000)
            env.snapshot()
        env.charge_bytes(4096)
        return 0

    image = ImageBuilder().hosted(name="equiv-job", entry=entry)
    SupervisedPlatform(primary, fallback).run_workload(
        image, [None] * 16, policy=PermissivePolicy(), use_snapshot=True,
    )
    return primary


WORKLOADS = {"echo": _echo, "http": _http, "serverless": _serverless}


def observables(wasp) -> dict:
    trace_json = to_chrome_json(wasp.tracer)
    validate_chrome_trace(json.loads(trace_json))
    return {
        "cycles": wasp.clock.cycles,
        "metrics": collect(wasp).to_dict(),
        "trace": trace_json,
    }


@pytest.mark.parametrize("backend", Wasp.BACKENDS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_observables_identical(name, backend):
    runs = {engine: observables(WORKLOADS[name](engine, backend))
            for engine in ENGINES}
    reference = runs["reference"]
    for engine in ("fast", "fast+jit"):
        assert runs[engine]["cycles"] == reference["cycles"], engine
        assert runs[engine]["metrics"] == reference["metrics"], engine
        assert runs[engine]["trace"] == reference["trace"], engine


@pytest.mark.parametrize("mode", [Mode.PROT32, Mode.LONG64])
def test_boot_component_cycles_identical(mode):
    comps = {}
    for engine in ENGINES:
        clock = Clock()
        vm = VirtualMachine(4 * 1024 * 1024, clock, engine=engine)
        vm.load_program(ImageBuilder().minimal(mode).program)
        info = vm.vmrun()
        assert info.reason is ExitReason.HLT
        comps[engine] = (clock.cycles, dict(vm.interp.component_cycles),
                         vm.milestone_deltas())
    assert comps["fast"] == comps["reference"]
    assert comps["fast+jit"] == comps["reference"]


def test_fib_cycles_and_result_identical():
    results = {}
    for engine in ENGINES:
        clock = Clock()
        vm = VirtualMachine(4 * 1024 * 1024, clock, engine=engine)
        vm.load_program(ImageBuilder().fib(Mode.LONG64, 15).program)
        info = vm.vmrun()
        assert info.reason is ExitReason.HLT
        results[engine] = (clock.cycles, vm.cpu.regs["ax"],
                           vm.interp.instructions_retired)
    assert results["fast"] == results["reference"]
    assert results["fast+jit"] == results["reference"]
    assert results["reference"][1] == 610  # fib(15)


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            Wasp(engine="jit")
        with pytest.raises(ValueError):
            VirtualMachine(4 * 1024 * 1024, Clock(), engine="fast-jit")

    def test_default_engine_is_fast_jit(self):
        wasp = Wasp()
        assert wasp.engine == "fast+jit"
        assert wasp.kvm.jit_domain is not None

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_non_jit_engines_build_no_domain_and_compile_nothing(
            self, engine, monkeypatch):
        def no_compiles(interp, pc):
            raise AssertionError(f"{engine} engine compiled a superblock")

        monkeypatch.setattr(isa_module, "compile_block", no_compiles)
        wasp = Wasp(engine=engine)
        assert wasp.kvm.jit_domain is None
        result = wasp.launch(ImageBuilder().fib(Mode.LONG64, 12),
                             use_snapshot=False)
        assert result.ax == 144
        vm = VirtualMachine(4 * 1024 * 1024, Clock(), engine=engine)
        vm.load_program(ImageBuilder().fib(Mode.LONG64, 12).program)
        assert vm.vmrun().reason is ExitReason.HLT
        assert not vm.interp.jit
        assert vm.interp._jit_domain is None


#: Calls, stack traffic and absolute memory operands, all depending on
#: the entry value of ``ax``: two machines started with different ``ax``
#: take different values through every shared handler.
SHARED_LOOP = """
    mov sp, 0x7f00
    mov cx, 0
loop:
    push ax
    call bump
    pop bx
    mov [0x6000], ax
    add ax, [0x6000]
    xor ax, bx
    inc cx
    cmp cx, 40
    jne loop
    hlt
bump:
    add ax, 7
    ret
"""


class TestSharedHandlerTables:
    """Predecoded handlers are built once per (program, cost model) and
    hold no machine state, so every interpreter can share them."""

    @pytest.mark.parametrize("engine", ["fast", "fast+jit"])
    def test_scratch_launches_build_handlers_once(self, engine, monkeypatch):
        built = []
        compile_one = isa_module._compile

        def counting(insn, costs):
            built.append(insn.addr)
            return compile_one(insn, costs)

        monkeypatch.setattr(isa_module, "_compile", counting)
        image = ImageBuilder().minimal(Mode.LONG64)
        wasp = Wasp(engine=engine)
        for _ in range(50):
            wasp.launch(image, pooled=False)
        assert wasp.kvm.vms_created == 50
        assert sorted(built) == sorted(
            insn.addr for insn in image.program.instructions)

    def test_second_cost_model_gets_its_own_table(self):
        costs = dataclasses.replace(COSTS, INSN_BASE=COSTS.INSN_BASE + 3,
                                    INSN_MEM=COSTS.INSN_MEM + 5)
        program = ImageBuilder().fib(Mode.LONG64, 12).program
        assert program.handlers(costs) is not program.handlers(COSTS)
        assert program.handlers(costs) is program.handlers(costs)
        cycles = {}
        for model in (COSTS, costs):
            for engine in ENGINES:
                clock = Clock()
                vm = VirtualMachine(4 * 1024 * 1024, clock, model,
                                    engine=engine)
                vm.load_program(program)
                assert vm.vmrun().reason is ExitReason.HLT
                assert vm.cpu.regs["ax"] == 144
                cycles[model is costs, engine] = clock.cycles
        for other in (False, True):
            assert (cycles[other, "fast"] == cycles[other, "fast+jit"]
                    == cycles[other, "reference"])
        assert cycles[True, "reference"] != cycles[False, "reference"]

    @staticmethod
    def _machine(program, engine: str, ax: int, paged: bool) -> Interpreter:
        memory = GuestMemory(4 * 1024 * 1024)
        cpu = CPU()
        cpu.mode = Mode.LONG64
        if paged:
            cpu.cr3 = paging.build_identity_map(
                memory, paging.IdentityMapLayout.at(0x100000))
            cpu.cr0 = CR0_PE | CR0_PG
            cpu.efer = EFER_LME
        interp = Interpreter(cpu, memory, Clock(), COSTS, engine=engine)
        interp.load_program(program)
        cpu.regs["ax"] = ax
        return interp

    @staticmethod
    def _observe(interp: Interpreter, tlb: bool = True) -> tuple:
        cpu = interp.cpu
        flags = (cpu.flags.zero, cpu.flags.sign, cpu.flags.carry)
        state = (interp.clock.cycles, dict(cpu.regs), cpu.rip, flags)
        return state + ((interp.tlb_hits, interp.tlb_misses) if tlb else ())

    def test_interleaved_machines_match_solo_runs(self):
        shared = Assembler(0x8000).assemble(SHARED_LOOP)
        configs = [(11, False), (1000, True)]
        machines = [self._machine(shared, "fast", ax, paged)
                    for ax, paged in configs]
        assert machines[0]._decoded is machines[1]._decoded
        # Solo twins on their own copy of the program: one on the same
        # engine (TLB counters included), one on the reference engine.
        solos = [self._machine(Assembler(0x8000).assemble(SHARED_LOOP),
                               "fast", ax, paged) for ax, paged in configs]
        refs = [self._machine(Assembler(0x8000).assemble(SHARED_LOOP),
                              "reference", ax, paged)
                for ax, paged in configs]
        halted = [False, False]
        for steps in range(5000):
            if all(halted):
                break
            for i in (0, 1):
                if halted[i]:
                    continue
                for interp in (machines[i], solos[i], refs[i]):
                    try:
                        interp.step()
                    except HaltExit:
                        halted[i] = True
                assert self._observe(machines[i]) == self._observe(solos[i])
                assert (self._observe(machines[i], tlb=False)
                        == self._observe(refs[i], tlb=False))
        else:  # pragma: no cover - a diverging guest would loop on
            raise AssertionError("guests did not halt")
        assert steps > 300
        assert machines[0].tlb_hits == machines[0].tlb_misses == 0
        assert machines[1].tlb_hits > 0 and machines[1].tlb_misses > 0
        assert machines[0].cpu.regs["ax"] != machines[1].cpu.regs["ax"]
