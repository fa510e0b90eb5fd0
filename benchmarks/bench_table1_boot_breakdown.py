"""Table 1 (E1): boot-time breakdown of the minimal runtime environment.

Paper (tinker, KVM, cycles): paging identity mapping 28,109; protected
transition 3,217; long transition (lgdt) 681; jump to 32-bit 175; jump
to 64-bit 190; load 32-bit GDT 4,118; first instruction 74.
"""

import pytest

from repro.hw.clock import Clock
from repro.hw.cpu import Mode
from repro.hw.isa import Assembler
from repro.hw.vmx import VirtualMachine
from repro.runtime import boot

PAPER = {
    "paging identity mapping": 28109,
    "protected transition": 3217,
    "long transition (lgdt)": 681,
    "jump to 32-bit (ljmp)": 175,
    "jump to 64-bit (ljmp)": 190,
    "load 32-bit gdt (lgdt)": 4118,
    "first instruction": 74,
}


def boot_to_long_mode() -> VirtualMachine:
    vm = VirtualMachine(8 * 1024 * 1024, Clock())
    vm.load_program(Assembler(0x8000).assemble(boot.boot_source(Mode.LONG64)))
    vm.vmrun()
    return vm


@pytest.fixture(scope="module")
def measured(report):
    vm = boot_to_long_mode()
    comp = dict(vm.interp.component_cycles)
    deltas = {}
    prev = None
    for marker, cycles in vm.milestones:
        if prev is not None:
            deltas[marker] = cycles - prev
        prev = cycles
    # The paper's "paging identity mapping" row covers table construction
    # (stores + EPT construction in KVM) plus the paging-enable controls.
    comp["paging identity mapping"] = (
        deltas[boot.MS_AFTER_IDENT_MAP] + deltas[boot.MS_PAGING_ON]
    )
    for label, paper_value in PAPER.items():
        report.row(label, f"{paper_value:,} cyc", f"{comp[label]:,} cyc")
    total = sum(comp[k] for k in PAPER)
    report.row("total (C1: a few tens of thousands)", "<~100,000 cyc", f"{total:,} cyc")
    return comp


@pytest.mark.parametrize("label", list(PAPER))
def test_component_within_tolerance(measured, label):
    assert measured[label] == pytest.approx(PAPER[label], rel=0.10)


def test_ident_map_dominates(measured):
    others = [v for k, v in measured.items() if k != "paging identity mapping" and k in PAPER]
    assert measured["paging identity mapping"] > max(others)


def test_benchmark_boot(benchmark, measured):
    vm = benchmark.pedantic(boot_to_long_mode, rounds=3, iterations=1)
    assert vm.cpu.mode is Mode.LONG64
    assert measured["paging identity mapping"] == pytest.approx(28_109, rel=0.10)
