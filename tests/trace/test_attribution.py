"""Attribution folds: Table 1 from trace data alone, phase histograms."""

import pytest

from repro.hw.clock import Clock
from repro.hw.cpu import Mode
from repro.hw.isa import Assembler
from repro.hw.vmx import VirtualMachine
from repro.runtime import boot
from repro.runtime.image import ImageBuilder
from repro.trace import (
    Category,
    Tracer,
    attribution,
    boot_breakdown,
    milestone_deltas,
    phase_histograms,
)
from repro.wasp import Wasp

#: Table 1 (tinker, KVM): the paper's cycle cost per boot component.
PAPER_TABLE1 = {
    "paging identity mapping": 28109,
    "protected transition": 3217,
    "long transition (lgdt)": 681,
    "jump to 32-bit (ljmp)": 175,
    "jump to 64-bit (ljmp)": 190,
    "load 32-bit gdt (lgdt)": 4118,
    "first instruction": 74,
}


def traced_boot() -> Tracer:
    """Boot the default minimal runtime to long mode under a tracer."""
    clock = Clock()
    tracer = Tracer(clock)
    span = tracer.begin("boot", Category.BOOT)
    vm = VirtualMachine(8 * 1024 * 1024, clock, tracer=tracer)
    vm.load_program(Assembler(0x8000).assemble(boot.boot_source(Mode.LONG64)))
    vm.vmrun()
    tracer.end(span)
    return tracer


class TestAttribution:
    def test_leaf_totals_sum_to_traced_cycles(self):
        tracer = traced_boot()
        folded = attribution(tracer, by="name")
        assert sum(folded.values()) == tracer.roots[0].cycles

    def test_category_fold(self):
        tracer = traced_boot()
        folded = attribution(tracer, by="category")
        assert folded["boot"] > 0
        assert sum(folded.values()) == tracer.roots[0].cycles

    def test_single_span_fold(self):
        tracer = traced_boot()
        root = tracer.roots[0]
        assert attribution(root, by="name") == attribution(tracer, by="name")

    def test_unknown_fold_key(self):
        with pytest.raises(ValueError, match="fold key"):
            attribution(traced_boot(), by="color")


class TestMilestoneDeltas:
    def test_deltas_rebuilt_from_instants(self):
        tracer = traced_boot()
        deltas = milestone_deltas(tracer)
        assert boot.MS_AFTER_IDENT_MAP in deltas
        assert boot.MS_PAGING_ON in deltas
        assert all(delta >= 0 for delta in deltas.values())

    def test_no_milestones_means_empty(self):
        clock = Clock()
        tracer = Tracer(clock)
        with tracer.span("x", Category.GUEST):
            clock.advance(1)
        assert milestone_deltas(tracer) == {}


class TestBootBreakdownReproducesTable1:
    """The acceptance gate: Table 1 within rel=0.10 from trace data alone."""

    @pytest.mark.parametrize("component", sorted(PAPER_TABLE1))
    def test_component_within_tolerance(self, component):
        breakdown = boot_breakdown(traced_boot())
        assert breakdown[component] == pytest.approx(
            PAPER_TABLE1[component], rel=0.10
        )

    def test_matches_interpreter_ground_truth(self):
        """The trace-derived numbers equal the interpreter's own tallies."""
        clock = Clock()
        tracer = Tracer(clock)
        span = tracer.begin("boot", Category.BOOT)
        vm = VirtualMachine(8 * 1024 * 1024, clock, tracer=tracer)
        vm.load_program(
            Assembler(0x8000).assemble(boot.boot_source(Mode.LONG64))
        )
        vm.vmrun()
        tracer.end(span)
        breakdown = boot_breakdown(tracer)
        for component, cycles in vm.interp.component_cycles.items():
            assert breakdown[component] == cycles


class TestPhaseHistograms:
    def test_launch_phases_become_distributions(self):
        wasp = Wasp(tracer=True)
        image = ImageBuilder().minimal(Mode.LONG64)
        results = [wasp.launch(image, use_snapshot=False) for _ in range(3)]
        histograms = phase_histograms(wasp.tracer)
        launches = histograms[f"launch:{image.name}"]
        assert launches.count == 3
        assert launches.total == sum(r.cycles for r in results)
        assert launches.max_value == max(r.cycles for r in results)
        assert histograms["pool.acquire"].count == 3
        assert histograms["KVM_RUN"].count >= 3
