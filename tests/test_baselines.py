"""Committed-baseline tests: Table 2 boundary crossings, and Table 1
on the boot-replay path."""

import json
from pathlib import Path

import pytest

from repro.baselines import ALL_MECHANISMS, VirtineBoundary, spectrum_mechanisms
from repro.hw.clock import Clock
from repro.hw.cpu import Mode
from repro.hw.isa import Assembler
from repro.hw.jit import JitDomain
from repro.hw.vmx import VirtualMachine
from repro.runtime import boot

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"
BASELINE_JSON = RESULTS / "BENCH_table2_boundaries.json"
TABLE1_JSON = RESULTS / "BENCH_table1_boot_breakdown.json"


class TestModelledBaselines:
    @pytest.mark.parametrize("row", ALL_MECHANISMS, ids=lambda row: row.system)
    def test_matches_published_latency(self, row):
        clock = Clock()
        result = row.cross(clock)
        assert result.latency_us == pytest.approx(row.paper_latency_us, rel=0.01)

    def test_published_ordering(self):
        clock = Clock()
        latencies = {row.system: row.cross(clock).latency_us for row in ALL_MECHANISMS}
        assert (
            latencies["Hodor"]
            < latencies["SeCage"]
            < latencies["Enclosures"]
            < latencies["LwC"]
            < latencies["Wedge"]
        )


class TestVirtineBoundary:
    @pytest.fixture(scope="class")
    def boundary(self):
        return VirtineBoundary()

    def test_measured_from_real_stack(self, boundary):
        before = boundary.wasp.launches
        boundary.cross(boundary.wasp.clock)
        assert boundary.wasp.launches == before + 1

    def test_latency_in_paper_regime(self, boundary):
        """Paper: ~5 us.  Ours must land in single-digit microseconds,
        between LwC (2 us) and Wedge (60 us)."""
        result = boundary.cross(boundary.wasp.clock)
        assert 2.0 < result.latency_us < 20.0

    def test_crossing_is_stable(self, boundary):
        first = boundary.cross(boundary.wasp.clock).cycles
        second = boundary.cross(boundary.wasp.clock).cycles
        assert second == pytest.approx(first, rel=0.05)

    def test_mechanism_label(self, boundary):
        result = boundary.cross(boundary.wasp.clock)
        assert result.mechanism == "syscall interface + VMRUN"


class TestSpectrumOrdering:
    """Five-mechanism matrix (ROADMAP item 2), measured live.

    The paper's spectrum argument: a pthread crossing is a function
    call, a virtine crossing beats a full process round trip, and a
    container pays the seccomp-walk + IPC premium on top of a process.
    On the creation axis, SUD is the floor -- a prctl and an mprotect.
    """

    @pytest.fixture(scope="class")
    def spectrum(self):
        return spectrum_mechanisms()

    @pytest.fixture(scope="class")
    def crossings(self, spectrum):
        return {name: mech.cross().cycles for name, mech in spectrum.items()}

    def test_crossing_ordering(self, crossings):
        assert (
            crossings["thread"]
            < crossings["sud"]
            < crossings["kvm"]
            < crossings["process"]
            < crossings["container"]
        )

    def test_sud_creation_is_spectrum_floor(self, spectrum):
        creations = {
            name: mech.creation_cycles()
            for name, mech in spectrum.items()
            if hasattr(mech, "creation_cycles")
        }
        assert creations["sud"] == min(creations.values())
        # The three heavyweight mechanisms in the paper's order.
        assert creations["thread"] < creations["process"] < creations["container"]


class TestCommittedBaseline:
    """The committed Table 2 artifact must agree with the live model."""

    @pytest.fixture(scope="class")
    def data(self):
        assert BASELINE_JSON.exists(), (
            "run benchmarks/bench_table2_boundaries.py to regenerate")
        return json.loads(BASELINE_JSON.read_text())["data"]

    def test_committed_crossing_ordering(self, data):
        cross = data["spectrum_crossings_cycles"]
        assert (
            cross["thread"]
            < cross["sud"]
            < cross["kvm"]
            < cross["process"]
            < cross["container"]
        )

    def test_committed_creation_ordering(self, data):
        create = data["spectrum_creations_cycles"]
        assert create["sud"] == min(create.values())
        assert create["thread"] < create["process"] < create["container"]

    def test_committed_virtine_latency_in_paper_regime(self, data):
        latency = data["spectrum_latency_us"]["Virtines"]
        assert 2.0 < latency < 20.0

    def test_committed_matches_live_model(self, data):
        """Regenerating the benchmark must not drift from the commit:
        the cost model is deterministic, so crossings match exactly."""
        live = {name: mech.cross().cycles
                for name, mech in spectrum_mechanisms().items()}
        assert live == data["spectrum_crossings_cycles"]


class TestTable1OnReplayedBoot:
    """Table 1's committed rows, from a boot that replayed (DESIGN.md
    SS15, "Boot replay") instead of executing, computed the way
    ``benchmarks/bench_table1_boot_breakdown.py`` computes them."""

    @pytest.fixture(scope="class")
    def replayed(self):
        domain = JitDomain()
        program = Assembler(0x8000).assemble(boot.boot_source(Mode.LONG64))
        for _ in range(4 * domain.threshold):
            vm = VirtualMachine(8 * 1024 * 1024, Clock(), jit_domain=domain)
            vm.load_program(program)
            vm.vmrun()
            if domain.images()[0].replays:
                return vm
        pytest.fail("the LONG64 boot never replayed")

    def test_rows_match_committed(self, replayed):
        rows = json.loads(TABLE1_JSON.read_text())["rows"]
        comp = dict(replayed.interp.component_cycles)
        deltas = replayed.milestone_deltas()
        comp["paging identity mapping"] = (
            deltas[boot.MS_AFTER_IDENT_MAP] + deltas[boot.MS_PAGING_ON])
        labels = [row["label"] for row in rows[:-1]]
        measured = [f"{comp[label]:,} cyc" for label in labels]
        measured.append(f"{sum(comp[label] for label in labels):,} cyc")
        assert measured == [row["measured"] for row in rows]
