"""Table 2: the cost of crossing isolation boundaries across systems.

Prior systems are cost models calibrated to their published numbers;
the virtine row is measured live from this repo's Wasp stack (pool
provision + KVM_RUN + vmrun + exit, from host userspace).  Paper: 5 us
for virtines, between LwC (2.01 us) and Wedge (~60 us).

Extended to the full five-mechanism spectrum (ROADMAP item 2): the SUD,
container, process, and pthread rows are *measured* through the same
launcher plumbing as the virtine row, so the matrix compares live
mechanisms, not constants.  The committed results file
(``results/BENCH_table2_boundaries.json``) is the conformance baseline
``tests/test_baselines.py`` asserts orderings against.
"""

import pytest

from repro.baselines import ALL_MECHANISMS, VirtineBoundary, spectrum_mechanisms
from repro.hw.clock import Clock
from repro.units import cycles_to_us

#: Display labels + paper expectations for the spectrum rows.
SPECTRUM_HINTS = {
    "kvm": "~5 us",
    "sud": "trap tax per call",
    "container": "> process",
    "process": "~2 ctx switches",
    "thread": "~function call",
}


@pytest.fixture(scope="module")
def spectrum():
    return spectrum_mechanisms()


@pytest.fixture(scope="module")
def measured(report, spectrum):
    clock = Clock()
    rows = {}
    for mechanism in ALL_MECHANISMS:
        result = mechanism.cross(clock)
        rows[result.system] = result
        report.row(
            f"{result.system} ({result.mechanism})",
            f"{mechanism.paper_latency_us} us",
            f"{result.latency_us:.2f} us",
        )
    crossings = {}
    creations = {}
    for name, mechanism in spectrum.items():
        result = mechanism.cross()
        rows[result.system] = result
        crossings[name] = result.cycles
        if hasattr(mechanism, "creation_cycles"):
            creations[name] = mechanism.creation_cycles()
        report.row(
            f"{result.system} ({result.mechanism})",
            SPECTRUM_HINTS[name],
            f"{result.latency_us:.2f} us",
        )
    report.record("spectrum_crossings_cycles", crossings)
    report.record("spectrum_creations_cycles", creations)
    return rows


class TestShape:
    def test_virtines_between_lwc_and_wedge(self, measured):
        assert measured["LwC"].latency_us < measured["Virtines"].latency_us
        assert measured["Virtines"].latency_us < measured["Wedge"].latency_us

    def test_virtines_single_digit_us(self, measured):
        assert measured["Virtines"].latency_us < 10.0

    def test_ordering_matches_table(self, measured):
        order = ["Hodor", "SeCage", "Enclosures", "LwC", "Virtines", "Wedge"]
        latencies = [measured[s].latency_us for s in order]
        assert latencies == sorted(latencies)

    def test_spectrum_crossing_ordering(self, measured):
        """The paper's argument across the spectrum: pthread crossings
        are trivial, virtines beat processes, containers pay the seccomp
        + IPC premium on top of a process."""
        assert (
            measured["Linux pthread"].cycles
            < measured["Virtines"].cycles
            < measured["Linux process"].cycles
            < measured["Container"].cycles
        )

    def test_sud_trades_creation_for_crossing_tax(self, spectrum, measured):
        """SUD creation is the cheapest on the spectrum, but each of its
        crossings pays the SIGSYS bounce -- dearer than a pthread's."""
        creations = {name: m.creation_cycles()
                     for name, m in spectrum.items()
                     if hasattr(m, "creation_cycles")}
        assert creations["sud"] == min(creations.values())
        assert measured["SUD virtine"].cycles > measured["Linux pthread"].cycles


def test_cross_cycles(report, measured):
    """Record per-mechanism microseconds for the committed baseline."""
    report.record(
        "spectrum_latency_us",
        {system: round(result.latency_us, 3)
         for system, result in measured.items()},
    )
    assert all(result.cycles >= 0 for result in measured.values())


def test_benchmark_virtine_cross(benchmark, measured):
    virtines = VirtineBoundary()
    benchmark.pedantic(
        lambda: virtines.cross(virtines.wasp.clock), rounds=10, iterations=1
    )


def test_benchmark_sud_cross(benchmark, spectrum, measured):
    sud = spectrum["sud"]
    benchmark.pedantic(lambda: sud.cross(), rounds=10, iterations=1)
