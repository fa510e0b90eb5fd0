"""Hostile-guest mutation fuzzing across the spectrum.

Runs the seeded hostile battery (``tests.conformance.hostile``, the
portable analogue of PR 6's interface-fuzzer operators) on every
backend, then the *real* recorded-stream InterfaceFuzzer on the KVM
backend, where boundary streams exist.  Everything hostile must land
in the typed taxonomy with zero host-plane residue -- and the battery
must be deterministic under its seed.
"""

import pytest

from repro.host.backend import caps_of

from tests.conformance.conftest import SEED, make_host
from tests.conformance.hostile import HOSTILE_OPERATORS, run_battery

#: Operators whose outcome legitimately differs across backends, each
#: tied to the capability that licenses the divergence.
CAP_DIVERGENT = {"swallowed-kill": "kill_on_violation"}


class TestHostileBattery:
    def test_battery_all_typed(self, host, backend_name):
        outcomes = run_battery(host, seed=SEED)
        bad = [o for o in outcomes if not o.ok]
        assert not bad, [(o.operator, o.outcome, o.detail,
                          o.invariant_failures) for o in bad]
        assert len(outcomes) == 2 * len(HOSTILE_OPERATORS)

    def test_battery_deterministic_under_seed(self, backend_name):
        first = run_battery(make_host(backend_name), seed=777)
        second = run_battery(make_host(backend_name), seed=777)
        assert [o.key() for o in first] == [o.key() for o in second]

    def test_battery_outcomes_equivalent_across_backends(self):
        """Outcome fingerprints match across all five backends except
        where a declared capability licenses the divergence."""
        fingerprints = {}
        for name in ("kvm", "sud", "container", "process", "thread"):
            host = make_host(name)
            outcomes = run_battery(host, seed=SEED, rounds=1)
            fingerprints[name] = {
                o.operator: o.outcome for o in outcomes
                if o.operator not in CAP_DIVERGENT
            }
        reference = fingerprints.pop("kvm")
        for name, prints in fingerprints.items():
            assert prints == reference, f"{name} diverged: {prints}"

    def test_divergent_operators_match_declared_caps(self):
        """The swallowed-kill case survives exactly where the backend
        declares catchable denials."""
        for name in ("kvm", "sud", "container", "process", "thread"):
            host = make_host(name)
            outcomes = [o for o in run_battery(host, seed=SEED,
                                               rounds=1)
                        if o.operator == "swallowed-kill"]
            assert outcomes
            for case in outcomes:
                if caps_of(host).kill_on_violation:
                    assert case.outcome == "typed:PolicyKill", (name, case)
                else:
                    assert case.outcome == "completed", (name, case)


class TestInterfaceFuzzerOnKvm:
    """The recorded-stream fuzzer still holds the line on the KVM path."""

    def test_fuzz_cases_stay_typed(self):
        from repro.replay.engine import record
        from repro.replay.fuzzer import InterfaceFuzzer

        stream = record("echo", seed=SEED, requests=2)
        report = InterfaceFuzzer(stream, seed=SEED).run(cases=20)
        assert report.ok, [(c.mutation, c.outcome, c.detail)
                           for c in report.failures]
        assert len(report.cases) == 20
