"""Crash-taxonomy equivalence: *who is at fault* classifies identically.

The conformance contract's core clause: for a fixed failure scenario,
every backend must produce the *same* typed verdict -- a policy
violation is a PolicyKill whether the mechanism raised a catchable
denial (KVM, SUD, process, thread) or delivered an uncatchable seccomp
kill (container); a guest bug is a GuestFault whether it surfaced as a
Python exception or a mechanism-native trap; a host-plane errno is a
HostFault; a blown deadline is a VirtineTimeout.
"""

import pytest

from repro.host.backend import BACKEND_NAMES
from repro.runtime.image import ImageBuilder
from repro.wasp.hypercall import Hypercall, HypercallError
from repro.wasp.policy import DefaultDenyPolicy, PermissivePolicy
from repro.wasp.virtine import (
    GuestFault,
    HostFault,
    PolicyKill,
    VirtineCrash,
    VirtineTimeout,
)

from tests.conformance.conftest import make_host


def _deny_entry(env):
    env.hypercall(Hypercall.OPEN, "/public/data.txt")


def _bug_entry(env):
    raise ValueError("guest bug")


def _bad_args_entry(env):
    env.hypercall(Hypercall.READ, "", object())


def _backend_trap_entry(env):
    env.memory.write(2**50, b"X" * 16)


def _negative_charge_entry(env):
    env.charge(-1)


def _host_plane_entry(env):
    env.hypercall(Hypercall.GET_DATA)


def _disk_died(request):
    raise HypercallError(Hypercall.GET_DATA, "EIO", "backing disk died")


def _deadline_entry(env):
    for _ in range(1000):
        env.charge(100_000)


#: scenario name -> (entry, launch kwargs, expected verdict class).
SCENARIOS = {
    "uncaught-denial": (_deny_entry, {"policy": DefaultDenyPolicy()}, PolicyKill),
    "guest-exception": (_bug_entry, {"policy": PermissivePolicy()}, GuestFault),
    "garbage-hypercall-args": (
        _bad_args_entry, {"policy": PermissivePolicy()}, GuestFault),
    "mechanism-native-trap": (
        _backend_trap_entry, {"policy": PermissivePolicy()}, GuestFault),
    "negative-charge": (
        _negative_charge_entry, {"policy": PermissivePolicy()}, GuestFault),
    "host-plane-errno": (
        _host_plane_entry,
        {"policy": PermissivePolicy(),
         "handlers": {Hypercall.GET_DATA: _disk_died}},
        HostFault),
    "deadline-blown": (
        _deadline_entry,
        {"policy": PermissivePolicy(), "deadline_cycles": 50_000},
        VirtineTimeout),
}


def _verdict(host, scenario: str) -> BaseException:
    entry, kwargs, _ = SCENARIOS[scenario]
    image = ImageBuilder().hosted(f"taxonomy-{scenario}", entry)
    with pytest.raises(VirtineCrash) as excinfo:
        host.launch(image, **kwargs)
    return excinfo.value


class TestVerdictPerBackend:
    """Each backend yields exactly the expected verdict class."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_expected_verdict(self, host, scenario):
        expected = SCENARIOS[scenario][2]
        verdict = _verdict(host, scenario)
        assert type(verdict) is expected

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_verdict_is_chained(self, host, scenario):
        """The mechanism-native signal survives as the typed cause."""
        if scenario in ("deadline-blown", "negative-charge"):
            # These verdicts originate *in* the accounting plane itself;
            # there is no mechanism-native signal underneath to chain.
            return
        verdict = _verdict(host, scenario)
        assert verdict.__cause__ is not None


class TestCrossBackendEquivalence:
    """The whole matrix at once: one scenario, five identical verdicts."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_identical_verdict_types(self, scenario):
        verdicts = {}
        for name in BACKEND_NAMES:
            host = make_host(name)
            verdicts[name] = type(_verdict(host, scenario)).__name__
        assert len(set(verdicts.values())) == 1, verdicts

    def test_denial_killed_even_when_swallowed_on_kill_backends(self):
        """A guest catching ``Exception`` cannot survive a seccomp kill;
        on catch-and-deny backends it can -- the one *declared*
        divergence (BackendCaps.kill_on_violation)."""

        def entry(env):
            try:
                env.hypercall(Hypercall.OPEN)
            except Exception:
                pass
            return "survived"

        for name in BACKEND_NAMES:
            host = make_host(name)
            image = ImageBuilder().hosted("swallow", entry)
            if host.caps.kill_on_violation:
                with pytest.raises(PolicyKill):
                    host.launch(image, policy=DefaultDenyPolicy())
            else:
                result = host.launch(image, policy=DefaultDenyPolicy())
                assert result.value == "survived"

    def test_snapshot_divergence_is_typed(self, host, caps):
        """Backends without snapshots reject SNAPSHOT as a typed ENOSYS
        GuestFault; capable ones capture it.  Never an untyped surprise."""
        from repro.wasp.policy import BitmaskPolicy, VirtineConfig

        def entry(env):
            env.snapshot(payload={"x": 1})
            return "captured"

        image = ImageBuilder().hosted("snap-capability", entry)
        policy = BitmaskPolicy(VirtineConfig.allowing(Hypercall.SNAPSHOT))
        if caps.snapshot:
            result = host.launch(image, policy=policy)
            assert result.value == "captured"
        else:
            with pytest.raises(GuestFault, match="ENOSYS|cannot capture"):
                host.launch(image, policy=policy)
