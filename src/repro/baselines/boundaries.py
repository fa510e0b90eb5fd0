"""Isolation-boundary crossing costs (Table 2).

The paper compares the cost of crossing an isolation boundary in prior
systems against virtines.  The prior systems are cost models calibrated
to their published numbers (we cannot run Wedge or Hodor here); the
virtine row is *measured* from this repository's own stack -- a pool
provision + ``KVM_RUN`` + exit, "measured from userspace on the host,
surrounding the KVM_RUN ioctl, thus incurring system call and
ring-switch overheads."

==============  ==========  ===================================
System          Latency     Boundary-cross mechanism
==============  ==========  ===================================
Wedge           ~60 us      sthread call
LwC             2.01 us     lwSwitch
Enclosures      0.9 us      custom syscall interface
SeCage          0.5 us      VMRUN/VMFUNC
Hodor           0.1 us      VMRUN/VMFUNC
Virtines        ~5 us       syscall interface + VMRUN
==============  ==========  ===================================
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.clock import Clock
from repro.runtime.image import ImageBuilder
from repro.units import cycles_to_us, us_to_cycles
from repro.wasp.hypervisor import Wasp
from repro.wasp.pool import CleanMode


@dataclass(frozen=True)
class CrossingResult:
    """One measured/modelled boundary cross."""

    system: str
    mechanism: str
    cycles: float

    @property
    def latency_us(self) -> float:
        return cycles_to_us(self.cycles)


@dataclass(frozen=True)
class PublishedBoundary:
    """A prior system's boundary cross, modelled at its published latency."""

    system: str
    mechanism: str
    #: The paper's published latency for this system, in microseconds.
    paper_latency_us: float

    def cross(self, clock: Clock) -> CrossingResult:
        """Perform one boundary cross, charging the clock."""
        start = clock.cycles
        clock.advance(us_to_cycles(self.paper_latency_us))
        return CrossingResult(system=self.system, mechanism=self.mechanism,
                              cycles=clock.cycles - start)


#: The literature rows of Table 2, in the paper's order.
ALL_MECHANISMS = (
    PublishedBoundary("Wedge", "sthread call", 60.0),                   # [20]
    PublishedBoundary("LwC", "lwSwitch", 2.01),                         # [48]
    PublishedBoundary("Enclosures", "custom syscall interface", 0.9),   # [27]
    PublishedBoundary("SeCage", "VMRUN/VMFUNC", 0.5),                   # [51]
    PublishedBoundary("Hodor", "VMRUN/VMFUNC", 0.1),                    # [32]
)


class BoundaryMechanism:
    """Base class: a boundary cross measured through a live launcher."""

    system = "abstract"
    mechanism = "abstract"

    def cross(self, clock: Clock) -> CrossingResult:
        """Perform one boundary cross, charging the clock."""
        start = clock.cycles
        self._do_cross(clock)
        return CrossingResult(
            system=self.system, mechanism=self.mechanism, cycles=clock.cycles - start
        )

    def _do_cross(self, clock: Clock) -> None:
        raise NotImplementedError


def _snapshot_entry(env):
    """Boot once, capture the reset state, and halt immediately."""
    if not env.from_snapshot:
        env.snapshot(payload=None)
    return 0


class VirtineBoundary(BoundaryMechanism):
    """Virtines: measured from this repo's own Wasp stack.

    One cross = provisioning a pooled shell, restoring the captured
    post-boot snapshot (the language extensions' default), entering via
    ``KVM_RUN`` (ioctl + ring transitions + vmrun), running to the
    immediate halt, exiting, and returning the shell.
    """

    system = "Virtines"
    mechanism = "syscall interface + VMRUN"

    def __init__(self, wasp: Wasp | None = None) -> None:
        self.wasp = wasp if wasp is not None else Wasp()
        # The probe image is minimal (one page): the cross measures the
        # boundary, not a bulk restore of guest memory.
        self.image = ImageBuilder().hosted("boundary", _snapshot_entry,
                                           size=4096)
        # Warm the pool and capture the post-boot snapshot so each cross
        # measures the steady-state re-entry path.
        self.wasp.launch(self.image, policy=self._policy())
        self.wasp.launch(self.image, policy=self._policy())

    @staticmethod
    def _policy():
        from repro.wasp.policy import BitmaskPolicy, VirtineConfig
        from repro.wasp.hypercall import Hypercall

        return BitmaskPolicy(VirtineConfig.allowing(Hypercall.SNAPSHOT))

    def cross(self, clock: Clock | None = None) -> CrossingResult:
        """Perform one cross (defaults to the Wasp's own clock)."""
        return super().cross(clock if clock is not None else self.wasp.clock)

    def _do_cross(self, clock: Clock) -> None:
        self.wasp.launch(self.image, policy=self._policy(),
                         clean=CleanMode.ASYNC)


class BackendBoundary(BoundaryMechanism):
    """A live isolation backend's boundary crossing, *measured*.

    Like :class:`VirtineBoundary`, one cross is a full warm invocation
    through the real launcher -- context provisioning, entry crossing,
    a trivial hosted body, exit crossing, release -- not a sum of
    constants.  The mechanism's own cost classes (SIGSYS trap tax, IPC
    round trip, seccomp chain walk) are what make the rows differ.
    """

    def __init__(self, backend_name: str, host=None) -> None:
        from repro.host.backend import create_host
        from repro.runtime.image import ImageBuilder

        self.backend_name = backend_name
        self.system = self.SYSTEMS[backend_name]
        self.mechanism = self.MECHANISMS[backend_name]
        self.host = host if host is not None else create_host(backend_name)
        self.image = ImageBuilder().hosted(
            name=f"boundary:{backend_name}", entry=lambda env: 0, size=4096)
        # Warm the context pool so each cross measures steady state.
        self.host.launch(self.image, pooled=True, clean=CleanMode.ASYNC)

    SYSTEMS = {
        "sud": "SUD virtine",
        "container": "Container",
        "process": "Linux process",
        "thread": "Linux pthread",
    }
    MECHANISMS = {
        "sud": "SIGSYS trap + sched bounce",
        "container": "IPC + seccomp filter",
        "process": "IPC round trip",
        "thread": "function call",
    }

    def cross(self, clock: Clock | None = None) -> CrossingResult:
        """Perform one cross (defaults to the host's own clock)."""
        return super().cross(clock if clock is not None else self.host.clock)

    def _do_cross(self, clock: Clock) -> None:
        self.host.launch(self.image, pooled=True, clean=CleanMode.ASYNC)

    def creation_cycles(self) -> int:
        """Creating one context from scratch (the Figure 8 quantity)."""
        return int(self.host.backend_impl.creation_cycles())


def spectrum_mechanisms(wasp: Wasp | None = None) -> dict[str, BoundaryMechanism]:
    """The five-mechanism measured matrix, keyed by backend name.

    The KVM row is the classic :class:`VirtineBoundary`; the other four
    are :class:`BackendBoundary` rows over live backend hosts.  Shared
    by ``benchmarks/bench_table2_boundaries.py`` and the conformance
    suite's cost-ordering checks.
    """
    return {
        "kvm": VirtineBoundary(wasp),
        "sud": BackendBoundary("sud"),
        "container": BackendBoundary("container"),
        "process": BackendBoundary("process"),
        "thread": BackendBoundary("thread"),
    }

