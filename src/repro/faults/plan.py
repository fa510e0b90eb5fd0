"""The deterministic fault-injection plane.

Production micro-VM runtimes treat fault injection as a first-class
subsystem: Firecracker's test harness kills vCPU threads mid-run, and
record/replay methodologies (IRIS-style) demand that the *same* seed
reproduce the *same* failure sequence so a crash found once can be
replayed forever.  This module is that plane for the Wasp stack.

A :class:`FaultPlan` is configured with per-site failure rates and/or
explicit call indices, then given to the layers that can fail in
production (a plane installs its plan on its clock for those beneath):

* :data:`FaultSite.VCPU_RUN`        -- ``KVM_RUN`` aborts (EINTR storms,
  poisoned VMCB) in :mod:`repro.kvm.device`.
* :data:`FaultSite.HOST_SYSCALL`    -- ``EIO`` from the host filesystem
  in :mod:`repro.host.kernel`.
* :data:`FaultSite.SNAPSHOT_RESTORE`-- bit rot in a stored reset state,
  detected by checksum in :mod:`repro.wasp.snapshot`.
* :data:`FaultSite.MIGRATION_TRANSFER` -- a dropped image transfer in
  :mod:`repro.wasp.migration`.
* :data:`FaultSite.POOL_ACQUIRE`    -- a defective recycled shell in
  :mod:`repro.wasp.pool` (discarded and rebuilt, never handed out).
* :data:`FaultSite.BURST_ARRIVAL`   -- a thundering herd hitting the
  admission gate in :mod:`repro.wasp.admission` (phantom arrivals drain
  the image's token bucket).
* :data:`FaultSite.GUEST_STALL`     -- a guest wedging mid-hypercall in
  :mod:`repro.wasp.hypervisor` (cycles pass with no heartbeat, tripping
  the watchdog).
* :data:`FaultSite.STORE_GC_RACE`   -- the garbage collector winning the
  race between pool acquire and snapshot materialization in
  :mod:`repro.store.cas` (the fetch finds the reset state collected).
* :data:`FaultSite.MIGRATION_TAMPER` -- a migrated shell payload
  corrupted in flight in :mod:`repro.wasp.migration` (the receive-side
  digest check must fail closed).

Determinism: every site draws from its **own** RNG stream derived from
``(seed, site)``, so the nth decision at a site is a pure function of the
seed and n -- independent of how draws at *other* sites interleave.  Two
runs of the same workload under the same seed therefore produce
byte-identical fault traces (and, downstream, identical supervision
traces), which the tests assert.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field


class FaultSite(enum.Enum):
    """Where in the stack a fault can be injected."""

    VCPU_RUN = "vcpu_run"
    HOST_SYSCALL = "host_syscall"
    SNAPSHOT_RESTORE = "snapshot_restore"
    MIGRATION_TRANSFER = "migration_transfer"
    POOL_ACQUIRE = "pool_acquire"
    BURST_ARRIVAL = "burst_arrival"
    GUEST_STALL = "guest_stall"
    STORE_GC_RACE = "store_gc_race"
    MIGRATION_TAMPER = "migration_tamper"


class InjectedFault(Exception):
    """A fault deliberately injected by a :class:`FaultPlan`.

    Raised by injection points that model hard host-plane failures (a
    ``KVM_RUN`` abort); soft sites (syscall EIO, snapshot corruption,
    pool defects) instead surface through their layer's native error
    channel so the blast radius matches the real failure mode.
    """

    def __init__(self, site: FaultSite, nth: int, detail: str = "") -> None:
        message = f"injected fault at {site.value} (call #{nth})"
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.site = site
        self.nth = nth
        self.detail = detail


@dataclass(frozen=True)
class FaultSpec:
    """When a site fires: an explicit schedule, a rate, or both."""

    #: Probability that any given draw fires (seeded, per-site stream).
    rate: float = 0.0
    #: Explicit 1-based call indices that always fire (checked first).
    on_calls: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")


@dataclass(frozen=True)
class FaultEvent:
    """One fired fault: which site, on which of its calls."""

    site: FaultSite
    nth: int
    detail: str = ""


class FaultPlan:
    """A seedable, deterministic schedule of injected faults.

    Usage::

        plan = (FaultPlan(seed=7)
                .fail(FaultSite.HOST_SYSCALL, rate=0.05)
                .fail(FaultSite.SNAPSHOT_RESTORE, on={1}))
        wasp = Wasp(fault_plan=plan)

    Sites without a spec never fire and cost nothing, so an unconfigured
    plan (or :data:`NO_FAULTS`) is a true no-op on the hot path.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._specs: dict[FaultSite, FaultSpec] = {}
        self._rngs: dict[FaultSite, random.Random] = {}
        self._calls: dict[FaultSite, int] = {}
        #: Chronological record of every *fired* fault.
        self.trace: list[FaultEvent] = []

    # -- configuration -------------------------------------------------------
    def fail(
        self,
        site: FaultSite,
        rate: float = 0.0,
        on: set[int] | frozenset[int] | None = None,
    ) -> "FaultPlan":
        """Arm ``site`` with a failure rate and/or explicit call indices."""
        self._specs[site] = FaultSpec(rate=rate, on_calls=frozenset(on or ()))
        return self

    # -- the injection-point primitive ---------------------------------------
    def draw(self, site: FaultSite, detail: str = "") -> bool:
        """Decide whether ``site``'s next call fails; record it if so."""
        if not self._specs:
            # Nothing armed: skip hashing the site.
            return False
        spec = self._specs.get(site)
        if spec is None:
            return False
        nth = self._calls.get(site, 0) + 1
        self._calls[site] = nth
        fired = nth in spec.on_calls
        if not fired and spec.rate > 0.0:
            rng = self._rngs.get(site)
            if rng is None:
                rng = random.Random(f"{self.seed}:{site.value}")
                self._rngs[site] = rng
            fired = rng.random() < spec.rate
        if fired:
            self.trace.append(FaultEvent(site=site, nth=nth, detail=detail))
        return fired

    def fault(self, site: FaultSite, detail: str = "") -> InjectedFault:
        """Build the exception for a fault :meth:`draw` just fired."""
        return InjectedFault(site, self._calls.get(site, 0), detail)

    def signature(self) -> tuple[tuple[str, int], ...]:
        """A hashable digest of the fired-fault trace (replay checks)."""
        return tuple((event.site.value, event.nth) for event in self.trace)


#: Shared inert plan: no specs, so every draw is a cheap early return.
NO_FAULTS = FaultPlan(seed=0)
