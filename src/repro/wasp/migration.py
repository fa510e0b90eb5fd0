"""Virtine migration and distributed services (Section 7.3).

"Because virtines implement an abstract machine model, are packaged
with their runtime environment, and employ similar semantics to RPC,
they allow for location transparency.  Virtines could therefore be
migrated to execute on remote machines just like containers ... If
virtines require host services or hardware not present in the local
machine, they can be migrated to a machine that does."

This module provides that: a :class:`Cluster` of Wasp nodes connected
by :class:`MigrationLink` s.  A virtine image (and, optionally, its
snapshot "reset state") migrates by transferring its bytes across the
link; invocation is location-transparent -- :meth:`Cluster.call` picks
a node that satisfies the image's capability requirements, migrates on
first use, and returns the result as if the call had been local.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field
from typing import Any

from repro.faults import NO_FAULTS, FaultPlan, FaultSite
from repro.runtime.image import VirtineImage
from repro.units import us_to_cycles
from repro.wasp.hypervisor import Wasp
from repro.wasp.snapshot import Snapshot
from repro.wasp.supervisor import CrashClass, classify
from repro.wasp.virtine import HostFault, VirtineCrash, VirtineResult


class MigrationError(Exception):
    """No node can host the virtine, or the transfer is invalid."""


class TransferDropped(MigrationError):
    """An image/snapshot transfer died on the wire (injected fault).

    Both sides have already paid the cycles for the partial transfer;
    the target has *not* gained residency.
    """


class TransferTampered(HostFault):
    """A migrated payload failed its wire digest on receive.

    Typed as a :class:`~repro.wasp.virtine.HostFault`: the host plane
    (the network, a compromised relay) corrupted the payload underneath
    a well-behaved workload.  The target fails *closed* -- no residency,
    no snapshot installed, the mismatch lands in the target supervisor's
    crash record -- and the caller may fail over to a different node.
    """

    def __init__(self, image_name: str, target: str,
                 sent: str, received: str) -> None:
        super().__init__(
            f"transfer of image {image_name!r} to node {target!r} failed "
            f"digest verification (sent {sent[:16]}, got {received[:16]})"
        )
        self.image_name = image_name
        self.target = target
        self.sent_digest = sent
        self.received_digest = received


def wire_digest(image: VirtineImage, snapshot: Snapshot | None) -> str:
    """sha256 over everything a migration puts on the wire.

    Covers the image bytes and -- when the reset state travels too --
    the snapshot's pages, architectural vCPU state, and integrity tag.
    The hosted payload is excluded for the same reason
    :meth:`Snapshot.compute_checksum` excludes it: it is an opaque host
    object with no stable wire representation.
    """
    digest = hashlib.sha256()
    digest.update(image.image_bytes)
    if snapshot is not None:
        for page, data in snapshot.pages.items():
            digest.update(page.to_bytes(8, "little"))
            digest.update(data)
        digest.update(repr(sorted(snapshot.cpu_state.items())).encode())
        digest.update(snapshot.checksum.to_bytes(8, "little", signed=True))
    return digest.hexdigest()


@dataclass(frozen=True)
class MigrationLink:
    """A network link between nodes (datacenter-RPC-flavoured)."""

    bandwidth_gbps: float = 25.0
    latency_us: float = 10.0

    def transfer_cycles(self, nbytes: int) -> int:
        """Cycles one side spends moving ``nbytes`` across the link."""
        seconds = nbytes * 8 / (self.bandwidth_gbps * 1e9)
        return us_to_cycles(self.latency_us + seconds * 1e6)


@dataclass
class Node:
    """One machine in the cluster: a Wasp instance plus capabilities."""

    name: str
    wasp: Wasp = field(default_factory=Wasp)
    #: Host services/hardware this node offers (e.g. "gpu", "blobstore").
    capabilities: frozenset[str] = frozenset()
    #: Images whose bytes (and snapshots) are already resident here.
    resident: set[str] = field(default_factory=set)

    def hosts(self, image: VirtineImage) -> bool:
        return image.name in self.resident


class Cluster:
    """A set of nodes offering location-transparent virtine execution."""

    def __init__(
        self,
        link: MigrationLink | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.link = link if link is not None else MigrationLink()
        self.fault_plan = fault_plan if fault_plan is not None else NO_FAULTS
        self._nodes: dict[str, Node] = {}
        self.migrations = 0
        #: Transfers that died on the wire (injected faults).
        self.dropped_transfers = 0
        #: Transfers rejected at the target for a wire-digest mismatch.
        self.tampered_transfers = 0
        #: Calls completed on a second node after the first one failed.
        self.failovers = 0

    # -- topology -------------------------------------------------------------
    def add_node(self, name: str, capabilities: set[str] | None = None,
                 wasp: Wasp | None = None) -> Node:
        if name in self._nodes:
            raise MigrationError(f"node {name!r} already in cluster")
        node = Node(
            name=name,
            wasp=wasp if wasp is not None else Wasp(),
            capabilities=frozenset(capabilities or ()),
        )
        self._nodes[name] = node
        return node

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise MigrationError(f"no such node: {name!r}") from None

    def nodes(self) -> tuple[Node, ...]:
        return tuple(self._nodes.values())

    # -- placement ------------------------------------------------------------------
    def place(
        self, image: VirtineImage, exclude: frozenset[str] = frozenset()
    ) -> Node:
        """Pick a node satisfying the image's required capabilities.

        Requirements come from ``image.metadata["requires"]`` (a set of
        capability names).  Nodes already hosting the image win ties.
        ``exclude`` removes nodes from consideration (failover placement
        after a node-local crash).
        """
        required = set(image.metadata.get("requires", ()))
        candidates = [
            node for node in self._nodes.values()
            if required <= node.capabilities and node.name not in exclude
        ]
        if not candidates:
            raise MigrationError(
                f"no node offers {sorted(required)} for image {image.name!r}"
                + (f" (excluding {sorted(exclude)})" if exclude else "")
            )
        resident = [node for node in candidates if node.hosts(image)]
        return resident[0] if resident else candidates[0]

    # -- migration -----------------------------------------------------------------------
    def migrate(
        self,
        image: VirtineImage,
        source: Node | None,
        target: Node,
        include_snapshot: bool = True,
    ) -> int:
        """Move an image (and optionally its reset state) to ``target``.

        Returns the transferred byte count.  Transfer cycles are charged
        on both sides' clocks (send and receive).

        The sender stamps the payload with :func:`wire_digest`; the
        receiver recomputes it over what actually arrived (a private
        copy -- migrated state is never shared by reference with the
        source) *before* activating anything.  A mismatch fails closed
        as :class:`TransferTampered`: no residency, no snapshot
        installed, and the crash is recorded with the target's
        supervisor so tampering is visible in its crash record.
        """
        nbytes = image.size
        snapshot = None
        if include_snapshot and source is not None:
            snapshot = source.wasp.snapshots.get(image.name)
            if snapshot is not None:
                nbytes += snapshot.copy_size
        cost = self.link.transfer_cycles(nbytes)
        plan = self.fault_plan
        if plan.enabled and plan.draw(FaultSite.MIGRATION_TRANSFER, image.name):
            # The link died mid-transfer: both sides burned (half) the
            # cycles, residency did not change hands.
            if source is not None:
                source.wasp.clock.advance(cost // 2)
            target.wasp.clock.advance(cost // 2)
            self.dropped_transfers += 1
            raise TransferDropped(
                f"transfer of image {image.name!r} to node {target.name!r} "
                "dropped mid-flight"
            )
        sent_digest = wire_digest(image, snapshot)
        # What the wire delivers is a copy of the sender's state, not a
        # reference to it; tampering corrupts the copy in flight.
        received = copy.deepcopy(snapshot) if snapshot is not None else None
        tampered = plan.enabled and plan.draw(FaultSite.MIGRATION_TAMPER,
                                              image.name)
        if tampered and received is not None:
            received.corrupt()
        if source is not None:
            source.wasp.clock.advance(cost)
        target.wasp.clock.advance(cost)
        # Receive-side verification, charged at checksum bandwidth.
        target.wasp.clock.advance(target.wasp.costs.checksum(nbytes))
        received_digest = wire_digest(image, received)
        if tampered and received is None:
            # No snapshot travelled, so the corruption hit the image
            # bytes themselves; the recomputed digest cannot match.
            received_digest = "0" * 64
        if received_digest != sent_digest:
            self.tampered_transfers += 1
            crash = TransferTampered(image.name, target.name,
                                     sent_digest, received_digest)
            supervisor = target.wasp.supervisor
            if supervisor is not None:
                supervisor.record_external_crash(image.name, crash)
            raise crash
        target.resident.add(image.name)
        if received is not None:
            target.wasp.snapshots.put(image.name, received)
        self.migrations += 1
        return nbytes

    # -- location-transparent invocation -----------------------------------------------------
    def call(
        self,
        image: VirtineImage,
        args: Any = None,
        source: Node | None = None,
        **launch_kwargs: Any,
    ) -> VirtineResult:
        """Invoke a virtine somewhere in the cluster, RPC-style.

        Placement is automatic; the image (and snapshot) migrates on
        first use of a node.  The caller pays the request/response link
        latency on the source clock; execution runs on the target.

        Failover: a dropped transfer or a *transient* crash on the
        target (host fault, timeout) fails the call over to a different
        node rather than back to the caller.  Deterministic crashes
        (guest faults, policy kills) would reproduce anywhere, so they
        propagate immediately.
        """
        excluded: set[str] = set()
        while True:
            target = self.place(image, exclude=frozenset(excluded))
            try:
                if not target.hosts(image):
                    self.migrate(image, source, target)
                # Request hop (marshalled args are small; charge the
                # latency).
                if source is not None and source is not target:
                    source.wasp.clock.advance(self.link.transfer_cycles(256))
                result = target.wasp.launch(image, args=args, **launch_kwargs)
            except TransferDropped:
                excluded.add(target.name)
                if not self._has_alternative(image, excluded):
                    raise
                self.failovers += 1
                continue
            except VirtineCrash as crash:
                transient = classify(crash) in (
                    CrashClass.HOST_FAULT, CrashClass.TIMEOUT,
                )
                excluded.add(target.name)
                if not transient or not self._has_alternative(image, excluded):
                    raise
                self.failovers += 1
                continue
            # Response hop.
            if source is not None and source is not target:
                source.wasp.clock.advance(self.link.transfer_cycles(256))
            return result

    def _has_alternative(self, image: VirtineImage, excluded: set[str]) -> bool:
        """Whether a failover target remains after excluding ``excluded``."""
        try:
            self.place(image, exclude=frozenset(excluded))
        except MigrationError:
            return False
        return True
