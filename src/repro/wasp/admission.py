"""The overload-protection plane: admission control, deadlines, watchdog.

PR 1 built the *failure* plane (what to do after a virtine dies); this
module is the *overload* plane -- what to do so the system never gets
into a state where everything dies at once.  The paper's pitch is that
virtines make isolation cheap enough for per-request use at serverless
scale (Section 7, Figure 15); at that scale nothing survives unbounded
admission, so four mechanisms compose here:

* **Bounded admission queues** (:class:`BoundedQueue`) with configurable
  load-shedding policies -- reject-newest, reject-oldest, or
  priority-by-image -- so a burst raises the shed rate, not the queue
  depth.
* **Token-bucket rate limiting** (:class:`TokenBucket`) per image, so
  one hot function cannot starve the rest.
* **End-to-end deadlines** (:class:`Deadline`): an absolute expiry on
  the simulated clock, carried from the platform/client entry point
  through ``Wasp.launch`` into the vCPU run loop and the hosted compute
  charges, where work is *cancelled* at the deadline rather than
  completed and discarded.
* **A watchdog** (:class:`Watchdog`) that heartbeats running virtines
  (hypercalls and milestones are the beats) and kills hangs, classified
  as *no-progress* (silent past the threshold) or *slow-progress*
  (beating but hopeless) into the PR-1 crash taxonomy via
  :class:`~repro.wasp.virtine.VirtineHang` -- a
  :class:`~repro.wasp.virtine.VirtineTimeout` subclass, so the
  supervisor's retry/breaker machinery handles hangs like any other
  timeout.

Every decision the plane makes is appended to an :class:`AdmissionTrace`
whose :meth:`~AdmissionTrace.signature` is a pure function of the seed
and workload (IRIS-style record-and-replay: ``python -m repro
admission-replay`` asserts two seeded runs produce identical shed and
timeout sequences).  All units are "whatever clock the caller lives on":
the serverless queueing model passes seconds, the Wasp layer passes
simulated cycles.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.faults import NO_FAULTS, FaultPlan, FaultSite
from repro.telemetry.registry import NO_TELEMETRY
from repro.units import us_to_cycles
from repro.wasp.virtine import HangKind, Virtine, VirtineHang

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.wasp.hypervisor import Wasp


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Deadline:
    """An absolute expiry on the caller's clock (cycles or seconds).

    Request-scoped: minted once where the request enters the system and
    threaded through every layer that works on its behalf, so the whole
    pipeline agrees on when the budget is gone.
    """

    expires_at: float

    @classmethod
    def after(cls, now: float, budget: float) -> "Deadline":
        """A deadline ``budget`` time units from ``now``."""
        if budget < 0:
            raise ValueError(f"deadline budget cannot be negative: {budget}")
        return cls(expires_at=now + budget)

    def remaining(self, now: float) -> float:
        """Budget left at ``now`` (0 when expired)."""
        return max(0.0, self.expires_at - now)

    def expired(self, now: float) -> bool:
        """Strictly past the expiry (matches ``Wasp.check_deadline``)."""
        return now > self.expires_at


# ---------------------------------------------------------------------------
# Token buckets
# ---------------------------------------------------------------------------

class TokenBucket:
    """A deterministic token bucket refilled from the caller's clock."""

    def __init__(self, rate: float, burst: float) -> None:
        if rate < 0:
            raise ValueError(f"refill rate cannot be negative: {rate}")
        if burst <= 0:
            raise ValueError(f"burst capacity must be positive: {burst}")
        self.rate = rate
        self.burst = burst
        self.tokens = float(burst)
        self._last_refill: float | None = None

    def _refill(self, now: float) -> None:
        if self._last_refill is not None and now > self._last_refill:
            self.tokens = min(self.burst, self.tokens + (now - self._last_refill) * self.rate)
        self._last_refill = now if self._last_refill is None else max(self._last_refill, now)

    def take(self, now: float, cost: float = 1.0) -> bool:
        """Spend ``cost`` tokens if available at ``now``."""
        self._refill(now)
        if self.tokens + 1e-12 >= cost:
            self.tokens = max(0.0, self.tokens - cost)
            return True
        return False

    def drain(self, now: float, cost: float) -> None:
        """Forcibly remove tokens (burst-arrival fault amplification)."""
        self._refill(now)
        self.tokens = max(0.0, self.tokens - cost)

    def retry_after(self, now: float, cost: float = 1.0) -> float:
        """Time units until ``cost`` tokens will be available (0 if now)."""
        self._refill(now)
        deficit = cost - self.tokens
        if deficit <= 0:
            return 0.0
        if self.rate <= 0:
            return math.inf
        return deficit / self.rate


# ---------------------------------------------------------------------------
# Queue + shedding policy
# ---------------------------------------------------------------------------

class ShedPolicy(enum.Enum):
    """Which request a full admission queue sacrifices."""

    REJECT_NEWEST = "reject_newest"
    REJECT_OLDEST = "reject_oldest"
    PRIORITY = "priority"


class BrownoutLevel(enum.Enum):
    """Graduated overload posture, derived from queue/shed pressure."""

    NORMAL = "normal"
    #: Optional work should be refused (HTTP 429 with Retry-After).
    BROWNOUT = "brownout"
    #: Only already-admitted work proceeds (HTTP 503 / fail-over).
    DEGRADED = "degraded"


class AdmissionDecision(enum.Enum):
    """What the overload plane did with one request."""

    ADMIT = "admit"
    SHED_RATE_LIMIT = "shed_rate_limit"
    SHED_QUEUE_FULL = "shed_queue_full"
    #: Dead on arrival: the request's deadline had already expired.
    SHED_DEADLINE = "shed_deadline"
    #: Evicted from the queue to make room (reject-oldest / priority).
    EVICTED = "evicted"
    #: Expired while waiting in the queue.
    EXPIRED_IN_QUEUE = "expired_in_queue"
    #: Admitted but cancelled at its deadline before completing.
    TIMEOUT = "timeout"


#: Decisions that count as load shedding (no work was attempted).
SHED_DECISIONS = frozenset({
    AdmissionDecision.SHED_RATE_LIMIT,
    AdmissionDecision.SHED_QUEUE_FULL,
    AdmissionDecision.SHED_DEADLINE,
    AdmissionDecision.EVICTED,
    AdmissionDecision.EXPIRED_IN_QUEUE,
})


@dataclass(frozen=True)
class AdmissionEvent:
    """One entry in the admission trace."""

    seq: int
    request_id: int
    image: str
    decision: AdmissionDecision
    #: Queue depth observed when the decision was made.
    queue_depth: int
    #: Caller-clock reading (cycles or seconds) of the decision.
    now: float


class AdmissionTrace:
    """The chronological, replayable record of every decision."""

    def __init__(self) -> None:
        self.events: list[AdmissionEvent] = []

    def append(self, request_id: int, image: str, decision: AdmissionDecision,
               queue_depth: int, now: float) -> None:
        self.events.append(AdmissionEvent(
            seq=len(self.events), request_id=request_id, image=image,
            decision=decision, queue_depth=queue_depth, now=now,
        ))

    def __len__(self) -> int:
        return len(self.events)

    def signature(self) -> tuple[tuple[int, str, str], ...]:
        """The trace minus clock readings -- the replay-equality check."""
        return tuple((e.request_id, e.image, e.decision.value) for e in self.events)

    def to_json(self) -> str:
        """Serialise for on-disk record/replay comparison."""
        return json.dumps([
            {"seq": e.seq, "request_id": e.request_id, "image": e.image,
             "decision": e.decision.value, "queue_depth": e.queue_depth,
             "now": e.now}
            for e in self.events
        ])

    @classmethod
    def from_json(cls, raw: str) -> "AdmissionTrace":
        trace = cls()
        for row in json.loads(raw):
            trace.events.append(AdmissionEvent(
                seq=row["seq"], request_id=row["request_id"], image=row["image"],
                decision=AdmissionDecision(row["decision"]),
                queue_depth=row["queue_depth"], now=row["now"],
            ))
        return trace


@dataclass
class QueuedRequest:
    """An admitted-but-waiting request parked in the bounded queue."""

    request_id: int
    image: str
    priority: int
    deadline: Deadline | None
    enqueued_at: float


class BoundedQueue:
    """A bounded admission queue with a configurable shed policy.

    ``offer`` never grows the queue past ``max_depth``: when full, the
    policy decides whether the newcomer or an incumbent is sacrificed.
    """

    def __init__(self, max_depth: int, policy: ShedPolicy = ShedPolicy.REJECT_NEWEST) -> None:
        if max_depth < 0:
            raise ValueError(f"queue depth cannot be negative: {max_depth}")
        self.max_depth = max_depth
        self.policy = policy
        self._items: list[QueuedRequest] = []
        self.high_water = 0

    def __len__(self) -> int:
        return len(self._items)

    def offer(self, entry: QueuedRequest) -> tuple[bool, list[QueuedRequest]]:
        """Try to park ``entry``; returns (accepted, evicted victims)."""
        if len(self._items) < self.max_depth:
            self._items.append(entry)
            self.high_water = max(self.high_water, len(self._items))
            return True, []
        if self.policy is ShedPolicy.REJECT_NEWEST or self.max_depth == 0:
            return False, []
        if self.policy is ShedPolicy.REJECT_OLDEST:
            victim = self._items.pop(0)
            self._items.append(entry)
            return True, [victim]
        # PRIORITY: evict the lowest-priority incumbent, but only when
        # the newcomer outranks it -- ties favour the incumbent (FIFO).
        lowest = min(self._items, key=lambda item: item.priority)
        if entry.priority > lowest.priority:
            self._items.remove(lowest)
            self._items.append(entry)
            return True, [lowest]
        return False, []

    def pop(self, now: float) -> tuple[QueuedRequest | None, list[QueuedRequest]]:
        """Dequeue the next serviceable request at ``now``.

        Entries whose deadline already expired are dropped (returned as
        the second element) rather than served -- their work would be
        discarded anyway, so it is never started.
        """
        expired: list[QueuedRequest] = []
        while self._items:
            if self.policy is ShedPolicy.PRIORITY:
                entry = max(self._items, key=lambda item: (item.priority, -item.enqueued_at))
                self._items.remove(entry)
            else:
                entry = self._items.pop(0)
            if entry.deadline is not None and entry.deadline.expired(now):
                expired.append(entry)
                continue
            return entry, expired
        return None, expired


# ---------------------------------------------------------------------------
# Admission tickets + controller
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissionTicket:
    """The controller's answer for one request."""

    request_id: int
    decision: AdmissionDecision
    #: Advice for the client, in the controller's time units (0 = now,
    #: ``inf`` = the bucket never refills).
    retry_after: float = 0.0

    @property
    def admitted(self) -> bool:
        return self.decision is AdmissionDecision.ADMIT


class AdmissionRejected(Exception):
    """A request was shed by the overload plane.

    Deliberately *not* a :class:`~repro.wasp.virtine.VirtineCrash`:
    nothing ran and nothing failed -- the system chose not to start work
    it could not finish.  Callers translate it into 429/503 responses or
    shed counters.
    """

    def __init__(self, image_name: str, ticket: AdmissionTicket) -> None:
        super().__init__(
            f"request for image {image_name!r} shed: {ticket.decision.value}"
        )
        self.image_name = image_name
        self.ticket = ticket


@dataclass(frozen=True)
class AdmissionConfig:
    """Tuning for one :class:`AdmissionController`."""

    #: Waiting requests the queue holds before the shed policy engages.
    max_queue_depth: int = 64
    shed_policy: ShedPolicy = ShedPolicy.REJECT_NEWEST
    #: Per-image token refill rate (tokens per time unit); None disables
    #: rate limiting.
    rate: float | None = None
    #: Per-image bucket capacity (max burst admitted at once).
    burst: float = 16.0
    #: Image name -> priority for the PRIORITY shed policy (higher wins;
    #: unlisted images get 0).
    priorities: dict[str, int] = field(default_factory=dict)
    #: Queue occupancy fractions that raise the brownout posture.
    brownout_at: float = 0.5
    degraded_at: float = 0.9
    #: Consecutive sheds that raise the posture regardless of depth
    #: (covers queue-less synchronous callers).
    brownout_shed_run: int = 4
    degraded_shed_run: int = 12
    #: Extra tokens a BURST_ARRIVAL fault drains (phantom arrivals).
    burst_fault_cost: float = 8.0


class AdmissionController:
    """The shared admission gate: rate limit -> deadline -> queue bound.

    One controller fronts one overloadable resource (a Wasp node, a
    serverless platform, an HTTP server).  Synchronous callers use
    :meth:`admit` alone (passing their externally observed backlog as
    ``queue_depth``); the queueing platform additionally parks admitted
    work via :meth:`enqueue` / :meth:`pop_ready`.  Every decision lands
    in :attr:`trace`, and the whole gate is deterministic: the same
    arrival sequence (and fault-plan seed) replays the same decisions.
    """

    def __init__(
        self,
        config: AdmissionConfig | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.config = config if config is not None else AdmissionConfig()
        self.fault_plan = fault_plan if fault_plan is not None else NO_FAULTS
        #: Telemetry registry; the attaching layer (Wasp/Supervisor/CLI)
        #: replaces the shared no-op when telemetry is on.
        self.telemetry = NO_TELEMETRY
        self.queue = BoundedQueue(self.config.max_queue_depth, self.config.shed_policy)
        self.trace = AdmissionTrace()
        self._buckets: dict[str, TokenBucket] = {}
        self._next_request_id = 0
        self.admitted = 0
        self.timeouts = 0
        self.consecutive_sheds = 0
        self.shed_by_reason: dict[str, int] = {d.value: 0 for d in SHED_DECISIONS}

    # -- introspection -------------------------------------------------------
    @property
    def queue_depth_high_water(self) -> int:
        return self.queue.high_water

    @property
    def shed_total(self) -> int:
        return sum(self.shed_by_reason.values())

    def signature(self) -> tuple[tuple[int, str, str], ...]:
        return self.trace.signature()

    def priority_for(self, image: str) -> int:
        return self.config.priorities.get(image, 0)

    def bucket_for(self, image: str) -> TokenBucket:
        bucket = self._buckets.get(image)
        if bucket is None:
            # rate=None still builds a bucket (for retry-after advice),
            # but admit() never consults it in that case.
            bucket = self._buckets[image] = TokenBucket(
                rate=self.config.rate or 0.0, burst=self.config.burst,
            )
        return bucket

    def brownout_level(self, queue_depth: int | None = None) -> BrownoutLevel:
        """The current overload posture."""
        depth = queue_depth if queue_depth is not None else len(self.queue)
        occupancy = depth / self.config.max_queue_depth if self.config.max_queue_depth else 1.0
        if (occupancy >= self.config.degraded_at
                or self.consecutive_sheds >= self.config.degraded_shed_run):
            return BrownoutLevel.DEGRADED
        if (occupancy >= self.config.brownout_at
                or self.consecutive_sheds >= self.config.brownout_shed_run):
            return BrownoutLevel.BROWNOUT
        return BrownoutLevel.NORMAL

    # -- recording -----------------------------------------------------------
    def _record(self, request_id: int, image: str, decision: AdmissionDecision,
                queue_depth: int, now: float) -> None:
        self.trace.append(request_id, image, decision, queue_depth, now)
        self.telemetry.counter("admission_decisions_total",
                               decision=decision.value).inc()
        if decision is AdmissionDecision.ADMIT:
            self.admitted += 1
            self.consecutive_sheds = 0
        elif decision in SHED_DECISIONS:
            self.shed_by_reason[decision.value] += 1
            self.consecutive_sheds += 1
        elif decision is AdmissionDecision.TIMEOUT:
            self.timeouts += 1

    # -- the gate ------------------------------------------------------------
    def admit(
        self,
        image: str,
        now: float,
        *,
        request_id: int | None = None,
        deadline: Deadline | None = None,
        queue_depth: int | None = None,
    ) -> AdmissionTicket:
        """Decide one request's fate at ``now``.

        Check order mirrors cost: the rate limit is cheapest and guards
        everything behind it; a dead-on-arrival deadline sheds before
        any queueing; the queue bound sheds last.  ``queue_depth`` lets
        synchronous callers supply an externally observed backlog (the
        HTTP listener's, say) -- when full it is always reject-newest,
        since the controller cannot evict from a queue it does not own.
        """
        rid = request_id if request_id is not None else self._next_request_id
        self._next_request_id = max(self._next_request_id, rid + 1)
        depth = queue_depth if queue_depth is not None else len(self.queue)
        bucket = self.bucket_for(image)
        plan = self.fault_plan
        if plan.enabled and plan.draw(FaultSite.BURST_ARRIVAL, image):
            # A burst-arrival fault: this request arrives with a crowd of
            # phantom siblings that drain the image's bucket.
            bucket.drain(now, self.config.burst_fault_cost)
        if self.config.rate is not None and not bucket.take(now):
            ticket = AdmissionTicket(rid, AdmissionDecision.SHED_RATE_LIMIT,
                                     retry_after=bucket.retry_after(now))
            self._record(rid, image, ticket.decision, depth, now)
            return ticket
        if deadline is not None and deadline.expired(now):
            ticket = AdmissionTicket(rid, AdmissionDecision.SHED_DEADLINE)
            self._record(rid, image, ticket.decision, depth, now)
            return ticket
        if queue_depth is not None and queue_depth >= self.config.max_queue_depth:
            ticket = AdmissionTicket(rid, AdmissionDecision.SHED_QUEUE_FULL,
                                     retry_after=bucket.retry_after(now))
            self._record(rid, image, ticket.decision, depth, now)
            return ticket
        ticket = AdmissionTicket(rid, AdmissionDecision.ADMIT)
        self._record(rid, image, ticket.decision, depth, now)
        return ticket

    # -- the owned queue (queueing platforms) --------------------------------
    def enqueue(
        self,
        image: str,
        now: float,
        *,
        request_id: int,
        deadline: Deadline | None = None,
        enqueued_at: float | None = None,
    ) -> bool:
        """Park an admitted request; the shed policy resolves overflow."""
        entry = QueuedRequest(
            request_id=request_id, image=image,
            priority=self.priority_for(image), deadline=deadline,
            enqueued_at=enqueued_at if enqueued_at is not None else now,
        )
        accepted, evicted = self.queue.offer(entry)
        for victim in evicted:
            self._record(victim.request_id, victim.image,
                         AdmissionDecision.EVICTED, len(self.queue), now)
        if not accepted:
            self._record(request_id, image, AdmissionDecision.SHED_QUEUE_FULL,
                         len(self.queue), now)
        return accepted

    def pop_ready(self, now: float) -> QueuedRequest | None:
        """Next serviceable queued request; expired waiters are shed."""
        entry, expired = self.queue.pop(now)
        for victim in expired:
            self._record(victim.request_id, victim.image,
                         AdmissionDecision.EXPIRED_IN_QUEUE, len(self.queue), now)
        return entry

    # -- post-admission outcomes ---------------------------------------------
    def record_timeout(self, image: str, now: float, request_id: int) -> None:
        """An admitted request was cancelled at its deadline mid-run."""
        self._record(request_id, image, AdmissionDecision.TIMEOUT,
                     len(self.queue), now)


# ---------------------------------------------------------------------------
# The watchdog
# ---------------------------------------------------------------------------

#: Default silence (cycles) before a running virtine counts as hung.
DEFAULT_NO_PROGRESS_CYCLES = us_to_cycles(1_500.0)


class Watchdog:
    """Heartbeats running virtines; kills and classifies hangs.

    Beats are *observable external progress*: hypercalls and milestones
    (compute charges are consumption, not progress).  The watchdog is
    consulted at every natural preemption point -- the same places the
    deadline is checked -- and kills with a typed
    :class:`~repro.wasp.virtine.VirtineHang`:

    * **no-progress**: silent for longer than ``no_progress_cycles``
      (a wedged guest spinning without any host interaction);
    * **slow-progress**: still beating, but alive past
      ``slow_progress_cycles`` total (a guest grinding toward an answer
      nobody is waiting for any more).

    ``VirtineHang`` subclasses ``VirtineTimeout``, so the PR-1
    supervision machinery (retry policy, circuit breaker, quarantine)
    handles hangs with zero new wiring.
    """

    def __init__(
        self,
        wasp: "Wasp | None" = None,
        no_progress_cycles: int = DEFAULT_NO_PROGRESS_CYCLES,
        slow_progress_cycles: int | None = None,
    ) -> None:
        if no_progress_cycles <= 0:
            raise ValueError("no_progress_cycles must be positive")
        if slow_progress_cycles is not None and slow_progress_cycles <= 0:
            raise ValueError("slow_progress_cycles must be positive")
        self.no_progress_cycles = no_progress_cycles
        self.slow_progress_cycles = slow_progress_cycles
        self.kills_by_kind: dict[HangKind, int] = {kind: 0 for kind in HangKind}
        self.telemetry = NO_TELEMETRY
        if wasp is not None:
            wasp.watchdog = self
            self.telemetry = wasp.telemetry

    @property
    def kills(self) -> int:
        return sum(self.kills_by_kind.values())

    def check(self, virtine: Virtine, now: int) -> None:
        """Kill ``virtine`` if it is hung at simulated time ``now``."""
        last_sign_of_life = max(virtine.last_beat_cycles, virtine.started_cycles)
        silence = now - last_sign_of_life
        if silence > self.no_progress_cycles:
            self.kills_by_kind[HangKind.NO_PROGRESS] += 1
            self.telemetry.counter("watchdog_kills_total",
                                   kind=HangKind.NO_PROGRESS.value).inc()
            raise VirtineHang(
                f"virtine {virtine.name!r} made no progress for {silence:,} "
                f"cycles (threshold {self.no_progress_cycles:,})",
                kind=HangKind.NO_PROGRESS,
                cycles=now - virtine.started_cycles,
            )
        alive = now - virtine.started_cycles
        if (self.slow_progress_cycles is not None
                and alive > self.slow_progress_cycles):
            self.kills_by_kind[HangKind.SLOW_PROGRESS] += 1
            self.telemetry.counter("watchdog_kills_total",
                                   kind=HangKind.SLOW_PROGRESS.value).inc()
            raise VirtineHang(
                f"virtine {virtine.name!r} still running after {alive:,} "
                f"cycles ({virtine.beats} beats; threshold "
                f"{self.slow_progress_cycles:,})",
                kind=HangKind.SLOW_PROGRESS,
                cycles=alive,
            )
