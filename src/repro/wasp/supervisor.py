"""Virtine supervision: retries, circuit breaking, crash accounting.

The paper's isolation story (Section 3) is about *containing* failures:
an errant virtine dies alone.  This module adds the operational half a
serverless platform needs on top of containment -- deciding what to do
*after* a virtine dies.  The decision tree hinges on the crash taxonomy
of :mod:`repro.wasp.virtine`:

* :class:`~repro.wasp.virtine.HostFault` -- the host plane failed under
  a well-behaved guest (``KVM_RUN`` abort, disk EIO).  Transient;
  retrying on a fresh shell usually succeeds.
* :class:`~repro.wasp.virtine.VirtineTimeout` -- the guest overran its
  cycle deadline or step budget.  Possibly load-induced; worth a
  bounded number of retries.
* :class:`~repro.wasp.virtine.GuestFault` -- a bug in the untrusted
  code.  Deterministic: the same input reproduces it, so retries only
  burn cycles.  Repeated guest faults open the per-image circuit
  breaker instead.
* :class:`~repro.wasp.virtine.PolicyKill` -- the client's policy said
  no.  Never retried; the same policy gives the same answer.

All supervision costs are *simulated* costs: retry backoff is charged
to the Wasp clock, so the latency of a supervised workload under faults
is measurable the same way every other figure in the reproduction is.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.trace.tracer import Category
from repro.units import us_to_cycles
from repro.wasp.admission import AdmissionController, AdmissionRejected
from repro.wasp.virtine import (
    GuestFault,
    HangKind,
    HostFault,
    PolicyKill,
    VirtineCrash,
    VirtineHang,
    VirtineResult,
    VirtineTimeout,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.image import VirtineImage
    from repro.telemetry.slo import DegradationEvent
    from repro.wasp.hypervisor import Wasp

#: Crash black boxes retained per supervisor (newest evict oldest): each
#: is a flight-recorder dump frozen at the moment of a crash.
MAX_BLACK_BOXES = 8


class CrashClass(enum.Enum):
    """Why a virtine died, as the supervision layer sees it."""

    GUEST_FAULT = "guest_fault"
    HOST_FAULT = "host_fault"
    POLICY_KILL = "policy_kill"
    TIMEOUT = "timeout"


def classify(error: BaseException) -> CrashClass:
    """Map a crash exception onto the supervision taxonomy.

    An untyped :class:`VirtineCrash` (legacy raisers, external code)
    classifies as a guest fault -- the conservative reading, since
    retrying an unknown crash must not be the default.
    """
    if isinstance(error, VirtineTimeout):
        return CrashClass.TIMEOUT
    if isinstance(error, PolicyKill):
        return CrashClass.POLICY_KILL
    if isinstance(error, HostFault):
        return CrashClass.HOST_FAULT
    if isinstance(error, (GuestFault, VirtineCrash)):
        return CrashClass.GUEST_FAULT
    raise TypeError(f"not a virtine crash: {type(error).__name__}")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff (cycles on the sim clock)."""

    #: Total launch attempts, including the first (1 = no retries).
    max_attempts: int = 3
    #: Backoff charged before the first retry.
    backoff_cycles: int = us_to_cycles(200.0)
    #: Growth factor for each subsequent retry's backoff.
    backoff_multiplier: float = 2.0
    #: Crash classes worth retrying.  Deterministic classes (guest
    #: faults, policy kills) are excluded by default on purpose.
    retry_on: tuple[CrashClass, ...] = (CrashClass.HOST_FAULT, CrashClass.TIMEOUT)

    def backoff_for(self, attempt: int) -> int:
        """Cycles to wait after failed attempt number ``attempt`` (1-based)."""
        return int(self.backoff_cycles * self.backoff_multiplier ** (attempt - 1))


class BreakerState(enum.Enum):
    """Classic three-state circuit breaker."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


# Bound once: reading an enum member off its class runs the enum
# metaclass's ``__getattr__`` hook.
_CLOSED, _OPEN, _HALF_OPEN = (
    BreakerState.CLOSED, BreakerState.OPEN, BreakerState.HALF_OPEN)


@dataclass(frozen=True)
class BreakerConfig:
    """Per-image circuit-breaker tuning."""

    #: Consecutive failures that trip the breaker open.
    failure_threshold: int = 5
    #: Cycles the breaker stays open before admitting one probe launch.
    cooldown_cycles: int = us_to_cycles(10_000.0)


class BreakerOpen(Exception):
    """A launch was rejected because the image's breaker is open.

    Deliberately *not* a :class:`VirtineCrash`: no virtine ran.  Callers
    (the serverless platform, the HTTP server) treat it as load-shedding
    and degrade gracefully rather than report a crash.
    """

    def __init__(self, image_name: str, retry_after_cycles: int) -> None:
        super().__init__(
            f"circuit breaker open for image {image_name!r} "
            f"(retry after {retry_after_cycles:,} cycles)"
        )
        self.image_name = image_name
        #: Cycles until the breaker will admit a probe.
        self.retry_after_cycles = retry_after_cycles


class CircuitBreaker:
    """Tracks one image's health; trips open after repeated failures.

    CLOSED -> (failure_threshold consecutive failures) -> OPEN
    OPEN   -> (cooldown elapses) -> HALF_OPEN (one probe admitted)
    HALF_OPEN -> success -> CLOSED, failure -> OPEN (fresh cooldown)
    """

    def __init__(self, config: BreakerConfig | None = None) -> None:
        self.config = config if config is not None else BreakerConfig()
        self.state = _CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0
        #: Launches rejected while open.
        self.rejections = 0
        #: Times the breaker transitioned CLOSED/HALF_OPEN -> OPEN.
        self.trips = 0

    def allow(self, now: int) -> bool:
        """Whether a launch may proceed at simulated time ``now``."""
        if self.state is _OPEN:
            if now - self.opened_at >= self.config.cooldown_cycles:
                self.state = _HALF_OPEN
                return True
            self.rejections += 1
            return False
        return True

    def retry_after(self, now: int) -> int:
        """Cycles until an open breaker will admit a probe (0 if not open)."""
        if self.state is not _OPEN:
            return 0
        return max(0, self.opened_at + self.config.cooldown_cycles - now)

    def record_success(self) -> None:
        self.state = _CLOSED
        self.consecutive_failures = 0

    def record_failure(self, now: int) -> None:
        self.consecutive_failures += 1
        if (
            self.state is _HALF_OPEN
            or self.consecutive_failures >= self.config.failure_threshold
        ):
            self.state = _OPEN
            self.opened_at = now
            self.trips += 1


@dataclass(frozen=True)
class SupervisionEvent:
    """One entry in a supervisor's decision trace."""

    seq: int
    image: str
    #: Launch attempt this event belongs to (1-based; 0 for rejections,
    #: where no attempt was made).
    attempt: int
    #: Crash classification, or None for non-crash events.
    crash_class: CrashClass | None
    #: What the supervisor did: "crash", "retry", "give_up",
    #: "rejected", or "recovered".
    action: str
    #: Simulated clock reading when the event was recorded.
    cycles: int
    #: The raw crash message for "crash" events (preserves the exact
    #: verdict -- e.g. an unknown vmexit reason -- for triage/replay).
    detail: str = ""


class Supervisor:
    """Per-Wasp supervision: breaker gate -> launch -> classify -> retry.

    Registers itself on the Wasp instance (``wasp.supervisor``) so
    :func:`repro.wasp.metrics.collect` picks its counters up.
    """

    def __init__(
        self,
        wasp: "Wasp",
        retry: RetryPolicy | None = None,
        breaker: BreakerConfig | None = None,
        admission: AdmissionController | None = None,
    ) -> None:
        self.wasp = wasp
        wasp.supervisor = self
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker_config = breaker if breaker is not None else BreakerConfig()
        #: Optional overload gate consulted *before* the breaker: the
        #: breaker protects against broken images, admission protects
        #: against too many healthy ones.
        self.admission = admission
        self._breakers: dict[str, CircuitBreaker] = {}
        #: Chronological decision trace (determinism: same seed, same
        #: workload => identical trace).
        self.trace: list[SupervisionEvent] = []
        self.crashes_by_class: dict[CrashClass, int] = {c: 0 for c in CrashClass}
        self.retries = 0
        self.breaker_rejections = 0
        self.give_ups = 0
        self.completions = 0
        #: Launches shed by the admission gate (nothing ran).
        self.shed = 0
        #: Watchdog kills among the TIMEOUT crashes, by hang kind.
        self.hangs_by_kind: dict[HangKind, int] = {k: 0 for k in HangKind}
        #: The Wasp's telemetry registry (the shared NO_TELEMETRY when
        #: telemetry is off -- every counter call below is then a no-op).
        self.telemetry = wasp.telemetry
        #: Typed SLO degradation events, in emission order.  The
        #: registry's monitors deliver them here via the sink, which
        #: makes an SLO breach supervision-visible, not just a number.
        self.degradations: list["DegradationEvent"] = []
        #: Flight-recorder dumps frozen at crash time, newest last
        #: (bounded at MAX_BLACK_BOXES).
        self.crash_black_boxes: list[dict] = []
        if self.telemetry.enabled:
            self.telemetry.degradation_sink = self._on_degradation
            if self.admission is not None:
                self.admission.telemetry = self.telemetry

    # -- introspection ------------------------------------------------------
    def breaker_for(self, image_name: str) -> CircuitBreaker:
        breaker = self._breakers.get(image_name)
        if breaker is None:
            breaker = self._breakers[image_name] = CircuitBreaker(self.breaker_config)
        return breaker

    def breaker_states(self) -> dict[str, str]:
        """Image name -> breaker state value, for metrics export."""
        return {name: b.state.value for name, b in sorted(self._breakers.items())}

    def signature(self) -> tuple[tuple[str, int, str | None, str], ...]:
        """The trace minus clock readings -- the replay-equality check."""
        return tuple(
            (e.image, e.attempt, e.crash_class.value if e.crash_class else None,
             e.action)
            for e in self.trace
        )

    def _record(
        self, image: str, attempt: int, crash_class: CrashClass | None,
        action: str, detail: str = "",
    ) -> None:
        self.trace.append(SupervisionEvent(
            seq=len(self.trace),
            image=image,
            attempt=attempt,
            crash_class=crash_class,
            action=action,
            cycles=self.wasp.clock.cycles,
            detail=detail,
        ))

    def _on_degradation(self, event: "DegradationEvent") -> None:
        """The registry's degradation sink: fold SLO breaches into the
        supervision record.

        Deliberately never writes into the tracer -- a telemetry-enabled
        run must export byte-identical Chrome trace spans to a disabled
        one; degradations live in the supervisor log and the flight
        recorder instead.
        """
        self.degradations.append(event)
        # The registry calls its sink only while it is enabled, so the
        # domain is observed.
        self.wasp.clock.emit("slo", kind=event.kind.value,
                             monitor=event.monitor, metric=event.metric,
                             observed=event.observed,
                             threshold=event.threshold)

    def _capture_black_box(self, image: str, crash_class: CrashClass,
                           detail: str) -> None:
        """Freeze the flight recorder at crash time (bounded history)."""
        if not self.telemetry.enabled:
            return
        box = {
            "image": image,
            "crash_class": crash_class.value,
            "detail": detail,
            "cycles": self.wasp.clock.cycles,
            "flight": self.telemetry.flight.black_box(),
        }
        self.crash_black_boxes.append(box)
        if len(self.crash_black_boxes) > MAX_BLACK_BOXES:
            del self.crash_black_boxes[0]

    def record_external_crash(
        self, image_name: str, crash: BaseException, detail: str = "",
    ) -> CrashClass:
        """Account a crash that happened *outside* a supervised launch.

        The migration plane (a tampered transfer detected before any
        virtine ran) and the chaos plane (a core dying mid-run) observe
        failures this supervisor never saw as a launch attempt.  They
        still belong in the crash record: classify, count, and append a
        trace event (attempt 0 -- nothing ran under this supervisor).
        """
        crash_class = classify(crash)
        self.crashes_by_class[crash_class] += 1
        if self.wasp.clock.observed:
            self.wasp.clock.emit("crash", crash_class=crash_class.value,
                                 image=image_name)
        self._capture_black_box(image_name, crash_class,
                                detail or str(crash))
        self._record(image_name, 0, crash_class, "crash",
                     detail=detail or str(crash))
        return crash_class

    # -- the supervised launch ---------------------------------------------
    def launch(self, image: "VirtineImage", **launch_kwargs: Any) -> VirtineResult:
        """Launch under supervision.

        Raises :class:`~repro.wasp.admission.AdmissionRejected` when the
        attached admission controller sheds the request (overload),
        :class:`BreakerOpen` without running anything when the image's
        breaker is open, and re-raises the final crash when retries are
        exhausted or the crash class is not retryable.
        """
        clock = self.wasp.clock
        now = clock.cycles
        tracer = self.wasp.tracer
        tracing = tracer.enabled
        if tracing:
            span = tracer.begin(f"supervise:{image.name}",
                                Category.SUPERVISION, image=image.name)
        try:
            ticket = None
            if self.admission is not None:
                ticket = self.admission.admit(
                    image.name, now, deadline=launch_kwargs.get("deadline"),
                )
                if not ticket.admitted:
                    self.shed += 1
                    if clock.observed:
                        clock.emit("admission.shed", image=image.name,
                                   reason=ticket.decision.value)
                    self._record(image.name, 0, None, "shed")
                    if tracing:
                        span.annotate(outcome="shed")
                    raise AdmissionRejected(image.name, ticket)
                if clock.observed:
                    clock.emit("admission.admit", image=image.name)
            breaker = self.breaker_for(image.name)
            if not breaker.allow(now):
                self.breaker_rejections += 1
                if clock.observed:
                    clock.emit("breaker.open", image=image.name)
                self._record(image.name, 0, None, "rejected")
                if tracing:
                    span.annotate(outcome="rejected")
                raise BreakerOpen(image.name, breaker.retry_after(now))
            attempt = 0
            while True:
                attempt += 1
                try:
                    result = self.wasp.launch(image, **launch_kwargs)
                except VirtineCrash as crash:
                    crash_class = classify(crash)
                    self.crashes_by_class[crash_class] += 1
                    if clock.observed:
                        clock.emit("crash", crash_class=crash_class.value,
                                   image=image.name)
                    self._capture_black_box(image.name, crash_class,
                                            str(crash))
                    if isinstance(crash, VirtineHang):
                        self.hangs_by_kind[crash.kind] += 1
                    if crash_class is CrashClass.TIMEOUT and ticket is not None:
                        # Deadline overruns and watchdog kills land in the
                        # admission trace too: a timeout is an overload
                        # outcome, and the replay check covers it.
                        self.admission.record_timeout(
                            image.name, self.wasp.clock.cycles,
                            request_id=ticket.request_id,
                        )
                    breaker.record_failure(self.wasp.clock.cycles)
                    self._record(image.name, attempt, crash_class, "crash",
                                 detail=str(crash))
                    if (
                        crash_class in self.retry.retry_on
                        and attempt < self.retry.max_attempts
                    ):
                        self.retries += 1
                        # Backoff is simulated time like everything else.
                        backoff = self.retry.backoff_for(attempt)
                        clock.advance(backoff)
                        if clock.observed:
                            clock.emit("retry.backoff", backoff,
                                       attempt=attempt, image=image.name)
                        self._record(image.name, attempt, crash_class, "retry")
                        continue
                    self.give_ups += 1
                    self._record(image.name, attempt, crash_class, "give_up")
                    if tracing:
                        span.annotate(outcome="give_up",
                                      crash_class=crash_class.value)
                    raise
                breaker.record_success()
                self.completions += 1
                if attempt > 1:
                    self._record(image.name, attempt, None, "recovered")
                if tracing:
                    span.annotate(outcome="ok", attempts=attempt)
                return result
        finally:
            if tracing:
                tracer.end(span)
