"""The deterministic cycle tracer.

Every latency in this reproduction is simulated cycles on the virtual
:class:`~repro.hw.clock.Clock`; the tracer turns those cycles into a
structured record -- typed :class:`Span` trees plus instant
:class:`Event` marks -- the way the paper itself decomposes latency
(Table 1's boot rows, Figure 4's milestones, Figure 8's creation paths).

Design contract:

* **Zero simulated cost.**  The tracer only ever *reads* the clock
  (``rdtsc``-style); it never advances it.  A traced run and an untraced
  run of the same workload land on the same final cycle count.
* **Off by default.**  A clock holds :data:`NO_TRACE`, a shared
  :class:`NullTracer` whose methods are no-ops, until its plane installs
  a tracer; a disabled site costs an ``enabled`` test or an empty call.
* **Deterministic.**  Span ids are sequence numbers, timestamps are
  simulated cycles, and no wall-clock value is ever recorded -- the same
  seed and workload produce the same trace, byte for byte once exported.
* **Complete.**  Closing a span that has children synthesizes an
  explicit ``other`` leaf covering any cycles not attributed to a child,
  so for every interior span the children's cycles sum *exactly* to the
  parent's (the span-tree invariant the tests enforce).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only (the clock imports NO_TRACE)
    from repro.hw.clock import Clock

#: Name of the synthesized catch-all leaf (see :meth:`Tracer.end`).
OTHER = "other"


class Category(enum.Enum):
    """Span taxonomy: which plane of the stack a span belongs to."""

    #: A whole ``Wasp.launch`` (or session invoke): the root of a tree.
    LAUNCH = "launch"
    #: Admission decisions, retries, breaker verdicts, watchdog kills.
    SUPERVISION = "supervision"
    #: Shell-pool provisioning (acquire / scratch create).
    POOL = "pool"
    #: Device-model work: ioctls, KVM_RUN, vmrun world switches.
    VMM = "vmm"
    #: Guest boot components (the Table 1 rows) and mode transitions.
    BOOT = "boot"
    #: Snapshot verify / restore / capture.
    SNAPSHOT = "snapshot"
    #: Guest compute (hosted entry bodies, charges).
    GUEST = "guest"
    #: Hypercall round trips (exit, dispatch, re-enter).
    HYPERCALL = "hypercall"
    #: Shell release / quarantine after the guest is done.
    TEARDOWN = "teardown"
    #: Cycles inside a parent not claimed by any child.
    OTHER = "other"


@dataclass
class Event:
    """An instant mark: something happened at one cycle, with no duration."""

    name: str
    category: Category
    cycles: int
    args: dict = field(default_factory=dict)


@dataclass
class Span:
    """A begin/end cycle interval with a category and a parent."""

    sid: int
    name: str
    category: Category
    begin: int
    end: int | None = None
    parent: int | None = None
    args: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    events: list[Event] = field(default_factory=list)

    @property
    def cycles(self) -> int:
        """Duration in simulated cycles (0 while still open)."""
        return (self.end - self.begin) if self.end is not None else 0

    @property
    def child_cycles(self) -> int:
        return sum(child.cycles for child in self.children)

    def annotate(self, **args: object) -> None:
        """Attach key/value annotations (crash class, hit/miss, ...)."""
        self.args.update(args)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()


class _NullContext:
    """Reusable no-op context manager returned by ``NullTracer.span``."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return _NULL_SPAN

    def __exit__(self, *exc_info: object) -> None:
        return None


class _NullSpan:
    """The span stand-in handed out when tracing is disabled."""

    __slots__ = ()

    def annotate(self, **args: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager pairing ``begin``/``end`` exception-safely."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, _tb) -> None:
        if exc is not None:
            self._span.annotate(error=type(exc).__name__)
        self._tracer.end(self._span)


class Tracer:
    """Records span trees and instant events against a simulated clock.

    One tracer serves one clock domain (``clock.tracer``, for one
    :class:`~repro.wasp.Wasp` and everything beneath it).  Spans nest via
    an explicit stack -- the simulation is single-threaded, so "the
    current span" is always well defined.
    """

    enabled = True

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock = clock
        #: Completed top-level spans, in completion order.
        self.roots: list[Span] = []
        #: Instant events recorded while no span was open.
        self.orphan_events: list[Event] = []
        self._stack: list[Span] = []
        self._next_sid = 0

    def bind(self, clock: Clock) -> "Tracer":
        """Attach the clock (for tracers built before their Wasp)."""
        if self.clock is not None and self.clock is not clock:
            raise ValueError("tracer is already bound to a different clock")
        self.clock = clock
        return self

    # -- recording -----------------------------------------------------------
    def _now(self) -> int:
        if self.clock is None:
            raise ValueError("tracer is not bound to a clock")
        return self.clock.cycles

    def begin(self, name: str, category: Category, **args: object) -> Span:
        """Open a span starting at the current cycle."""
        span = Span(
            sid=self._next_sid,
            name=name,
            category=category,
            begin=self._now(),
            parent=self._stack[-1].sid if self._stack else None,
            args=dict(args),
        )
        self._next_sid += 1
        if self._stack:
            self._stack[-1].children.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span | _NullSpan | None = None, **args: object) -> None:
        """Close the current span (must match the innermost open one).

        If the span has children and some of its cycles are not covered
        by them, an explicit ``other`` leaf is synthesized so children
        always sum exactly to the parent -- unattributed time is visible
        as a first-class span, never a silent gap.
        """
        if not self._stack:
            raise ValueError("end() with no open span")
        current = self._stack.pop()
        if span is not None and span is not current:
            self._stack.append(current)
            raise ValueError(
                f"span mismatch: closing {getattr(span, 'name', span)!r} "
                f"but {current.name!r} is innermost"
            )
        current.end = self._now()
        if args:
            current.annotate(**args)
        if current.children:
            gap = current.cycles - current.child_cycles
            if gap > 0:
                current.children.append(Span(
                    sid=self._next_sid,
                    name=OTHER,
                    category=Category.OTHER,
                    begin=current.end - gap,
                    end=current.end,
                    parent=current.sid,
                ))
                self._next_sid += 1
        if not self._stack:
            self.roots.append(current)

    def span(self, name: str, category: Category, **args: object) -> _SpanContext:
        """``with tracer.span(...):`` -- begin/end with crash annotation."""
        return _SpanContext(self, self.begin(name, category, **args))

    def instant(self, name: str, category: Category = Category.OTHER,
                **args: object) -> None:
        """Record a zero-duration mark at the current cycle."""
        event = Event(name=name, category=category, cycles=self._now(),
                      args=dict(args))
        if self._stack:
            self._stack[-1].events.append(event)
        else:
            self.orphan_events.append(event)

    def component(self, name: str, cycles: int,
                  category: Category = Category.BOOT, **args: object) -> None:
        """Record a leaf span retroactively covering the last ``cycles``.

        Call *after* advancing the clock for an atomic charge (a boot
        component, an ioctl, a compute charge): the leaf spans
        ``[now - cycles, now]`` under the current span.  This is how
        single-charge costs become spans without begin/end bracketing.
        """
        now = self._now()
        span = Span(
            sid=self._next_sid,
            name=name,
            category=category,
            begin=now - int(cycles),
            end=now,
            parent=self._stack[-1].sid if self._stack else None,
            args=dict(args),
        )
        self._next_sid += 1
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)

    # -- introspection -------------------------------------------------------
    @property
    def open_depth(self) -> int:
        return len(self._stack)

    def walk(self) -> Iterator[Span]:
        """Every completed span, depth first across all roots."""
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> list[Span]:
        """All completed spans with this exact name."""
        return [span for span in self.walk() if span.name == name]

    def launches(self) -> list[Span]:
        """Completed root spans of category LAUNCH, in launch order."""
        return [span for span in self.roots
                if span.category is Category.LAUNCH]

    def all_events(self) -> list[Event]:
        """Every instant event, in recording (cycle) order."""
        events = list(self.orphan_events)
        for span in self.walk():
            events.extend(span.events)
        events.sort(key=lambda e: e.cycles)
        return events


class NullTracer(Tracer):
    """The disabled tracer: every method is a no-op.

    Shared as :data:`NO_TRACE`, every untraced clock's tracer, and costs
    exactly zero simulated cycles (no tracer ever touches
    ``clock.advance``).  Sites on the launch and hosted-request paths
    test ``enabled`` first and skip the call, and with it building the
    span's name and arguments: the supervised launch, the launch root
    span, the pool's acquire, scratch creation and release, image
    install, ``KVM_RUN`` and ``vmrun``, debug-port milestones, the
    hosted entry, its compute charges and every hosted hypercall, and
    the device's per-call component charges.  A ``with tracer.span(...)``
    at such a site is spelled out as ``begin``, a ``try`` whose handler
    annotates the escaping exception's type, and ``end``.  The other
    sites still call through it unconditionally, at the cost of an empty
    method call (bounded by ``benchmarks/bench_trace_overhead.py``).
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(clock=None)

    def bind(self, clock: Clock) -> "NullTracer":
        return self

    def begin(self, name: str, category: Category, **args: object) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def end(self, span: object = None, **args: object) -> None:
        return None

    def span(self, name: str, category: Category, **args: object) -> _NullContext:  # type: ignore[override]
        return _NULL_CONTEXT

    def instant(self, name: str, category: Category = Category.OTHER,
                **args: object) -> None:
        return None

    def component(self, name: str, cycles: int,
                  category: Category = Category.BOOT, **args: object) -> None:
        return None


_NULL_CONTEXT = _NullContext()

#: The shared disabled tracer every clock starts with.
NO_TRACE = NullTracer()
