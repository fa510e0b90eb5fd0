"""The dimensional telemetry registry: counters, gauges, histograms.

One registry serves one clock domain (one Wasp / one cluster core) and
unifies every counter in the stack behind a single surface, the way the
trace plane unified spans.  Instruments are *dimensional*: the same
metric name fans out over label sets (``launches_total{image="echo"}``),
so a dashboard (or :mod:`repro.telemetry.profile`) can slice by image,
backend, fault class, or core without new counter plumbing per axis.

Design contract (mirrors :mod:`repro.trace.tracer`):

* **Zero simulated cost.**  The registry only ever *reads* the clock;
  it never advances it.  A telemetry-enabled run and a disabled run of
  the same workload land on the same final cycle count.
* **Off by default.**  A clock holds :data:`NO_TELEMETRY`, a shared
  :class:`NullTelemetry` whose methods are no-ops returning a shared
  null instrument, until its plane installs a registry; a disabled site
  costs an ``enabled`` test or an empty call.
* **Deterministic.**  Values are integers, timestamps are simulated
  cycles, rolling windows are keyed by ``cycles // window_cycles``, and
  nothing wall-clock ever lands in an instrument -- the same seed and
  workload produce a byte-identical snapshot
  (:meth:`~repro.telemetry.snapshot.TelemetrySnapshot.signature`).

Time series: every counter/gauge keeps a bounded series of
``(window, value)`` samples -- the value at the close of each simulated
window in which it changed -- and every histogram keeps per-window
summaries, so the plane is *time-series* shaped (Perfetto counter
tracks, SLO burn rates) without unbounded memory.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.telemetry.flight import NO_FLIGHT, FlightRecorder
from repro.trace.histogram import CycleHistogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.clock import Clock
    from repro.telemetry.slo import DegradationEvent, SLOMonitor

#: Default rolling-window width: 1M simulated cycles (~0.5 ms on the
#: calibrated 2.1 GHz platform) -- fine enough to see a burst, coarse
#: enough that a long run keeps a bounded, meaningful series.
DEFAULT_WINDOW_CYCLES = 1_000_000

#: Windows retained per instrument series (older samples evict first).
DEFAULT_MAX_WINDOWS = 64


def _label_key(labels: dict) -> tuple:
    """Canonical (sorted) label tuple -- the instrument cache key."""
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing integer with a rolling sample series."""

    __slots__ = ("name", "labels", "value", "series", "_window", "_registry")

    kind = "counter"

    def __init__(self, registry: "TelemetryRegistry", name: str,
                 labels: tuple) -> None:
        self._registry = registry
        self.name = name
        self.labels = labels
        self.value = 0
        #: ``(window, value_at_window_close)`` samples, oldest first.
        self.series: deque = deque(maxlen=registry.max_windows)
        # Start in the *current* window so an instrument born mid-run
        # never emits phantom zero samples for windows it predates.
        self._window = registry._window_now()

    def inc(self, amount: int = 1) -> None:
        window = self._registry._window_now()
        if window > self._window:
            self.series.append((self._window, self.value))
            self._window = window
        self.value += int(amount)

    def state(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
            "series": [[w, v] for w, v in self.series],
        }


class Gauge(Counter):
    """A last-value-wins instrument (pool depth, queue length, ...)."""

    __slots__ = ()

    kind = "gauge"

    def set(self, value: int) -> None:
        window = self._registry._window_now()
        if window > self._window:
            self.series.append((self._window, self.value))
            self._window = window
        self.value = int(value)


class Histogram:
    """A cumulative :class:`CycleHistogram` plus per-window summaries."""

    __slots__ = ("name", "labels", "hist", "windows", "_window_hist",
                 "_window", "_registry")

    kind = "histogram"

    def __init__(self, registry: "TelemetryRegistry", name: str,
                 labels: tuple) -> None:
        self._registry = registry
        self.name = name
        self.labels = labels
        self.hist = CycleHistogram()
        #: Closed per-window summaries, oldest first.
        self.windows: deque = deque(maxlen=registry.max_windows)
        self._window_hist = CycleHistogram()
        self._window = registry._window_now()

    def _roll(self, window: int) -> None:
        if self._window_hist.count:
            self.windows.append(self._summary(self._window, self._window_hist))
            self._window_hist = CycleHistogram()
        self._window = window

    @staticmethod
    def _summary(window: int, hist: CycleHistogram) -> dict:
        return {
            "window": window,
            "count": hist.count,
            "total": hist.total,
            "p50": hist.p50,
            "p99": hist.p99,
            "max": hist.max_value or 0,
        }

    def record(self, value: int) -> None:
        window = self._registry._window_now()
        if window > self._window:
            self._roll(window)
        self.hist.record(value)
        self._window_hist.record(value)
        self._registry._observe_slo(self.name, value)

    def state(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": dict(self.labels),
            "count": self.hist.count,
            "total": self.hist.total,
            "min": self.hist.min_value or 0,
            "max": self.hist.max_value or 0,
            "p50": self.hist.p50,
            "p90": self.hist.p90,
            "p99": self.hist.p99,
            # Sparse occupied buckets ``[bit_length_index, count]`` --
            # enough to rebuild Prometheus ``le`` buckets exactly.
            "buckets": [[i, n] for i, n in enumerate(self.hist.counts) if n],
            "windows": list(self.windows)
            + ([self._summary(self._window, self._window_hist)]
               if self._window_hist.count else []),
        }


class _NullInstrument:
    """The shared no-op instrument every disabled site receives."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        return None

    def set(self, value: int) -> None:
        return None

    def record(self, value: int) -> None:
        return None


_NULL_INSTRUMENT = _NullInstrument()


class TelemetryRegistry:
    """All instruments of one clock domain, keyed ``(name, labels)``.

    ``core`` tags the registry's origin when snapshots merge multiple
    registries (one per cluster core); ``None`` means single-domain and
    adds no label.  The registry also owns the domain's per-core
    :class:`~repro.telemetry.flight.FlightRecorder` and its
    :class:`~repro.telemetry.slo.SLOMonitor` set.
    """

    enabled = True

    def __init__(
        self,
        clock: "Clock | None" = None,
        *,
        core: int | None = None,
        window_cycles: int = DEFAULT_WINDOW_CYCLES,
        max_windows: int = DEFAULT_MAX_WINDOWS,
        flight_capacity: int = 256,
    ) -> None:
        if window_cycles <= 0:
            raise ValueError(f"window_cycles must be positive, got {window_cycles}")
        self.clock = clock
        self.core = core
        self.window_cycles = window_cycles
        self.max_windows = max_windows
        self._instruments: dict[tuple, Counter | Gauge | Histogram] = {}
        self.flight = FlightRecorder(capacity=flight_capacity)
        #: SLO monitors keyed by the histogram metric they watch.
        self._slos: dict[str, list["SLOMonitor"]] = {}
        #: Degradation events, in emission (cycle) order.
        self.events: list["DegradationEvent"] = []
        #: Optional callback receiving each degradation event as it is
        #: emitted (the supervisor registers itself here).
        self.degradation_sink: Callable[["DegradationEvent"], None] | None = None

    def bind(self, clock: "Clock") -> "TelemetryRegistry":
        """Attach the clock (for registries built before their Wasp)."""
        if self.clock is not None and self.clock is not clock:
            raise ValueError("registry is already bound to a different clock")
        self.clock = clock
        return self

    # -- time ----------------------------------------------------------------
    def now(self) -> int:
        return self.clock.cycles if self.clock is not None else 0

    def _window_now(self) -> int:
        return self.now() // self.window_cycles

    # -- instruments ---------------------------------------------------------
    def _instrument(self, cls, name: str, labels: dict):
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = self._instruments[key] = cls(self, name, key[1])
        elif type(instrument) is not cls:
            raise ValueError(
                f"metric {name!r} already registered as {instrument.kind}"
            )
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._instrument(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._instrument(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._instrument(Histogram, name, labels)

    def instruments(self) -> list:
        """Every instrument, sorted by (name, labels) -- the canonical
        iteration order every exporter shares."""
        return [self._instruments[key] for key in sorted(self._instruments)]

    def state(self) -> list[dict]:
        """JSON-ready instrument states in canonical order."""
        return [inst.state() for inst in self.instruments()]

    # -- SLO monitors --------------------------------------------------------
    def add_slo(self, monitor: "SLOMonitor") -> "SLOMonitor":
        """Watch a histogram metric; degradation events land in
        :attr:`events` and the :attr:`degradation_sink`."""
        self._slos.setdefault(monitor.metric, []).append(monitor)
        return monitor

    def slos(self) -> list["SLOMonitor"]:
        return [m for metric in sorted(self._slos) for m in self._slos[metric]]

    def _observe_slo(self, metric: str, value: int) -> None:
        monitors = self._slos.get(metric)
        if not monitors:
            return
        now = self.now()
        for monitor in monitors:
            for event in monitor.observe(value, now):
                self.events.append(event)
                if self.degradation_sink is not None:
                    self.degradation_sink(event)

    # -- flight recorder -----------------------------------------------------
    def record_flight(self, kind: str, name: str, **detail) -> None:
        """Append one black-box entry stamped with the current cycle."""
        self.flight.record(kind, name, self.now(), **detail)


class NullTelemetry(TelemetryRegistry):
    """The disabled registry: every method is a no-op.

    Shared as :data:`NO_TELEMETRY`, every unmetered clock's registry, and
    costs exactly zero simulated cycles (no registry ever touches
    ``clock.advance``).  Sites on the launch and hosted-request paths test ``enabled`` first, which also
    spares building their label dicts: image install, scratch and pooled
    provisioning, launch completion, the JIT harvest, hosted compute
    charges and every hypercall (whose instruments are resolved once per
    number).  The other sites still call through it unconditionally
    (``wasp.telemetry.counter(...).inc()``), at the cost of two empty
    method calls.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(clock=None)
        self.flight = NO_FLIGHT

    def bind(self, clock: "Clock") -> "NullTelemetry":
        return self

    def counter(self, name: str, **labels) -> Counter:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name: str, **labels) -> Gauge:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(self, name: str, **labels) -> Histogram:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def add_slo(self, monitor: "SLOMonitor") -> "SLOMonitor":
        return monitor

    def record_flight(self, kind: str, name: str, **detail) -> None:
        return None


#: The shared disabled registry every clock starts with.
NO_TELEMETRY = NullTelemetry()
