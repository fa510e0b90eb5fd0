"""Component charges and incidents reach the side channels through one table.

``repro.hw.clock.SITES`` maps each observation site to the events it
sends the tracer, the boundary recorder and the telemetry registry, and
``Clock.emit`` sends them.  This test walks the package's source:

* every site name passed to ``emit`` is a literal key of the table, and
  every key is passed somewhere;
* the layer modules below send none of those events by hand: they name
  no ``component_cycles_total``, ``record_flight``,
  ``segment_component`` or ``devcall``, and call no
  ``tracer.component``/``tracer.instant`` or
  ``telemetry.counter``/``telemetry.histogram``.

:func:`progress` counts what is left of the hand-written side-channel
pattern per module; CI prints it to the job summary.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import repro
from repro.faults import FaultPlan, FaultSite
from repro.hw.clock import SITES, Clock, SimClock
from repro.replay.stream import NO_RECORD, InterfaceRecorder
from repro.telemetry.registry import NO_TELEMETRY, TelemetryRegistry
from repro.trace.tracer import NO_TRACE, Category, Tracer

PACKAGE = Path(repro.__file__).resolve().parent
#: The layers whose charges and incidents go through the table.
LAYERS = ("hw/isa.py", "hw/vmx.py", "kvm/device.py", "wasp/hypervisor.py",
          "wasp/pool.py", "wasp/supervisor.py", "replay/substrate.py")
BANNED_NAMES = frozenset({"component_cycles_total", "record_flight",
                          "segment_component", "devcall"})
BANNED_CALLS = frozenset({("tracer", "component"), ("tracer", "instant"),
                          ("telemetry", "counter"), ("telemetry", "histogram")})
#: ROADMAP item 5's pattern for a direct side-channel call.
SIDE_CHANNEL_CALL = re.compile(r"\b(tracer|telemetry|recorder|fault_plan)\.[a-z_]+\(")


def _receiver(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def hand_sent_events(source: str) -> list[int]:
    """Line numbers of ``source`` that send a table event by hand."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if ((isinstance(node, ast.Constant) and node.value in BANNED_NAMES)
                or (isinstance(node, ast.Attribute) and node.attr in BANNED_NAMES)
                or (isinstance(node, ast.Name) and node.id in BANNED_NAMES)
                or (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and (_receiver(node.func.value), node.func.attr)
                    in BANNED_CALLS)):
            lines.append(node.lineno)
    return sorted(set(lines))


def emitted_sites(source: str) -> list[str | None]:
    """The site of each ``.emit(...)`` call in ``source``; ``None`` where
    it is not a string literal."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"):
            first = node.args[0] if node.args else None
            sites.append(first.value if isinstance(first, ast.Constant)
                         and isinstance(first.value, str) else None)
    return sites


def progress() -> list[tuple[str, int, int, int]]:
    """``(module, side-channel call lines, .enabled lines, .observed
    lines)`` for each layer module."""
    rows = []
    for module in LAYERS:
        text = (PACKAGE / module).read_text().splitlines()
        rows.append((module,
                     sum(1 for line in text if SIDE_CHANNEL_CALL.search(line)),
                     sum(1 for line in text if ".enabled" in line),
                     sum(1 for line in text if ".observed" in line)))
    return rows


def test_every_emitted_site_is_a_table_key():
    unknown, used = [], set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for site in emitted_sites(path.read_text()):
            used.add(site)
            if site not in SITES:
                unknown.append(f"{path.relative_to(PACKAGE)}: {site!r}")
    assert unknown == [], f"emit() of sites not in SITES: {unknown}"
    assert sorted(set(SITES) - used) == [], "SITES keys no site emits"


def test_layers_send_no_table_event_by_hand():
    offenders = [f"{module}:{line}" for module in LAYERS
                 for line in hand_sent_events((PACKAGE / module).read_text())]
    assert offenders == [], (
        "these lines send a tracer, recorder or telemetry event by hand; "
        f"add a SITES entry and emit it instead: {offenders}")


def test_the_checks_see_a_violation():
    source = (
        "def f(self, clock, tracer):\n"
        "    clock.emit('launch.ok', 1)\n"
        "    clock.emit(self.site)\n"
        "    tracer.instant('x')\n"
        "    self.telemetry.counter('component_cycles_total').inc()\n"
        "    self.recorder.devcall('x', 1)\n"
        "    tracer.begin('x')\n"
    )
    assert emitted_sites(source) == ["launch.ok", None]
    assert hand_sent_events(source) == [4, 5, 6]


def test_assigning_a_channel_refreshes_the_flag():
    for clock in (Clock(), SimClock(1)):
        assert not clock.observed
        for channel, sink, null in (
                ("tracer", Tracer(clock), NO_TRACE),
                ("recorder", InterfaceRecorder(), NO_RECORD),
                ("telemetry", TelemetryRegistry(clock), NO_TELEMETRY)):
            setattr(clock, channel, sink)
            assert clock.observed and getattr(clock, channel) is sink
            setattr(clock, channel, null)
            assert not clock.observed
        clock.fault_plan = FaultPlan().fail(FaultSite.VCPU_RUN, on={1})
        assert not clock.observed


def test_emit_sends_each_channel_its_events():
    clock = Clock()
    tracer = clock.tracer = Tracer(clock)
    recorder = clock.recorder = InterfaceRecorder()
    registry = clock.telemetry = TelemetryRegistry(clock)
    recorder.vmexit_begin(clock.cycles)
    clock.cycles += 7
    clock.emit("ept faults", 7)
    clock.cycles += 5
    clock.emit("guest.compute", 5)
    clock.emit("timeout.watchdog", virtine="v", kind="no_progress")
    [ept, compute] = tracer.roots
    assert (ept.name, ept.category, ept.begin, ept.end) == (
        "ept faults", Category.VMM, 0, 7)
    assert (compute.name, compute.category, compute.cycles) == (
        "guest.compute", Category.GUEST, 5)
    [kill] = tracer.all_events()
    assert (kill.name, kill.args) == ("watchdog.kill", {"kind": "no_progress"})
    assert recorder._vmexit["segments"] == [
        ["component", 7, "ept faults", "vmm", 7]]
    values = {(i.name, i.labels): i.value for i in registry.instruments()}
    assert values == {
        ("component_cycles_total", (("component", "guest.compute"),)): 5,
        ("timeouts_total", (("kind", "watchdog"),)): 1}
    assert registry.flight.dump() == [
        {"kind": "timeout", "name": "watchdog", "cycles": 12,
         "detail": {"virtine": "v", "hang_kind": "no_progress"}}]


def test_progress_counts_every_layer():
    rows = progress()
    assert [row[0] for row in rows] == list(LAYERS)
    assert all(observed > 0 for *_, observed in rows)
