"""Canonical telemetry snapshots with a per-seed signature contract.

A :class:`TelemetrySnapshot` freezes the full state of one or more
registries -- every instrument in canonical (name, labels) order, SLO
monitor states, degradation events, and optionally the per-core flight
recorder black boxes -- into a JSON-safe dict.  ``signature()`` is the
determinism contract: sha256 over the canonical-JSON encoding, so two
runs of the same seed and workload must produce *byte-identical*
snapshots, single-core or ``cores=N``.  This mirrors the existing
contracts on :class:`~repro.cluster.chaos.ChaosReport` and the replay
plane's ``BoundaryStream``.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.registry import TelemetryRegistry
    from repro.wasp.hypervisor import Wasp

#: Snapshot format version -- bump when the canonical layout changes.
SNAPSHOT_VERSION = 1


def _labels_str(labels: dict) -> str:
    """Render labels as the canonical ``{k=v,...}`` suffix ('' if none)."""
    if not labels:
        return ""
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return "{" + inner + "}"


class TelemetrySnapshot:
    """A frozen, canonical view of one or more telemetry registries."""

    def __init__(self, payload: dict) -> None:
        self.payload = payload

    # -- construction ---------------------------------------------------------
    @classmethod
    def capture(
        cls,
        registries: "TelemetryRegistry | Iterable[TelemetryRegistry]",
        *,
        meta: dict | None = None,
        black_boxes: bool = False,
    ) -> "TelemetrySnapshot":
        """Freeze the given registries (one per clock domain/core).

        Registries with a ``core`` id contribute it as a ``core`` label
        on each of their instruments, so a merged cluster snapshot keeps
        the per-core dimension without colliding names.
        """
        from repro.telemetry.registry import TelemetryRegistry  # cycle guard

        if isinstance(registries, TelemetryRegistry):
            registries = [registries]
        regs = [r for r in registries if r.enabled]
        instruments: list[dict] = []
        slos: list[dict] = []
        events: list[dict] = []
        boxes: dict[str, dict] = {}
        for reg in regs:
            for state in reg.state():
                if reg.core is not None:
                    state["labels"] = dict(state["labels"], core=reg.core)
                instruments.append(state)
            slos.extend(m.state() for m in reg.slos())
            events.extend(e.to_dict() for e in reg.events)
            if black_boxes:
                key = "main" if reg.core is None else f"core{reg.core}"
                boxes[key] = reg.flight.black_box()
        instruments.sort(key=lambda s: (s["name"], _labels_str(s["labels"])))
        payload = {
            "version": SNAPSHOT_VERSION,
            "meta": dict(meta or {}),
            "cores": len(regs),
            "instruments": instruments,
            "slos": slos,
            "events": events,
        }
        if black_boxes:
            payload["black_boxes"] = boxes
        return cls(payload)

    @classmethod
    def from_dict(cls, payload: dict) -> "TelemetrySnapshot":
        return cls(dict(payload))

    @classmethod
    def load(cls, path) -> "TelemetrySnapshot":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    # -- canonical forms ------------------------------------------------------
    def to_dict(self) -> dict:
        return self.payload

    def to_json(self) -> str:
        """Canonical JSON text (sorted keys, fixed separators)."""
        from repro.store.journal import canonical_json  # cycle guard

        return canonical_json(self.payload).decode() + "\n"

    def signature(self) -> str:
        """sha256 over the canonical encoding -- the determinism contract."""
        from repro.store.journal import canonical_json  # cycle guard

        return hashlib.sha256(canonical_json(self.payload)).hexdigest()

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    # -- convenience ----------------------------------------------------------
    def instruments(self) -> list[dict]:
        return self.payload["instruments"]

    def find(self, name: str, **labels) -> list[dict]:
        """Instrument states matching ``name`` and a label subset."""
        out = []
        for state in self.payload["instruments"]:
            if state["name"] != name:
                continue
            if all(state["labels"].get(k) == v for k, v in labels.items()):
                out.append(state)
        return out

    def value(self, name: str, **labels) -> int:
        """Sum of matching counter/gauge values (0 when absent)."""
        return sum(s.get("value", 0) for s in self.find(name, **labels))

    def summary(self) -> str:
        """A short human-readable digest for the CLI."""
        p = self.payload
        lines = [
            f"telemetry snapshot v{p['version']}: {len(p['instruments'])} "
            f"instruments across {p['cores']} registr"
            + ("y" if p["cores"] == 1 else "ies"),
        ]
        for state in p["instruments"]:
            name = state["name"] + _labels_str(state["labels"])
            if state["kind"] == "histogram":
                lines.append(
                    f"  {name}: n={state['count']} p50={state['p50']:,} "
                    f"p99={state['p99']:,} max={state['max']:,}")
            else:
                lines.append(f"  {name}: {state['value']:,}")
        for slo in p["slos"]:
            status = ("BREACHED" if slo["p99_breached"] or slo["burn_alerting"]
                      else "ok")
            lines.append(
                f"  slo {slo['name']}: p99={slo['rolling_p99']:,} vs "
                f"deadline={slo['deadline_cycles']:,} "
                f"burn={slo['burn_rate']:.2f} [{status}]")
        if p["events"]:
            lines.append(f"  degradations: {len(p['events'])}")
        lines.append(f"  signature: {self.signature()}")
        return "\n".join(lines)


def absorb_wasp(registry: "TelemetryRegistry", wasp: "Wasp") -> None:
    """Fold point-in-time Wasp/store/pool state into gauges.

    Called at snapshot time (not on the hot path): pool depth, store
    occupancy, and the clock reading become gauges so the snapshot is a
    complete picture even for state the hot-path hooks don't touch.
    """
    if not registry.enabled:
        return
    registry.gauge("sim_cycles").set(wasp.clock.cycles)
    for memory_size, pool in sorted(getattr(wasp, "_pools", {}).items()):
        bucket_mb = memory_size // (1024 * 1024)
        registry.gauge("pool_free_shells", bucket_mb=bucket_mb).set(
            pool.free_count)
        registry.gauge("pool_quarantined_shells", bucket_mb=bucket_mb).set(
            pool.quarantines)
    store = getattr(wasp, "snapshots", None)
    if store is not None and hasattr(store, "counters"):
        for key, value in store.counters().items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            if isinstance(value, float):
                value = int(value * 1_000_000)
                key = f"{key}_ppm"
            registry.gauge(f"store_{key}").set(value)
