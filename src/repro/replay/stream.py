"""The boundary event stream: recording and its on-disk artifact.

IRIS-style record/replay for the virtine/hypervisor boundary.  The
paper's security argument (Section 4) is that the vmexit/hypercall
interface is the *entire* attack surface; this module captures that
interface -- every vmexit with its register file, every hypercall with
its data buffers, every ioctl-equivalent device call, every memory
capture/scrub -- as a versioned, deterministic, on-disk artifact.

This module is a **pure stdlib leaf**: it imports nothing from the rest
of the package, so every layer (``hw``, ``kvm``, ``hyperv``, ``wasp``)
can import :data:`NO_RECORD` without cycles -- the same shape as
:data:`repro.trace.tracer.NO_TRACE`.

Determinism contract (mirrors ``ClusterReport.signature()``): the same
seeded workload records the same stream byte-for-byte, and
:meth:`BoundaryStream.signature` is a SHA-256 over the canonical JSON
encoding, so two runs agree iff their signatures agree.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

#: Artifact format version; bumped on any schema change.
STREAM_VERSION = 1


class ReplayDivergence(Exception):
    """A strict replay observed the handler plane disagreeing with the
    recording (or the recording was internally inconsistent).

    Deliberately *not* a :class:`repro.wasp.virtine.VirtineCrash`: a
    divergence is a verdict about the hypervisor, not about the guest,
    and must never be absorbed by the crash taxonomy.
    """


@dataclass(frozen=True)
class OpaqueValue:
    """Decoded stand-in for a recorded value that had no JSON encoding."""

    type_name: str


def encode_value(value: Any) -> Any:
    """Encode a handler-plane value into deterministic JSON-native form.

    The encoding is idempotent across a decode/encode round trip (bytes,
    lists, tuples, dicts, and opaque stand-ins all re-encode to the same
    JSON), which is what lets a replay re-record the stream it consumed
    and come out byte-identical.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": base64.b64encode(bytes(value)).decode("ascii")}
    if isinstance(value, OpaqueValue):
        return {"__opaque__": value.type_name}
    if isinstance(value, (list, tuple)):
        return {"__list__": [encode_value(item) for item in value]}
    if isinstance(value, dict):
        return {"__map__": [[encode_value(k), encode_value(v)]
                            for k, v in value.items()]}
    return {"__opaque__": type(value).__name__}


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`.

    Raises :class:`ValueError` on any malformed encoding -- the replay
    substrate turns that into a typed divergence/fault, never lets it
    surface as a bare exception.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict) and len(value) == 1:
        ((tag, payload),) = value.items()
        if tag == "__bytes__":
            if not isinstance(payload, str):
                raise ValueError("malformed __bytes__ payload")
            try:
                return base64.b64decode(payload.encode("ascii"), validate=True)
            except (binascii.Error, UnicodeEncodeError, ValueError) as error:
                raise ValueError(f"undecodable __bytes__ payload: {error}") from error
        if tag == "__list__":
            if not isinstance(payload, list):
                raise ValueError("malformed __list__ payload")
            return [decode_value(item) for item in payload]
        if tag == "__map__":
            if not isinstance(payload, list):
                raise ValueError("malformed __map__ payload")
            result = {}
            for pair in payload:
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ValueError("malformed __map__ entry")
                try:
                    result[decode_value(pair[0])] = decode_value(pair[1])
                except TypeError as error:
                    raise ValueError(f"unhashable __map__ key: {error}") from error
            return result
        if tag == "__opaque__":
            if not isinstance(payload, str):
                raise ValueError("malformed __opaque__ payload")
            return OpaqueValue(payload)
    raise ValueError(f"unencodable recorded value {value!r}")


def encode_cpu(cpu: Any) -> dict:
    """Explicit JSON-native encoding of the architectural vCPU state.

    ``CPU.save_state()`` is host-object shaped (Mode/Flags/GDTR); the
    stream needs a stable wire form the replay substrate can validate
    field by field before applying.
    """
    return {
        "regs": {name: int(value) for name, value in cpu.regs.items()},
        "rip": int(cpu.rip),
        "mode": cpu.mode.name,
        "flags": [bool(cpu.flags.zero), bool(cpu.flags.sign),
                  bool(cpu.flags.carry), bool(cpu.flags.interrupts)],
        "cr0": int(cpu.cr0),
        "cr3": int(cpu.cr3),
        "cr4": int(cpu.cr4),
        "efer": int(cpu.efer),
        "gdtr": [int(cpu.gdtr.base), int(cpu.gdtr.limit), bool(cpu.gdtr.loaded)],
        "halted": bool(cpu.halted),
    }


@dataclass
class BoundaryStream:
    """One recorded run of the virtine/hypervisor boundary.

    Event kinds (each event is a dict with a ``kind`` key):

    * ``launch_begin``  -- {image, pooled, use_snapshot}
    * ``launch_end``    -- {image, outcome, detail, exit_code,
      from_snapshot, hypercalls, ax}; ``outcome`` is ``"ok"`` or the
      escaping exception's type name.
    * ``devcall``       -- {name, cycles}: one ioctl-equivalent device
      call (KVM_CREATE_VM, WHvMapGpaRange, image memcpy...).
    * ``vmexit``        -- {reason, port, value, in_dest, detail, steps,
      cycles, segments, cpu, mem}: one guest interior ending in an exit.
      ``cycles`` is the interior duration; ``segments`` time-stamps the
      attribution leaves and milestones inside it (offsets relative to
      interior start); ``cpu`` is the register file at the exit; ``mem``
      carries guest-written buffers the handler plane will read.
    * ``isa_hypercall`` -- {nr, bx, cx, dx, ax, exit}: the register-ABI
      dispatch verdict for one ``out 0x200`` exit.
    * ``hosted_run``    -- {ops, end}: one hosted entry's boundary ops
      (hypercall/charge/milestone/snapshot/exit) plus how it ended.
    * ``mem_capture``   -- {pages}: dirty-page set of one snapshot capture.
    * ``mem_clear``     -- {bytes}: one shell scrub (release/quarantine).
    * ``fault_arm``     -- {site, nth}: mutation-only; arms one extra
      fault-plane injection during replay.
    """

    version: int
    workload: str
    params: dict
    events: list
    meta: dict = field(default_factory=dict)

    def _payload(self) -> dict:
        return {
            "version": self.version,
            "workload": self.workload,
            "params": self.params,
            "events": self.events,
            "meta": self.meta,
        }

    def to_json(self, indent: int | None = None) -> str:
        """Canonical (sorted-key) JSON; compact unless ``indent`` given."""
        if indent is None:
            return json.dumps(self._payload(), sort_keys=True,
                              separators=(",", ":"))
        return json.dumps(self._payload(), sort_keys=True, indent=indent)

    def signature(self) -> str:
        """SHA-256 over the canonical encoding (the determinism contract)."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    @classmethod
    def from_json(cls, text: str) -> "BoundaryStream":
        """Parse an artifact, validating only the envelope.

        Event *contents* are deliberately not validated here: the replay
        substrate checks each field as it consumes it, which is exactly
        the hostile-stream surface the fuzzer exercises.
        """
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"artifact is not JSON: {error}") from error
        if not isinstance(payload, dict):
            raise ValueError("artifact is not a JSON object")
        version = payload.get("version")
        if version != STREAM_VERSION:
            raise ValueError(f"unsupported stream version {version!r} "
                             f"(this build reads {STREAM_VERSION})")
        workload = payload.get("workload")
        params = payload.get("params")
        events = payload.get("events")
        meta = payload.get("meta")
        if not isinstance(workload, str):
            raise ValueError("artifact workload must be a string")
        if not isinstance(params, dict):
            raise ValueError("artifact params must be an object")
        if not isinstance(meta, dict):
            raise ValueError("artifact meta must be an object")
        if not isinstance(events, list):
            raise ValueError("artifact events must be a list")
        for event in events:
            if not isinstance(event, dict) or not isinstance(event.get("kind"), str):
                raise ValueError("every event must be an object with a "
                                 "string 'kind'")
        return cls(version=version, workload=workload, params=params,
                   events=events, meta=meta)

    def save(self, path: str, indent: int | None = None) -> None:
        text = self.to_json(indent=indent)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
            if indent is not None:
                handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "BoundaryStream":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


class InterfaceRecorder:
    """Captures the boundary event stream of one run.

    Hook sites live in ``wasp/hypervisor.py`` (launches, hypercalls,
    hosted ops, snapshot captures), the device planes (ioctl-equivalent
    calls), and ``hw/vmx.py`` (vmexits, interior attribution segments,
    memory scrubs).  When recording is off the sites hold
    :data:`NO_RECORD`, mirroring ``NO_TRACE``: the hot ones test
    ``enabled`` first, the rest call its no-op hooks.
    """

    enabled = True

    def __init__(self) -> None:
        self.events: list[dict] = []
        #: Open vmexit interior capture: {"begin": cycle, "segments": []}.
        self._vmexit: dict | None = None
        #: Last completed vmexit event (guest buffers attach to it).
        self._last_vmexit: dict | None = None
        #: Open hosted_run event.
        self._hosted: dict | None = None

    # -- launches ------------------------------------------------------------
    def launch_begin(self, image: str, pooled: bool, use_snapshot: bool) -> None:
        self.events.append({"kind": "launch_begin", "image": image,
                            "pooled": bool(pooled),
                            "use_snapshot": bool(use_snapshot)})

    def launch_end(self, image: str, outcome: str, detail: str = "",
                   exit_code: int = 0, from_snapshot: bool = False,
                   hypercalls: int = 0, ax: int = 0) -> None:
        self.events.append({"kind": "launch_end", "image": image,
                            "outcome": outcome, "detail": detail,
                            "exit_code": int(exit_code),
                            "from_snapshot": bool(from_snapshot),
                            "hypercalls": int(hypercalls), "ax": int(ax)})

    # -- device plane --------------------------------------------------------
    def devcall(self, name: str, cycles: int) -> None:
        self.events.append({"kind": "devcall", "name": name,
                            "cycles": int(cycles)})

    # -- vmexits -------------------------------------------------------------
    def vmexit_begin(self, at: int) -> None:
        # A dangling open capture means the previous vmrun aborted before
        # its exit (injected fault, interpreter escape): discard it --
        # the exit never reached the boundary.
        self._vmexit = {"begin": int(at), "segments": []}

    def segment_component(self, name: str, cycles: int, category: str,
                          at: int) -> None:
        if self._vmexit is None:
            return
        self._vmexit["segments"].append(
            ["component", int(at) - self._vmexit["begin"], name, category,
             int(cycles)])

    def segment_milestone(self, marker: int, at: int) -> None:
        if self._vmexit is None:
            return
        self._vmexit["segments"].append(
            ["milestone", int(at) - self._vmexit["begin"], int(marker)])

    def vmexit_end(self, at: int, info: Any, cpu: Any) -> None:
        if self._vmexit is None:
            return
        reason = getattr(info.reason, "value", None)
        if not isinstance(reason, str):
            reason = str(info.reason)
        event = {
            "kind": "vmexit",
            "reason": reason,
            "port": int(info.port),
            "value": int(info.value),
            "in_dest": str(info.in_dest),
            "detail": str(info.detail),
            "steps": int(info.steps),
            "cycles": int(at) - self._vmexit["begin"],
            "segments": self._vmexit["segments"],
            "cpu": encode_cpu(cpu),
            "mem": [],
        }
        self.events.append(event)
        self._last_vmexit = event
        self._vmexit = None

    def attach_guest_buffer(self, addr: int, data: bytes) -> None:
        """Record guest-written bytes the handler plane read after the
        last exit (a replay has no interpreter to have written them)."""
        if self._last_vmexit is None:
            return
        self._last_vmexit["mem"].append(
            [int(addr), base64.b64encode(bytes(data)).decode("ascii")])

    # -- register-ABI hypercalls --------------------------------------------
    def isa_hypercall(self, nr: int, bx: int, cx: int, dx: int, ax: int,
                      exited: bool) -> None:
        self.events.append({"kind": "isa_hypercall", "nr": int(nr),
                            "bx": int(bx), "cx": int(cx), "dx": int(dx),
                            "ax": int(ax), "exit": bool(exited)})

    # -- hosted runs ---------------------------------------------------------
    def hosted_begin(self) -> None:
        self._hosted = {"kind": "hosted_run", "ops": [], "end": None}
        self.events.append(self._hosted)

    def _hosted_op(self, op: list) -> None:
        if self._hosted is not None:
            self._hosted["ops"].append(op)

    def hosted_charge(self, cycles: float) -> None:
        self._hosted_op(["charge", cycles])

    def hosted_milestone(self, marker: int) -> None:
        self._hosted_op(["milestone", int(marker)])

    def hosted_snapshot(self, payload: Any) -> None:
        self._hosted_op(["snapshot", encode_value(payload)])

    def hosted_exit(self, code: int) -> None:
        self._hosted_op(["exit", int(code)])

    def hosted_hypercall_begin(self, nr: int, args: tuple) -> list | None:
        """Open one hypercall op; the outcome is patched in at the end so
        a mid-dispatch escape (timeout, injected fault) is visible as an
        op with no outcome."""
        if self._hosted is None:
            return None
        op = ["hypercall", int(nr), [encode_value(a) for a in args],
              None, None]
        self._hosted["ops"].append(op)
        return op

    def hosted_hypercall_end(self, op: list | None, outcome: str,
                             result: Any = None) -> None:
        if op is None:
            return
        op[3] = outcome
        if outcome == "ok":
            op[4] = encode_value(result)
        elif outcome == "error":
            op[4] = "" if result is None else str(result)

    def hosted_end(self, marker: list) -> None:
        if self._hosted is None:
            return
        self._hosted["end"] = marker
        self._hosted = None

    # -- guest memory boundary ----------------------------------------------
    def mem_capture(self, pages: list) -> None:
        self.events.append({"kind": "mem_capture",
                            "pages": [int(page) for page in pages]})

    def mem_clear(self, nbytes: int) -> None:
        self.events.append({"kind": "mem_clear", "bytes": int(nbytes)})

    # -- finalisation --------------------------------------------------------
    def finish(self, workload: str, params: dict, meta: dict) -> BoundaryStream:
        self._vmexit = None
        self._last_vmexit = None
        self._hosted = None
        return BoundaryStream(version=STREAM_VERSION, workload=workload,
                              params=dict(params), events=self.events,
                              meta=meta)


class NullRecorder(InterfaceRecorder):
    """The disabled recorder: every hook is a no-op (see ``NO_TRACE``).

    Shared as :data:`NO_RECORD`, every unrecorded clock's recorder.
    Sites on the launch and hosted-request paths test ``enabled`` first
    and skip the call: launch begin and end, the hosted entry and its
    exit, compute charges and hypercalls, vmexits, debug-port milestones,
    memory scrubs and the device's per-call charges.
    """

    enabled = False

    def launch_begin(self, image, pooled, use_snapshot):  # type: ignore[override]
        return None

    def launch_end(self, image, outcome, detail="", exit_code=0,
                   from_snapshot=False, hypercalls=0, ax=0):  # type: ignore[override]
        return None

    def devcall(self, name, cycles):  # type: ignore[override]
        return None

    def vmexit_begin(self, at):  # type: ignore[override]
        return None

    def segment_component(self, name, cycles, category, at):  # type: ignore[override]
        return None

    def segment_milestone(self, marker, at):  # type: ignore[override]
        return None

    def vmexit_end(self, at, info, cpu):  # type: ignore[override]
        return None

    def attach_guest_buffer(self, addr, data):  # type: ignore[override]
        return None

    def isa_hypercall(self, nr, bx, cx, dx, ax, exited):  # type: ignore[override]
        return None

    def hosted_begin(self):  # type: ignore[override]
        return None

    def hosted_charge(self, cycles):  # type: ignore[override]
        return None

    def hosted_milestone(self, marker):  # type: ignore[override]
        return None

    def hosted_snapshot(self, payload):  # type: ignore[override]
        return None

    def hosted_exit(self, code):  # type: ignore[override]
        return None

    def hosted_hypercall_begin(self, nr, args):  # type: ignore[override]
        return None

    def hosted_hypercall_end(self, op, outcome, result=None):  # type: ignore[override]
        return None

    def hosted_end(self, marker):  # type: ignore[override]
        return None

    def mem_capture(self, pages):  # type: ignore[override]
        return None

    def mem_clear(self, nbytes):  # type: ignore[override]
        return None


#: The shared disabled recorder every clock starts with.
NO_RECORD = NullRecorder()
