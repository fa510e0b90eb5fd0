"""JavaScript-in-a-virtine: the managed-language case study (Section 6.5).

The workload: a JS function that base64-encodes a buffer.  The baseline
allocates an engine, populates native bindings, parses + executes the
function, and tears the engine down -- per request.  The virtine version
runs the same engine inside a virtine using exactly three hypercalls
(``snapshot()``, ``get_data()``, ``return_data()``) and layers on the
paper's optimisations:

* **snapshot** -- capture the engine right after context allocation +
  program parse; later invocations skip both,
* **no teardown (NT)** -- retain the engine (and its virtine) across
  invocations instead of freeing it, skipping ``destroy()``.

The co-designed security property: ``snapshot`` and ``get_data`` are
one-shot, so once the data is fetched "the only permitted hypercall
would terminate the virtine".
"""

from __future__ import annotations

import base64 as _pybase64
from dataclasses import dataclass
from typing import Any

from repro.apps.js.engine import Engine
from repro.runtime.image import ImageBuilder
from repro.wasp.guestenv import GuestEnv
from repro.wasp.hypercall import Hypercall, HypercallRequest
from repro.wasp.hypervisor import VirtineSession, Wasp
from repro.wasp.policy import BitmaskPolicy, OneShotPolicy, VirtineConfig

#: Duktape "compil[es] into a small (~578KB) image" (Section 7.2).
DUKTAPE_IMAGE_SIZE = 578 * 1024

#: Default payload size for the base64 workload.
DEFAULT_DATA_SIZE = 2048

#: Cycles per byte to surface the host buffer as a JS array (get_data's
#: guest-side conversion loop).
DATA_CONVERT_CYCLES_PER_BYTE = 14.0

#: The JavaScript program under test: plain ES5 base64.
BASE64_JS = """
var B64_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

function b64_chunk(b0, b1, b2, have) {
    var out = "";
    out += B64_ALPHABET.charAt((b0 >> 2) & 63);
    out += B64_ALPHABET.charAt(((b0 & 3) << 4) | ((b1 >> 4) & 15));
    if (have > 1) {
        out += B64_ALPHABET.charAt(((b1 & 15) << 2) | ((b2 >> 6) & 3));
    } else {
        out += "=";
    }
    if (have > 2) {
        out += B64_ALPHABET.charAt(b2 & 63);
    } else {
        out += "=";
    }
    return out;
}

function encode(data) {
    var pieces = [];
    var i;
    var n = data.length;
    for (i = 0; i + 2 < n; i += 3) {
        pieces.push(b64_chunk(data[i], data[i + 1], data[i + 2], 3));
    }
    var rem = n - i;
    if (rem === 1) {
        pieces.push(b64_chunk(data[i], 0, 0, 1));
    } else if (rem === 2) {
        pieces.push(b64_chunk(data[i], data[i + 1], 0, 2));
    }
    return pieces.join("");
}

function run_request() {
    var data = get_data();
    return_data(encode(data));
}
"""


def python_base64(data: bytes) -> str:
    """Reference encoding (for validating the JS engine's output)."""
    return _pybase64.b64encode(data).decode("ascii")


@dataclass
class JsRunResult:
    """One base64 request's outcome."""

    encoded: str
    cycles: int


class NativeJsBaseline:
    """The no-virtine baseline: full engine lifecycle per request."""

    def __init__(self, wasp: Wasp) -> None:
        self.wasp = wasp

    def run(self, data: bytes) -> JsRunResult:
        clock = self.wasp.clock
        start = clock.cycles
        out: dict[str, str] = {}

        engine = Engine(charge=lambda c: clock.advance(c))

        def get_data() -> list[float]:
            clock.advance(DATA_CONVERT_CYCLES_PER_BYTE * len(data))
            return [float(b) for b in data]

        def return_data(text: str) -> None:
            out["encoded"] = text

        engine.bind("get_data", get_data, charge_bindings=True)
        engine.bind("return_data", return_data)
        engine.eval(BASE64_JS)
        engine.call("run_request")
        engine.destroy()
        return JsRunResult(encoded=out["encoded"], cycles=clock.cycles - start)


class JsVirtineClient:
    """The virtine client embedding the JS engine (Figure 14's system).

    Configuration axes match the figure's bars:

    * ``use_snapshot`` -- skip boot + context allocation + parse,
    * ``no_teardown`` -- retain the engine across invocations (requires
      invoking through a session; see :meth:`run_many`).
    """

    def __init__(
        self,
        wasp: Wasp,
        use_snapshot: bool = True,
        no_teardown: bool = False,
    ) -> None:
        self.wasp = wasp
        self.use_snapshot = use_snapshot
        self.no_teardown = no_teardown
        suffix = f"snap={int(use_snapshot)}-nt={int(no_teardown)}"
        self.image = ImageBuilder().hosted(
            name=f"duktape-base64-{suffix}",
            entry=self._entry,
            size=DUKTAPE_IMAGE_SIZE,
            metadata={"engine": "duktape-analog"},
        )
        self._pending: dict[str, Any] = {}

    # -- hypercall handlers (the co-designed client side) -----------------------
    def _hc_get_data(self, request: HypercallRequest) -> bytes:
        return self._pending["data"]

    def _hc_return_data(self, request: HypercallRequest) -> int:
        payload = request.args[0]
        if not isinstance(payload, (bytes, bytearray)):
            raise TypeError("return_data payload must be bytes")
        self._pending["encoded"] = bytes(payload).decode("ascii")
        return 0

    def _policy(self) -> OneShotPolicy:
        inner = BitmaskPolicy(
            VirtineConfig.allowing(
                Hypercall.SNAPSHOT, Hypercall.GET_DATA, Hypercall.RETURN_DATA
            )
        )
        return OneShotPolicy(inner, once=(Hypercall.SNAPSHOT, Hypercall.GET_DATA))

    def _handlers(self) -> dict:
        return {
            Hypercall.GET_DATA: self._hc_get_data,
            Hypercall.RETURN_DATA: self._hc_return_data,
        }

    # -- the guest side -------------------------------------------------------------
    def _entry(self, env: GuestEnv) -> None:
        engine: Engine | None = None
        if self.no_teardown:
            engine = env.persistent.get("engine")
        if engine is None and env.restored is not None:
            engine = env.restored["engine"]
        if engine is not None:
            engine.set_charge_callback(env.charge)
        else:
            engine = Engine(charge=env.charge)
            engine.eval(BASE64_JS)
            if self.use_snapshot:
                env.snapshot(payload={"engine": engine})

        # Native bindings are host-side pointers: re-populated every
        # invocation (they cannot travel in a snapshot).
        def get_data() -> list[float]:
            raw = env.hypercall(Hypercall.GET_DATA)
            env.charge(DATA_CONVERT_CYCLES_PER_BYTE * len(raw))
            return [float(b) for b in raw]

        def return_data(text: str) -> None:
            env.hypercall(Hypercall.RETURN_DATA, str(text).encode("ascii"))

        engine.bind("get_data", get_data, charge_bindings=True)
        engine.bind("return_data", return_data)
        engine.bindings_populated = False  # next invocation charges again

        engine.call("run_request")

        if self.no_teardown:
            engine.set_charge_callback(None)
            env.persistent["engine"] = engine
        else:
            engine.destroy()

    # -- invocation -----------------------------------------------------------------------
    def run(self, data: bytes) -> JsRunResult:
        """One request, one virtine (cleared afterwards)."""
        self._pending = {"data": data}
        result = self.wasp.launch(
            self.image,
            policy=self._policy(),
            handlers=self._handlers(),
            use_snapshot=self.use_snapshot,
        )
        return JsRunResult(encoded=self._pending["encoded"], cycles=result.cycles)

    def open_session(self) -> VirtineSession:
        """A retained-context session for the no-teardown configurations."""
        if not self.no_teardown:
            raise ValueError("sessions are only used with no_teardown=True")
        return self.wasp.session(
            self.image,
            policy=self._policy(),
            handlers=self._handlers(),
            use_snapshot=self.use_snapshot,
        )

    def run_in_session(self, session: VirtineSession, data: bytes) -> JsRunResult:
        """One request on a retained virtine (the NT configurations)."""
        self._pending = {"data": data}
        result = session.invoke()
        return JsRunResult(encoded=self._pending["encoded"], cycles=result.cycles)
