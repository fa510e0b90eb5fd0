"""Vespid: the virtine-based serverless platform (Section 7.1).

"Users register JavaScript functions via a web application ... These
requests are handled by a concurrent server which runs each serverless
function in a distinct virtine (rather than a container) by leveraging
the Wasp runtime API."

Vespid calibrates itself by *measuring its own stack*: at construction
it runs the registered function once cold (full boot + engine init +
snapshot capture) and once warm (snapshot restore) through the real
Wasp/JS machinery, and uses those simulated-cycle latencies as the
scheduling costs.  The platform therefore inherits every optimisation in
the stack (pooling, snapshotting) rather than assuming numbers.
"""

from __future__ import annotations

from repro.apps.js.virtine_js import DEFAULT_DATA_SIZE, JsVirtineClient
from repro.apps.serverless.platform import ServerlessPlatform
from repro.units import cycles_to_seconds
from repro.wasp.admission import AdmissionController
from repro.wasp.hypervisor import Wasp


class VespidPlatform(ServerlessPlatform):
    """Virtine-per-invocation serverless platform."""

    name = "vespid"

    def __init__(
        self,
        wasp: Wasp | None = None,
        max_workers: int = 16,
        keepalive_s: float = 60.0,
        payload_size: int = DEFAULT_DATA_SIZE,
        admission: AdmissionController | None = None,
        deadline_s: float | None = None,
    ) -> None:
        super().__init__(max_workers=max_workers, keepalive_s=keepalive_s,
                         admission=admission, deadline_s=deadline_s)
        self.wasp = wasp if wasp is not None else Wasp()
        self.client = JsVirtineClient(self.wasp, use_snapshot=True)
        payload = bytes(i & 0xFF for i in range(payload_size))
        # Calibrate from the real stack: cold (boot + engine init +
        # snapshot capture) then warm (snapshot restore).
        cold = self.client.run(payload)
        warm = self.client.run(payload)
        self._cold_s = cycles_to_seconds(cold.cycles)
        self._warm_s = cycles_to_seconds(warm.cycles)
        self.last_encoded = warm.encoded

    def cold_start_s(self) -> float:
        return self._cold_s

    def warm_invoke_s(self) -> float:
        return self._warm_s
