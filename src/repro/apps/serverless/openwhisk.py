"""The OpenWhisk-like container baseline (Figure 15's comparator).

"vanilla OpenWhisk (which uses V8 via Node.js)": each worker is a
container running a Node.js action runtime.  Cold starts pay container
creation plus Node/V8 runtime initialisation; warm invocations pay an
IPC dispatch plus the (fast, JIT-compiled) function execution.  As the
paper notes, this baseline does *not* employ container reuse
optimisations from the literature (SOCK/SEUSS/Catalyzer), matching the
vanilla deployment measured in Figure 15.
"""

from __future__ import annotations

from repro.apps.serverless.platform import ServerlessPlatform
from repro.host.kernel import HostKernel
from repro.host.process import ContainerRuntime
from repro.units import cycles_to_seconds, us_to_cycles
from repro.wasp.admission import AdmissionController

#: Node.js + V8 initialisation inside a fresh container.
NODE_V8_INIT_CYCLES = us_to_cycles(180_000.0)  # ~180 ms

#: Executing the base64 action on V8 (JIT-compiled: much faster than the
#: Duktape-analog interpreter).
V8_EXEC_CYCLES = us_to_cycles(95.0)

#: The OpenWhisk control path per invocation: nginx -> controller ->
#: Kafka -> invoker -> docker exec bridge.  Vanilla OpenWhisk spends
#: ~10-20 ms here even on warm invocations.
CONTROL_PATH_CYCLES = us_to_cycles(14_000.0)


class OpenWhiskLikePlatform(ServerlessPlatform):
    """Container-per-worker serverless platform."""

    name = "openwhisk"

    def __init__(
        self,
        kernel: HostKernel | None = None,
        max_workers: int = 16,
        keepalive_s: float = 60.0,
        admission: AdmissionController | None = None,
        deadline_s: float | None = None,
    ) -> None:
        super().__init__(max_workers=max_workers, keepalive_s=keepalive_s,
                         admission=admission, deadline_s=deadline_s)
        self.kernel = kernel if kernel is not None else HostKernel()
        self.containers = ContainerRuntime(self.kernel)
        # Calibrate by exercising the container runtime once each way.
        cold_cycles = (
            self.containers.cold_create()
            + NODE_V8_INIT_CYCLES
            + CONTROL_PATH_CYCLES
            + V8_EXEC_CYCLES
        )
        warm_cycles = self.containers.warm_invoke() + CONTROL_PATH_CYCLES + V8_EXEC_CYCLES
        self._cold_s = cycles_to_seconds(cold_cycles)
        self._warm_s = cycles_to_seconds(warm_cycles)

    def cold_start_s(self) -> float:
        return self._cold_s

    def warm_invoke_s(self) -> float:
        return self._warm_s
