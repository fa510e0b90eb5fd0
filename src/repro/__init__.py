"""Virtines: isolating functions at the hardware limit.

A from-scratch reproduction of the EuroSys '22 paper "Isolating
Functions at the Hardware Limit with Virtines" (Wanninger et al.) on a
cycle-accurate simulated x86/KVM substrate.

Quick start::

    from repro.lang import virtine

    @virtine
    def fib(n):
        if n < 2:
            return n
        return fib(n - 1) + fib(n - 2)

    fib(20)          # runs in its own isolated micro-VM
    fib.invoke(20)   # -> VirtineResult with simulated-cycle latency

Lower-level, embed the hypervisor directly::

    from repro.wasp import Wasp, PermissivePolicy
    from repro.runtime.image import ImageBuilder

    wasp = Wasp()
    image = ImageBuilder().hosted("job", my_entry_fn)
    result = wasp.launch(image, policy=PermissivePolicy())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured results.
"""

import os

from repro.units import CYCLES_PER_US, TINKER_HZ, cycles_to_ms, cycles_to_us, us_to_cycles

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "env_seed",
    "TINKER_HZ",
    "CYCLES_PER_US",
    "cycles_to_us",
    "cycles_to_ms",
    "us_to_cycles",
]


def env_seed(default: int) -> int:
    """``$REPRO_SEED`` when it is set and non-empty, else ``default``.

    One variable seeds every differential fuzzer, the interface fuzzer,
    the chaos suite and the conformance batteries, so any seeded failure
    reproduces from it alone.
    """
    return int(os.environ.get("REPRO_SEED") or default)
