"""Outside-in layer trace: spans around calls into each layer.

The traced run wraps public functions of each layer -- from here, not
inside the program -- and records one span per call: its layer, the
operation it belongs to, its nesting depth, and its start and end on
the thread CPU clock.  A layer's *self* time is its spans' time minus
the time of the wrapped calls nested inside them; Python's garbage
collector is one more layer, timed through ``gc.callbacks``.  Time of
an operation that no span covers is reported as ``unattributed``.

Spans stay in memory while the run goes on and are written out when it
ends (:meth:`LayerTrace.write`).  After each operation the program's own
:class:`~repro.trace.Tracer` is folded into simulated cycles per
category.
"""

from __future__ import annotations

import functools
import gc
import json
from pathlib import Path

from repro.apps.http.server import StaticHttpServer
from repro.host.kernel import HostKernel
from repro.hw.memory import GuestMemory
from repro.kvm.device import KVM, VcpuHandle, VMHandle
from repro.trace import attribution
from repro.wasp import ShellPool, Supervisor, Wasp

from calib import now_ns

#: (layer, class, method): the public functions timed as each layer.
#: ``host.syscall`` gets every ``HostKernel.sys_*`` method besides.
WRAPPED = (
    ("hw.vmrun", VcpuHandle, "run"),
    ("hw.memory.restore", GuestMemory, "restore_runs"),
    ("kvm.create", KVM, "create_vm"),
    ("kvm.create", VMHandle, "set_user_memory_region"),
    ("kvm.create", VMHandle, "create_vcpu"),
    ("kvm.create", VMHandle, "load_program"),
    ("kvm.close", VMHandle, "close"),
    ("wasp.launch", Wasp, "launch"),
    ("wasp.pool.acquire", ShellPool, "acquire"),
    ("wasp.pool.release", ShellPool, "release"),
    ("wasp.hypercall", Wasp, "dispatch_hosted_hypercall"),
    ("wasp.supervisor", Supervisor, "launch"),
    ("apps.http.serve", StaticHttpServer, "serve_one"),
) + tuple(("host.syscall", HostKernel, name)
          for name in sorted(vars(HostKernel)) if name.startswith("sys_"))

GC_LAYER = "py.gc"
LAYERS = tuple(dict.fromkeys([layer for layer, _, _ in WRAPPED] + [GC_LAYER]))


class LayerTrace:
    """Installs the wrappers and accumulates per-operation self times.

    Spans are recorded only between :meth:`begin_op` and :meth:`end_op`,
    so set-up and calibration never count.
    """

    def __init__(self, tracer) -> None:
        #: The program's tracer, attached to the traced stack.
        self.tracer = tracer
        #: Simulated cycles per tracer category, over all operations.
        self.category_cycles: dict[str, int] = {}
        self.index = {layer: i for i, layer in enumerate(LAYERS)}
        self.active = False
        self.op = -1
        #: Child-time accumulators of the open spans; [0] is the operation.
        self.stack: list[int] = []
        #: Host ns of the current operation, per layer (self time) ...
        self.self_ns = [0] * len(LAYERS)
        #: ... and calls per layer over the whole run.
        self.calls = [0] * len(LAYERS)
        self.guest_steps = 0
        self.gc_gen2 = 0
        #: (layer index, operation, depth, start ns, end ns) per span.
        self.spans: list[tuple[int, int, int, int, int]] = []
        self._gc_start = 0
        self._saved: list[tuple[type, str, object]] = []

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        for layer, cls, name in WRAPPED:
            original = vars(cls)[name]
            self._saved.append((cls, name, original))
            setattr(cls, name, self._wrap(original, self.index[layer],
                                          steps=layer == "hw.vmrun"))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        self._saved.clear()

    def _wrap(self, fn, lid: int, steps: bool):
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not trace.active:
                return fn(*args, **kwargs)
            stack = trace.stack
            stack.append(0)
            start = now_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now_ns()
                child = stack.pop()
                elapsed = end - start
                trace.self_ns[lid] += elapsed - child
                trace.calls[lid] += 1
                stack[-1] += elapsed
                trace.spans.append((lid, trace.op, len(stack), start, end))
            if steps:
                trace.guest_steps += result.steps
            return result

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self.stack.append(0)
            self._gc_start = now_ns()
            return
        end = now_ns()
        self.stack.pop()
        elapsed = end - self._gc_start
        lid = self.index[GC_LAYER]
        self.self_ns[lid] += elapsed
        self.calls[lid] += 1
        self.stack[-1] += elapsed
        self.spans.append((lid, self.op, len(self.stack), self._gc_start, end))
        if info["generation"] == 2:
            self.gc_gen2 += 1

    # -- operations --------------------------------------------------------
    def begin_op(self) -> None:
        self.op += 1
        self.stack = [0]
        self.self_ns = [0] * len(LAYERS)
        self.active = True

    def end_op(self, elapsed_ns: int) -> tuple[list[int], int]:
        """Close the operation that took ``elapsed_ns``; return its
        per-layer self ns and the ns no span covered.

        The tracer's span trees of the operation are folded into
        :attr:`category_cycles` and dropped, so a long run's trace stays
        small.
        """
        self.active = False
        tracer, totals = self.tracer, self.category_cycles
        for root in tracer.roots:
            for category, cycles in attribution(root, by="category").items():
                totals[category] = totals.get(category, 0) + cycles
        tracer.roots.clear()
        tracer.orphan_events.clear()
        return self.self_ns, elapsed_ns - self.stack[0]

    def write(self, path: Path, header: dict) -> None:
        """Dump the recorded spans: one JSON header line, then one
        ``layer,op,depth,start_ns,end_ns`` line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps(dict(header, layers=list(LAYERS))) + "\n")
            out.writelines(f"{LAYERS[lid]},{op},{depth},{start},{end}\n"
                           for lid, op, depth, start, end in self.spans)
