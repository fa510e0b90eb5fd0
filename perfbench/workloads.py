"""The three workloads: what each builds, runs and checks.

Every workload is a closed loop with one client: an operation starts
when the previous one has returned.  Its inputs come from the seed
alone: the sequence holds equal counts of a fixed set of operation
classes, so every seed does the same amount of each kind of work, and
only the order, and for HTTP the file contents, change with the seed.

A workload drives the program only through its public entry points:
``repro.wasp``, ``repro.apps.http`` and ``repro.runtime.image``.
"""

from __future__ import annotations

import gc
import random

from repro.apps.http.client import RequestGenerator
from repro.apps.http.server import StaticHttpServer
from repro.hw.cpu import Mode
from repro.runtime.image import ImageBuilder
from repro.wasp import Supervisor, Wasp

#: Guest boot milestones (``out 0xE9`` markers) a virtine reports on its
#: way to each mode's ``main``; a launch that returns them all, in this
#: order, reached the requested mode.
MILESTONES = {
    Mode.PROT32: [0, 1, 2, 3, 10],
    Mode.LONG64: [0, 1, 2, 3, 4, 5, 6, 7, 10],
}


def fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _reached(result, mode: Mode) -> bool:
    """The launch halted in ``mode``: no hypercall ended it, and the
    guest reported every boot milestone of that mode."""
    return (result.exit_code == 0 and result.hypercall_count == 0
            and [marker for marker, _ in result.milestones] == MILESTONES[mode])


class Workload:
    """One workload: a stack built by :meth:`setup`, then operations.

    ``wasp_options`` are passed to every :class:`Wasp` the workload
    builds (the traced run uses them to attach a tracer and telemetry).
    """

    name = ""
    #: Operations per ``--seconds``; a multiple of the class count.  The
    #: run length is a fixed operation count, never a timer, so two
    #: commits always do identical work.
    ops_per_second = 0

    def __init__(self, seed: int, wasp_options: dict | None = None) -> None:
        self.seed = seed
        self.wasp_options = dict(wasp_options or {})
        self.wasp: Wasp | None = None
        #: One operation input per class, set by :meth:`setup`.
        self.classes: list = []

    def sequence(self, count: int) -> list:
        """``count`` operation inputs (rounded up to whole blocks): blocks
        of one operation of every class, each block in a seeded order.

        Every stretch of the sequence thus has the same mix, whatever
        the seed, and the seed cannot pick long runs of one class.
        """
        rng = random.Random(self.seed)
        items = []
        for _ in range(-(-count // len(self.classes))):
            block = list(self.classes)
            rng.shuffle(block)
            items.extend(block)
        return items

    def setup(self):
        """Build the stack and fill every cache, one ``yield`` per step."""
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def verify(self, item, output) -> bool:
        raise NotImplementedError


class FibCompute(Workload):
    """Pooled ISA-mode ``fib`` launches: host time goes to the
    interpreter and JIT run loop; pool, hypercall and syscall paths idle."""

    name = "fib_compute"
    #: (mode, n): five classes, so the median lies inside one class.
    CLASSES = ((Mode.PROT32, 12), (Mode.LONG64, 13), (Mode.PROT32, 14),
               (Mode.LONG64, 15), (Mode.PROT32, 16))
    ops_per_second = 120

    def setup(self):
        self.wasp = Wasp(**self.wasp_options)
        builder = ImageBuilder()
        self.classes = [(builder.fib(mode, n), mode, n) for mode, n in self.CLASSES]
        yield
        # The first launch of an image cold-boots a new shell and
        # compiles its hot loops; the later ones run warm.
        for image, _, _ in self.classes:
            for _ in range(3):
                self.wasp.launch(image)
                yield
        gc.collect()

    def run(self, item):
        return self.wasp.launch(item[0])

    def verify(self, item, result) -> bool:
        _, mode, n = item
        return result.ax == fib(n) and _reached(result, mode)


class ColdBoot(Workload):
    """Scratch-created (``pooled=False``) minimal virtines: KVM create,
    straight-line boot code and fresh guest memory; no shell pool."""

    name = "cold_boot"
    #: Figure 12 image sizes: the first two fit a 4 MB shell, the last
    #: two need an 8 MB one.
    SIZES = (16 << 10, 256 << 10, 1 << 20, 4 << 20)
    MODES = (Mode.PROT32, Mode.LONG64)
    ops_per_second = 560

    def sequence(self, count: int) -> list:
        """Like :meth:`Workload.sequence`, but 4 MB and 8 MB shells
        alternate in every block: the seed orders the images within each
        bucket only.  The sizes of the guest memories allocated, which
        set the allocator's reuse and with it host time, then follow the
        same pattern for every seed; a plain shuffle moved host time by
        5-10% between seeds."""
        buckets = {}
        for item in self.classes:
            buckets.setdefault(self.wasp.memory_size_for(item[0]), []).append(item)
        rng = random.Random(self.seed)
        items = []
        for _ in range(-(-count // len(self.classes))):
            for group in buckets.values():
                rng.shuffle(group)
            for slot in zip(*buckets.values()):
                items.extend(slot)
        return items

    def setup(self):
        self.wasp = Wasp(**self.wasp_options)
        builder = ImageBuilder()
        self.classes = [(builder.minimal(mode, size), mode)
                        for mode in self.MODES for size in self.SIZES]
        yield
        for image, _ in self.classes:
            for _ in range(2):
                self.wasp.launch(image, pooled=False)
                yield
        gc.collect()

    def run(self, item):
        return self.wasp.launch(item[0], pooled=False)

    def verify(self, item, result) -> bool:
        return _reached(result, item[1])


class HttpSnapshot(Workload):
    """Supervised GETs against ``StaticHttpServer(isolation="snapshot")``:
    pooled shells, hosted hypercalls, host syscalls and the HTTP app.

    The server's connection handler never issues the snapshot hypercall,
    so no reset state is ever stored and every request boots its pooled
    shell; ``wasp.snapshot.restores_per_op`` reads 0 until it does.
    """

    name = "http_snapshot"
    #: Body sizes of the served files; their bytes come from the seed.
    FILE_SIZES = (256, 2048, 8192, 32768)
    ops_per_second = 800

    def setup(self):
        self.wasp = Wasp(**self.wasp_options)
        supervisor = Supervisor(self.wasp)
        server = StaticHttpServer(self.wasp, port=8080, isolation="snapshot",
                                  supervisor=supervisor)
        contents = random.Random(self.seed)
        for index, size in enumerate(self.FILE_SIZES):
            body = contents.randbytes(size)
            self.wasp.kernel.fs.add_file(f"/srv/file{index}.html", body)
            client = RequestGenerator(self.wasp.kernel, server, f"/file{index}.html")
            self.classes.append((client, body))
        yield
        # The first request creates the pooled shell and compiles the
        # boot code's loops; the later ones reuse both.
        for client, _ in self.classes:
            for _ in range(3):
                client.one_request()
                yield
        gc.collect()

    def run(self, item):
        return item[0].one_request()

    def verify(self, item, outcome) -> bool:
        return outcome.response.status == 200 and outcome.response.body == item[1]


WORKLOADS = {cls.name: cls for cls in (FibCompute, ColdBoot, HttpSnapshot)}
