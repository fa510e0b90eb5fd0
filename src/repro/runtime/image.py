"""Virtine images.

A virtine image is "a statically compiled binary containing all required
software" (Section 2), typically ~16 KB for the C-extension environment
(boot layer + newlib-analog libc + the function's call-graph slice).  The
image's byte size matters: Wasp copies it into guest memory on first
launch and copies the snapshot on every subsequent launch, so start-up
latency scales with image size (Figure 12).

:class:`ImageBuilder` assembles the boot layer for a target mode and
packages it with an optional *hosted entry* -- the Python callable that
plays the role of the compiled guest function (see
:mod:`repro.wasp.hypervisor` for how it executes under the hypervisor).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TYPE_CHECKING

from repro.hw.cpu import Mode
from repro.hw.isa import Assembler, Program
from repro.runtime.boot import (
    IMAGE_BASE,
    boot_source,
    fib_source,
    hosted_trampoline_source,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.wasp.guestenv import GuestEnv

#: Size of the boot layer + newlib-analog libc in the C-extension
#: environment; the paper reports basic images of ~16 KB (Section 2).
LIBC_FOOTPRINT = 14 * 1024

#: Port on which the boot trampoline hands control to the hosted runtime.
HOSTED_ENTER_PORT = 0x1F0


@dataclass
class VirtineImage:
    """An immutable description of what runs inside a virtine."""

    name: str
    program: Program
    mode: Mode
    #: Total image size in bytes (code + libc + data + padding); this is
    #: what launch-time copies are charged for.
    size: int
    #: Hosted guest function (None for pure-assembly virtines).
    hosted_entry: Callable[["GuestEnv"], object] | None = None
    #: Free-form metadata (environment name, workload parameters, ...).
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.size < len(self.program.image):
            raise ValueError(
                f"declared image size {self.size} smaller than assembled "
                f"code ({len(self.program.image)} bytes)"
            )

    @property
    def image_bytes(self) -> bytes:
        """The full padded byte image (code followed by zero padding)."""
        return self.program.image + b"\x00" * (self.size - len(self.program.image))


class ImageBuilder:
    """Builds virtine images from boot sources."""

    def __init__(self, base: int = IMAGE_BASE) -> None:
        self.base = base
        self._assembler = Assembler(base=base)

    def _finish(
        self,
        name: str,
        source: str,
        mode: Mode,
        size: int | None,
        hosted_entry: Callable[["GuestEnv"], object] | None = None,
        metadata: dict | None = None,
    ) -> VirtineImage:
        program = self._assembler.assemble(source)
        declared = size if size is not None else len(program.image)
        declared = max(declared, len(program.image))
        return VirtineImage(
            name=name,
            program=program,
            mode=mode,
            size=declared,
            hosted_entry=hosted_entry,
            metadata=metadata or {},
        )

    def hlt_only(self, size: int | None = None) -> VirtineImage:
        """A context that halts on its very first instruction.

        This is the probe the creation-latency experiments use (Figures
        2 and 8): it measures pure context create/enter/exit with no boot
        work at all.
        """
        return self._finish("hlt-only", "_start:\n    hlt\n", Mode.REAL16, size)

    def minimal(self, mode: Mode = Mode.LONG64, size: int | None = None) -> VirtineImage:
        """A virtine that boots to ``mode`` and immediately halts.

        This is the image used for the boot-breakdown (Table 1) and
        image-size (Figure 12, via ``size`` padding) experiments.
        """
        return self._finish(f"minimal-{mode.value}", boot_source(mode), mode, size)

    def fib(self, mode: Mode, n: int) -> VirtineImage:
        """The hand-written assembly ``fib`` virtine of Figure 3."""
        return self._finish(
            f"fib{n}-{mode.value}",
            fib_source(mode, n),
            mode,
            None,
            metadata={"n": n},
        )

    def hosted(
        self,
        name: str,
        entry: Callable[["GuestEnv"], object],
        mode: Mode = Mode.LONG64,
        size: int | None = None,
        include_libc: bool = True,
        metadata: dict | None = None,
    ) -> VirtineImage:
        """An application virtine: boot layer + hosted guest function.

        ``size`` defaults to the boot code plus the libc footprint, which
        yields the ~16 KB basic images the paper describes.
        """
        source = hosted_trampoline_source(mode, HOSTED_ENTER_PORT)
        program = self._assembler.assemble(source)
        declared = size
        if declared is None:
            declared = len(program.image) + (LIBC_FOOTPRINT if include_libc else 0)
        declared = max(declared, len(program.image))
        return VirtineImage(
            name=name,
            program=program,
            mode=mode,
            size=declared,
            hosted_entry=entry,
            metadata=metadata or {},
        )
