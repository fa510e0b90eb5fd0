"""Guest runtime: boot layers and virtine images.

A virtine image bundles a boot layer written in the mini-ISA assembly
dialect (:mod:`repro.runtime.boot`) with the function to run
(:mod:`repro.runtime.image`).  The C-extension environment's libc is
modelled by its byte footprint alone
(:data:`repro.runtime.image.LIBC_FOOTPRINT`) and its one-time start-up
charge (``CostModel.GUEST_LIBC_INIT``).
"""

from repro.runtime.image import VirtineImage, ImageBuilder
from repro.runtime.boot import (
    boot_source,
    fib_source,
    GDT_ADDR,
    PAGE_TABLE_BASE,
    IMAGE_BASE,
)

__all__ = [
    "VirtineImage",
    "ImageBuilder",
    "boot_source",
    "fib_source",
    "GDT_ADDR",
    "PAGE_TABLE_BASE",
    "IMAGE_BASE",
]
