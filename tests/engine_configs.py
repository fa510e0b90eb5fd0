"""Engine configurations the superblock emitter specialises on.

Each mode has its own access width (``access_width``: REAL16 2 bytes,
PROT32 4, LONG64 8) and LONG64 also runs with paging on.  The superblock
differential fuzz and the inline memory-path tests sweep this one table.
"""

from repro.hw.cpu import Mode

#: name -> (mode, paged)
ENGINE_CONFIGS = {
    "real16": (Mode.REAL16, False),
    "prot32": (Mode.PROT32, False),
    "long64": (Mode.LONG64, False),
    "long64-paged": (Mode.LONG64, True),
}


def access_width(mode: Mode) -> int:
    """Bytes per ``push``/``pop``/``mov [m]`` access in ``mode``."""
    return mode.value // 8
