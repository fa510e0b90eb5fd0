"""Hypervisor-interface record/replay (and boundary fuzzing).

Public surface::

    from repro.replay import record, replay, InterfaceFuzzer

    stream = record("echo", seed=7, requests=4)
    stream.save("echo.json")
    report = replay(stream)            # handler plane only, no guest
    assert report.ok

    fuzz = InterfaceFuzzer(stream, seed=7).run(cases=100)
    assert fuzz.ok                     # every mutation lands typed

Lazy exports keep :mod:`repro.replay.stream` importable from the lowest
layers (the hw/device planes take a recorder) without dragging the whole
Wasp stack into their import graphs.
"""

from repro.replay.stream import (
    NO_RECORD,
    BoundaryStream,
    InterfaceRecorder,
    NullRecorder,
    ReplayDivergence,
)

_LAZY = {
    "ReplaySession": "repro.replay.substrate",
    "ScriptedEntry": "repro.replay.substrate",
    "ReplayReport": "repro.replay.engine",
    "diff_streams": "repro.replay.engine",
    "record": "repro.replay.engine",
    "replay": "repro.replay.engine",
    "CaseResult": "repro.replay.fuzzer",
    "FuzzReport": "repro.replay.fuzzer",
    "InterfaceFuzzer": "repro.replay.fuzzer",
    "REPLAY_WORKLOADS": "repro.replay.workloads",
    "WorkloadContext": "repro.replay.workloads",
}

__all__ = [
    "BoundaryStream",
    "InterfaceRecorder",
    "NullRecorder",
    "NO_RECORD",
    "ReplayDivergence",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
