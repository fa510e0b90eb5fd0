"""The benchmark's layer trace can still find every hook it wraps.

``perfbench/layertrace.py`` times each layer by wrapping
``vars(cls)[name]`` for every ``(layer, cls, name)`` in its ``WRAPPED``
table.  A method inherited from a base class is not in ``vars(cls)``,
so the traced benchmark run fails with a ``KeyError`` as soon as it
installs its wrappers.  A refactor that moves one of these methods up
into a base class (as ``Wasp.launch`` lives in ``HostedPlane``) must
rebind it in the class's own dict; this test catches a missing rebind
without running the benchmark.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_wrapped_method_is_in_its_own_class_dict(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layertrace import WRAPPED

    missing = [f"{cls.__name__}.{name}" for _, cls, name in WRAPPED
               if name not in vars(cls)]
    assert not missing, missing
