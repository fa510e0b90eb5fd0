"""The UDF registry: trusted vs. virtine-isolated functions.

Postgres-style engines run UDFs "in the same address space" (Section
7.1); a buggy or malicious UDF can corrupt the engine.  Registering a
UDF here with ``isolation="virtine"`` runs every invocation in its own
micro-VM via the ``@virtine`` machinery (snapshotted after the first
call, so per-row overhead is the restore + marshalling cost).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.lang.decorator import VirtineFunction
from repro.wasp.hypervisor import Wasp
from repro.wasp.virtine import VirtineCrash


class UdfError(Exception):
    """Bad registration or a UDF failure during a query."""


@dataclass
class RegisteredUdf:
    """One registered function and how to run it."""

    name: str
    isolation: str
    runner: Callable


class UdfRegistry:
    """Named UDFs with per-function isolation levels."""

    ISOLATION_LEVELS = ("trusted", "virtine")

    def __init__(self, wasp: Wasp | None = None) -> None:
        self.wasp = wasp if wasp is not None else Wasp()
        self._udfs: dict[str, RegisteredUdf] = {}
        self.invocations: dict[str, int] = {}

    def register(self, name: str, fn: Callable, isolation: str = "virtine") -> None:
        """Register ``fn`` under ``name``.

        ``virtine`` isolation packages the function's call-graph slice
        into an image at registration time (surfacing packaging errors
        early, like the paper's compile-time pass).
        """
        key = name.lower()
        if key in self._udfs:
            raise UdfError(f"UDF {name!r} already registered")
        if isolation not in self.ISOLATION_LEVELS:
            raise UdfError(f"unknown isolation level {isolation!r}")
        if isolation == "virtine":
            virtine_fn = VirtineFunction(fn, wasp=self.wasp)
            virtine_fn.image  # force slicing/packaging now
            runner: Callable = virtine_fn
        else:
            runner = fn
        self._udfs[key] = RegisteredUdf(name=name, isolation=isolation, runner=runner)
        self.invocations[key] = 0

    def lookup(self, name: str) -> RegisteredUdf:
        try:
            return self._udfs[name.lower()]
        except KeyError:
            raise UdfError(f"no such function: {name!r}") from None

    def call(self, name: str, args: tuple) -> Any:
        """Invoke a UDF; virtine crashes surface as :class:`UdfError`.

        The crash aborts only the *query*, never the engine -- the
        paper's motivation for disjoint UDF address spaces.
        """
        udf = self.lookup(name)
        self.invocations[name.lower()] += 1
        try:
            return udf.runner(*args)
        except VirtineCrash as crash:
            raise UdfError(f"UDF {name!r} crashed in its virtine: {crash}") from crash
