"""The ``virtine`` keyword for Python functions.

Annotating a function makes every invocation run in its own isolated
virtine (Figure 9's ``virtine int fib(int n)`` becomes
``@virtine`` ``def fib(n)``).  The decorator:

1. slices the function's call graph out of its module
   (:mod:`repro.lang.callgraph`),
2. packages the slice, copies of the globals it reads, and the guest
   libc into a ~16 KB image,
3. on every call: provisions a virtine through Wasp, marshals the
   arguments by copy-restore into guest address 0x0, executes the slice
   in a sealed guest namespace (its own globals, restricted builtins --
   no host objects reachable), and marshals the result back.

Snapshotting is on by default ("All virtines created via our language
extensions use Wasp's snapshot feature by default") and can be disabled
with the ``VIRTINE_NO_SNAPSHOT`` environment variable, mirroring the
paper's escape hatch.
"""

from __future__ import annotations

import builtins as _builtins
import copy
import functools
import os
from typing import Any, Callable

import repro.lang.marshal as marshal_mod
from repro.lang.callgraph import CallGraphSlice, GUEST_SAFE_BUILTINS, slice_call_graph
from repro.runtime.image import ImageBuilder, LIBC_FOOTPRINT, VirtineImage
from repro.wasp.guestenv import GuestEnv
from repro.wasp.hypervisor import Wasp
from repro.wasp.hypercall import Hypercall
from repro.wasp.policy import BitmaskPolicy, PermissivePolicy, Policy, VirtineConfig
from repro.wasp.pool import CleanMode
from repro.wasp.virtine import VirtineResult

_default_wasp: Wasp | None = None
_default_hosts: dict[str, Any] = {}


def set_default_wasp(wasp: Wasp | None) -> None:
    """Install the Wasp instance decorated functions launch through."""
    global _default_wasp
    _default_wasp = wasp


def get_default_wasp() -> Wasp:
    """The process-wide Wasp (created on first use)."""
    global _default_wasp
    if _default_wasp is None:
        _default_wasp = Wasp()
    return _default_wasp


def get_default_host(backend: str):
    """The process-wide launcher for a named isolation backend.

    ``"kvm"`` shares :func:`get_default_wasp`; every other name lazily
    builds (and caches) a :class:`~repro.host.backend.BackendHost` so
    all ``@virtine(backend="sud")`` functions share one SUD plane, the
    way all KVM virtines share one Wasp.
    """
    if backend == "kvm":
        return get_default_wasp()
    if backend not in _default_hosts:
        from repro.host.backend import create_host

        _default_hosts[backend] = create_host(backend)
    return _default_hosts[backend]


def _lang_default_policy() -> Policy:
    """The ``virtine`` keyword's policy: deny everything except EXIT and
    the (not externally observable) SNAPSHOT."""
    return BitmaskPolicy(VirtineConfig.allowing(Hypercall.SNAPSHOT))


class VirtineFunction:
    """A function whose invocations each run in an isolated virtine."""

    def __init__(
        self,
        fn: Callable,
        *,
        policy_factory: Callable[[], Policy] | None = None,
        wasp: Wasp | None = None,
        backend: str = "kvm",
        snapshot: bool = True,
        clean: CleanMode = CleanMode.SYNC,
        image_size: int | None = None,
    ) -> None:
        functools.update_wrapper(self, fn)
        self.__wrapped_virtine__ = fn
        self._fn = fn
        self._policy_factory = policy_factory or _lang_default_policy
        self._wasp = wasp
        #: Isolation mechanism this function's invocations run under:
        #: ``"kvm"`` (real virtines), ``"sud"``, ``"container"``,
        #: ``"process"``, or ``"thread"``.  An explicit ``wasp=`` (or any
        #: launcher passed there) wins over the name.
        self.backend = backend
        self._snapshot = snapshot
        self._clean = clean
        self._image_size = image_size
        self._slice: CallGraphSlice | None = None
        self._image: VirtineImage | None = None
        self._code_cache: dict[str, Any] = {}

    # -- lazy build -----------------------------------------------------------
    @property
    def slice(self) -> CallGraphSlice:
        """The packaged call-graph slice (built on first use)."""
        if self._slice is None:
            self._slice = slice_call_graph(self._fn)
        return self._slice

    @property
    def image(self) -> VirtineImage:
        """The virtine image this function runs in."""
        if self._image is None:
            graph = self.slice
            globals_bytes = marshal_mod.marshalled_size(
                {k: v for k, v in graph.globals_read.items() if _is_marshallable(v)}
            )
            size = self._image_size
            if size is None:
                size = LIBC_FOOTPRINT + graph.code_bytes + globals_bytes + 2048
            self._image = ImageBuilder().hosted(
                name=f"virtine:{self._fn.__module__}.{self._fn.__qualname__}",
                entry=self._entry,
                size=size,
                metadata={"root": graph.root, "functions": graph.function_names},
            )
        return self._image

    def _compiled(self) -> dict[str, Any]:
        if not self._code_cache:
            for name, source in self.slice.functions.items():
                self._code_cache[name] = compile(source, f"<virtine:{name}>", "exec")
        return self._code_cache

    # -- invocation --------------------------------------------------------------
    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self.invoke(*args, **kwargs).value

    def invoke(self, *args: Any, **kwargs: Any) -> VirtineResult:
        """Run one invocation and return the full :class:`VirtineResult`."""
        wasp = self._wasp if self._wasp is not None else get_default_host(self.backend)
        use_snapshot = self._snapshot and not os.environ.get("VIRTINE_NO_SNAPSHOT")
        return wasp.launch(
            self.image,
            policy=self._policy_factory(),
            args=(args, kwargs),
            use_snapshot=use_snapshot,
            clean=self._clean,
        )

    def native(self, *args: Any, **kwargs: Any) -> Any:
        """Call the original function directly (the native baseline)."""
        return self._fn(*args, **kwargs)

    # -- the guest side ---------------------------------------------------------------
    def _entry(self, env: GuestEnv) -> Any:
        """Hosted guest entry: libc init (or snapshot skip), unmarshal,
        execute the slice in a sealed namespace, marshal the result."""
        costs = env._wasp.costs
        if not env.from_snapshot:
            env.charge(costs.GUEST_LIBC_INIT)
            if (self._snapshot and env.can_snapshot
                    and not os.environ.get("VIRTINE_NO_SNAPSHOT")):
                env.snapshot(payload={"libc": "initialized"})
        args, kwargs = env.args if env.args is not None else ((), {})

        # Copy-restore: the argument structure is written into the
        # virtine's address space at 0x0 and read back out of it.
        wire = marshal_mod.encode((list(args), kwargs))
        env.charge(costs.MARSHAL_PER_ARG * (len(args) + len(kwargs) + 1))
        env.charge(costs.memcpy(len(wire)))
        marshal_mod.marshal(env.memory, (list(args), kwargs), marshal_mod.ARG_AREA)
        guest_args, guest_kwargs = marshal_mod.unmarshal(env.memory, marshal_mod.ARG_AREA)

        namespace = self._make_guest_namespace()
        calls = _CallCounter()
        for name in self.slice.functions:
            namespace[name] = calls.wrap(namespace[name])
        root = namespace[self.slice.root]
        try:
            result = root(*guest_args, **guest_kwargs)
        finally:
            env.charge_call(calls.count)

        result_wire = marshal_mod.encode(result)
        env.charge(costs.memcpy(len(result_wire)))
        env.charge(costs.MARSHAL_PER_ARG)
        marshal_mod.marshal(env.memory, result, marshal_mod.RET_AREA)
        return marshal_mod.unmarshal(env.memory, marshal_mod.RET_AREA)

    def _make_guest_namespace(self) -> dict[str, Any]:
        """A fresh, sealed namespace for one invocation.

        Contains only: restricted builtins, deep copies of the globals
        the slice reads (mutations stay private, Section 5.3), and the
        slice's own functions.
        """
        guest_builtins = {
            name: getattr(_builtins, name) for name in GUEST_SAFE_BUILTINS
        }
        namespace: dict[str, Any] = {"__builtins__": guest_builtins}
        for name, value in self.slice.globals_read.items():
            namespace[name] = copy.deepcopy(value)
        for name, code in self._compiled().items():
            exec(code, namespace)
        return namespace


class _CallCounter:
    """Counts guest function calls to drive the compute cost model."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def wrap(self, fn: Callable) -> Callable:
        def counted(*args: Any, **kwargs: Any) -> Any:
            self.count += 1
            return fn(*args, **kwargs)

        counted.__name__ = fn.__name__
        return counted


def _is_marshallable(value: Any) -> bool:
    try:
        marshal_mod.encode(value)
    except marshal_mod.MarshalError:
        return False
    return True


def virtine(fn: Callable | None = None, **options: Any):
    """The ``virtine`` keyword: default-deny isolation per invocation.

    Usable bare (``@virtine``) or with options
    (``@virtine(snapshot=False, wasp=my_wasp)``).
    """
    if fn is not None:
        return VirtineFunction(fn, **options)

    def decorate(inner: Callable) -> VirtineFunction:
        return VirtineFunction(inner, **options)

    return decorate


def virtine_permissive(fn: Callable | None = None, **options: Any):
    """``virtine_permissive``: all hypercalls allowed (Section 5.3)."""
    options.setdefault("policy_factory", PermissivePolicy)
    return virtine(fn, **options)


def virtine_config(config: VirtineConfig, **options: Any):
    """``virtine_config(cfg)``: allow exactly the hypercalls in the mask."""

    def decorate(inner: Callable) -> VirtineFunction:
        snapshot_mask = VirtineConfig(
            allowed_mask=config.allowed_mask | Hypercall.SNAPSHOT.bit
        )
        return VirtineFunction(
            inner,
            policy_factory=lambda: BitmaskPolicy(snapshot_mask),
            **options,
        )

    return decorate
