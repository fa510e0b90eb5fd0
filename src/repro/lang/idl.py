"""An interface definition language for hypercall services.

The paper notes that manual argument marshalling is error-prone and that
an IDL "like SGX's EDL" was in development (Section 2, footnote 2).
This module is that IDL: a virtine client *declares* the service surface
it exposes, and the declaration generates

* **host-side handlers** that validate every call against the declared
  types and bounds before touching the implementation (the Section 3.2
  requirement that handlers assume adversarial inputs),
* **guest-side stubs** that marshal arguments and issue the hypercall,
* a **least-privilege policy** covering exactly the interface.

All methods multiplex over the single ``INVOKE`` hypercall number with
the method name as the selector -- per-method permissions (including the
Section 6.5-style one-shot restriction) are enforced by the generated
dispatcher.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

from repro.wasp.hypercall import Hypercall, HypercallError, HypercallRequest
from repro.wasp.policy import BitmaskPolicy, Policy, VirtineConfig

_ALLOWED_TYPES = (int, float, bool, str, bytes)


class IdlError(Exception):
    """An ill-formed interface definition."""


@dataclass(frozen=True)
class Param:
    """One declared parameter."""

    name: str
    type: type
    #: Maximum length for str/bytes parameters (bounds are mandatory for
    #: variable-size types: unbounded adversarial input is rejected).
    max_len: int | None = None
    #: Inclusive range for int parameters.
    min_value: int | None = None
    max_value: int | None = None

    def __post_init__(self) -> None:
        if self.type not in _ALLOWED_TYPES:
            raise IdlError(f"parameter {self.name!r}: unsupported type {self.type!r}")
        if self.type in (str, bytes) and self.max_len is None:
            raise IdlError(
                f"parameter {self.name!r}: str/bytes parameters must declare max_len"
            )

    def validate(self, method: str, value: Any) -> None:
        if self.type is int and isinstance(value, bool):
            raise HypercallError(Hypercall.INVOKE, "EINVAL",
                                 f"{method}.{self.name}: expected int, got bool")
        if self.type is float and isinstance(value, int) and not isinstance(value, bool):
            return  # ints are acceptable floats
        if not isinstance(value, self.type):
            raise HypercallError(
                Hypercall.INVOKE, "EINVAL",
                f"{method}.{self.name}: expected {self.type.__name__}, "
                f"got {type(value).__name__}",
            )
        if self.max_len is not None and len(value) > self.max_len:
            raise HypercallError(
                Hypercall.INVOKE, "EMSGSIZE",
                f"{method}.{self.name}: length {len(value)} > {self.max_len}",
            )
        if self.type is int:
            if self.min_value is not None and value < self.min_value:
                raise HypercallError(Hypercall.INVOKE, "ERANGE",
                                     f"{method}.{self.name}: {value} < {self.min_value}")
            if self.max_value is not None and value > self.max_value:
                raise HypercallError(Hypercall.INVOKE, "ERANGE",
                                     f"{method}.{self.name}: {value} > {self.max_value}")


@dataclass(frozen=True)
class Method:
    """One declared service method."""

    name: str
    params: tuple[Param, ...]
    returns: type | None
    #: One-shot methods may be called at most once per virtine launch.
    once: bool = False


class Interface:
    """A declared hypercall service surface."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._methods: dict[str, Method] = {}

    def define(
        self,
        name: str,
        params: list[Param] | None = None,
        returns: type | None = None,
        once: bool = False,
    ) -> "Interface":
        """Declare a method (chainable)."""
        if name in self._methods:
            raise IdlError(f"method {name!r} already defined on {self.name!r}")
        if returns is not None and returns not in _ALLOWED_TYPES:
            raise IdlError(f"method {name!r}: unsupported return type {returns!r}")
        self._methods[name] = Method(
            name=name, params=tuple(params or ()), returns=returns, once=once
        )
        return self

    # -- host side -------------------------------------------------------------
    def handlers(self, implementations: dict[str, Callable]) -> dict[Hypercall, Callable]:
        """Generate the validated dispatcher for Wasp's handler table."""
        missing = set(self._methods) - set(implementations)
        if missing:
            raise IdlError(f"no implementation for: {sorted(missing)}")
        extra = set(implementations) - set(self._methods)
        if extra:
            raise IdlError(f"implementations not in interface: {sorted(extra)}")

        methods = self._methods

        def dispatch(request: HypercallRequest) -> Any:
            if not request.args or not isinstance(request.args[0], str):
                raise HypercallError(Hypercall.INVOKE, "EINVAL", "missing method selector")
            selector = request.args[0]
            method = methods.get(selector)
            if method is None:
                raise HypercallError(Hypercall.INVOKE, "ENOSYS",
                                     f"no method {selector!r} on {self.name!r}")
            args = request.args[1:]
            if len(args) != len(method.params):
                raise HypercallError(
                    Hypercall.INVOKE, "EINVAL",
                    f"{selector}: expected {len(method.params)} args, got {len(args)}",
                )
            for param, value in zip(method.params, args):
                param.validate(selector, value)
            if method.once:
                used = request.virtine.resources.setdefault("_idl_once_used", set())
                if selector in used:
                    raise HypercallError(Hypercall.INVOKE, "EPERM",
                                         f"{selector} is one-shot and was already called")
                used.add(selector)
            result = implementations[selector](*args)
            if method.returns is None:
                return None
            if method.returns is float and isinstance(result, int):
                result = float(result)
            if not isinstance(result, method.returns):
                raise HypercallError(
                    Hypercall.INVOKE, "EPROTO",
                    f"{selector}: implementation returned "
                    f"{type(result).__name__}, declared {method.returns.__name__}",
                )
            return result

        return {Hypercall.INVOKE: dispatch}

    # -- policy ---------------------------------------------------------------------
    def policy(self, *extra: Hypercall) -> Policy:
        """Least privilege: exactly INVOKE (+EXIT) plus ``extra``."""
        return BitmaskPolicy(VirtineConfig.allowing(Hypercall.INVOKE, *extra))

    # -- guest side --------------------------------------------------------------------
    def stubs(self, env) -> SimpleNamespace:
        """Generate guest-side stubs bound to a :class:`GuestEnv`.

        Each stub validates its own arguments (catching honest bugs in
        guest code early) and then issues the multiplexed hypercall; the
        host-side dispatcher re-validates (the guest is untrusted).
        """
        namespace = {}
        for method in self._methods.values():
            namespace[method.name] = self._make_stub(env, method)
        return SimpleNamespace(**namespace)

    @staticmethod
    def _make_stub(env, method: Method) -> Callable:
        def stub(*args: Any) -> Any:
            if len(args) != len(method.params):
                raise TypeError(
                    f"{method.name}() takes {len(method.params)} arguments "
                    f"({len(args)} given)"
                )
            for param, value in zip(method.params, args):
                param.validate(method.name, value)
            return env.hypercall(Hypercall.INVOKE, method.name, *args)

        stub.__name__ = method.name
        return stub
