"""Hypercall security policies.

"Virtines exist in a default-deny environment, so the hypervisor must
interpose on all such requests" (Section 2).  The virtine client selects
(or implements) a policy; Wasp consults it before dispatching every
hypercall.  The policies here correspond to the language-extension
keywords of Section 5.3:

* ``virtine``             -> :class:`DefaultDenyPolicy`
* ``virtine_permissive``  -> :class:`PermissivePolicy`
* ``virtine_config(cfg)`` -> :class:`BitmaskPolicy` built from a
  :class:`VirtineConfig` bitmask

plus :class:`OneShotPolicy`, the co-designed restriction used by the JS
engine of Section 6.5 ("snapshot and get_data cannot be called more than
once").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.wasp.hypercall import Hypercall

#: EXIT's mask bit, which every config permits.
_EXIT_BIT = Hypercall.EXIT.bit


class Policy:
    """Base policy: decides whether a hypercall number is permitted."""

    def allows(self, nr: Hypercall) -> bool:
        raise NotImplementedError

    def reset(self) -> None:
        """Clear per-invocation state (called when a virtine is launched)."""


class DefaultDenyPolicy(Policy):
    """Deny everything except exiting the virtual context.

    "By default, Wasp provides no externally observable behavior through
    hypercalls other than the ability to exit" (Section 5.1).
    """

    def allows(self, nr: Hypercall) -> bool:
        return nr is Hypercall.EXIT


class PermissivePolicy(Policy):
    """Allow every hypercall (the ``virtine_permissive`` keyword)."""

    def allows(self, nr: Hypercall) -> bool:
        return True


@dataclass(frozen=True)
class VirtineConfig:
    """The ``virtine_config(cfg)`` configuration structure.

    Carries "a bit mask of allowed hypercalls" (Section 5.3).  EXIT is
    always permitted regardless of the mask.
    """

    allowed_mask: int = 0

    @classmethod
    def allowing(cls, *nrs: Hypercall) -> "VirtineConfig":
        """Build a config permitting exactly ``nrs`` (plus EXIT)."""
        mask = 0
        for nr in nrs:
            mask |= nr.bit
        return cls(allowed_mask=mask)

    def allows(self, nr: Hypercall) -> bool:
        # ``>>`` takes the number as an index: no enum property per check.
        return bool((self.allowed_mask | _EXIT_BIT) >> nr & 1)


class BitmaskPolicy(Policy):
    """Policy driven by a :class:`VirtineConfig` bitmask."""

    def __init__(self, config: VirtineConfig) -> None:
        self.config = config
        # The config decides; bound here so each check is one call.
        self.allows = config.allows


class OneShotPolicy(Policy):
    """Wraps a policy, additionally limiting some hypercalls to one use.

    This implements the attack-surface narrowing of Section 6.5: once
    ``snapshot()`` and ``get_data()`` have each been used, "the only
    permitted hypercall would terminate the virtine."  The per-invocation
    use counts are cleared by :meth:`reset` at launch.
    """

    def __init__(self, inner: Policy, once: Iterable[Hypercall]) -> None:
        self.inner = inner
        self.once = frozenset(once)
        self._used: set[Hypercall] = set()

    def allows(self, nr: Hypercall) -> bool:
        if not self.inner.allows(nr):
            return False
        if nr in self.once:
            if nr in self._used:
                return False
            self._used.add(nr)
        return True

    def reset(self) -> None:
        self._used.clear()
        self.inner.reset()


class DynamicDisablePolicy(Policy):
    """A policy whose allowed set can be narrowed at runtime.

    Section 3.3 suggests "a mechanism that disables certain hypercalls
    dynamically when they are not needed by the runtime, further
    restricting the attack surface."  Disabled numbers stay disabled
    until re-enabled by the client; :meth:`reset` does not restore them
    (the narrowing is the client's deliberate choice, not per-invocation
    state).
    """

    def __init__(self, inner: Policy) -> None:
        self.inner = inner
        self._disabled: set[Hypercall] = set()

    def disable(self, nr: Hypercall) -> None:
        self._disabled.add(nr)

    def enable(self, nr: Hypercall) -> None:
        self._disabled.discard(nr)

    def allows(self, nr: Hypercall) -> bool:
        if nr in self._disabled:
            return False
        return self.inner.allows(nr)

    def reset(self) -> None:
        self.inner.reset()
